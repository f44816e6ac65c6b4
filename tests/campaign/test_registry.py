"""Registry completeness: every cell plan expands, deterministically.

Campaigns, the CLI and the benchmarks all reach experiments through
:data:`repro.bench.CELL_PLANS`, so every plan must expand to cells, and
to the same cells every time.
"""

from repro.bench import CELL_PLANS
from repro.runner import cache_key


def test_plan_expansion_is_deterministic():
    for name, producer in sorted(CELL_PLANS.items()):
        a = [cache_key(c) for c in producer().cells]
        b = [cache_key(c) for c in producer().cells]
        assert a, f"plan {name!r} expands to no cells"
        assert a == b, f"plan {name!r} expands nondeterministically"
