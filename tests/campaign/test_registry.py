"""Registry completeness: every cell plan survives the wire format.

Campaigns, the CLI and the benchmarks all reach experiments through
:data:`repro.bench.CELL_PLANS`, so every planned cell must survive the
shard wire format (``to_dict``/``from_dict``) without changing identity,
and every plan must expand deterministically.
"""

from repro.bench import CELL_PLANS
from repro.runner import SweepCell, cache_key


def test_all_planned_cells_round_trip_the_wire_format():
    for name, producer in sorted(CELL_PLANS.items()):
        plan = producer()
        assert plan.cells, f"plan {name!r} expands to no cells"
        for cell in plan.cells:
            clone = SweepCell.from_dict(cell.to_dict())
            assert clone.to_dict() == cell.to_dict(), f"{name}: {cell.label}"
            assert cache_key(clone) == cache_key(cell), (
                f"{name}: wire format changes the cache key of {cell.label}"
            )


def test_plan_expansion_is_deterministic():
    for name, producer in sorted(CELL_PLANS.items()):
        a = [cache_key(c) for c in producer().cells]
        b = [cache_key(c) for c in producer().cells]
        assert a == b, f"plan {name!r} expands nondeterministically"
