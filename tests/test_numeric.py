"""Float sums on result and simulation paths fold left explicitly."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.numeric import left_sum

ROOT = Path(__file__).resolve().parents[1]
#: Production code and the reference oracles tests compare it against
#: bit for bit: both must fold the same way on every interpreter.
SCANNED = (ROOT / "src", ROOT / "tests" / "oracles")

#: Built-in ``sum()`` calls left in them, by file: integer counts, or
#: host wall times that no result digest includes.
ALLOWED_BUILTIN_SUMS = {
    "src/repro/bench/profile.py": 4,      # job, event and flow counts
    "src/repro/cli.py": 7,                # fault and arbiter report counts
    "src/repro/collectives/alltoall.py": 1,  # Bruck block count
    "src/repro/network/fabric.py": 1,     # group sizes
    "src/repro/runner/cache.py": 2,       # byte sizes, removal counts
    "src/repro/runner/cells.py": 3,       # link flow and transition counts
    "src/repro/runner/pool.py": 1,        # host wall times
    "src/repro/sim/session.py": 1,        # rank count of a profiled run
}


def test_left_sum_folds_left_from_integer_zero():
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum([1, 2, 3]) == 6
    assert left_sum([0.1] * 10) == 0.9999999999999999  # no compensation
    assert left_sum(iter([1e16, 1.0, -1e16])) == 0.0


def test_no_unlisted_builtin_sum():
    """A new float ``sum()`` on a result path, or in an oracle compared
    with one, would round differently on CPython 3.12; use
    :func:`repro.numeric.left_sum` (or list an integer sum above)."""
    found = {}
    for root in SCANNED:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            calls = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "sum"
            ]
            if calls:
                found[path.relative_to(ROOT).as_posix()] = len(calls)
    assert found == ALLOWED_BUILTIN_SUMS
