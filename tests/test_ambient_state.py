"""Nothing outside the runner keeps process-global mutable state."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The runner's process-wide state is its own: the worker pool, the
#: batch counter and the environment signature.
ALLOWED_PACKAGE = "src/repro/runner/"


def test_no_global_statement_outside_runner():
    """Instruments and telemetry reach a simulation only as arguments; a
    ``global`` statement is how an ambient default would come back."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC.parent).as_posix()
        if name.startswith(ALLOWED_PACKAGE):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Global)]
        if lines:
            found[name] = lines
    assert found == {}
