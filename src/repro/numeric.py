"""Float folds whose result does not depend on the interpreter.

CPython 3.12 made the built-in ``sum()`` compensated over floats, so the
same additions can round differently on 3.11 and 3.12.  Every float sum
on a result or simulation path goes through :func:`left_sum` instead: a
plain left fold, the order and rounding ``sum()`` has on 3.11.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]):
    """``values`` added left to right with plain ``+``, starting from the
    integer 0 as ``sum()`` does (so an empty sum is ``0``)."""
    total = 0
    for value in values:
        total += value
    return total
