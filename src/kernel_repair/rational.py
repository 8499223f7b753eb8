"""Small helpers for exact rational arithmetic.

All coordinates, distances, and masses in this package are exact
``fractions.Fraction`` values.  Floats are accepted at API boundaries and
converted to their exact binary value; decimal strings such as ``"0.3"`` or
``"3/10"`` convert to the exact decimal/rational they denote.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def as_fraction(x) -> Fraction:
    """Convert ``x`` to an exact Fraction.

    Accepts int, Fraction, str ("0.3", "3/10", "-1/2"), and finite float
    (converted to its exact binary value, not rounded to decimal).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            raise DomainError(f"cannot convert {x!r} to an exact rational")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational literal: {x!r}") from exc
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def frac_str(x) -> str:
    """Canonical string form used in files and reports ("3/10", "1", "inf")."""
    # a Fraction is never infinite; comparing it with a float is slow
    if type(x) is Fraction:
        return str(x)
    if x == math.inf:
        return "inf"
    f = as_fraction(x)
    return str(f)


def _capped(steps, cap: int) -> int:
    """The product of ``factor / divisor`` over the steps, or a number past the cap.

    Every partial product must be a whole number, so each division is exact.
    The product stops at the first partial one that is 0 or past ``cap``, so
    a huge count of steps costs only the steps up to there; where no later
    step shrinks it, the whole is past the cap too.
    """
    count = 1
    for factor, divisor in steps:
        count = count * factor // divisor
        if count == 0 or count > cap:
            break
    return count
