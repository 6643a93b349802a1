"""Exception types of the numerical failures that callers tell apart, and
the one range check.

Bad input, a value outside what a function accepts, raises ValueError
throughout the library; a number or a size outside its interval is refused
by `check_range`, in one form.  The types below name the numerical failures
that the command line maps to their own exit codes: `Breakdown` (3) and
`UnstableMode` (4).
"""

import math
import numbers

# the least positive float: [POSITIVE, hi] is (0, hi]
POSITIVE = math.ulp(0.0)


class ChainBathError(Exception):
    """Base class of the numerical failures."""


class Breakdown(ChainBathError):
    """Chain construction broke down: an intermediate coupling is numerically
    zero, i.e. the spectrum/coupling combination is effectively reducible."""


class UnstableMode(ChainBathError):
    """Outside the oscillatory regime: the evolution matrix has a
    non-positive eigenvalue, or the lower resolvent frequency is not real
    (D0 >= Omega0*Omega1)."""


def _exact(x) -> str:
    """An integer as an integer, any other number as the shortest decimal
    that reads back as the same float."""
    return str(int(x)) if isinstance(x, numbers.Integral) else repr(float(x))


def check_range(value, lo, hi, name) -> None:
    """Raise ValueError naming `name` unless lo <= value <= hi, or for a list
    unless lo <= its length <= hi; NaN fails.  The message prints the bounds
    and the value exactly, so a refused value never reads as inside them."""
    size, what = (len(value), "have a length") if isinstance(value, list) else (value, "lie")
    if not lo <= size <= hi:
        raise ValueError(f"{name} must {what} within [{_exact(lo)}, {_exact(hi)}], "
                         f"not {_exact(size)}")
