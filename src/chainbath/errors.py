"""Exception types of the numerical failures that callers tell apart.

Bad input, a value outside what a function accepts, raises ValueError
throughout the library.  The types below name the numerical failures that
the command line maps to their own exit codes: `Breakdown` (3) and
`UnstableMode` and `ComplexResolvent` (4).
"""


class ChainBathError(Exception):
    """Base class of the numerical failures."""


class Breakdown(ChainBathError):
    """Chain construction broke down: an intermediate coupling is numerically
    zero, i.e. the spectrum/coupling combination is effectively reducible."""


class UnstableMode(ChainBathError):
    """The evolution matrix has a non-positive eigenvalue (outside the
    oscillatory regime)."""


class ComplexResolvent(ChainBathError):
    """The lower resolvent frequency is not real (coupling too strong:
    D >= Omega*Omega_1)."""


def check_index(i: int, hi: int, what: str, lo: int = 0) -> None:
    """Raise ValueError unless lo <= i <= hi."""
    if not lo <= i <= hi:
        raise ValueError(f"{what} {i} outside [{lo}, {hi}]")
