"""Exception types shared by all chainbath modules."""


class ChainBathError(Exception):
    """Base class for all library-specific errors."""


class NonincreasingSpectrum(ChainBathError, ValueError):
    """Bath frequencies are not strictly increasing."""


class NonpositiveParameter(ChainBathError, ValueError):
    """A frequency, coupling, or temperature is not positive, or not of a size float64 holds."""


class Breakdown(ChainBathError):
    """Chain construction broke down: an intermediate coupling is numerically
    zero, i.e. the spectrum/coupling combination is effectively reducible."""


class DimensionMismatch(ChainBathError, ValueError):
    """Array dimensions of related objects disagree."""


class IndexOutOfRange(ChainBathError, IndexError):
    """A mode or minor index lies outside [0, N]."""


def check_index(i: int, hi: int, what: str, lo: int = 0) -> None:
    """Raise IndexOutOfRange unless lo <= i <= hi."""
    if not lo <= i <= hi:
        raise IndexOutOfRange(f"{what} {i} outside [{lo}, {hi}]")


class UnstableMode(ChainBathError):
    """The evolution matrix has a non-positive eigenvalue (outside the
    oscillatory regime)."""


class ComplexResolvent(ChainBathError):
    """The lower resolvent frequency is not real (coupling too strong:
    D >= Omega*Omega_1)."""


class GridTooCoarse(ChainBathError):
    """The sample grid is too coarse for the requested quadrature accuracy."""
