"""Canonical and random bath instances.

The underlying theory fixes no concrete spectrum, so desk-scale runs use
parametric families (linear or geometric frequency ladders with a power-law
coupling profile) or seeded random instances.  A random instance is one
draw whose couplings are scaled once into the regime every downstream
operation assumes: sum c_k^2/omega_k^2 <= 0.95 Omega0^2 (the Schur
complement: positive-definite dynamics) and D0 = ||c|| <= 0.95 Omega0
Omega1 (real resolvent frequencies), where the scale does not move
Omega1^2 = sum c_k^2 omega_k^2 / sum c_k^2.
"""

from __future__ import annotations

import numpy as np

from .dynamics import InitialState
from .errors import POSITIVE, check_range
from .spectral import SCALE, IOModel, build_io_model

# share of each regime limit a random instance may reach
MARGIN = 0.95
RANGE = (SCALE[0] ** 0.5, SCALE[1] ** 0.5)  # where the scaling's (sum c^2)^2 is finite


def linear_spectrum(N: int, omega_min: float, omega_max: float) -> np.ndarray:
    """Equally spaced bath frequencies on [omega_min, omega_max]."""
    with np.errstate(all="ignore"):  # build_io_model refuses an inf or NaN omega_k
        return np.linspace(omega_min, omega_max, N)


def geometric_spectrum(N: int, omega_min: float, omega_max: float) -> np.ndarray:
    """Geometrically spaced bath frequencies on [omega_min, omega_max]."""
    check_range(omega_min, POSITIVE, np.inf, "omega_min")
    check_range(omega_max, POSITIVE, np.inf, "omega_max")
    with np.errstate(all="ignore"):  # build_io_model refuses an inf or NaN omega_k
        return np.geomspace(omega_min, omega_max, N)


def coupling_profile(omega, c0: float, power: float = 0.0) -> np.ndarray:
    """Power-law couplings c_k = c0 * (omega_k / omega_1)^power."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(all="ignore"):  # build_io_model refuses an inf or NaN c_k
        return c0 * (omega / omega[0]) ** power


def random_io_model(rng: np.random.Generator, N: int,
                    omega_range=(0.5, 3.0), c_range=(0.1, 1.0),
                    Omega0_range=(0.8, 2.0)) -> IOModel:
    """Seeded random bath inside the assumed regime, in O(N): sorted uniform
    omega, uniform c and Omega0, with c then scaled down, when it must be,
    by the largest factor that keeps both limits of the module docstring.
    Each range is a pair lo <= hi within `RANGE`."""
    for name, (lo, hi) in (("omega_range", omega_range), ("c_range", c_range),
                           ("Omega0_range", Omega0_range)):
        check_range(lo, *RANGE, f"{name}[0]")
        check_range(hi, lo, RANGE[1], f"{name}[1]")
    omega = np.sort(rng.uniform(*omega_range, N))
    c = rng.uniform(*c_range, N)
    Omega0 = rng.uniform(*Omega0_range)
    c2 = c * c
    # s^2 sum c^2/omega^2 <= MARGIN Omega0^2 and s^2 ||c||^2 <= (MARGIN Omega0 Omega1)^2
    s2 = min(1.0, MARGIN * Omega0**2 / np.sum(c2 / omega**2),
             (MARGIN * Omega0) ** 2 * np.sum(c2 * omega**2) / c2.sum() ** 2)
    return build_io_model(omega, c * np.sqrt(s2), Omega0)


def random_initial_state(rng: np.random.Generator, N: int, scale: float = 1.0) -> InitialState:
    """Uniform(-scale, scale) bath and system initial data, 0 <= scale <= SCALE[1]."""
    check_range(scale, 0.0, SCALE[1], "scale")
    q0 = rng.uniform(-scale, scale, N)
    qdot0 = rng.uniform(-scale, scale, N)
    x0 = rng.uniform(-scale, scale)
    return InitialState(q0=q0, qdot0=qdot0, x0=x0, xdot0=rng.uniform(-scale, scale))
