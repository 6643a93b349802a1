"""Canonical and random bath instances.

The underlying theory fixes no concrete spectrum, so desk-scale runs use
parametric families (linear or geometric frequency ladders with a power-law
coupling profile) or seeded random instances.  Random instances are
post-processed to sit inside the regime every downstream operation assumes:
extended matrix positive definite (oscillatory), D0 < Omega0*Omega1 (real
resolvent frequencies), and pairwise-distinct mode frequencies (closed-form
kernels).
"""

from __future__ import annotations

import numpy as np

from .dynamics import InitialState, assemble_io_matrix
from .kernels import sq_freq_gap
from .spectral import IOModel, build_io_model, chain_from_io


def linear_spectrum(N: int, omega_min: float, omega_max: float) -> np.ndarray:
    """Equally spaced bath frequencies on [omega_min, omega_max]."""
    if N == 1:
        return np.array([omega_min], dtype=float)
    return np.linspace(omega_min, omega_max, N)


def geometric_spectrum(N: int, omega_min: float, omega_max: float) -> np.ndarray:
    """Geometrically spaced bath frequencies on [omega_min, omega_max]."""
    if N == 1:
        return np.array([omega_min], dtype=float)
    return np.geomspace(omega_min, omega_max, N)


def coupling_profile(omega, c0: float, power: float = 0.0) -> np.ndarray:
    """Power-law couplings c_k = c0 * (omega_k / omega_1)^power."""
    omega = np.asarray(omega, dtype=float)
    return c0 * (omega / omega[0]) ** power


def instance_ok(io: IOModel, chain, margin: float = 0.05) -> bool:
    """True when the instance sits inside the assumed regime."""
    eig = np.linalg.eigvalsh(assemble_io_matrix(io))
    if eig.min() <= margin * eig.max() * 1e-3:
        return False
    if chain.D0 >= (1.0 - margin) * chain.Omega0 * chain.Omega[0]:
        return False
    return sq_freq_gap(chain.mode_freqs) > 1e-6


def random_io_model(rng: np.random.Generator, N: int,
                    omega_range=(0.5, 3.0), c_range=(0.1, 1.0),
                    Omega0_range=(0.8, 2.0), max_tries: int = 200):
    """Seeded random instance (io, chain, map) inside the assumed regime.

    Frequencies are sorted uniform draws with a minimum relative gap;
    couplings are scaled down when a draw lands too close to instability.
    """
    lo, hi = omega_range
    for _ in range(max_tries):
        omega = np.sort(rng.uniform(lo, hi, N))
        if N > 1 and np.min(np.diff(omega)) < 0.02 * (hi - lo) / N:
            continue
        c = rng.uniform(*c_range, N)
        Omega0 = rng.uniform(*Omega0_range)
        for _ in range(8):
            io = build_io_model(omega, c, Omega0)
            chain, omap = chain_from_io(io)
            if instance_ok(io, chain):
                return io, chain, omap
            c = 0.6 * c  # weaker coupling: same chain up to D0, more stable
        # fall through: redraw the spectrum
    raise RuntimeError(f"no admissible instance found in {max_tries} tries")


def random_initial_state(rng: np.random.Generator, N: int, scale: float = 1.0) -> InitialState:
    """Uniform(-scale, scale) bath and system initial data."""
    q0 = rng.uniform(-scale, scale, N)
    qdot0 = rng.uniform(-scale, scale, N)
    x0 = rng.uniform(-scale, scale)
    return InitialState(q0=q0, qdot0=qdot0, x0=x0, xdot0=rng.uniform(-scale, scale))
