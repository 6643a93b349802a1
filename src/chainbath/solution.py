"""Reduced description of the system coordinate.

Substituting the chain-mode equations into the system equation turns the
dynamics into a Volterra equation of the second kind,

    x(t) = (D0^2 / (Omega0 Omega1)) int_0^t K_1(t-s) x(s) ds + F(t),

whose source F collects everything independent of x: the free-mode ladder
f-tilde plus convolutions of higher kernels with the chain trajectories.
Every term of F is a nested kernel K_j = K_{j-1} * sin(Omega_j .) convolved
with a sampled signal, so the whole source is one weighted sum
sum_j K_j * h_j, which `nested_convolve` evaluates by the Horner nesting

    S_0 * (h_0 + S_1 * (h_1 + ... + S_n * h_n)),
    S_j * g = int_0^t sin(Omega_j (t-s)) g(s) ds.

Each S_j is one single-sine grid convolution, so a level-n source costs
n+1 of them, has no partial-fraction coefficients to cancel, and needs no
distinct frequencies.

Because K_1 is a two-sine kernel the equation solves in closed form with the
resolvent kernel

    R(tau) = D0^2 [mu2 sin(mu1 tau) - mu1 sin(mu2 tau)] / (mu1 mu2 (mu2^2 - mu1^2)),

where mu_{1,2}^2 = (Omega0^2 + Omega1^2 +- sqrt(Delta))/2 and
Delta = (Omega0^2 - Omega1^2)^2 + 4 D0^2.  (Laplace analysis fixes the +4D0^2:
the resolvent poles must satisfy mu1^2 mu2^2 = Omega0^2 Omega1^2 - D0^2, and
the closed solution then reproduces the exact dynamics to quadrature
precision.)  Both mu are real and distinct iff Omega0 Omega1 > D0.

The closed-form kernels, the level-n source from injected trajectories and
a marching solver that the tests check this against are in
`tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import InitialState, extended_initial_conditions, free_mode_evolution
from .errors import (
    ComplexResolvent,
    DegenerateResolvent,
    DimensionMismatch,
    NonpositiveParameter,
    check_index,
)
from .kernels import convolve_on_grid
from .spectral import ChainModel, OrthogonalMap


@dataclass(frozen=True)
class VolterraParams:
    """Resolvent frequencies mu1 > mu2 > 0 and discriminant for the closed
    solution of the system's integral equation."""

    mu1: float
    mu2: float
    Delta: float
    Omega0: float
    Omega1: float
    D0: float


def mu_delta(Omega0: float, Omega1: float, D0: float) -> VolterraParams:
    """Resolvent frequencies of the closed Volterra solution.

    Raises ComplexResolvent when D0 >= Omega0*Omega1 (the lower frequency
    would not be real) and DegenerateResolvent when the two frequencies
    coincide to rounding.
    """
    if Omega0 <= 0 or Omega1 <= 0 or D0 <= 0:
        raise NonpositiveParameter("Omega0, Omega1 and D0 must be positive")
    s = Omega0**2 + Omega1**2
    Delta = (Omega0**2 - Omega1**2) ** 2 + 4 * D0**2
    if D0 >= Omega0 * Omega1:
        raise ComplexResolvent(
            f"D0 = {D0:g} >= Omega0*Omega1 = {Omega0 * Omega1:g}; "
            "lower resolvent frequency is not real"
        )
    if Delta < 1e-12 * s**2:
        raise DegenerateResolvent("resolvent frequencies coincide to rounding")
    root = np.sqrt(Delta)
    return VolterraParams(
        mu1=float(np.sqrt((s + root) / 2)),
        mu2=float(np.sqrt((s - root) / 2)),
        Delta=float(Delta),
        Omega0=float(Omega0),
        Omega1=float(Omega1),
        D0=float(D0),
    )


def resolvent_series(params: VolterraParams):
    """Sine-series (freqs, coeffs) of the resolvent kernel R."""
    m1, m2, D = params.mu1, params.mu2, params.D0
    pref = D**2 / (m1 * m2 * (m2**2 - m1**2))
    return np.array([m1, m2]), np.array([pref * m2, -pref * m1])


def coupling(chain: ChainModel, l: int) -> float:
    """D_l with the boundary conventions: D_0 is the system coupling and
    D_N = 0 terminates sums."""
    check_index(l, chain.N, "coupling index")
    if l == 0:
        return chain.D0
    if l == chain.N:
        return 0.0
    return float(chain.D[l - 1])


def coupling_products(chain: ChainModel, n: int) -> np.ndarray:
    """p_i = prod_{l<i} D_l/Omega_l for i = 0..n+1 (p_0 = 1); p_{N+1} = 0
    because D_N = 0."""
    freqs = chain.mode_freqs
    ratios = [coupling(chain, l) / freqs[l] for l in range(n + 1)]
    return np.concatenate([[1.0], np.cumprod(ratios)])


def _check_level(chain: ChainModel, n: int, omap: OrthogonalMap) -> None:
    """Range check of a level n that reads n = chain.N as the untruncated
    chain.  A map cut by `chain_from_io(io, rows=k)` gives a chain with
    N = k whose level k is not untruncated: DimensionMismatch there."""
    check_index(n, chain.N, "level")
    if n == chain.N and omap.is_cut:
        raise DimensionMismatch(
            f"level {n} ends a chain cut at {omap.N} of {omap.O.shape[1]} modes, "
            "not the untruncated chain; build the full map")


def nested_convolve(freqs, hs, times) -> np.ndarray:
    """sum_j K_j * h_j on the grid, with K_j the nested kernel of
    freqs[:j+1] and hs[j] sampled on `times`.

    Horner nesting S_0 * (h_0 + S_1 * (h_1 + ... + S_n * h_n)), each
    S_j * g = int_0^t sin(freqs[j] (t-s)) g(s) ds one convolve_on_grid call.
    """
    acc = np.zeros(len(times))
    for w, h in zip(freqs[::-1], hs[::-1]):
        acc = convolve_on_grid([w], [1.0], h + acc, times)
    return acc


def _free_ladder(chain: ChainModel, n: int, init: InitialState,
                 omap: OrthogonalMap, times):
    """(f_0, hs) with f-tilde_n = f_0 + nested_convolve(freqs[:n+1], hs, times):
    hs[j] = p_{j+1} f_{j+1} for j < n and hs[n] = 0, where f_i is the free
    evolution of mode i from its initial data."""
    freqs = chain.mode_freqs
    p = coupling_products(chain, n)
    y0, ydot0 = extended_initial_conditions(omap, init, n)
    f = np.array([free_mode_evolution(freqs[i], y0[i], ydot0[i], times)
                  for i in range(n + 1)])
    hs = np.zeros_like(f)
    hs[:-1] = p[1:-1, None] * f[1:]
    return f[0], hs


def free_source_series(chain: ChainModel, n: int, init: InitialState,
                       omap: OrthogonalMap, times) -> np.ndarray:
    """The ladder f-tilde_n sampled on `times`.

    f-tilde_0 = f_0 and
    f-tilde_i = f-tilde_{i-1} + (prod_{l<i} D_l/Omega_l) K_{i-1} * f_i,
    where f_i is the free evolution of mode i from its initial data.
    """
    _check_level(chain, n, omap)
    times = np.asarray(times, dtype=float)
    f0, hs = _free_ladder(chain, n, init, omap, times)
    # hs[n] = 0: the top level adds nothing, and is not convolved
    return f0 + nested_convolve(chain.mode_freqs[:n], hs[:-1], times)


def solve_volterra_closed(params: VolterraParams, F, times) -> np.ndarray:
    """Closed solution x = F + R * F with the two-sine resolvent kernel.

    F is sampled on `times`; the convolution uses the same Lagrange +
    Gauss-Legendre machinery as the source construction.
    """
    freqs, coeffs = resolvent_series(params)
    F = np.asarray(F, dtype=float)
    return F + convolve_on_grid(freqs, coeffs, F, times)
