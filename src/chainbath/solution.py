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
distinct frequencies.  Given the second chain mode's trajectory, the
untruncated source is two levels deep: `volterra_source`.

Because K_1 is a two-sine kernel the equation solves in closed form with the
resolvent kernel

    R(tau) = D0^2 [mu2 sin(mu1 tau) - mu1 sin(mu2 tau)] / (mu1 mu2 (mu2^2 - mu1^2)),

where mu_{1,2}^2 = (Omega0^2 + Omega1^2 +- sqrt(Delta))/2 and
Delta = (Omega0^2 - Omega1^2)^2 + 4 D0^2.  (Laplace analysis fixes the +4D0^2:
the resolvent poles must satisfy mu1^2 mu2^2 = Omega0^2 Omega1^2 - D0^2, and
the closed solution then reproduces the exact dynamics to quadrature
precision.)  Both mu are real iff Omega0 Omega1 > D0.  R is D0^2/(mu1 mu2)
times the nested two-sine kernel sin(mu1 .) * sin(mu2 .), so the solve is
one more two-level cascade, with no 1/(mu2^2 - mu1^2) to cancel: coincident
resolvent frequencies (a weakly coupled resonant bath) need no special case.

The closed-form kernels, the partial-fraction resolvent, the level-n
ladder and source from injected trajectories and a marching solver that
the tests check this against are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import InitialState, extended_initial_conditions, sample
from .errors import POSITIVE, UnstableMode, check_range
from .kernels import convolve_on_grid
from .spectral import ChainModel


@dataclass(frozen=True)
class VolterraParams:
    """Resolvent frequencies mu1 >= mu2 >= 0 and the coupling D0 of the
    closed solution of the system's integral equation; mu2 is 0 only where
    rounding loses it, one of Omega0 and Omega1 about 1e8 times the other."""

    mu1: float
    mu2: float
    D0: float


def mu_delta(Omega0: float, Omega1: float, D0: float) -> VolterraParams:
    """Resolvent frequencies of the closed Volterra solution.

    Raises ValueError, naming the parameter, unless each is above 0 (NaN is
    not), and UnstableMode when D0 >= Omega0*Omega1 (the lower frequency
    would not be real).
    """
    for name, value in (("Omega0", Omega0), ("Omega1", Omega1), ("D0", D0)):
        check_range(value, POSITIVE, np.inf, name)
    if D0 >= Omega0 * Omega1:
        raise UnstableMode(
            f"D0 = {D0:g} >= Omega0*Omega1 = {Omega0 * Omega1:g}; "
            "lower resolvent frequency is not real"
        )
    s = Omega0**2 + Omega1**2
    root = np.sqrt((Omega0**2 - Omega1**2) ** 2 + 4 * D0**2)
    return VolterraParams(
        mu1=float(np.sqrt((s + root) / 2)),
        mu2=float(np.sqrt((s - root) / 2)),
        D0=float(D0),
    )


def nested_convolve(freqs, hs, times) -> np.ndarray:
    """sum_j K_j * h_j on the grid, with K_j the nested kernel of
    freqs[:j+1] and hs[j] sampled on `times`.

    Horner nesting S_0 * (h_0 + S_1 * (h_1 + ... + S_n * h_n)), each
    S_j * g = int_0^t sin(freqs[j] (t-s)) g(s) ds one convolve_on_grid call.
    """
    acc = np.zeros(len(times))
    for w, h in zip(freqs[::-1], hs[::-1]):
        acc = convolve_on_grid(w, h + acc, times)
    return acc


def volterra_source(chain: ChainModel, init: InitialState, O, times, x2=None) -> np.ndarray:
    """The untruncated source F_N of the system's Volterra equation on `times`,

        F_N = f_0 + S_0 * (p_1 f_1 + S_1 * (p_2 X_2)),

    with f_i the free evolution of mode i from its initial data (the two
    rows of one diagonal modal sum), p_1 = D0/Omega0, p_2 = p_1 D_1/Omega_1
    and `x2` the samples of X_2 from the full evolution: one two-level
    cascade.  With no X_2 (a one-mode bath, where D_1 = 0) the cascade is
    one level deep.  Reads only Omega_1, D_1 and the first row of the map
    O, so a cut chain serves.
    """
    times = np.asarray(times, dtype=float)
    freqs = chain.mode_freqs
    y0, ydot0 = extended_initial_conditions(O, init, 1)
    f0, f1 = sample((freqs[:2], np.eye(2), y0, ydot0 / freqs[:2], y0), times)
    p1 = chain.D0 / freqs[0]
    hs = [p1 * f1]
    if x2 is not None:
        hs.append(p1 * (chain.D[0] / freqs[1]) * np.asarray(x2, dtype=float))
    return f0 + nested_convolve(freqs[: len(hs)], hs, times)


def solve_volterra_closed(params: VolterraParams, F, times) -> np.ndarray:
    """Closed solution x = F + R * F, with R = D0^2/(mu1 mu2) times the
    nested kernel sin(mu1 .) * sin(mu2 .): one two-level cascade on the
    samples of F on `times`.
    """
    F = np.asarray(F, dtype=float)
    # inf, with a numpy warning, where rounding left mu2 at 0: a caller that
    # measures its residual sees the run fail
    pref = np.divide(params.D0**2, params.mu1 * params.mu2)
    return F + nested_convolve([params.mu1, params.mu2], [0.0, pref * F], times)
