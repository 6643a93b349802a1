"""Truncation-error functionals and their certified upper bounds.

The error of cutting the chain after mode n is the trajectory difference
|x - x_(n)|; through the Volterra picture it splits into eps1, the
tail's first reach into the system, and eps2, that reach's resolvent
correction (test oracles, in `tests/oracles.py`).  The deterministic bound is

    eps(n, t) <= sum_k |P_n(omega_k^2)| (|q_k(0)| + |qdot_k(0)|/omega_k)
                 * t^(2n+2) * [ cosh(t sqrt(S_n)) / (2n+2)!
                              + D0^2 t^4 cosh(t sqrt(Omega0^2 + Omega1^2 + S_n)) / (2n+6)! ]

with S_n = sum_{i=0}^n Omega_i^2 (system frequency included) and P_n the
leading-principal-minor polynomial of the chain matrix.  Averaging over a
classical thermal bath state replaces the initial-data factor with
sqrt(8 kT / pi) * sum_k |P_n(omega_k^2)| / omega_k.  Inverting the thermal
bound over n gives the minimal chain length certified for a target error at
a target time.

Both are evaluated in log space: one run of the minors' recurrence, rescaled
by exact powers of two, gives every n's weight sum without overflow, and the
bracket takes lgamma for the factorials.  A bound is finite, or inf above
float64's range, never NaN; `min_modes` reads every n from one pass.

The cut at n = N is the bath itself: x_N is x, so both bounds are exactly 0
there, without reading the chain, and `min_modes` returns N when no shorter
cut meets its tolerance.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import InitialState
from .errors import POSITIVE, check_range
from .spectral import ChainModel, IOModel


@dataclass(frozen=True)
class ThermalState:
    """Classical thermal bath state; kT in energy units (k_B absorbed)."""

    kT: float

    def __post_init__(self):
        check_range(self.kT, POSITIVE, sys.float_info.max, "kT")


def _log_weight_sums(io: IOModel, chain: ChainModel, u):
    """log sum_k |P_n(omega_k^2)| u_k, n = 0..N (-inf for a zero sum), by
    P_{m+1} = (Omega_{m+1}^2 - x) P_m - D_m^2 P_{m-1}, P_0 = 1, scaled by
    powers of two that `shift` sums: bitwise the unscaled P times 2^-shift."""
    lam = io.omega**2
    p_prev, p = np.zeros_like(lam), np.ones_like(lam)
    shift = 0
    for m in range(chain.N + 1):
        s = float(np.sum(np.abs(p) * u))
        yield (math.log(s) if s > 0 else -math.inf) + shift * math.log(2.0)
        if m < chain.N:
            # scalar squares: an array's differ in the last bit
            d2 = chain.D[m - 1] ** 2 if m >= 1 else 0.0
            p, p_prev = (chain.Omega[m] ** 2 - lam) * p - d2 * p_prev, p
            e = math.frexp(max(np.abs(p).max(), np.abs(p_prev).max()))[1]
            p, p_prev = np.ldexp(p, -e), np.ldexp(p_prev, -e)
            shift += e


def _bound(chain: ChainModel, n: int, t, log_s):
    """The bound of the module docstring for the weight sum exp(log_s)."""
    t = np.asarray(t, dtype=float)
    s_n = chain.Omega0**2 + np.sum(chain.Omega[:n] ** 2)
    with np.errstate(divide="ignore", over="ignore"):
        z1 = t * math.sqrt(s_n)
        z2 = t * math.sqrt(chain.Omega0**2 + chain.Omega[0] ** 2 + s_n)
        log_t = np.log(np.abs(t))  # the bound is even in t
        out = np.exp(log_s + (2 * n + 2) * log_t - math.log(2.0) + np.logaddexp(
            np.logaddexp(z1, -z1) - math.lgamma(2 * n + 3),
            2 * math.log(chain.D0) + 4 * log_t + np.logaddexp(z2, -z2) - math.lgamma(2 * n + 7)))
    return out if out.ndim else float(out)


def _bound_at(io: IOModel, chain: ChainModel, n: int, t, u):
    """The bound at cut n for the bath weights u: exactly 0 at n = N."""
    if n == io.N:
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
    check_range(n, 0, chain.N, "truncation index")
    return _bound(chain, n, t, next(itertools.islice(_log_weight_sums(io, chain, u), n, None)))


def _thermal_weights(io: IOModel, th: ThermalState):
    """The thermal bath weights sqrt(8 kT / pi) / omega_k."""
    return math.sqrt(8 * th.kT / math.pi) / io.omega


def bound_deterministic(io: IOModel, chain: ChainModel, n: int, t,
                        init: InitialState):
    """Deterministic truncation-error bound for given bath initial data.

    t may be a scalar or an array; the return matches.
    """
    return _bound_at(io, chain, n, t, np.abs(init.q0) + np.abs(init.qdot0) / io.omega)


def bound_thermal(io: IOModel, chain: ChainModel, n: int, t, th: ThermalState):
    """Bound on the thermally averaged truncation error.

    sqrt(8 kT / pi) * sum_k |P_n(omega_k^2)|/omega_k replaces the
    initial-data factor of the deterministic bound; scales as sqrt(kT).
    """
    return _bound_at(io, chain, n, t, _thermal_weights(io, th))


def sample_thermal(io: IOModel, th: ThermalState, seed) -> InitialState:
    """One draw from the uncoupled-bath thermal state.

    q_k(0) ~ Normal(0, kT/omega_k^2), qdot_k(0) ~ Normal(0, kT), independent;
    system data are zero (the averaged bound applies to the bath state).
    Deterministic in the seed: positions are drawn first, then velocities,
    and both scale exactly as sqrt(kT) for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    root_kt = math.sqrt(th.kT)
    q0 = (root_kt / io.omega) * rng.standard_normal(io.N)
    qdot0 = root_kt * rng.standard_normal(io.N)
    return InitialState(q0=q0, qdot0=qdot0, x0=0.0, xdot0=0.0)


def min_modes(io: IOModel, chain: ChainModel, t: float, tol: float,
              th: ThermalState) -> int:
    """Smallest n whose thermal bound at time t is within tol, from one pass
    over the cuts n < N of the full `chain`; N when none of them is.

    t must lie within [0, max float] (the bound is even in t) and tol
    within (0, max float]: `errors.check_range` refuses any other, NaN too.
    """
    check_range(t, 0.0, sys.float_info.max, "t")
    check_range(tol, POSITIVE, sys.float_info.max, "tol")
    for n, log_s in zip(range(io.N), _log_weight_sums(io, chain, _thermal_weights(io, th))):
        if _bound(chain, n, t, log_s) <= tol:
            return n
    return io.N
