"""Truncation-error functionals and their certified upper bounds.

The error of cutting the chain after mode n decomposes through the Volterra
picture: eps1 is the direct source difference (the tail's first reach into
the system), eps2 its resolvent correction, and the empirical error is the
trajectory difference |x - x_(n)|.  The deterministic bound is

    eps(n, t) <= sum_k |P_n(omega_k^2)| (|q_k(0)| + |qdot_k(0)|/omega_k)
                 * t^(2n+2) * [ cosh(t sqrt(S_n)) / (2n+2)!
                              + D0^2 t^4 cosh(t sqrt(Omega0^2 + Omega1^2 + S_n)) / (2n+6)! ]

with S_n = sum_{i=0}^n Omega_i^2 (system frequency included) and P_n the
leading-principal-minor polynomial of the chain matrix.  Averaging over a
classical thermal bath state replaces the initial-data factor with
sqrt(8 kT / pi) * sum_k |P_n(omega_k^2)| / omega_k.  Inverting the thermal
bound over n gives the minimal chain length certified for a target error at
a target time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dynamics import (
    InitialState,
    Trajectory,
    _modal_data,
    _modal_row,
    assemble_extended_matrix,
    evolve_truncated_x,
    extended_initial_conditions,
    system_response,
)
from .errors import DimensionMismatch, GridMismatch, NonpositiveParameter, check_index
from .kernels import check_grid, convolve_on_grid, kernel_taylor
from .solution import VolterraParams, coupling_products, nested_convolve, resolvent_series
from .spectral import ChainModel, IOModel, OrthogonalMap, char_poly_eval


@dataclass(frozen=True)
class ThermalState:
    """Classical thermal bath state; kT in energy units (k_B absorbed)."""

    kT: float

    def __post_init__(self):
        if not (self.kT > 0 and np.isfinite(self.kT)):
            raise NonpositiveParameter("kT must be positive and finite")

    @property
    def beta(self) -> float:
        return 1.0 / self.kT


@dataclass(frozen=True)
class ErrorReport:
    """Per-time-sample truncation-error data for one truncation index."""

    n: int
    times: np.ndarray
    eps_empirical: np.ndarray
    bound_det: np.ndarray
    bound_thermal: np.ndarray | None
    slope_smallt: float


@dataclass(frozen=True)
class MinModesResult:
    """Smallest certified truncation index; certified=False means even the
    full chain's (rounding-level) bound exceeded the tolerance."""

    n: int
    certified: bool
    bound: float


def epsilon_empirical(full: Trajectory, truncated: Trajectory) -> np.ndarray:
    """Pointwise |x(t) - x_(n)(t)| on the shared grid."""
    if full.times.shape != truncated.times.shape or not np.array_equal(
        full.times, truncated.times
    ):
        raise GridMismatch("full and truncated trajectories use different grids")
    return np.abs(full.x - truncated.x)


def epsilon1(chain: ChainModel, n: int, times, x_next) -> np.ndarray:
    """Direct tail error eps1(n, t) on the grid:
    (prod_{l<=n} D_l/Omega_l) int_0^t K_n(t-s) X_{n+1}(s) ds, with X_{n+1}
    sampled from the full evolution, through the nested_convolve cascade.
    Identically zero at n = N, so `chain` must be the full chain: one cut
    by `chain_from_io(io, rows=k)` returns zero at n = k, and with no map
    in hand this function cannot tell."""
    check_index(n, chain.N, "truncation index")
    times = np.asarray(times, dtype=float)
    if n == chain.N:
        return np.zeros_like(times)
    x_next = np.asarray(x_next, dtype=float)
    freqs = chain.mode_freqs[: n + 1]
    check_grid(times, float(np.abs(x_next).max()), float(freqs.max()))
    hs = np.zeros((n + 1, len(times)))
    hs[n] = coupling_products(chain, n)[n + 1] * x_next
    return nested_convolve(freqs, hs, times)


def epsilon1_pointwise(chain: ChainModel, n: int, t_points, x_next_eval,
                       nodes: int = 32) -> np.ndarray:
    """eps1(n, t) at arbitrary small times, max(Omega) * t < 0.5.

    Direct Gauss-Legendre on [0, t] with the kernel evaluated through its
    Taylor series, which avoids the 2n-order cancellation of the sine series
    near the origin; x_next_eval(s) must return X_{n+1} at arbitrary times
    (e.g. from the eigendecomposition).  Raises ValueError at larger times,
    which `epsilon1` covers on a time grid.
    """
    check_index(n, chain.N, "truncation index")
    t_points = np.asarray(t_points, dtype=float)
    if n == chain.N:
        return np.zeros_like(t_points)
    freqs = chain.mode_freqs[: n + 1]
    wt_max = float(freqs.max()) * float(t_points.max(initial=0.0))
    if wt_max >= 0.5:
        raise ValueError(
            f"epsilon1_pointwise needs max(Omega)*t < 0.5, got {wt_max:.3g}; "
            "use epsilon1 on a time grid for larger times"
        )
    order = 2 * n + 21

    x, w = leggauss(nodes)
    pref = coupling_products(chain, n)[n + 1]
    out = np.empty_like(t_points)
    for m, t in enumerate(t_points):
        if t == 0.0:
            out[m] = 0.0
            continue
        s = 0.5 * t * (x + 1)
        wt = 0.5 * t * w
        kv = np.array([kernel_taylor(freqs, order, tv) for tv in t - s])
        out[m] = pref * float(np.sum(wt * kv * x_next_eval(s)))
    return out


def epsilon2(params: VolterraParams, eps1_series, times) -> np.ndarray:
    """Resolvent correction eps2 = R * eps1 on the grid."""
    freqs, coeffs = resolvent_series(params)
    return convolve_on_grid(freqs, coeffs, np.asarray(eps1_series, dtype=float), times)


def _bound_bracket(chain: ChainModel, n: int, t: np.ndarray) -> np.ndarray:
    """Common time-dependent bracket of both bounds."""
    s_n = chain.Omega0**2 + np.sum(chain.Omega[:n] ** 2)
    arg1 = math.sqrt(s_n)
    arg2 = math.sqrt(chain.Omega0**2 + chain.Omega[0] ** 2 + s_n)
    return (np.cosh(t * arg1) / float(math.factorial(2 * n + 2))
            + chain.D0**2 * t**4 * np.cosh(t * arg2)
            / float(math.factorial(2 * n + 6)))


def _minor_weights(io: IOModel, chain: ChainModel, n: int) -> np.ndarray:
    """|P_n(omega_k^2)| for all bath eigenvalues."""
    return np.abs(char_poly_eval(chain, n, io.omega**2))


def bound_deterministic(io: IOModel, chain: ChainModel, n: int, t,
                        init: InitialState):
    """Deterministic truncation-error bound for given bath initial data.

    t may be a scalar or an array; the return matches.  At n = N the
    weights |P_N(omega_k^2)| are the N-th minor on its own spectrum, zero
    in exact arithmetic, so the bound holds rounding noise only (it differs
    by up to 1.67x between the Lanczos and RKPW coefficients of one bath).
    """
    check_index(n, chain.N, "truncation index")
    t = np.asarray(t, dtype=float)
    weights = _minor_weights(io, chain, n)
    s_q = float(np.sum(weights * (np.abs(init.q0) + np.abs(init.qdot0) / io.omega)))
    out = s_q * t ** (2 * n + 2) * _bound_bracket(chain, n, t)
    return out if out.ndim else float(out)


def bound_thermal(io: IOModel, chain: ChainModel, n: int, t, th: ThermalState):
    """Bound on the thermally averaged truncation error.

    sqrt(8 kT / pi) * sum_k |P_n(omega_k^2)|/omega_k replaces the
    initial-data factor of the deterministic bound; scales exactly as
    sqrt(kT).  At n = N it holds rounding noise only, as
    `bound_deterministic` does.
    """
    check_index(n, chain.N, "truncation index")
    t = np.asarray(t, dtype=float)
    weights = _minor_weights(io, chain, n)
    s_th = math.sqrt(8 * th.kT / math.pi) * float(np.sum(weights / io.omega))
    out = s_th * t ** (2 * n + 2) * _bound_bracket(chain, n, t)
    return out if out.ndim else float(out)


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


def thermal_error_mc(io: IOModel, chain: ChainModel, omap: OrthogonalMap,
                     n: int, th: ThermalState, times, n_samples: int, seed):
    """Monte-Carlo mean and standard error of eps(n, t) over the thermal state.

    The dynamics is linear in the initial data, so the trajectory difference
    is a fixed response row applied to the sampled bath data; all samples
    reduce to one matrix product.  Returns (mean, stderr), each shaped like
    times.
    """
    times = np.asarray(times, dtype=float)
    O = omap.O
    Gq_f, Gv_f = system_response(assemble_extended_matrix(chain, chain.N), times)
    Gq_t, Gv_t = system_response(assemble_extended_matrix(chain, n), times)
    # x(t) = Gq[:,1:] . X(0) + Gv[:,1:] . Xdot(0), with X(0) = -O q(0)
    Dq = -(Gq_f[:, 1:] @ O - Gq_t[:, 1:] @ O[:n])
    Dv = -(Gv_f[:, 1:] @ O - Gv_t[:, 1:] @ O[:n])

    rng = np.random.default_rng(seed)
    root_kt = math.sqrt(th.kT)
    Zq = (root_kt / io.omega)[:, None] * rng.standard_normal((io.N, n_samples))
    Zv = root_kt * rng.standard_normal((io.N, n_samples))
    eps = np.abs(Dq @ Zq + Dv @ Zv)
    mean = eps.mean(axis=1)
    stderr = eps.std(axis=1, ddof=1) / math.sqrt(n_samples)
    return mean, stderr


def min_modes(io: IOModel, chain: ChainModel, t: float, tol: float,
              th: ThermalState) -> MinModesResult:
    """Smallest n whose thermal bound at time t is within tol (linear scan).

    Returns certified=False with n = N when even the untruncated chain's
    rounding-level bound exceeds tol.  A negative or non-finite t, or a
    non-finite tol, raises ValueError: the bound is even in t.
    """
    if not (0.0 <= t < math.inf and math.isfinite(tol)):
        raise ValueError(f"t = {t} must be finite and >= 0, and tol = {tol} finite")
    if tol <= 0:
        raise NonpositiveParameter("tol must be positive")
    b = math.inf
    for n in range(chain.N + 1):
        b = float(bound_thermal(io, chain, n, t, th))
        if b <= tol:
            return MinModesResult(n=n, certified=True, bound=b)
    return MinModesResult(n=chain.N, certified=False, bound=b)


def fit_loglog_slope(times, values, t_lo=None, t_hi=None) -> float:
    """Least-squares slope of log(values) against log(times) on a window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times > 0) & (values > 0)
    if t_lo is not None:
        mask &= times >= t_lo
    if t_hi is not None:
        mask &= times <= t_hi
    if mask.sum() < 2:
        raise ValueError("fewer than two usable points in the fit window")
    return float(np.polyfit(np.log(times[mask]), np.log(values[mask]), 1)[0])


def error_report(io: IOModel, chain: ChainModel, omap: OrthogonalMap, n: int,
                 init: InitialState, times, th: ThermalState | None = None
                 ) -> ErrorReport:
    """Assemble the empirical error, both bounds, and the small-time slope
    for one truncation index.

    The slope is measured on t in [1e-3, 1e-2]/Omega_max through the
    numerically stable eps1 route (the trajectory difference there sits
    below the float64 subtraction floor).  One eigendecomposition of the
    full chain serves both x(t) and the slope's X_{n+1}(s), so a chain cut
    by `chain_from_io(io, rows=k)` raises DimensionMismatch for every n.
    """
    if omap.is_cut:
        raise DimensionMismatch(
            f"error_report evolves the untruncated chain; the map holds only "
            f"{omap.N} of {omap.O.shape[1]} rows")
    times = np.asarray(times, dtype=float)
    y0, ydot0 = extended_initial_conditions(omap, init, chain.N)
    full = _modal_data(assemble_extended_matrix(chain, chain.N), y0, ydot0)
    x_full = _modal_row(full, y0, 0, times)
    x_n = x_full if n == chain.N else evolve_truncated_x(chain, n, init, omap, times)
    eps = np.abs(x_full - x_n)
    b_det = bound_deterministic(io, chain, n, times, init)
    b_th = bound_thermal(io, chain, n, times, th) if th is not None else None

    slope = math.nan
    if n < chain.N:
        wmax = float(chain.mode_freqs.max())
        ts = np.geomspace(1e-3 / wmax, 1e-2 / wmax, 9)
        x_next = functools.partial(_modal_row, full, y0, n + 1)
        e1 = np.abs(epsilon1_pointwise(chain, n, ts, x_next))
        if np.all(e1 > 0):
            slope = fit_loglog_slope(ts, e1)

    return ErrorReport(
        n=n,
        times=times,
        eps_empirical=eps,
        bound_det=np.asarray(b_det),
        bound_thermal=None if b_th is None else np.asarray(b_th),
        slope_smallt=slope,
    )
