"""Test oracles: the paper's closed forms and the dense routes that the
package's production paths are checked against.

None of the `chainbath` CLI commands runs any of these; they are kept so
that tests can compare the program against independent evaluations of the
same quantities:

- the nested kernels K_i four ways: the partial-fraction sine series
  (`kernel_closed_form`, `kernel_eval`), the Taylor series at the origin
  in float64 (`kernel_deriv_zero`, `kernel_taylor`) and in `mpmath` at
  any tau (`kernel_series_mp`), and nested Gauss-Legendre quadrature
  (`kernel_quadrature`);
- the dense eigendecomposition dynamics (`dense_modes`, the modal sum of
  every row, and `evolve_raw`, `evolve_exact`, `evolve_truncated`,
  `evolve_io`) with the energy and response helpers, and an uncoupled
  mode's closed form `free_mode`;
- the level-n free ladder `free_source_series` and Volterra source
  `source_term`, which read level n = N as the untruncated chain, the
  reduced-form identity `x_reduced_form` and a marching Volterra solver;
  the cascades behind them refuse a grid too coarse for the frequencies
  they convolve, a priori (`check_grid`);
- the resolvent kernel as the paper's partial-fraction sine series
  (`resolvent_series`);
- the truncation-error decomposition (`epsilon1` on the cascade,
  `epsilon1_pointwise`, `epsilon2`, `error_report`) and the thermal mean
  error, exact (`thermal_error_exact`) and by Monte Carlo
  (`thermal_error_mc`);
- the full-map equivalence check `verify_equivalence`, the dense
  tridiagonal matrix `tridiagonal(chain)` and its leading minors'
  polynomials `char_poly_eval`, unscaled, which the bounds' weights are
  checked against.

Pytest does not collect this file; tests import it as `tests.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss

from chainbath import dynamics
from chainbath.bounds import (
    ThermalState,
    bound_deterministic,
    bound_thermal,
)
from chainbath.dynamics import (
    InitialState,
    assemble_extended_matrix,
    cut_modes,
    extended_initial_conditions,
    sample,
)
from chainbath.errors import POSITIVE, ChainBathError, check_range
from chainbath.kernels import convolve_on_grid
from chainbath.solution import VolterraParams, nested_convolve
from chainbath.spectral import (
    _RTOL,
    ChainModel,
    IOModel,
    _spectrum_mismatch,
)


# --- errors ---------------------------------------------------------------


class GridMismatch(ValueError):
    """Two sampled series do not share the same time grid."""


class DegenerateFrequencies(ChainBathError):
    """Two kernel frequencies coincide; the sine-series closed form has a pole.
    Fall back to Taylor evaluation or quadrature."""


class ToleranceNotReached(ChainBathError):
    """Adaptive quadrature hit its refinement cap before converging."""


# --- kernels --------------------------------------------------------------
#
# K_0(tau) = sin(Omega_0 tau) and K_i = K_{i-1} * sin(Omega_i .), so each
# K_i is an i-fold nested integral of sines.  Three independent
# evaluations:
#
# - the closed form: for pairwise-distinct frequencies the nesting unrolls
#   by partial fractions into a finite sine series
#
#       K_i(tau) = sum_j alpha_j sin(Omega_j tau),
#       alpha_j  = prod(Omega) / (Omega_j * prod_{l != j} (Omega_l^2 - Omega_j^2)),
#
#   whose coefficients cancel catastrophically beyond order ~20;
# - the Taylor series at the origin, from the Laplace picture
#   prod_l Omega_l/(s^2 + Omega_l^2): all even derivatives vanish, the
#   first 2i derivatives vanish, and
#
#       K_i^(2m+1)(0) = (-1)^(m-i) * prod(Omega) * h_{m-i}(Omega_0^2, ..., Omega_i^2)
#
#   with h the complete homogeneous symmetric polynomial, which is stable
#   at high order and valid for coincident frequencies;
# - nested Gauss-Legendre quadrature of the defining integrals.


@dataclass(frozen=True)
class KernelRep:
    """Sine-series form of a nested kernel: K(tau) = sum_j coeffs[j] * sin(freqs[j] * tau)."""

    freqs: np.ndarray
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        """Nesting depth i (number of convolutions applied to the bare sine)."""
        return len(self.freqs) - 1

    def deriv_zero(self, k: int) -> float:
        """k-th derivative at 0 from the sine series: (-1)^m sum alpha_j Omega_j^(2m+1)."""
        if k % 2 == 0:
            return 0.0
        m = (k - 1) // 2
        return float((-1) ** m * np.sum(self.coeffs * self.freqs**k))


def _check_freqs(freqs) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim == 0:
        freqs = freqs[None]
    if len(freqs) == 0 or np.any(freqs <= 0):
        raise ValueError("kernel frequencies must be a nonempty positive sequence")
    return freqs


def sq_freq_gap(freqs) -> float:
    """Smallest separation of two squared frequencies, relative to the largest
    squared frequency; inf for a single frequency."""
    w2 = np.asarray(freqs, dtype=float) ** 2
    gap = np.abs(w2[:, None] - w2[None, :]) + np.diag(np.full(len(w2), np.inf))
    return float(gap.min() / w2.max())


def kernel_closed_form(freqs) -> KernelRep:
    """Closed-form sine series of the nested kernel for frequencies
    (Omega_0, ..., Omega_i).

    Raises DegenerateFrequencies when any two squared frequencies are closer
    than 1e-9 * max(Omega^2); use kernel_taylor or kernel_quadrature there.
    """
    freqs = _check_freqs(freqs)
    w2 = freqs**2
    gap = sq_freq_gap(freqs)
    if gap < 1e-9:
        raise DegenerateFrequencies(
            f"squared frequencies separated by {gap:.3e} * max < 1e-9 * max; "
            "closed form has a pole"
        )
    prod = np.prod(freqs)
    coeffs = np.empty_like(freqs)
    for j in range(len(freqs)):
        others = np.delete(w2, j)
        coeffs[j] = prod / (freqs[j] * np.prod(others - w2[j]))
    coeffs.flags.writeable = False
    fr = freqs.copy()
    fr.flags.writeable = False
    return KernelRep(fr, coeffs)


def kernel_eval(rep: KernelRep, tau):
    """Evaluate the sine series at tau (scalar or array).

    Direct summation; near the origin the terms cancel through 2i orders, so
    for |tau| * max(freqs) << 1 prefer kernel_taylor.
    """
    tau = np.asarray(tau, dtype=float)
    out = np.sin(np.multiply.outer(tau, rep.freqs)) @ rep.coeffs
    return out if out.ndim else float(out)


def _nested_gl(freqs, taus, panels, nodes):
    """Nested composite Gauss-Legendre evaluation of the kernel recursion.

    Peels the last frequency: K(tau) = int_0^tau K_inner(tau - u) sin(f u) du.
    `taus` is a flat array; the recursion batches all node points of a level
    into one call, so the leaves are a single vectorized sine evaluation.
    """
    if len(freqs) == 1:
        return np.sin(freqs[0] * taus)
    x, w = leggauss(nodes)
    # composite panels on (0, 1), then scaled by each tau
    offsets = (np.arange(panels) + 0.5) / panels
    pts01 = (offsets[:, None] + x[None, :] / (2 * panels)).ravel()
    wts01 = np.tile(w / (2 * panels), panels)
    inner_arg = np.multiply.outer(taus, 1.0 - pts01)
    inner = _nested_gl(freqs[:-1], inner_arg.ravel(), panels, nodes)
    inner = inner.reshape(inner_arg.shape)
    del inner_arg
    sine = np.multiply.outer(taus, freqs[-1] * pts01)
    np.sin(sine, out=sine)
    inner *= sine
    return taus * (inner @ wts01)


def kernel_quadrature(freqs, tau, tol: float = 1e-10) -> float:
    """Ground-truth kernel value by direct nested numerical integration.

    Adaptive composite Gauss-Legendre (16 nodes per panel, panels doubled
    until two successive refinements agree to tol, relative to max(1, |K|)).
    The panel count is capped so the leaf array stays within memory
    (~1e8 sine evaluations); beyond the cap ToleranceNotReached is raised.
    Coincident frequencies are fine here.
    """
    freqs = _check_freqs(freqs)
    check_range(tau, 0.0, math.inf, "tau")
    check_range(tol, POSITIVE, math.inf, "tol")
    taus = np.array([float(tau)])
    depth = len(freqs) - 1
    if depth == 0:
        return float(np.sin(freqs[0] * tau))

    nodes = 16
    prev = None
    panels = 1
    while (panels * nodes) ** depth <= 1.2e8:
        val = float(_nested_gl(freqs, taus, panels, nodes)[0])
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        panels *= 2
    raise ToleranceNotReached(
        f"nested quadrature did not reach tol={tol:g} within the panel cap"
    )


def homogeneous_sym(values, m: int) -> float:
    """Complete homogeneous symmetric polynomial h_m of the given values,
    by the generating-function fold (one pass per variable)."""
    if m < 0:
        return 0.0
    h = np.zeros(m + 1)
    h[0] = 1.0
    for x in values:
        for k in range(1, m + 1):
            h[k] += x * h[k - 1]
    return float(h[m])


def kernel_deriv_zero(freqs, k: int) -> float:
    """k-th derivative of the nested kernel at tau = 0.

    Zero for every even k and for all k <= 2i; for odd k = 2m+1 > 2i it is
    (-1)^(m-i) * prod(Omega_l) * h_{m-i}(Omega_0^2, ..., Omega_i^2).  Valid
    for coincident frequencies as well (the confluent case).
    """
    freqs = _check_freqs(freqs)
    check_range(k, 0, math.inf, "derivative order")
    i = len(freqs) - 1
    if k % 2 == 0 or k <= 2 * i:
        return 0.0
    m = (k - 1) // 2
    return (-1) ** (m - i) * float(np.prod(freqs)) * homogeneous_sym(freqs**2, m - i)


def kernel_taylor(freqs, max_order: int, tau) -> float:
    """Partial Taylor sum of the kernel through derivative order max_order.

    Only the odd orders 2k-1 with k > i contribute.  Requires
    max_order >= 2i+2 so at least the leading term is included.
    """
    freqs = _check_freqs(freqs)
    i = len(freqs) - 1
    check_range(max_order, 2 * i + 2, math.inf, "max_order")
    tau = float(tau)
    w2 = freqs**2
    prod = float(np.prod(freqs))
    total = 0.0
    # power / factorial accumulator for tau^(2k-1)/(2k-1)!
    k = i + 1
    p = tau ** (2 * k - 1) / float(math.factorial(2 * k - 1)) if tau != 0 else 0.0
    while 2 * k - 1 <= max_order:
        m = k - 1
        total += (-1) ** (m - i) * prod * homogeneous_sym(w2, m - i) * p
        p *= tau * tau / ((2 * k) * (2 * k + 1))
        k += 1
    return total


def kernel_taylor_remainder(freqs, max_order: int, tau) -> float:
    """Magnitude of the first omitted Taylor term (remainder estimate)."""
    freqs = _check_freqs(freqs)
    i = len(freqs) - 1
    k = i + 1
    while 2 * k - 1 <= max_order:
        k += 1
    return abs(kernel_deriv_zero(freqs, 2 * k - 1)) * abs(float(tau)) ** (2 * k - 1) \
        / float(math.factorial(2 * k - 1))


def kernel_series_mp(freqs, taus, dps: int = 80, rel: float = 1e-40) -> np.ndarray:
    """K_n at each of `taus`, n = len(freqs) - 1, from its Taylor series

        K_n(tau) = prod(Omega_l) sum_k (-1)^k h_k(Omega_0^2, ..., Omega_n^2)
                   tau^(2n+1+2k) / (2n+1+2k)!

    in `dps`-digit `mpmath` arithmetic, summed until a term falls within
    `rel` of the sum.  Unlike `kernel_taylor` it holds at any tau where the
    digits cover the terms' growth: 80 digits leave more than 40 at
    tau Omega_max <= 30.  h_k comes from the power sums by Newton's
    identities, k h_k = sum_{j=1..k} p_j h_{k-j}, every term positive."""
    freqs = _check_freqs(freqs)
    n = len(freqs) - 1
    out = np.empty(len(taus))
    with mpmath.workdps(dps):
        w2 = [mpmath.mpf(float(f)) ** 2 for f in freqs]
        powers, p, h = list(w2), [], [mpmath.mpf(1)]
        prod = mpmath.fprod(mpmath.mpf(float(f)) for f in freqs)
        for idx, tau in enumerate(taus):
            t = mpmath.mpf(float(tau))
            power = t ** (2 * n + 1) / mpmath.factorial(2 * n + 1)
            total, k = mpmath.mpf(0), 0
            while True:
                if k == len(h):  # h_k from the power sums p_1 .. p_k
                    p.append(mpmath.fsum(powers))
                    powers = [x * w for x, w in zip(powers, w2)]
                    h.append(mpmath.fsum(p[j] * h[k - 1 - j] for j in range(k)) / k)
                term = (-1) ** k * h[k] * power
                total += term
                # a growing term is the largest so far, so this holds only
                # past the terms' peak (or at tau = 0, where every term is 0)
                if abs(term) <= rel * abs(total):
                    break
                power *= t * t / ((2 * n + 2 * k + 2) * (2 * n + 2 * k + 3))
                k += 1
            out[idx] = float(prod * total)
    return out


# --- dynamics -------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution on a uniform grid: system coordinate x(t) and the
    chain coordinates X[i, m] = X_{i+1}(t_m), with their velocities."""

    times: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    X: np.ndarray
    Xdot: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        dt = np.diff(t)
        if len(t) < 2 or np.any(dt <= 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("time grid must have uniform step")
        if not (self.x.shape == np.shape(self.xdot) == t.shape
                and self.X.shape[1:] == t.shape and np.shape(self.Xdot) == self.X.shape):
            raise ValueError("trajectory array shapes are inconsistent")

    def mode(self, i: int) -> np.ndarray:
        """Samples of X_i(t); mode(0) is the system coordinate x."""
        check_range(i, 0, len(self.X), "mode index")
        return self.x if i == 0 else self.X[i - 1]


def assemble_io_matrix(io: IOModel) -> np.ndarray:
    """(N+1)-dimensional evolution matrix in the independent-oscillator
    picture: diag(Omega0^2, omega_k^2) with +c_k in the system row/column."""
    A = np.zeros((io.N + 1, io.N + 1))
    A[0, 0] = io.Omega0**2
    A[1:, 1:] = np.diag(io.omega**2)
    A[0, 1:] = io.c
    A[1:, 0] = io.c
    return A


def evolve_raw(A, y0, ydot0, times):
    """Positions and velocities of y'' = -A y at arbitrary increasing times.

    Returns (Y, Ydot) with shape (len(times), dim).  Raises UnstableMode if
    A has a non-positive eigenvalue.
    """
    return _evolve_modal(dense_modes(A, y0, ydot0), ydot0, times)


def dense_modes(A, y0, ydot0):
    """The modal sum (w, V, a, b, y0) of y'' = -A y with every row kept, as
    `dynamics.cut_modes` forms it: w and V from the dense eigensolve,
    a = V^T y0 and b = V^T ydot0 / w."""
    w, V = dynamics._decompose(A)
    y0 = np.asarray(y0, dtype=float)
    return w, V, V.T @ y0, (V.T @ np.asarray(ydot0, dtype=float)) / w, y0


def _evolve_modal(modes, ydot0, times):
    """`evolve_raw`'s (Y, Ydot) from a modal sum (w, V, a, b, y0) and the
    initial velocities ydot0, every row by the direct sum over the modes."""
    w, V, a, b, y0 = modes
    ydot0 = np.asarray(ydot0, dtype=float)
    wt = np.multiply.outer(np.asarray(times, dtype=float), w)
    cosm1_wt, sin_wt = np.cos(wt) - 1.0, np.sin(wt)
    # written as increments from the initial data so that t = 0 is bit-exact
    Y = y0 + (cosm1_wt * a + sin_wt * b) @ V.T
    Ydot = ydot0 + ((cosm1_wt * b - sin_wt * a) * w) @ V.T
    return Y, Ydot


def evolve_exact(A, y0, ydot0, times) -> Trajectory:
    """Trajectory of the extended linear system on a uniform grid.

    Coordinate 0 is the system; the rest are chain modes.  Total energy
    along the returned trajectory is conserved to eigensolver precision.
    """
    Y, Ydot = evolve_raw(A, y0, ydot0, times)
    return Trajectory(times=np.asarray(times, dtype=float),
                      x=Y[:, 0], xdot=Ydot[:, 0], X=Y[:, 1:].T, Xdot=Ydot[:, 1:].T)


def evolve_truncated(chain: ChainModel, n: int, init: InitialState, O, times) -> Trajectory:
    """Evolution with the chain cut after mode n (coupling D_n dropped).

    Initial chain data come from the bath initial data through the
    orthogonal map; n = chain.N gives the untruncated dynamics.
    """
    return evolve_exact(assemble_extended_matrix(chain, n),
                        *extended_initial_conditions(O, init, n), times)


def evolve_io(io: IOModel, init: InitialState, times) -> Trajectory:
    """Evolution in the independent-oscillator picture (X holds the bath
    coordinates q here).  Used to cross-check picture equivalence and the
    secular route.

    Each frequency comes from the Rayleigh quotient of its `eigh`
    eigenvector, summed in numpy's longdouble over the arrowhead's
    entries.  eigh's own eigenvalues are off by about u ||A||: on a random
    bath of 345 modes up to omega = 36 that turned the lowest mode's phase
    (lambda = 0.014) by 3.5e-12 max|x| at t = 10, where the secular route
    was within 2.3e-15 of a 40-digit reference; with the quotients the
    dense route is within 1.7e-13.  Where longdouble is double, the
    quotients are only as good as eigh's.
    """
    check_range(init.N, io.N, io.N, "initial-state size")
    A = assemble_io_matrix(io)
    y0 = np.concatenate([[init.x0], init.q0])
    ydot0 = np.concatenate([[init.xdot0], init.qdot0])
    w, V, a, b, _ = dense_modes(A, y0, ydot0)
    Al, Vl = A.astype(np.longdouble), V.astype(np.longdouble)
    v0, vq = Vl[0], Vl[1:]
    quotient = (Al[0, 0] * v0 * v0 + 2 * v0 * (Al[0, 1:] @ vq)
                + np.diag(Al)[1:] @ (vq * vq)) / np.sum(Vl * Vl, axis=0)
    w_rq = np.sqrt(quotient.astype(float))
    Y, Ydot = _evolve_modal((w_rq, V, a, b * w / w_rq, y0), ydot0, times)
    return Trajectory(times=np.asarray(times, dtype=float),
                      x=Y[:, 0], xdot=Ydot[:, 0], X=Y[:, 1:].T, Xdot=Ydot[:, 1:].T)


def free_mode(Omega, X0, Xdot0, t):
    """Uncoupled mode by direct trig: X0 cos(Omega t) + Xdot0 sin(Omega t)/Omega."""
    t = np.asarray(t, dtype=float)
    return X0 * np.cos(Omega * t) + Xdot0 * np.sin(Omega * t) / Omega


def total_energy(A, traj: Trajectory) -> np.ndarray:
    """H(t) = (|ydot|^2 + y^T A y) / 2 along a trajectory; constant for the
    exact solver."""
    Y = np.concatenate([traj.x[None, :], traj.X]).T
    Ydot = np.concatenate([traj.xdot[None, :], traj.Xdot]).T
    return 0.5 * (np.sum(Ydot**2, axis=1) + np.sum(Y * (Y @ np.asarray(A)), axis=1))


def system_response(A, times):
    """Linear response of coordinate 0 to initial data: x(t) = Gq(t) . y0 + Gv(t) . ydot0.

    Returns (Gq, Gv), each (len(times), dim).  These rows let many initial
    conditions be propagated with one matrix product (used by the thermal
    Monte-Carlo machinery).
    """
    w, V = dynamics._decompose(A)
    times = np.asarray(times, dtype=float)
    wt = np.multiply.outer(times, w)
    Gq = (np.cos(wt) * V[0]) @ V.T
    Gv = (np.sin(wt) * (V[0] / w)) @ V.T
    return Gq, Gv


# --- solution -------------------------------------------------------------


def coupling(chain: ChainModel, l: int) -> float:
    """D_l with the boundary conventions: D_0 is the system coupling and
    D_N = 0 terminates sums."""
    check_range(l, 0, chain.N, "coupling index")
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


def _check_level(chain: ChainModel, n: int, O) -> None:
    """Range check of a level n that reads n = chain.N as the untruncated
    chain.  A map cut by `chain_from_io(io, rows=k)` gives a chain with
    N = k whose level k is not untruncated: ValueError there."""
    check_range(n, 0, chain.N, "level")
    if n == chain.N and len(O) < O.shape[1]:
        raise ValueError(
            f"level {n} ends a chain cut at {len(O)} of {O.shape[1]} modes, "
            "not the untruncated chain; build the full map")


def check_grid(times, max_freq: float) -> None:
    """Raise ValueError when the grid is too coarse for convolve_on_grid
    on signals with frequencies up to max_freq: the oracles' own a-priori
    precondition (the CLI measures its error instead).

    The gate is the fourth-order interpolation estimate (5/384) h^4 max|v^(4)|
    relative to max|v|, taking |v^(4)| ~ max_freq^4 max|v|: (5/384)
    (h max_freq)^4 must stay within 1e-7.  The interpolant is sixth-order,
    so this gate is conservative: at the coarsest grid it accepts, the
    measured error of one convolution and of the whole Volterra cascade is
    500-1000x below 1e-7 max|v|.
    """
    h = float(np.max(np.diff(times)))
    hf = h * max_freq  # from about 1e77 on, hf ** 4 raises OverflowError: read it as inf
    est = (5.0 / 384.0) * hf**4 if hf < 1e75 else np.inf
    if est > 1e-7:
        raise ValueError(
            f"estimated relative interpolation error {est:.3e} exceeds 1e-7; refine the grid")


def _free_ladder(chain: ChainModel, n: int, init: InitialState, O, times):
    """(f_0, hs) with f-tilde_n = f_0 + nested_convolve(freqs[:n+1], hs, times):
    hs[j] = p_{j+1} f_{j+1} for j < n and hs[n] = 0, where f_i is the free
    evolution of mode i from its initial data."""
    freqs = chain.mode_freqs
    p = coupling_products(chain, n)
    y0, ydot0 = extended_initial_conditions(O, init, n)
    f = np.array([free_mode(freqs[i], y0[i], ydot0[i], times) for i in range(n + 1)])
    hs = np.zeros_like(f)
    hs[:-1] = p[1:-1, None] * f[1:]
    return f[0], hs


def free_source_series(chain: ChainModel, n: int, init: InitialState, O, times) -> np.ndarray:
    """The ladder f-tilde_0 = f_0,
    f-tilde_i = f-tilde_{i-1} + (prod_{l<i} D_l/Omega_l) K_{i-1} * f_i,
    sampled on `times`, f_i the free evolution of mode i."""
    _check_level(chain, n, O)
    times = np.asarray(times, dtype=float)
    f0, hs = _free_ladder(chain, n, init, O, times)
    return f0 + nested_convolve(chain.mode_freqs[: n + 1], hs, times)


def _add_mode_terms(chain: ChainModel, traj: Trajectory, hs, lo: int):
    """Add p_j (D_{j-1}/Omega_j) X_{j-1} to hs[j] for lo <= j <= n, with the
    chain-mode trajectories injected from `traj`."""
    n = len(hs) - 1
    freqs = chain.mode_freqs
    p = coupling_products(chain, n)
    for j in range(lo, n + 1):
        hs[j] += p[j] * (coupling(chain, j - 1) / freqs[j]) * traj.mode(j - 1)


def source_term(chain: ChainModel, n_used: int, traj: Trajectory,
                init: InitialState, O) -> np.ndarray:
    """Source F_n of the system's Volterra equation, sampled on traj.times.

    F_n(t) = f-tilde_n(t)
           + sum_{i=2}^{n} (prod_{l<i} D_l/Omega_l)(D_{i-1}/Omega_i)
                           int_0^t K_i(t-s) X_{i-1}(s) ds,

    with the X_{i-1} taken from the supplied (exact) trajectories, all
    through one nested_convolve cascade.  At n = N it is the oracle for
    F_1 + eps1(1), which needs X_2 alone.  Raises ValueError when the
    estimated relative interpolation error exceeds 1e-7.
    """
    _check_level(chain, n_used, O)
    check_grid(traj.times, float(chain.mode_freqs.max()))
    f0, hs = _free_ladder(chain, n_used, init, O, traj.times)
    _add_mode_terms(chain, traj, hs, lo=2)
    return f0 + nested_convolve(chain.mode_freqs[: n_used + 1], hs, traj.times)


def x_reduced_form(chain: ChainModel, n: int, traj: Trajectory,
                   init: InitialState, O) -> np.ndarray:
    """Level-n rewriting of x(t) from injected trajectories (identity check).

    x(t) = f-tilde_n(t)
         + sum_{i=1}^{n} (prod_{l<i} D_l/Omega_l)(D_{i-1}/Omega_i) K_i * X_{i-1}
         + (prod_{l<=n} D_l/Omega_l) K_n * X_{n+1},

    where the last term vanishes for n = N (D_N = 0).  With exact
    trajectories this reproduces traj.x to quadrature precision for every n.
    """
    check_range(n, 1, chain.N, "level")
    _check_level(chain, n, O)
    check_grid(traj.times, float(chain.mode_freqs.max()))
    f0, hs = _free_ladder(chain, n, init, O, traj.times)
    _add_mode_terms(chain, traj, hs, lo=1)
    if n < chain.N:
        hs[n] += coupling_products(chain, n)[n + 1] * traj.mode(n + 1)
    return f0 + nested_convolve(chain.mode_freqs[: n + 1], hs, traj.times)


def solve_volterra_numeric(k1: KernelRep, prefactor: float, F, times) -> np.ndarray:
    """Trapezoidal product-integration marching solver for
    x(t) = prefactor * int_0^t K_1(t-s) x(s) ds + F(t).

    Independent of the closed form; second-order accurate in the grid step.
    K_1(0) = 0 makes the marching explicit.
    """
    times = np.asarray(times, dtype=float)
    F = np.asarray(F, dtype=float)
    M = len(times)
    h = times[1] - times[0]
    K = kernel_eval(k1, times)  # K[m] = K_1(m h) on the uniform grid
    x = np.empty(M)
    x[0] = F[0]
    for m in range(1, M):
        conv = K[m] * 0.5 * x[0] + np.dot(K[m - 1:0:-1], x[1:m])
        x[m] = F[m] + prefactor * h * conv
    return x


# --- bounds ---------------------------------------------------------------
#
# The error of cutting the chain after mode n decomposes through the
# Volterra picture: eps1 is the direct source difference (the tail's first
# reach into the system), eps2 its resolvent correction, and the empirical
# error is the trajectory difference |x - x_(n)|.


@dataclass(frozen=True)
class ErrorReport:
    """Per-time-sample truncation-error data for one truncation index."""

    n: int
    times: np.ndarray
    eps_empirical: np.ndarray
    bound_det: np.ndarray
    bound_thermal: np.ndarray | None
    slope_smallt: float


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
    check_range(n, 0, chain.N, "truncation index")
    times = np.asarray(times, dtype=float)
    if n == chain.N:
        return np.zeros_like(times)
    x_next = np.asarray(x_next, dtype=float)
    freqs = chain.mode_freqs[: n + 1]
    check_grid(times, float(freqs.max()))
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
    check_range(n, 0, chain.N, "truncation index")
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


def resolvent_series(params: VolterraParams):
    """Sine-series (freqs, coeffs) of the resolvent kernel R, the paper's
    partial fractions: singular where mu1 = mu2, which the nested solve
    `solution.solve_volterra_closed` is not."""
    m1, m2, D = params.mu1, params.mu2, params.D0
    pref = D**2 / (m1 * m2 * (m2**2 - m1**2))
    return np.array([m1, m2]), np.array([pref * m2, -pref * m1])


def epsilon2(params: VolterraParams, eps1_series, times) -> np.ndarray:
    """Resolvent correction eps2 = R * eps1 on the grid."""
    freqs, coeffs = resolvent_series(params)
    eps1_series = np.asarray(eps1_series, dtype=float)
    return sum(a * convolve_on_grid(f, eps1_series, times) for f, a in zip(freqs, coeffs))


def _thermal_response(chain: ChainModel, O, n: int, times):
    """(Dq, Dv), each (len(times), N): x(t) - x_n(t) = Dq . q(0) + Dv . qdot(0)
    for a system that starts at rest, from the dense responses of the full
    and the cut chain."""
    times = np.asarray(times, dtype=float)
    Gq_f, Gv_f = system_response(assemble_extended_matrix(chain, chain.N), times)
    Gq_t, Gv_t = system_response(assemble_extended_matrix(chain, n), times)
    # x(t) = Gq[:,1:] . X(0) + Gv[:,1:] . Xdot(0), with X(0) = -O q(0)
    return -(Gq_f[:, 1:] @ O - Gq_t[:, 1:] @ O[:n]), -(Gv_f[:, 1:] @ O - Gv_t[:, 1:] @ O[:n])


def thermal_error_exact(io: IOModel, chain: ChainModel, O, n: int, th: ThermalState, times):
    """E|x - x_n|(t) over the thermal state, exactly: x - x_n is a centred
    Gaussian of variance kT sum_k (Dq[t, k]^2 / omega_k^2 + Dv[t, k]^2), and
    a centred Gaussian's mean modulus is sqrt(2/pi) times its deviation."""
    Dq, Dv = _thermal_response(chain, O, n, times)
    var = th.kT * (np.sum((Dq / io.omega) ** 2, axis=1) + np.sum(Dv**2, axis=1))
    return math.sqrt(2.0 / math.pi) * np.sqrt(var)


def thermal_error_mc(io: IOModel, chain: ChainModel, O,
                     n: int, th: ThermalState, times, n_samples: int, seed):
    """Monte-Carlo mean and standard error of eps(n, t) over the thermal state.

    The dynamics is linear in the initial data, so the trajectory difference
    is a fixed response row applied to the sampled bath data; all samples
    reduce to one matrix product.  Returns (mean, stderr), each shaped like
    times.
    """
    Dq, Dv = _thermal_response(chain, O, n, times)
    rng = np.random.default_rng(seed)
    root_kt = math.sqrt(th.kT)
    Zq = (root_kt / io.omega)[:, None] * rng.standard_normal((io.N, n_samples))
    Zv = root_kt * rng.standard_normal((io.N, n_samples))
    eps = np.abs(Dq @ Zq + Dv @ Zv)
    mean = eps.mean(axis=1)
    stderr = eps.std(axis=1, ddof=1) / math.sqrt(n_samples)
    return mean, stderr


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


def error_report(io: IOModel, chain: ChainModel, O, n: int,
                 init: InitialState, times, th: ThermalState | None = None
                 ) -> ErrorReport:
    """Assemble the empirical error, both bounds, and the small-time slope
    for one truncation index.

    The slope is measured on t in [1e-3, 1e-2]/Omega_max through the
    numerically stable eps1 route (the trajectory difference there sits
    below the float64 subtraction floor).  One eigendecomposition of the
    full chain serves both x(t) on the uniform grid and the slope's
    X_{n+1}(s), summed mode by mode at the geometric slope times, so a chain
    cut by `chain_from_io(io, rows=k)` raises ValueError for every n.
    """
    if len(O) < O.shape[1]:
        raise ValueError(
            f"error_report evolves the untruncated chain; the map holds only "
            f"{len(O)} of {O.shape[1]} rows")
    times = np.asarray(times, dtype=float)
    y0, ydot0 = extended_initial_conditions(O, init, chain.N)
    w, V, a, b, _ = full = dense_modes(assemble_extended_matrix(chain, chain.N), y0, ydot0)
    x_full = sample((w, V[:1], a, b, y0[:1]), times)[0]
    x_n = x_full if n == chain.N else sample(cut_modes(chain, n, init, O), times)[0]
    eps = np.abs(x_full - x_n)
    b_det = bound_deterministic(io, chain, n, times, init)
    b_th = bound_thermal(io, chain, n, times, th) if th is not None else None

    slope = math.nan
    if n < chain.N:
        wmax = float(chain.mode_freqs.max())
        ts = np.geomspace(1e-3 / wmax, 1e-2 / wmax, 9)
        e1 = np.abs(epsilon1_pointwise(
            chain, n, ts, lambda s: _evolve_modal(full, ydot0, s)[0][:, n + 1]))
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


# --- spectral -------------------------------------------------------------

# Rows (and columns) per block of `verify_equivalence`'s products, which
# run when nothing but the map is held: larger blocks make faster products
_CHECK_BLOCK = 512


def tridiagonal(chain: ChainModel) -> np.ndarray:
    """The N x N symmetric tridiagonal frequency matrix (off-diag -D_j)."""
    T = np.diag(chain.Omega**2)
    idx = np.arange(chain.N - 1)
    T[idx, idx + 1] = T[idx + 1, idx] = -chain.D
    return T


def char_poly_eval(chain: ChainModel, j: int, lam):
    """Characteristic polynomial P_j of the j-th leading principal minor of
    the chain's tridiagonal matrix, evaluated at lam.

    Three-term recurrence P_{j+1} = (Omega_{j+1}^2 - lam) P_j - D_j^2 P_{j-1}
    with P_0 = 1, P_{-1} = 0.  lam may be a scalar or an array.
    """
    check_range(j, 0, chain.N, "minor index")
    lam = np.asarray(lam, dtype=float)
    p_prev = np.zeros_like(lam)
    p = np.ones_like(lam)
    for m in range(j):
        d2 = chain.D[m - 1] ** 2 if m >= 1 else 0.0
        p, p_prev = (chain.Omega[m] ** 2 - lam) * p - d2 * p_prev, p
    return p if p.ndim else float(p)


@dataclass(frozen=True)
class EquivalenceReport:
    """Residual diagnostics for a (bath, chain, map) triple.  `passed` holds
    when no residual exceeds its bound: max(tolerance, 1e-10) for the
    orthogonality, tolerance * max(omega^2) for the other two."""

    orthogonality: float
    tridiagonal_residual: float
    eigenvalue_mismatch: float
    tolerance: float
    passed: bool

    def failures(self, scale: float) -> list[str]:
        """Names of the residuals above their bounds (a NaN is above), for
        a bath whose largest omega^2 is `scale`."""
        bounds = {
            "orthogonality_residual": (self.orthogonality, max(self.tolerance, 1e-10)),
            "tridiagonal_residual": (self.tridiagonal_residual, self.tolerance * scale),
            "eigenvalue_mismatch": (self.eigenvalue_mismatch, self.tolerance * scale),
        }
        return [name for name, (value, bound) in bounds.items() if not value <= bound]


def verify_equivalence(io: IOModel, chain: ChainModel, O,
                       rtol: float = _RTOL) -> EquivalenceReport:
    """Residuals of the defining relations of the chain map.

    Checks ||O O^T - I||_max, ||T - O diag(omega^2) O^T||_max, and the
    largest mismatch between T's sorted eigenvalues and {omega_k^2}; all
    but the orthogonality residual are compared against rtol * max(omega^2).

    No eigensolve runs and no N x N array is formed beyond the map: O O^T
    and (O omega)(O omega)^T are taken `_CHECK_BLOCK` rows by as many
    columns at a time, over the blocks on and below the diagonal, and
    their residuals reduced block by block; T stays tridiagonal.  The spectrum
    is checked by Sturm counts of T's pivots at omega_k^2 -/+ delta
    (delta = rtol * max(omega^2)), which decide exactly whether every
    sorted eigenvalue lies within delta of its omega_k^2
    (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  Where they hold,
    the mismatch reported is the Newton step on det(T - x) from
    x = omega_k^2, which measures T's own spectrum to about
    1e-16 * max(omega^2); where they fail, it is the distance of the
    eigenvalue bisected on the same counts, above delta.
    """
    check_range(chain.N, io.N, io.N, "chain size")
    check_range(len(O), io.N, io.N, "map rows")
    w2 = io.omega**2
    scale = w2.max()
    a, off = chain.Omega**2, chain.D
    # np.maximum, not max(): a NaN residual must stay NaN
    ortho = tri_res = 0.0
    for i0 in range(0, io.N, _CHECK_BLOCK):
        i = slice(i0, i0 + _CHECK_BLOCK)
        P_i = O[i] * io.omega
        for k0 in range(0, i0 + 1, _CHECK_BLOCK):
            k = slice(k0, k0 + _CHECK_BLOCK)
            # one buffer for both products; on the diagonal, I and then
            # T's band come off its diagonals, which are strided slices
            G = O[i] @ O[k].T
            n = len(G)
            g = G.reshape(-1)
            if k0 == i0:
                g[:: n + 1] -= 1.0
            ortho = np.maximum(ortho, np.abs(G, out=G).max())
            np.matmul(P_i, (P_i if k0 == i0 else O[k] * io.omega).T, out=G)
            if k0 == i0:
                g[:: n + 1] -= a[i]
                g[1:: n + 1] += off[i0: i0 + n - 1]
                g[n:: n + 1] += off[i0: i0 + n - 1]
            elif k0 + _CHECK_BLOCK == i0:
                G[0, -1] += off[i0 - 1]     # T's corner in the block left of the diagonal
            tri_res = np.maximum(tri_res, np.abs(G, out=G).max())
    eig_mis = _spectrum_mismatch(chain, w2, rtol * scale)[0]

    report = EquivalenceReport(
        orthogonality=float(ortho),
        tridiagonal_residual=float(tri_res),
        eigenvalue_mismatch=float(eig_mis),
        tolerance=rtol,
        passed=False,
    )
    return replace(report, passed=not report.failures(scale))
