"""Nested memory kernels of the chain dynamics.

K_0(tau) = sin(Omega_0 tau) and K_i = K_{i-1} * sin(Omega_i .) (convolution
on [0, tau]), so each K_i is an i-fold nested integral of sines.  Every
kernel the library computes applies that nesting to sampled signals, one
single-sine `convolve_on_grid` per level: the Volterra source and the tail
error through `solution.nested_convolve`, and the `kernels` command by
convolving sin(Omega_0 t) up the chain.  `convolve_on_grid` needs only numpy:
it integrates the local 6-point Lagrange interpolant of the uniformly
sampled signal against cos/sin by per-interval Gauss-Legendre and
accumulates the moments.  Angle addition moves the trig to the grid points
and folds the node weights into one small matrix per stencil offset, so a
call costs O(M F) trig plus O(M STENCIL F) window products for M samples
and F frequencies.  `check_grid` refuses grids too coarse for it.

This module also keeps three independent evaluations of K_i itself, which
the tests use as oracles for one another and for the nesting:

- the closed form: for pairwise-distinct frequencies the nesting unrolls by
  partial fractions into a finite sine series

      K_i(tau) = sum_j alpha_j sin(Omega_j tau),
      alpha_j  = prod(Omega) / (Omega_j * prod_{l != j} (Omega_l^2 - Omega_j^2)),

  whose coefficients cancel catastrophically beyond order ~20;
- the Taylor series at the origin, from the Laplace picture
  prod_l Omega_l/(s^2 + Omega_l^2): all even derivatives vanish, the first
  2i derivatives vanish, and

      K_i^(2m+1)(0) = (-1)^(m-i) * prod(Omega) * h_{m-i}(Omega_0^2, ..., Omega_i^2)

  with h the complete homogeneous symmetric polynomial, which is stable at
  high order and valid for coincident frequencies;
- nested Gauss-Legendre quadrature of the defining integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateFrequencies, GridTooCoarse, ToleranceNotReached

# Gauss-Legendre nodes per grid interval in convolve_on_grid
NODES = 8
# Points of the local Lagrange interpolant behind convolve_on_grid
STENCIL = 6


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


@lru_cache(maxsize=8)
def _gl_rule(nodes: int):
    x, w = leggauss(nodes)
    return x, w


def _nested_gl(freqs, taus, panels, nodes):
    """Nested composite Gauss-Legendre evaluation of the kernel recursion.

    Peels the last frequency: K(tau) = int_0^tau K_inner(tau - u) sin(f u) du.
    `taus` is a flat array; the recursion batches all node points of a level
    into one call, so the leaves are a single vectorized sine evaluation.
    """
    if len(freqs) == 1:
        return np.sin(freqs[0] * taus)
    x, w = _gl_rule(nodes)
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
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    if k < 0:
        raise ValueError("derivative order must be >= 0")
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
    if max_order < 2 * i + 2:
        raise ValueError(f"max_order must be >= {2 * i + 2} for nesting depth {i}")
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


def _uniform_step(times) -> float | None:
    """The step h of a grid t_m = m h that starts at 0, has at least two
    samples and keeps every step within 1e-8 h of h; None for any other
    grid (NaN times included)."""
    times = np.asarray(times, dtype=float)
    if len(times) < 2 or times[0] != 0.0:
        return None
    h = times[-1] / (len(times) - 1)
    return float(h) if np.all(np.abs(np.diff(times) - h) <= 1e-8 * h) else None


@lru_cache(maxsize=8)
def _stencil_weights(P: int) -> dict[int, np.ndarray]:
    """Weights (NODES, P) of the P-point Lagrange interpolant through
    t_{k+d}, ..., t_{k+d+P-1} at the Gauss-Legendre nodes of [t_k, t_{k+1}],
    keyed by d = 2-P, ..., 0 (every stencil holds t_k and t_{k+1}).  On a
    uniform grid they do not depend on k or on the step."""
    x, _ = _gl_rule(NODES)
    u = 0.5 * (x + 1.0)                                     # nodes in steps from t_k
    weights = {}
    for d in range(2 - P, 1):
        pts = d + np.arange(P)
        w = np.ones((NODES, P))
        for j in range(P):
            for l in range(P):
                if l != j:
                    w[:, j] *= (u - pts[l]) / (pts[j] - pts[l])
        w.flags.writeable = False
        weights[d] = w
    return weights


def convolve_on_grid(freqs, coeffs, values, times) -> np.ndarray:
    """Convolution of a sine series with a sampled signal, on the signal's grid.

    Returns conv[m] = int_0^{t_m} sum_j coeffs[j] sin(freqs[j] (t_m - s)) v(s) ds
    where v is the local 6-point Lagrange interpolant of (times, values)
    (exact for quintics): interval [t_k, t_{k+1}] uses the stencil
    t_{k-2}, ..., t_{k+3}, shifted one-sided at the ends of the grid (all M
    points when M < STENCIL).  Expanding the sine of a difference reduces the
    whole family of integrals to two cumulative moments per frequency, each
    interval's share by NODES-point Gauss-Legendre.  By angle addition the
    cosine share is cos(f t_k) A_k - sin(f t_k) B_k and the sine share
    sin(f t_k) A_k + cos(f t_k) B_k, where (A_k, B_k), the moments of
    cos/sin(f (s - t_k)), are the stencil window of samples times one fixed
    (STENCIL, 2) matrix per stencil offset.  The cost is O(M F) trig at the
    grid points plus O(M STENCIL F) window products, for M samples and F
    frequencies; no per-node array is formed.

    `times` must be uniform (to a relative 1e-8 in the step) and start at 0
    (the dynamics all start there); ValueError otherwise.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    M = len(times)
    h = _uniform_step(times)
    if h is None:
        raise ValueError("convolution grid must be uniform, start at t = 0 "
                         "and have >= 2 samples")
    freqs = np.asarray(freqs, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    F = len(freqs)

    # Gauss-Legendre weights times [cos, sin](f (s - t_k)) at the nodes of one interval
    x, w = _gl_rule(NODES)
    fhu = np.multiply.outer(0.5 * h * (x + 1.0), freqs)    # (NODES, F)
    E = (0.5 * h * w)[:, None] * np.concatenate([np.cos(fhu), np.sin(fhu)], axis=1)
    P = min(STENCIL, M)
    c = P // 2 - 1                                          # centred stencil starts at t_{k-c}
    G = {d: W.T @ E for d, W in _stencil_weights(P).items()}  # (P, 2F) each
    AB = np.empty((M - 1, 2 * F))
    AB[c:M - P + c + 1] = sliding_window_view(values, P) @ G[-c]
    for k in range(c):                                      # stencil t_0 .. t_{P-1}
        AB[k] = values[:P] @ G[-k]
    for k in range(M - P + c + 1, M - 1):                   # stencil t_{M-P} .. t_{M-1}
        AB[k] = values[M - P:] @ G[M - P - k]
    A, B = AB[:, :F], AB[:, F:]

    # cumulative moments C(t_m) = int_0^{t_m} cos(f s) v(s) ds, S(t_m) likewise with sin
    ft = np.multiply.outer(times, freqs)                    # (M, F)
    cos_ft, sin_ft = np.cos(ft), np.sin(ft)
    C = np.zeros((M, F))
    S = np.zeros((M, F))
    np.cumsum(cos_ft[:-1] * A - sin_ft[:-1] * B, axis=0, out=C[1:])
    np.cumsum(sin_ft[:-1] * A + cos_ft[:-1] * B, axis=0, out=S[1:])
    return (sin_ft * C - cos_ft * S) @ coeffs


def check_grid(times, vmax: float, max_freq: float) -> None:
    """Raise GridTooCoarse when the grid is too coarse for convolve_on_grid
    on signals of size vmax with frequencies up to max_freq.

    The gate is the fourth-order interpolation estimate (5/384) h^4 max|v^(4)|,
    taking |v^(4)| ~ max_freq^4 vmax, which must stay within 1e-7 * vmax.
    The interpolant is sixth-order, so this gate is conservative: at the
    coarsest grid it accepts, the measured error of one convolution and of
    the whole Volterra cascade is 500-1000x below 1e-7 * vmax.
    """
    h = float(np.max(np.diff(times)))
    est = (5.0 / 384.0) * (h * max_freq) ** 4 * vmax
    if est > 1e-7 * max(vmax, 1e-300):
        raise GridTooCoarse(
            f"estimated interpolation error {est:.3e} exceeds "
            f"1e-7 * max|X| = {1e-7 * vmax:.3e}; refine the grid"
        )
