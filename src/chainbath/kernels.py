"""Nested memory kernels of the chain dynamics.

K_0(tau) = sin(Omega_0 tau) and K_i = K_{i-1} * sin(Omega_i .) (convolution
on [0, tau]), so each K_i is an i-fold nested integral of sines.  Every
kernel the library computes applies that nesting to sampled signals, one
single-sine `convolve_on_grid` per level: the Volterra source and its
resolvent solve through `solution.nested_convolve`, and the `kernels`
command by convolving sin(Omega_0 t) up the chain.  `convolve_on_grid` needs only numpy:
it integrates the local 6-point Lagrange interpolant of the uniformly
sampled signal against cos/sin by per-interval Gauss-Legendre (a fixed
8-node table) and accumulates the moments.  Angle addition moves the trig
to the grid points and folds the node weights into one small matrix per
stencil offset, so a call costs O(M) trig plus O(M STENCIL) window
products for M samples.  Its error is measured, not predicted: the
`kernels` command runs its cascade again on every other sample
(Richardson), and `simulate` compares its Volterra column with x_full.

The closed-form, Taylor and nested-quadrature evaluations of K_i that
the tests check this nesting against live in `tests/oracles.py`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Points of the local Lagrange interpolant behind convolve_on_grid
STENCIL = 6
# The Gauss-Legendre rule on [-1, 1] that convolve_on_grid applies per grid
# interval, numpy's leggauss(8) as literals: no command loads
# numpy.polynomial for it
_GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])


def _uniform_step(times, what: str) -> float:
    """The step h of a grid t_m = m h that starts at 0, has at least two
    samples and keeps every step within 1e-8 h of h; ValueError, naming
    the `what` grid, for any other grid (NaN times included)."""
    times = np.asarray(times, dtype=float)
    if len(times) >= 2 and times[0] == 0.0:
        h = times[-1] / (len(times) - 1)
        if np.all(np.abs(np.diff(times) - h) <= 1e-8 * h):
            return float(h)
    raise ValueError(f"{what} grid must be uniform, start at t = 0 and have >= 2 samples")


@lru_cache(maxsize=8)
def _stencil_weights(P: int) -> dict[int, np.ndarray]:
    """Weights (len(_GL_X), P) of the P-point Lagrange interpolant through
    t_{k+d}, ..., t_{k+d+P-1} at the Gauss-Legendre nodes of [t_k, t_{k+1}],
    keyed by d = 2-P, ..., 0 (every stencil holds t_k and t_{k+1}).  On a
    uniform grid they do not depend on k or on the step."""
    u = 0.5 * (_GL_X + 1.0)                                 # nodes in steps from t_k
    weights = {}
    for d in range(2 - P, 1):
        pts = d + np.arange(P)
        w = np.ones((len(_GL_X), P))
        for j in range(P):
            for l in range(P):
                if l != j:
                    w[:, j] *= (u - pts[l]) / (pts[j] - pts[l])
        w.flags.writeable = False
        weights[d] = w
    return weights


def convolve_on_grid(freqs, values, times) -> np.ndarray:
    """Convolution of one sine with a sampled signal, on the signal's grid.

    Returns conv[m] = int_0^{t_m} sin(f (t_m - s)) v(s) ds for the one
    frequency f = `freqs` (a real scalar; `perfbench/tracer.py` binds the
    parameter by that name), where v is the local 6-point Lagrange
    interpolant of (times, values) (exact for quintics): interval
    [t_k, t_{k+1}] uses the stencil t_{k-2}, ..., t_{k+3}, shifted one-sided
    at the ends of the grid (all M points when M < STENCIL).  Expanding the
    sine of a difference reduces the whole family of integrals to two
    cumulative moments, each interval's share by 8-point Gauss-Legendre.
    By angle addition the cosine share is cos(f t_k) A_k - sin(f t_k) B_k
    and the sine share sin(f t_k) A_k + cos(f t_k) B_k, where (A_k, B_k),
    the moments of cos/sin(f (s - t_k)), are the stencil window of samples
    times one fixed (STENCIL, 2) matrix per stencil offset.  The cost is
    O(M) trig at the grid points plus O(M STENCIL) window products, for M
    samples; no per-node array is formed.

    `times` must be uniform (to a relative 1e-8 in the step) and start at 0
    (the dynamics all start there); ValueError otherwise.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    M = len(times)
    h = _uniform_step(times, "convolution")
    f = float(freqs)

    # Gauss-Legendre weights times [cos, sin](f (s - t_k)) at the nodes of one interval
    fhu = 0.5 * h * (_GL_X + 1.0) * f
    E = (0.5 * h * _GL_W)[:, None] * np.stack([np.cos(fhu), np.sin(fhu)], axis=1)  # (8, 2)
    P = min(STENCIL, M)
    c = P // 2 - 1                                          # centred stencil starts at t_{k-c}
    G = {d: W.T @ E for d, W in _stencil_weights(P).items()}  # (P, 2) each
    AB = np.empty((M - 1, 2))
    AB[c:M - P + c + 1] = sliding_window_view(values, P) @ G[-c]
    for k in range(c):                                      # stencil t_0 .. t_{P-1}
        AB[k] = values[:P] @ G[-k]
    for k in range(M - P + c + 1, M - 1):                   # stencil t_{M-P} .. t_{M-1}
        AB[k] = values[M - P:] @ G[M - P - k]
    A, B = AB.T

    # cumulative moments C(t_m) = int_0^{t_m} cos(f s) v(s) ds, S(t_m) likewise with sin
    ft = f * times
    cos_ft, sin_ft = np.cos(ft), np.sin(ft)
    C = np.zeros(M)
    S = np.zeros(M)
    np.cumsum(cos_ft[:-1] * A - sin_ft[:-1] * B, out=C[1:])
    np.cumsum(sin_ft[:-1] * A + cos_ft[:-1] * B, out=S[1:])
    # an exact cancellation can leave -0.0; + 0.0 writes it as +0.0, so a
    # zero prints as `0` in the CSVs, never `-0`
    return sin_ft * C - cos_ft * S + 0.0
