"""Exact evolution of the coupled system+chain as a linear second-order system.

Everything here is y'' = -A y with A symmetric positive definite, solved by
spectral decomposition:

    y(t) = V cos(sqrt(L) t) V^T y(0) + V sin(sqrt(L) t) L^{-1/2} V^T y'(0),

which is exact up to eigensolver precision and has no time-step error.
Truncating the chain after mode n means dropping the coupling D_n, i.e.
keeping the leading (n+1) x (n+1) block of the extended matrix.  The
untruncated x(t), and any chain coordinate whose map row is given
(`evolve_io_modes`), need no eigensolve: the independent-oscillator matrix
is an arrowhead, whose eigenvalues are the roots of a secular equation and
whose eigenvectors follow from them in closed form, in O(N^2) time and
BLOCK rows at a time.  Single coordinates (`_modal_row`) take a uniform
grid from 0 by angle addition, BLOCK modes at a time, with trig on about
2 sqrt(M) points per mode for M samples instead of M.  The dense
evolutions that check these routes are in `tests/oracles.py`.

Sign conventions: the extended chain matrix carries -D0 and -D_j off the
diagonal (so the equations of motion read x'' = -Omega0^2 x + D0 X_1 with
positive couplings), while the extended independent-oscillator matrix
carries +c_k.  The two are similar via diag(1, -O), so chain initial data
are X(0) = -O q(0); `extended_initial_conditions` applies that once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnstableMode, check_index
from .kernels import _uniform_step
from .spectral import SCALE, ChainModel, IOModel

# Rows per block of `evolve_io_x`'s O(N^2) sweeps over (root, pole) pairs,
# and modes per block of `_modal_row`'s sums: one BLOCK x N distance buffer
# is live at a time, 1 MB at N = 2048
BLOCK = 64


@dataclass(frozen=True)
class InitialState:
    """Bath positions/velocities and system position/velocity at t = 0,
    in the independent-oscillator picture."""

    q0: np.ndarray
    qdot0: np.ndarray
    x0: float = 0.0
    xdot0: float = 0.0

    def __post_init__(self):
        q0 = np.asarray(self.q0, dtype=float)
        qdot0 = np.asarray(self.qdot0, dtype=float)
        if q0.shape != qdot0.shape or q0.ndim != 1:
            raise ValueError("q0 and qdot0 must be 1-d arrays of equal length")
        # NaN fails the comparison too
        if not np.all(np.abs(np.concatenate([q0, qdot0, [self.x0, self.xdot0]])) <= SCALE[1]):
            raise ValueError(f"initial state entries must be finite and at most {SCALE[1]:.3g}")
        q0.flags.writeable = False
        qdot0.flags.writeable = False
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "qdot0", qdot0)

    @property
    def N(self) -> int:
        return len(self.q0)


def assemble_extended_matrix(chain: ChainModel, n: int) -> np.ndarray:
    """(n+1)-dimensional evolution matrix of the system plus the first n
    chain modes: diagonal (Omega0^2, Omega_1^2, ..., Omega_n^2),
    off-diagonal (-D0, -D_1, ..., -D_{n-1}).  n = 0 is the isolated system;
    truncation at n < N just drops the rows/columns past mode n."""
    check_index(n, chain.N, "truncation index")
    A = np.zeros((n + 1, n + 1))
    A[0, 0] = chain.Omega0**2
    for i in range(1, n + 1):
        A[i, i] = chain.Omega[i - 1] ** 2
    if n >= 1:
        A[0, 1] = A[1, 0] = -chain.D0
    for i in range(1, n):
        A[i, i + 1] = A[i + 1, i] = -chain.D[i - 1]
    return A


def _decompose(A: np.ndarray):
    lam, V = np.linalg.eigh(np.asarray(A, dtype=float))
    if lam.min() <= 0:
        raise UnstableMode(
            f"evolution matrix has eigenvalue {lam.min():.6g} <= 0; "
            "outside the oscillatory regime"
        )
    return np.sqrt(lam), V


def _modal_data(A, y0, ydot0):
    """Normal-mode frequencies w, eigenvectors V, and the modal amplitudes
    a = V^T y0, b = V^T ydot0 / w of y'' = -A y."""
    w, V = _decompose(A)
    a = V.T @ np.asarray(y0, dtype=float)
    b = (V.T @ np.asarray(ydot0, dtype=float)) / w
    return w, V, a, b


def _modal_row(modal, y0, i, times) -> np.ndarray:
    """Coordinate i alone, y0[i] + sum_j (a_j (cos(w_j t) - 1) + b_j sin(w_j t)) V[i, j],
    of the evolution `_modal_data` describes, exact at t = 0.

    The grid must be uniform from 0 (`kernels._uniform_step`, ValueError
    otherwise), and the samples go by angle addition: sample p B + q sits
    at t_pB + t_q, B = ceil(sqrt(M)) for M samples, and
    a cos(w t) + b sin(w t) there is (a cos(w t_pB) + b sin(w t_pB)) cos(w t_q)
    + (b cos(w t_pB) - a sin(w t_pB)) sin(w t_q), so x is a sum of
    (P, 2 b) x (2 b, B) products over the modes, BLOCK (b) at a time,
    P = ceil(M / B), with trig on (P + B) dim points instead of M dim and
    no (M, dim) array; the increment is taken from the sum's own t = 0
    entry.  Up to BLOCK modes the sum is one product.
    """
    w, V, a, b = modal
    alpha, beta = a * V[i], b * V[i]
    times = np.asarray(times, dtype=float)
    _uniform_step(times, "modal sum")
    M = len(times)
    B = math.isqrt(M - 1) + 1
    for s in range(0, len(w), BLOCK):
        wb, al, be = w[s:s + BLOCK], alpha[s:s + BLOCK], beta[s:s + BLOCK]
        phase = np.multiply.outer(times[::B], wb)
        cos_p, sin_p = np.cos(phase), np.sin(phase, out=phase)
        coarse = np.concatenate([al * cos_p + be * sin_p, be * cos_p - al * sin_p], axis=1)
        del cos_p, sin_p, phase
        phase = np.multiply.outer(wb, times[:B])
        fine = np.concatenate([np.cos(phase), np.sin(phase, out=phase)])
        # no zero start: the first block's product is x, -0.0 included
        x = coarse @ fine if s == 0 else x + coarse @ fine
    x = x.ravel()[:M]
    return y0[i] + (x - x[0])


def extended_initial_conditions(O, init: InitialState, n: int):
    """Initial data (y0, ydot0) of the system plus the first n chain modes,
    system first, chain modes X(0) = -O[:n] q(0) (only the kept rows of the
    map O are applied).  The map may hold only its leading rows; its bath
    dimension must match the initial state's."""
    if O.shape[1] != init.N:
        raise ValueError(f"map bath size {O.shape[1]} != initial-state size {init.N}")
    O = O[:n]
    return (np.concatenate([[init.x0], -(O @ init.q0)]),
            np.concatenate([[init.xdot0], -(O @ init.qdot0)]))


def evolve_truncated_x(chain: ChainModel, n: int, init: InitialState, O, times) -> np.ndarray:
    """System coordinate x(t) of the chain cut after mode n (coupling D_n
    dropped), on a uniform grid from 0, its chain data from the bath's
    through the map O: n = chain.N on the full map is untruncated."""
    y0, ydot0 = extended_initial_conditions(O, init, n)
    return _modal_row(_modal_data(assemble_extended_matrix(chain, n), y0, ydot0), y0, 0, times)


def evolve_io_x(io: IOModel, init: InitialState, times) -> np.ndarray:
    """The untruncated x(t), with no eigensolve and no chain map: row 0 of
    `evolve_io_modes` with no map rows."""
    return evolve_io_modes(io, init, np.empty((0, io.N)), times)[0]


def evolve_io_modes(io: IOModel, init: InitialState, O, times) -> np.ndarray:
    """Rows x(t) and -O[i] . q(t), the chain coordinates of the map rows O,
    from the independent-oscillator picture with no eigensolve:
    O((N + len(O)) N) time besides the samples, O(BLOCK N) memory besides
    `_modal_row`'s, and row 0 bitwise the same for any O.

    Eigenvalues come from `_secular_roots`, once the Schur complement
    Omega0^2 - sum_k c_k^2 / omega_k^2 > 0 shows that they are all positive
    (UnstableMode otherwise).  The eigenvector of lambda_j is
    (1, c_k / (lambda_j - omega_k^2)) over its norm, so with
    Q[j, k] = 1 / (lambda_j - omega_k^2) the system row holds
    V[0, j] = (1 + sum_k c_k^2 Q[j, k]^2)^(-1/2), and the modal amplitudes
    are a_j = V[0, j] (x0 + sum_k Q[j, k] c_k q0_k), b_j likewise from the
    velocities over w_j; a map row weighs mode j by
    -V[0, j] sum_k O[i, k] c_k Q[j, k].  Those c_k make the computed roots
    exact eigenvalues (`_loewner_couplings`), and Q is rebuilt a BLOCK of
    rows at a time.
    """
    if io.N != init.N:
        raise ValueError(f"bath size {io.N} != initial-state size {init.N}")
    if O.ndim != 2 or O.shape[1] != io.N:
        raise ValueError(f"map rows of shape {O.shape} do not act on {io.N} bath modes")
    # a coupling below the matrix's rounding level decouples its mode
    # (deflation): its root would sit closer to the pole than a double
    # resolves; it keeps its frequency and reaches the chain rows alone
    eps = np.finfo(float).eps
    keep = io.c > eps * (max(io.Omega0**2, io.omega[-1] ** 2) + np.linalg.norm(io.c))
    d, c2, alpha = io.omega[keep] ** 2, io.c[keep] ** 2, io.Omega0**2
    schur = float(np.sum(c2 / d))
    if alpha <= schur:
        raise UnstableMode(
            f"Omega0^2 = {alpha:.6g} <= sum c_k^2/omega_k^2 = {schur:.6g}: the "
            "evolution matrix has an eigenvalue <= 0; outside the oscillatory regime")
    if keep.any():
        sigma, tau = _secular_roots(d, c2, alpha)
        c_hat = _loewner_couplings(d, sigma, tau)
    else:  # the system oscillates alone
        sigma, tau, c_hat = np.array([alpha]), np.zeros(1), np.empty(0)
    weighted = c_hat[:, None] * np.stack([init.q0[keep], init.qdot0[keep]], axis=1)
    weighted_O = -c_hat[:, None] * O[:, keep].T
    c2_hat = c_hat**2
    amp, amp_O = np.empty((len(sigma), 2)), np.empty((len(sigma), len(O)))
    norm2 = np.empty(len(sigma))
    for rows, Q in _distance_blocks(d, sigma, tau):
        np.divide(-1.0, Q, out=Q)
        amp[rows] = Q @ weighted
        amp_O[rows] = Q @ weighted_O
        np.square(Q, out=Q)
        norm2[rows] = Q @ c2_hat
    del Q  # the sweep's buffer goes before the modal sums
    v0 = 1.0 / np.sqrt(1.0 + norm2)
    w = np.sqrt(sigma + tau)
    a = v0 * (init.x0 + amp[:, 0])
    b = v0 * (init.xdot0 + amp[:, 1]) / w
    x = _modal_row((w, v0[None, :], a, b), [init.x0], 0, times)
    free, w_free = ~keep, io.omega[~keep]
    chain = (np.concatenate([w, w_free]), np.concatenate([v0 * amp_O.T, -O[:, free]], axis=1),
             np.concatenate([a, init.q0[free]]), np.concatenate([b, init.qdot0[free] / w_free]))
    X0 = -(O @ init.q0)
    return np.array([x, *(_modal_row(chain, X0, i, times) for i in range(len(O)))])


def _distance_blocks(d, sigma, tau):
    """Yield (rows, dist) for each BLOCK of rows: dist[r, k] = d_k - lambda_r
    for the rows' roots lambda = sigma + tau, taken from each root's origin
    as (d_k - sigma_r) - tau_r.  Every block is a view of one
    BLOCK x len(d) buffer, filled again for the next block: the caller may
    overwrite it, but must not keep it past its own block or the loop."""
    buf = np.empty((min(BLOCK, len(sigma)), len(d)))
    for start in range(0, len(sigma), BLOCK):
        rows = slice(start, min(start + BLOCK, len(sigma)))
        dist = np.subtract(d, sigma[rows, None], out=buf[: rows.stop - start])
        dist -= tau[rows, None]
        yield rows, dist


def _bracket_poles(rows, N):
    """Block-local indices (r, k) of the poles that bound the brackets of
    the roots j in `rows`: the upper pole k = j (j < N), then the lower
    pole k = j - 1 (j > 0)."""
    j = np.arange(rows.start, rows.stop)
    upper, lower = j[j < N], j[j > 0]
    return (upper - rows.start, upper), (lower - rows.start, lower - 1)


def _secular_roots(d, c2, alpha):
    """Eigenvalues of the arrowhead matrix [[alpha, c^T], [c, diag(d)]]
    (d strictly increasing, every c_k^2 > 0), each as an origin sigma_j and
    an offset tau_j, lambda_j = sigma_j + tau_j, in O(N^2) time and
    O(BLOCK N) memory.

    The eigenvalues are the N+1 roots of the secular function
    g(lam) = lam - alpha + sum_k c_k^2 / (d_k - lam), which rises from -inf
    to +inf between adjacent poles d_k, below the first and above the last.
    g at the middle of each bracket tells which end the root is nearer;
    that end becomes the origin, so that the distance d_k - lam to the
    nearest pole, which sets the eigenvector, is (d_k - sigma) - tau
    without cancellation (LAPACK dlaed4's device).  Each root starts from
    dlaed4's two-pole model: the bracket's two pole terms exact, the rest
    of g frozen at its midpoint value, a quadratic whose root in the
    bracket is kept when it lies on the root's side of the middle (the
    middle itself otherwise).  Each pass keeps the origin's pole term
    c_o^2 / (-tau) exact, linearizes the rest and steps to the root of
    that model, a quadratic; a step that leaves the bracket, or that is
    not at most half the previous one, bisects instead, so every root
    converges.  A root is done when |g| is within its rounding bound, or
    the step is below one ulp of tau; only the roots not done are
    evaluated again, a BLOCK of them at a time.  The lowest bracket
    starts at 0 where that is above Weyl's bound, which needs every root
    positive: the caller makes sure of it.
    """
    N = len(d)
    # brackets: (0, d_0), (d_0, d_1), ..., (d_{N-1}, ceiling) by Weyl's
    # bound |lam - diag| <= ||c||, with a factor 2 of room; the outer ends
    # are no poles and weigh 0
    spread = 2.0 * float(np.sqrt(np.sum(c2)))
    lo_end = np.concatenate([[max(0.0, np.min(d, initial=alpha) - spread)], d])
    hi_end = np.concatenate([d, [np.max(d, initial=alpha) + spread]])
    p_lo, p_hi = np.concatenate([[0.0], c2]), np.concatenate([c2, [0.0]])
    mid = 0.5 * (lo_end + hi_end)
    # g at the middle without the bracket's own poles
    rest = np.empty(N + 1)
    for rows, inv in _distance_blocks(d, mid, np.zeros(N + 1)):
        for own in _bracket_poles(rows, N):
            inv[own] = np.inf  # 1/inf: a +0.0 that drops them, even at distance 0
        np.reciprocal(inv, out=inv)
        rest[rows] = inv @ c2
    del inv
    rest += mid - alpha
    # a bracket one ulp wide can round its middle onto one of its own poles:
    # that term is then inf of the sign that puts the origin at that pole
    with np.errstate(divide="ignore"):
        g_mid = rest + p_lo / (lo_end - mid) + p_hi / (hi_end - mid)
    # the nearer end is the origin; its pole (none at the outer ends) is
    # column `pole` with weight p
    lower = g_mid >= 0
    sigma = np.where(lower, lo_end, hi_end)
    pole = np.arange(N + 1) - lower
    has_pole = (pole >= 0) & (pole < N)
    p = np.where(lower, p_lo, p_hi)
    tau = mid - sigma
    lo = np.where(lower, 0.0, tau)
    hi = np.where(lower, tau, 0.0)
    # two-pole start: rest - p/t + p_far/(far - t) = 0 with the far end at
    # t = far, i.e. rest t^2 - (rest far + p + p_far) t + p far = 0
    far = np.where(lower, hi_end, lo_end) - sigma
    A = rest * far + p + np.where(lower, p_hi, p_lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 0.5 * (A + np.copysign(np.sqrt(A * A - 4.0 * rest * p * far), A))
        for root in (p * far / q, q / rest):
            tau = np.where((root > lo) & (root < hi), root, tau)
    last_step = np.full(N + 1, np.inf)
    eps = np.finfo(float).eps

    todo = np.arange(N + 1)
    while todo.size:
        s, t = sigma[todo], tau[todo]
        # rest terms c_k^2 / (d_k - lam) with the origin's pole zeroed
        s1, s_abs, s2 = np.empty((3, todo.size))
        for rows, inv in _distance_blocks(d, s, t):
            np.reciprocal(inv, out=inv)
            at = np.flatnonzero(has_pole[todo[rows]])
            inv[at, pole[todo[rows]][at]] = 0.0
            s1[rows] = inv @ c2
            np.abs(inv, out=inv)
            s_abs[rows] = inv @ c2
            np.square(inv, out=inv)
            s2[rows] = inv @ c2
        del inv
        pole_term = p[todo] / t
        shift = s - alpha
        rest = shift + t + s1
        g = rest - pole_term
        done = np.abs(g) <= 8 * eps * (np.abs(shift) + np.abs(t) + s_abs + np.abs(pole_term))
        lo[todo] = np.where(g < 0, t, lo[todo])
        hi[todo] = np.where(g > 0, t, hi[todo])
        # root of -p/tau' + rest + a (tau' - t) = 0 on the origin's side
        a = 1.0 + s2
        b = rest - a * t
        q = -0.5 * (b + np.copysign(np.sqrt(b * b + 4.0 * a * p[todo]), b))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(lower[todo] == (q > 0), q / a, -p[todo] / q)
        l, h = lo[todo], hi[todo]
        bisect = ~((step > l) & (step < h) & (np.abs(step - t) <= 0.5 * last_step[todo]))
        step = np.where(bisect, 0.5 * (l + h), step)
        moved = np.abs(step - t)
        done |= moved <= eps * np.abs(t)
        tau[todo] = np.where(done, t, step)
        last_step[todo] = moved
        todo = todo[~done]
    return sigma, tau


def _loewner_couplings(d, sigma, tau):
    """The couplings c_hat (positive) of the arrowhead with poles d whose
    exact eigenvalues are the roots lambda_j = sigma_j + tau_j of
    `_secular_roots` (Gu & Eisenstat).

    By Loewner's formula c_hat_k^2 = -prod_j (d_k - lambda_j) /
    prod_{i != k} (d_k - d_i), taken as a product of ratios near one,
    accumulated over j in row order a BLOCK of rows at a time.  A root
    close to a pole pins lambda_j - d_k to only a few digits when its
    neighbours crowd it, and with the given couplings the eigenvectors
    (1, c_k / (lambda_j - d_k)) would then lose orthogonality; with these
    they stay orthogonal to working precision.
    """
    N = len(d)
    col = np.arange(N)
    prod = np.ones(N)
    # row 0 carries the product so far, so that one reduction continues it
    # in row order
    buf = np.empty((min(BLOCK, len(sigma)) + 1, N))
    for rows, dist in _distance_blocks(d, sigma, tau):
        ratio = buf[: len(dist) + 1]
        ratio[0] = prod
        # pair d_k - lambda_j with d_k - d_j below the pole and d_k - d_{j-1}
        # above it; the two roots that straddle d_k keep their own
        # distance, the upper one with its sign turned
        j = np.arange(rows.start, rows.stop)[:, None]
        den = ratio[1:]
        np.subtract(d, d[np.minimum(j, N - 1)], out=den)
        np.subtract(d, d[j - 1], out=den, where=j > col)
        below, above = _bracket_poles(rows, N)
        den[below] = 1.0
        den[above] = -1.0
        np.divide(dist, den, out=den)
        prod = np.prod(ratio, axis=0)
    return np.sqrt(prod)


def free_mode_evolution(Omega_i: float, X0: float, Xdot0: float, t):
    """Uncoupled mode: X0 cos(Omega t) + Xdot0 sin(Omega t)/Omega."""
    if Omega_i <= 0:
        raise ValueError("mode frequency must be positive")
    t = np.asarray(t, dtype=float)
    out = X0 * np.cos(Omega_i * t) + Xdot0 * np.sin(Omega_i * t) / Omega_i
    return out if out.ndim else float(out)
