"""Exact evolution of the coupled system+chain as a linear second-order system.

Everything here is y'' = -A y with A symmetric positive definite, solved by
spectral decomposition:

    y(t) = V cos(sqrt(L) t) V^T y(0) + V sin(sqrt(L) t) L^{-1/2} V^T y'(0),

which is exact up to eigensolver precision, has no time-step error, and can
be sampled on any grid.  Truncating the chain after mode n means dropping
the coupling D_n, i.e. keeping the leading (n+1) x (n+1) block of the
extended matrix.  The untruncated x(t) alone (`evolve_io_x`) needs no
eigensolve: the independent-oscillator matrix is an arrowhead, whose
eigenvalues are the roots of a secular equation and whose eigenvectors
follow from them in closed form, all in O(N^2); the dense route
(`evolve_io`) stays as its cross-check.

Sign conventions: the extended chain matrix carries -D0 and -D_j off the
diagonal (so the equations of motion read x'' = -Omega0^2 x + D0 X_1 with
positive couplings), while the extended independent-oscillator matrix
carries +c_k.  The two are similar via diag(1, -O), so chain initial data
are X(0) = -O q(0); `extended_initial_conditions` applies that once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnstableMode, check_index
from .spectral import ChainModel, IOModel, OrthogonalMap


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
            raise DimensionMismatch("q0 and qdot0 must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(q0)) and np.all(np.isfinite(qdot0))
                and np.isfinite(self.x0) and np.isfinite(self.xdot0)):
            raise ValueError("initial state entries must be finite")
        q0.flags.writeable = False
        qdot0.flags.writeable = False
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "qdot0", qdot0)

    @property
    def N(self) -> int:
        return len(self.q0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution on a uniform grid: system coordinate x(t) and the
    chain coordinates X[i, m] = X_{i+1}(t_m), with velocities, which are
    both None on a positions-only trajectory."""

    times: np.ndarray
    x: np.ndarray
    xdot: np.ndarray | None
    X: np.ndarray
    Xdot: np.ndarray | None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        dt = np.diff(t)
        if len(t) < 2 or np.any(dt <= 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("time grid must have uniform step")
        positions_only = self.xdot is None and self.Xdot is None
        if not (self.x.shape == t.shape and self.X.shape[1:] == t.shape
                and (positions_only or (np.shape(self.xdot) == t.shape
                                        and np.shape(self.Xdot) == self.X.shape))):
            raise DimensionMismatch("trajectory array shapes are inconsistent")

    @property
    def n_modes(self) -> int:
        return self.X.shape[0]

    def mode(self, i: int) -> np.ndarray:
        """Samples of X_i(t); mode(0) is the system coordinate x."""
        check_index(i, self.n_modes, "mode index")
        return self.x if i == 0 else self.X[i - 1]


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


def assemble_io_matrix(io: IOModel) -> np.ndarray:
    """(N+1)-dimensional evolution matrix in the independent-oscillator
    picture: diag(Omega0^2, omega_k^2) with +c_k in the system row/column."""
    A = np.zeros((io.N + 1, io.N + 1))
    A[0, 0] = io.Omega0**2
    A[1:, 1:] = np.diag(io.omega**2)
    A[0, 1:] = io.c
    A[1:, 0] = io.c
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
    """Coordinate i alone, y0[i] + (cos(wt) - 1) @ (a V[i]) + sin(wt) @ (b V[i]),
    of the evolution `_modal_data` describes: O(len(times) * dim), exact at t = 0."""
    w, V, a, b = modal
    wt = np.multiply.outer(np.asarray(times, dtype=float), w)
    x_sin = np.sin(wt) @ (b * V[i])
    # cos(wt) - 1 overwrites wt: no second (samples, dim) buffer
    cosm1_wt = np.cos(wt, out=wt)
    cosm1_wt -= 1.0
    return y0[i] + cosm1_wt @ (a * V[i]) + x_sin


def evolve_raw(A, y0, ydot0, times, velocities: bool = True):
    """Positions and velocities of y'' = -A y at arbitrary increasing times.

    Returns (Y, Ydot) with shape (len(times), dim); Ydot is None when
    `velocities` is false, which skips the second (samples, dim) x
    (dim, dim) product and leaves Y bitwise unchanged.  Raises UnstableMode
    if A has a non-positive eigenvalue.
    """
    w, V, a, b = _modal_data(A, y0, ydot0)
    y0 = np.asarray(y0, dtype=float)
    ydot0 = np.asarray(ydot0, dtype=float)
    wt = np.multiply.outer(np.asarray(times, dtype=float), w)
    cosm1_wt, sin_wt = np.cos(wt) - 1.0, np.sin(wt)
    # written as increments from the initial data so that t = 0 is bit-exact
    Y = y0 + (cosm1_wt * a + sin_wt * b) @ V.T
    if not velocities:
        return Y, None
    Ydot = ydot0 + ((cosm1_wt * b - sin_wt * a) * w) @ V.T
    return Y, Ydot


def evolve_exact(A, y0, ydot0, times, velocities: bool = True) -> Trajectory:
    """Trajectory of the extended linear system on a uniform grid.

    Coordinate 0 is the system; the rest are chain modes.  Total energy
    along the returned trajectory is conserved to eigensolver precision.
    With `velocities` false the trajectory holds positions only (see
    `evolve_raw`).
    """
    Y, Ydot = evolve_raw(A, y0, ydot0, times, velocities)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        x=Y[:, 0], xdot=None if Ydot is None else Ydot[:, 0],
        X=Y[:, 1:].T, Xdot=None if Ydot is None else Ydot[:, 1:].T,
    )


def chain_initial_conditions(omap: OrthogonalMap, init: InitialState):
    """Chain-mode initial data equivalent to the given bath initial data.

    X(0) = -O q(0) and likewise for velocities; the sign matches the
    extended matrix convention, where the system-chain coupling enters as
    -D0 while the oscillator picture carries +c_k.
    """
    y0, ydot0 = extended_initial_conditions(omap, init, omap.N)
    return y0[1:], ydot0[1:]


def extended_initial_conditions(omap: OrthogonalMap, init: InitialState, n: int):
    """Initial data (y0, ydot0) of the system plus the first n chain modes,
    system first, chain modes X(0) = -O[:n] q(0) (only the kept rows of the
    map are applied).  The map may hold only its leading rows; its bath
    dimension must match the initial state's."""
    if omap.O.shape[1] != init.N:
        raise DimensionMismatch(
            f"map bath size {omap.O.shape[1]} != initial-state size {init.N}")
    O = omap.O[:n]
    return (np.concatenate([[init.x0], -(O @ init.q0)]),
            np.concatenate([[init.xdot0], -(O @ init.qdot0)]))


def evolve_truncated(chain: ChainModel, n: int, init: InitialState,
                     omap: OrthogonalMap, times, velocities: bool = True) -> Trajectory:
    """Evolution with the chain cut after mode n (coupling D_n dropped).

    Initial chain data come from the bath initial data through the
    orthogonal map; n = chain.N gives the untruncated dynamics.  With
    `velocities` false only the positions are built, bitwise as with them.
    """
    A = assemble_extended_matrix(chain, n)
    y0, ydot0 = extended_initial_conditions(omap, init, n)
    return evolve_exact(A, y0, ydot0, times, velocities)


def evolve_truncated_x(chain: ChainModel, n: int, init: InitialState,
                       omap: OrthogonalMap, times) -> np.ndarray:
    """System coordinate x(t) alone under `evolve_truncated`'s dynamics,
    without the two (n+1)-wide products that build every mode and velocity."""
    A = assemble_extended_matrix(chain, n)
    y0, ydot0 = extended_initial_conditions(omap, init, n)
    return _modal_row(_modal_data(A, y0, ydot0), y0, 0, times)


def _io_initial_conditions(io: IOModel, init: InitialState):
    """Initial data (y0, ydot0) in the independent-oscillator picture."""
    if io.N != init.N:
        raise DimensionMismatch(f"bath size {io.N} != initial-state size {init.N}")
    return (np.concatenate([[init.x0], init.q0]),
            np.concatenate([[init.xdot0], init.qdot0]))


def evolve_io(io: IOModel, init: InitialState, times) -> Trajectory:
    """Evolution in the independent-oscillator picture (X holds the bath
    coordinates q here).  Used to cross-check picture equivalence."""
    y0, ydot0 = _io_initial_conditions(io, init)
    return evolve_exact(assemble_io_matrix(io), y0, ydot0, times)


def _secular_roots(d, c2, alpha):
    """Eigenvalues of the arrowhead matrix [[alpha, c^T], [c, diag(d)]]
    (d strictly increasing, every c_k^2 > 0), each as an origin sigma_j and
    an offset tau_j, lambda_j = sigma_j + tau_j, in O(N^2).

    The eigenvalues are the N+1 roots of the secular function
    g(lam) = lam - alpha + sum_k c_k^2 / (d_k - lam), which rises from -inf
    to +inf between adjacent poles d_k, below the first and above the last.
    g at the middle of each bracket tells which end the root is nearer;
    that end becomes the origin, so that the distance d_k - lam to the
    nearest pole, which sets the eigenvector, is (d_k - sigma) - tau
    without cancellation (LAPACK dlaed4's device).  Each pass keeps the
    origin's pole term c_o^2 / (-tau) exact, linearizes the rest and steps
    to the root of that model, a quadratic; a step that leaves the bracket,
    or that is not at most half the previous one, bisects instead, so every
    root converges.  A root is done when |g| is within its rounding bound,
    or the step is below one ulp of tau; only the roots not done are
    evaluated again.  Raises UnstableMode unless every root is positive,
    which by the Schur complement is alpha > sum_k c_k^2 / d_k.
    """
    schur = float(np.sum(c2 / d))
    if alpha <= schur:
        raise UnstableMode(
            f"Omega0^2 = {alpha:.6g} <= sum c_k^2/omega_k^2 = {schur:.6g}: the "
            "evolution matrix has an eigenvalue <= 0; outside the oscillatory regime")
    N = len(d)
    # brackets: (floor, d_0), (d_0, d_1), ..., (d_{N-1}, ceiling) by Weyl's
    # bound |lam - diag| <= ||c||, with a factor 2 of room
    spread = 2.0 * float(np.sqrt(np.sum(c2)))
    lo_end = np.concatenate([[max(0.0, np.min(d, initial=alpha) - spread)], d])
    hi_end = np.concatenate([d, [np.max(d, initial=alpha) + spread]])
    mid = 0.5 * (lo_end + hi_end)
    inv = d - mid[:, None]
    g_mid = mid - alpha + np.reciprocal(inv, out=inv) @ c2
    del inv
    # the nearer end is the origin; its pole (none at the outer ends) is
    # column `pole` with weight p
    lower = g_mid >= 0
    sigma = np.where(lower, lo_end, hi_end)
    pole = np.arange(N + 1) - lower
    has_pole = (pole >= 0) & (pole < N)
    p = np.where(has_pole, c2[np.clip(pole, 0, N - 1)], 0.0)
    tau = mid - sigma
    lo = np.where(lower, 0.0, tau)
    hi = np.where(lower, tau, 0.0)
    last_step = np.full(N + 1, np.inf)
    eps = np.finfo(float).eps

    todo = np.arange(N + 1)
    while todo.size:
        s, t = sigma[todo], tau[todo]
        # rest terms c_k^2 / (d_k - lam) with the origin's pole zeroed
        inv = d - s[:, None]
        inv -= t[:, None]
        np.reciprocal(inv, out=inv)
        at = np.flatnonzero(has_pole[todo])
        inv[at, pole[todo[at]]] = 0.0
        s1 = inv @ c2
        np.abs(inv, out=inv)
        s_abs = inv @ c2
        np.square(inv, out=inv)
        s2 = inv @ c2
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


def evolve_io_x(io: IOModel, init: InitialState, times) -> np.ndarray:
    """The untruncated x(t) from the independent-oscillator picture, with no
    eigensolve and no chain map: O(N^2) besides the samples.

    Eigenvalues come from `_secular_roots`.  The eigenvector of lambda_j is
    (1, c_k / (lambda_j - omega_k^2)) over its norm, so with
    Q[j, k] = 1 / (lambda_j - omega_k^2) the system row holds
    V[0, j] = (1 + sum_k c_k^2 Q[j, k]^2)^(-1/2), and the modal amplitudes
    are a_j = V[0, j] (x0 + sum_k Q[j, k] c_k q0_k), b_j likewise from the
    velocities over w_j.  The c_k used there are those for which the
    computed roots are the exact eigenvalues (Gu & Eisenstat): by Loewner's
    formula c_k^2 = -prod_j (d_k - lambda_j) / prod_{i != k} (d_k - d_i),
    taken as a product of ratios near one.  A root close to a pole pins
    lambda_j - d_k to only a few digits when its neighbours crowd it, and
    with the given c_k the vectors would then lose orthogonality; with
    these they stay orthogonal to working precision.
    """
    y0, ydot0 = _io_initial_conditions(io, init)
    # a coupling below the matrix's rounding level decouples its bath mode
    # (deflation): the mode keeps its own frequency and never reaches x,
    # while its root would sit closer to the pole than a double resolves
    eps = np.finfo(float).eps
    keep = io.c > eps * (max(io.Omega0**2, io.omega[-1] ** 2) + np.linalg.norm(io.c))
    if not keep.any():
        return free_mode_evolution(io.Omega0, init.x0, init.xdot0, times)
    d, c = io.omega[keep] ** 2, io.c[keep]
    sigma, tau = _secular_roots(d, c**2, io.Omega0**2)
    N = len(d)
    # dist[j, k] = d_k - lambda_j, from the root's own origin
    dist = d - sigma[:, None]
    dist -= tau[:, None]
    # pair d_k - lambda_j with d_k - d_j below the pole and d_k - d_{j-1}
    # above it; the two roots that straddle d_k keep their own distance
    row, col = np.arange(N + 1)[:, None], np.arange(N)
    ratio = np.where(row <= col, d[np.minimum(row, N - 1)], d[np.maximum(row - 1, 0)])
    np.subtract(d, ratio, out=ratio)
    ratio[col, col] = ratio[col + 1, col] = -1.0
    np.divide(dist, ratio, out=ratio)
    ratio[col, col] *= -1.0
    c_hat = np.sqrt(np.prod(ratio, axis=0))
    del ratio
    Q = np.divide(-1.0, dist, out=dist)
    amp = Q @ (c_hat[:, None] * np.stack([init.q0[keep], init.qdot0[keep]], axis=1))
    np.square(Q, out=Q)
    v0 = 1.0 / np.sqrt(1.0 + Q @ c_hat**2)
    del Q, dist
    w = np.sqrt(sigma + tau)
    a = v0 * (init.x0 + amp[:, 0])
    b = v0 * (init.xdot0 + amp[:, 1]) / w
    return _modal_row((w, v0[None, :], a, b), y0, 0, times)


def free_mode_evolution(Omega_i: float, X0: float, Xdot0: float, t):
    """Uncoupled mode: X0 cos(Omega t) + Xdot0 sin(Omega t)/Omega."""
    if Omega_i <= 0:
        raise ValueError("mode frequency must be positive")
    t = np.asarray(t, dtype=float)
    out = X0 * np.cos(Omega_i * t) + Xdot0 * np.sin(Omega_i * t) / Omega_i
    return out if out.ndim else float(out)


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
    w, V = _decompose(A)
    times = np.asarray(times, dtype=float)
    wt = np.multiply.outer(times, w)
    Gq = (np.cos(wt) * V[0]) @ V.T
    Gv = (np.sin(wt) * (V[0] / w)) @ V.T
    return Gq, Gv
