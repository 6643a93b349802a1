"""Mapping an independent-oscillator bath onto a nearest-neighbor chain.

The bath is a set of uncoupled oscillators with frequencies omega_k, each
coupled linearly to the system with strength c_k.  An orthogonal change of
coordinates X = O q turns it into a chain whose frequency matrix T is
symmetric tridiagonal with the same spectrum {omega_k^2}; the system then
couples only to the first chain mode, with strength D0 = ||c||.  One
construction is Lanczos tridiagonalization of diag(omega^2) seeded with
c/||c|| (`lanczos_chain`), with full reorthogonalization (one classical
Gram-Schmidt pass per step, a second only when the first cancels, per the
DGKS criterion), and with row signs chosen so that every nearest-neighbor
coupling D_j is positive while T carries -D_j on the off-diagonal.

Lanczos costs O(N^3) in matrix-vector products.  The short chains of the
truncated dynamics read only the map's leading rows: `chain_from_io(io,
rows=k)` stops after k Lanczos vectors, at O(k^2 N).  Where no map row is
read at all, `chain_coefficients` rebuilds Omega_j and D_j from the nodes
omega_k^2 and weights c_k^2 alone in O(N^2), by Gautschi's
square-root-free RKPW updating (Gragg & Harrod, Numer. Math. 44, 1984;
Gautschi, Orthogonal Polynomials: Computation and Approximation, OUP 2004,
sec. 2.2.3).  A full map above `LEAF` modes takes those coefficients and
T's eigenvectors, which are O's columns, by divide and conquer on T:
matrix-matrix products (Cuppen, Numer. Math. 36, 1981) in Gu & Eisenstat's
arrowhead form (SIAM J. Matrix Anal. Appl. 16, 1995), whose secular
equation `_secular_roots` also solves for `dynamics.evolve_io_x`.  So the
rows of a cut are bitwise the full map's up to `LEAF` modes only; above
it they agree to rounding over T's eigenvalue gaps, within 5e-13 on the
1024- and 2048-mode linear and geometric chains.

`verify_equivalence` certifies a full map without an eigensolve: the two
residuals come from blocks of O O^T and (O omega)(O omega)^T, and T's
spectrum is checked against {omega_k^2} by Sturm counts, the signs of T's
LDL^T pivots, at O(N) per evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    Breakdown,
    DimensionMismatch,
    NonincreasingSpectrum,
    NonpositiveParameter,
    check_index,
)

# DGKS "twice is enough" criterion (Daniel, Gragg, Kaufman & Stewart 1976):
# a second Gram-Schmidt pass is needed only when the first one leaves less
# than this share of the vector's norm.
DGKS_KEEP = 1.0 / np.sqrt(2.0)

# A full map above this many modes is built by divide and conquer, whose
# leaves of at most this many modes take a dense eigensolve; Lanczos builds
# the rest.  At 512 modes a dense eigh of T and Lanczos cost the same.
LEAF = 512
# Columns (or rows) per step of a merge's work on its N x N arrays: small
# enough that the blocks stay a few MB beside the two arrays
_BLOCK = 256
# Rows (and columns) per block of the certificate's products, which run
# when nothing but the map is held: larger blocks make faster products
_CHECK_BLOCK = 512


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class IOModel:
    """Independent-oscillator bath: frequencies omega_k, couplings c_k,
    system frequency Omega0.  Unit masses throughout."""

    omega: np.ndarray
    c: np.ndarray
    Omega0: float

    @property
    def N(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class ChainModel:
    """Chain picture: mode frequencies Omega_j, nearest-neighbor couplings
    D_j (length N-1), system-chain coupling D0, system frequency Omega0.

    A chain cut by `chain_from_io(io, rows=k)` holds the first k modes, and
    its N is k: functions that read n = N as the untruncated chain need the
    full chain.  Those that take the map (`source_term`, `x_reduced_form`,
    `free_source_series`, `error_report`) raise DimensionMismatch on a cut
    one; `epsilon1` takes no map and cannot tell."""

    Omega: np.ndarray
    D: np.ndarray
    D0: float
    Omega0: float

    @property
    def N(self) -> int:
        return len(self.Omega)

    @property
    def mode_freqs(self) -> np.ndarray:
        """(Omega_0, Omega_1, ..., Omega_N) with Omega_0 the system frequency."""
        return np.concatenate([[self.Omega0], self.Omega])

    def tridiagonal(self) -> np.ndarray:
        """The N x N symmetric tridiagonal frequency matrix (off-diag -D_j)."""
        return _dense_tridiagonal(self.Omega**2, self.D)


def _dense_tridiagonal(a, b) -> np.ndarray:
    """The symmetric tridiagonal matrix with diagonal a and off-diagonal -b."""
    T = np.diag(a)
    idx = np.arange(len(a) - 1)
    T[idx, idx + 1] = -b
    T[idx + 1, idx] = -b
    return T


@dataclass(frozen=True)
class OrthogonalMap:
    """Row j holds the coefficients of chain mode j in bath coordinates:
    X_j = sum_k O[j, k] q_k.  Row 0 is c/||c||, by construction in a
    Lanczos map and to rounding in a divide-and-conquer one.  A cut map
    holds the leading rows only; N counts rows, O.shape[1] the bath."""

    O: np.ndarray

    @property
    def N(self) -> int:
        return self.O.shape[0]

    @property
    def is_cut(self) -> bool:
        """True when the map holds fewer rows than the bath has modes."""
        return self.N < self.O.shape[1]


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
        """Names, as in the `build-chain` sidecar, of the residuals above
        their bounds (a NaN is above), for a bath whose largest omega^2 is
        `scale`."""
        bounds = {
            "orthogonality_residual": (self.orthogonality, max(self.tolerance, 1e-10)),
            "tridiagonal_residual": (self.tridiagonal_residual, self.tolerance * scale),
            "eigenvalue_mismatch": (self.eigenvalue_mismatch, self.tolerance * scale),
        }
        return [name for name, (value, bound) in bounds.items() if not value <= bound]


def build_io_model(omega, c, Omega0) -> IOModel:
    """Validate and freeze an independent-oscillator bath description.

    Raises NonincreasingSpectrum if omega is not strictly increasing and
    NonpositiveParameter if any frequency or coupling is <= 0.
    """
    omega = np.asarray(omega, dtype=float)
    c = np.asarray(c, dtype=float)
    if omega.ndim != 1 or c.ndim != 1 or len(omega) == 0:
        raise DimensionMismatch("omega and c must be nonempty 1-d sequences")
    if len(omega) != len(c):
        raise DimensionMismatch(
            f"len(omega)={len(omega)} differs from len(c)={len(c)}"
        )
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(c)) and np.isfinite(Omega0)):
        raise NonpositiveParameter("all parameters must be finite")
    if np.any(omega <= 0) or np.any(c <= 0) or Omega0 <= 0:
        raise NonpositiveParameter("omega_k, c_k and Omega0 must all be positive")
    if np.any(np.diff(omega) <= 0):
        raise NonincreasingSpectrum("bath frequencies must be strictly increasing")
    return IOModel(_frozen_array(omega), _frozen_array(c), float(Omega0))


def _breakdown(j: int, d: float) -> Breakdown:
    return Breakdown(
        f"coupling D_{j} = {d:.3e} below 1e-12*max(omega^2); "
        "spectrum/coupling combination is effectively reducible"
    )


def chain_from_io(io: IOModel, rows: int | None = None) -> tuple[ChainModel, OrthogonalMap]:
    """Construct the equivalent chain and its orthogonal map.

    A cut (`rows` < N, 1 <= rows) and any map of at most `LEAF` modes come
    from `lanczos_chain`.  A full map above `LEAF` modes takes the chain
    from `chain_coefficients` (RKPW) and its map from the eigenvectors of
    T by divide and conquer: T = O diag(omega^2) O^T says that the columns
    of O are T's eigenvectors, in ascending order, each signed so that
    row 0, c/||c||, is positive.  So the leading rows of a cut are
    bitwise the full map's only up to `LEAF` modes.  Above it the two
    routes agree to rounding over T's eigenvalue gaps: within 2.2e-13 on
    the 1024-mode linear and geometric chains, 5e-13 at 2048 modes, and
    1.5e-10 on random baths of about 1000 modes whose omega_k^2 lie 1e-4
    of max(omega^2) apart (see README, Accuracy).

    Returns (ChainModel, OrthogonalMap).  Raises Breakdown when a chain
    coupling falls below 1e-12 * max(omega^2), which signals an
    effectively reducible spectrum/coupling combination; a cut map checks
    only the couplings it builds.
    """
    N = io.N
    rows = N if rows is None else rows
    check_index(rows, N, "map rows", lo=1)
    if rows < N or N <= LEAF:
        return lanczos_chain(io, rows)
    chain = chain_coefficients(io)
    _, O = _tridiagonal_eigh(chain.Omega**2, chain.D)
    O *= np.copysign(1.0, O[0])
    O.flags.writeable = False
    return chain, OrthogonalMap(O)


def lanczos_chain(io: IOModel, rows: int | None = None) -> tuple[ChainModel, OrthogonalMap]:
    """The equivalent chain and its map by Lanczos tridiagonalization.

    Runs Lanczos on diag(omega^2) seeded with v1 = c/||c||, with full
    reorthogonalization at every step: one classical Gram-Schmidt pass
    against all previous vectors, repeated once when that pass removed more
    than 1 - 1/sqrt(2) of the vector's norm (DGKS), which keeps
    orthogonality at working precision.  Row signs alternate so that the
    assembled T has -D_j off the diagonal with D_j > 0 while row 0 stays
    +c/||c||.

    `rows` (1 <= rows <= N, default N) stops after the first `rows` Lanczos
    vectors, at O(rows^2 N): the returned chain holds Omega_1..Omega_rows
    and D_1..D_{rows-1}, the map its first `rows` rows, each bitwise equal
    to the full map's.

    Returns (ChainModel, OrthogonalMap).  Raises Breakdown when an
    intermediate coupling (the norm left after reorthogonalization) falls
    below 1e-12 * max(omega^2); a cut map checks only the couplings it
    builds.  `chain_from_io` serves cuts and maps of at most `LEAF` modes
    from here, and the tests compare larger maps with this one.
    """
    w2 = io.omega**2
    N = io.N
    rows = N if rows is None else rows
    check_index(rows, N, "map rows", lo=1)
    scale = w2.max()

    V = np.zeros((rows, N))
    diag = np.zeros(rows)
    offdiag = np.zeros(rows - 1)

    v = io.c / np.linalg.norm(io.c)
    V[0] = v
    u = w2 * v
    diag[0] = v @ u
    v_prev = np.zeros(N)
    beta = 0.0
    for j in range(1, rows):
        r = u - diag[j - 1] * v - beta * v_prev
        # full reorthogonalization; a second pass only if the first cancelled
        norm_r = np.linalg.norm(r)
        r -= V[:j].T @ (V[:j] @ r)
        beta = np.linalg.norm(r)
        if beta < DGKS_KEEP * norm_r:
            r -= V[:j].T @ (V[:j] @ r)
            beta = np.linalg.norm(r)
        if beta < 1e-12 * scale:
            raise _breakdown(j, beta)
        v_prev, v = v, r / beta
        V[j] = v
        u = w2 * v
        diag[j] = v @ u
        offdiag[j - 1] = beta

    V[1::2] *= -1.0  # alternating row signs; V becomes O in place
    V.flags.writeable = False

    chain = ChainModel(
        Omega=_frozen_array(np.sqrt(diag)),
        D=_frozen_array(offdiag),
        D0=float(np.linalg.norm(io.c)),
        Omega0=io.Omega0,
    )
    return chain, OrthogonalMap(V)


def chain_coefficients(io: IOModel) -> ChainModel:
    """The chain of `chain_from_io`, without the orthogonal map, in O(N^2).

    Gautschi's square-root-free RKPW (Rutishauser-Kahan-Pal-Walker) updating
    rebuilds the Jacobi matrix of the discrete measure sum_k c_k^2
    delta(x - omega_k^2) one node at a time: node m enters at position 0
    and chases its bulge down to position m.  The sweeps run on a skewed
    wavefront, node m at position k at step m + k, so the nodes active at
    one step touch distinct positions and one numpy statement advances them
    all.  Raises Breakdown under `chain_from_io`'s criterion, at the first
    D_j below 1e-12 * max(omega^2).
    """
    x = io.omega**2
    w = io.c**2
    N = io.N
    alpha = x.copy()        # Omega_j^2, in place
    beta = np.zeros(N)      # beta[0] = ||c||^2, beta[j] = D_j^2
    beta[0] = w[0]
    # per-node sweep state; node 0 starts the measure and sweeps nothing
    gam = np.ones(N)
    sig = np.zeros(N)
    t = np.zeros(N)
    pn = w.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(1, 2 * N - 1):
            lo, hi = (step + 1) // 2, min(step, N - 1)
            m = slice(lo, hi + 1)
            # node lo..hi sits at position step-lo..step-hi: reversed views
            p0 = alpha[step - hi: step - lo + 1][::-1]
            p1 = beta[step - hi: step - lo + 1][::-1]
            rho = p1 + pn[m]
            tmp = gam[m] * rho
            old_sig = sig[m].copy()
            pos = rho > 0
            gam[m] = np.where(pos, p1 / rho, 1.0)
            sig[m] = s = np.where(pos, pn[m] / rho, 0.0)
            tk = s * (p0 - x[m]) - gam[m] * t[m]
            p0 -= tk - t[m]
            t[m] = tk
            pn[m] = np.where(s > 0, tk * tk / s, old_sig * p1)
            p1[:] = tmp
    D = np.sqrt(beta[1:])
    small = np.flatnonzero(D < 1e-12 * x.max())
    if small.size:
        raise _breakdown(int(small[0]) + 1, float(D[small[0]]))
    return ChainModel(
        Omega=_frozen_array(np.sqrt(alpha)),
        D=_frozen_array(D),
        D0=float(np.linalg.norm(io.c)),
        Omega0=io.Omega0,
    )


def _tridiagonal_eigh(a, b, out=None, work=None):
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of the
    symmetric tridiagonal matrix with diagonal a and off-diagonal -b.

    Divide and conquer in Gu & Eisenstat's arrowhead form (SIAM J. Matrix
    Anal. Appl. 16, 1995; Cuppen, Numer. Math. 36, 1981): the middle site
    m splits T into T1 (sites below m) and T2 (sites above), solved by
    recursion, and in the basis of their eigenvectors Q1, Q2 the whole is
    the arrowhead [[a_m, z^T], [z, diag(lam1, lam2)]] with
    z = (-b_{m-1} Q1[-1, :], -b_m Q2[0, :]).  Blocks of at most `LEAF`
    sites take a dense eigh.

    The eigenvectors go into `out` and the merge works in `work` where
    they are given (N x N views), into arrays of their own otherwise.
    Each half writes its eigenvectors into a diagonal block of this
    level's `out` and works in an off-diagonal one, which is free until
    this level's merge: the recursion holds two N x N arrays at most.
    """
    N = len(a)
    if N <= LEAF:
        lam, Q = np.linalg.eigh(_dense_tridiagonal(a, b))
        if out is None:
            return lam, Q
        out[...] = Q
        return lam, out
    m, n2 = N // 2, N - N // 2 - 1
    Q = np.empty((N, N)) if out is None else out
    lam1, Q1 = _tridiagonal_eigh(a[:m], b[: m - 1], Q[:m, :m], Q[:m, m: 2 * m])
    lam2, Q2 = _tridiagonal_eigh(a[m + 1:], b[m + 1:], Q[m + 1:, m + 1:], Q[m: m + n2, :n2])
    z = np.concatenate([-b[m - 1] * Q1[-1], -b[m] * Q2[0]])
    return _merge(a[m], np.concatenate([lam1, lam2]), z, Q, m, work), Q


def _merge(alpha, d, z, Q, m, U=None):
    """Eigenvalues (ascending) of T from the arrowhead
    [[alpha, z^T], [z, diag(d)]] that joins its halves across the middle
    site m, and T's eigenvectors written into Q, whose diagonal blocks
    Q[:m, :m] and Q[m + 1:, m + 1:] hold the halves' (of the first m poles
    of d, and the rest).

    Deflation first, as LAPACK's dlaed2 does, so that the secular equation
    sees strictly increasing poles with nonzero couplings: a coupling
    below tol = 8 eps max(|alpha|, |d|, |z|) is dropped, leaving its pole
    an eigenvalue with a unit eigenvector; of two adjacent poles whose
    Givens rotation zeroes the lower coupling with an off-diagonal of at
    most tol, the lower is deflated the same way.  The remaining roots
    come from `_secular_roots`, and their eigenvectors
    (1, z_hat_k / (lambda - d_k)) over the norm from the couplings z_hat
    of `_loewner_couplings`, for which the roots are exact.

    The arrowhead's eigenvector matrix U (new, or the N x N view given)
    has its rows in site order (the poles of half 1, the middle site, the
    poles of half 2), so one product per half, Q1 @ U[half 1] and
    Q2 @ U[half 2], gives T's.  Each takes `_BLOCK` rows of Q1 or Q2 at a
    time and writes them over those rows of Q, which no later block reads,
    with the columns sorted.
    """
    n = len(d)
    tol = 8.0 * np.finfo(float).eps * max(abs(alpha), np.abs(d).max(), np.abs(z).max())
    order = np.argsort(d, kind="stable")
    kept = order[np.abs(z[order]) > tol]
    # the off-diagonal a rotation leaves is gap * c * s with c * s <= 1/2,
    # so a gap above 2 tol never ties; a rotation only widens the next gap,
    # so visiting the narrow gaps alone, in order, misses none
    rotations = []
    tied = np.zeros(kept.size, dtype=bool)
    for i in np.flatnonzero(np.diff(d[kept]) <= 2.0 * tol):
        p, k = kept[i], kept[i + 1]
        r = np.hypot(z[p], z[k])
        c, s = z[k] / r, z[p] / r
        if abs((d[k] - d[p]) * c * s) > tol:
            continue
        d[p], d[k] = d[p] * c * c + d[k] * s * s, d[p] * s * s + d[k] * c * c
        z[p], z[k] = 0.0, r
        rotations.append((p, k, c, s))
        tied[i] = True
    kept = kept[~tied]
    deflated = np.setdiff1d(np.arange(n), kept)
    K = kept.size

    # T is positive definite, but near-singular T can round its arrowhead's
    # lowest root to or below 0: no floor
    d_k = d[kept]
    sigma, tau = _secular_roots(d_k, z[kept] ** 2, alpha, floor=-np.inf)
    z_hat = np.empty(K)
    for k0 in range(0, K, _BLOCK):
        col = np.arange(k0, min(k0 + _BLOCK, K))
        # d_k - lambda_j, from each root's own origin
        dist = d_k[col] - sigma[:, None]
        dist -= tau[:, None]
        z_hat[col] = _loewner_couplings(d_k, dist, col)
    z_hat = np.copysign(z_hat, z[kept])
    row = np.arange(n) + (np.arange(n) >= m)    # U's row of each pole
    if U is None:
        U = np.zeros((n + 1, n + 1))
    else:
        U[...] = 0.0
    for j0 in range(0, K + 1, _BLOCK):
        j = slice(j0, min(j0 + _BLOCK, K + 1))
        V = d_k - sigma[j, None]
        V -= tau[j, None]
        np.divide(-z_hat, V, out=V)     # z_hat_k / (lambda_j - d_k)
        v0 = 1.0 / np.sqrt(1.0 + np.einsum("jk,jk->j", V, V))
        V *= v0[:, None]
        U[m, j] = v0
        U[row[kept], j] = V.T
    U[row[deflated], np.arange(K + 1, n + 1)] = 1.0
    for p, k, c, s in reversed(rotations):
        up, uk = U[row[p]].copy(), U[row[k]].copy()
        U[row[p]] = c * up + s * uk
        U[row[k]] = c * uk - s * up
    lam = np.concatenate([sigma + tau, d[deflated]])
    order = np.argsort(lam, kind="stable")
    for lo, hi in ((0, m), (m + 1, n + 1)):
        for i0 in range(lo, hi, _BLOCK):
            i = slice(i0, min(i0 + _BLOCK, hi))
            np.take(Q[i, lo:hi] @ U[lo:hi], order, axis=1, out=Q[i], mode="clip")
    np.take(U[m], order, out=Q[m], mode="clip")
    return lam[order]


def _secular_roots(d, c2, alpha, floor=0.0):
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
    evaluated again.  The lowest bracket starts at `floor` where that is
    above Weyl's bound: the default 0 needs every root positive, which the
    caller makes sure of, and -inf needs nothing.
    """
    N = len(d)
    # brackets: (floor, d_0), (d_0, d_1), ..., (d_{N-1}, ceiling) by Weyl's
    # bound |lam - diag| <= ||c||, with a factor 2 of room
    spread = 2.0 * float(np.sqrt(np.sum(c2)))
    lo_end = np.concatenate([[max(floor, np.min(d, initial=alpha) - spread)], d])
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


def _loewner_couplings(d, dist, col=None):
    """The couplings c_hat (positive) of the arrowhead with poles d whose
    exact eigenvalues are the roots lambda_j of `_secular_roots`
    (Gu & Eisenstat), for the poles d[col] (all by default), from their
    distances dist[j, i] = d[col[i]] - lambda_j.

    By Loewner's formula c_hat_k^2 = -prod_j (d_k - lambda_j) /
    prod_{i != k} (d_k - d_i), taken as a product of ratios near one.  A
    root close to a pole pins lambda_j - d_k to only a few digits when its
    neighbours crowd it, and with the given couplings the eigenvectors
    (1, c_k / (lambda_j - d_k)) would then lose orthogonality; with these
    they stay orthogonal to working precision.
    """
    N = len(d)
    col = np.arange(N) if col is None else col
    at = np.arange(len(col))
    # pair d_k - lambda_j with d_k - d_j below the pole and d_k - d_{j-1}
    # above it; the two roots that straddle d_k keep their own distance
    row = np.arange(N + 1)[:, None]
    ratio = np.where(row <= col, d[np.minimum(row, N - 1)], d[np.maximum(row - 1, 0)])
    np.subtract(d[col], ratio, out=ratio)
    ratio[col, at] = ratio[col + 1, at] = -1.0
    np.divide(dist, ratio, out=ratio)
    ratio[col, at] *= -1.0
    return np.sqrt(np.prod(ratio, axis=0))


def char_poly_eval(chain: ChainModel, j: int, lam):
    """Characteristic polynomial P_j of the j-th leading principal minor of
    the chain's tridiagonal matrix, evaluated at lam.

    Three-term recurrence P_{j+1} = (Omega_{j+1}^2 - lam) P_j - D_j^2 P_{j-1}
    with P_0 = 1, P_{-1} = 0.  lam may be a scalar or an array.
    """
    check_index(j, chain.N, "minor index")
    lam = np.asarray(lam, dtype=float)
    p_prev = np.zeros_like(lam)
    p = np.ones_like(lam)
    for m in range(j):
        d2 = chain.D[m - 1] ** 2 if m >= 1 else 0.0
        p, p_prev = (chain.Omega[m] ** 2 - lam) * p - d2 * p_prev, p
    return p if p.ndim else float(p)


def _sturm_newton(a, b, x, pivmin):
    """One pass of the LDL^T pivot recurrence of T - x, for every x at once.

    T has diagonal `a` and squared off-diagonal `b`; the pivots are
    d_j = (a_j - x) - b_{j-1}/d_{j-1}, a pivot below `pivmin` in magnitude
    taken as -pivmin.  Returns the number of negative pivots at each x,
    which is the number of eigenvalues of T below x (Sturm), and
    sum_j d_j'/d_j = det(T - x)'/det(T - x), whose inverse is the Newton
    step on det(T - x).
    """
    b = np.append(b, 0.0)
    count = np.zeros(x.shape, dtype=int)
    dlog = np.zeros(x.shape)
    ratio = np.zeros(x.shape)   # b_{j-1}/d_{j-1}
    term = np.zeros(x.shape)    # d_{j-1}'/d_{j-1}
    for j in range(len(a)):
        # d_j' = -1 + b_{j-1} d_{j-1}'/d_{j-1}^2, with the square kept off
        dp = ratio * term - 1.0
        d = (a[j] - x) - ratio
        d[np.abs(d) < pivmin] = -pivmin
        count += d < 0
        term = dp / d
        dlog += term
        ratio = b[j] / d
    return count, dlog


def _spectrum_mismatch(chain: ChainModel, w2: np.ndarray, delta: float) -> float:
    """max_k |lambda_k - w2_k| for T's sorted spectrum, certified against delta.

    Sturm counts at w2_k -/+ delta decide exactly whether every lambda_k
    lies within delta of w2_k.  Where it does, the value is the Newton step
    on det(T - x) from x = w2_k (capped at delta, which the count proves);
    where it does not, lambda_k is bisected on the same count and the value
    is kept above delta.
    """
    a = chain.Omega**2
    b = chain.D**2
    # replacing a pivot by -pivmin moves T's diagonal by at most pivmin, far
    # below any tolerance, and keeps b/d and d'/d finite at every point
    pivmin = np.finfo(float).eps ** 2 * w2.max()
    N = len(w2)
    count, dlog = _sturm_newton(a, b, np.concatenate([w2 - delta, w2, w2 + delta]), pivmin)
    k = np.arange(N)
    ok = (count[:N] <= k) & (count[2 * N:] >= k + 1)
    with np.errstate(divide="ignore"):  # det' = 0: the counts alone decide
        mismatch = np.minimum(1.0 / np.abs(dlog[N: 2 * N]), delta)
    bad = np.flatnonzero(~ok)
    if bad.size:
        # Gershgorin bracket of the whole spectrum, halved to working precision
        off = np.abs(np.concatenate([[0.0], chain.D])) + np.abs(np.concatenate([chain.D, [0.0]]))
        lo = np.full(bad.size, (a - off).min())
        hi = np.full(bad.size, (a + off).max())
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = _sturm_newton(a, b, mid, pivmin)[0] > bad
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
        mismatch[bad] = np.maximum(np.abs(0.5 * (lo + hi) - w2[bad]),
                                   np.nextafter(delta, np.inf))
    return float(mismatch.max())


def verify_equivalence(io: IOModel, chain: ChainModel, omap: OrthogonalMap,
                       rtol: float = 1e-9) -> EquivalenceReport:
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
    if not (io.N == chain.N == omap.N):
        raise DimensionMismatch(
            f"sizes disagree: io N={io.N}, chain N={chain.N}, map N={omap.N}"
        )
    O = omap.O
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
    eig_mis = _spectrum_mismatch(chain, w2, rtol * scale)

    report = EquivalenceReport(
        orthogonality=float(ortho),
        tridiagonal_residual=float(tri_res),
        eigenvalue_mismatch=float(eig_mis),
        tolerance=rtol,
        passed=False,
    )
    return replace(report, passed=not report.failures(scale))
