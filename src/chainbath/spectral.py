"""Mapping an independent-oscillator bath onto a nearest-neighbor chain.

The bath is a set of uncoupled oscillators with frequencies omega_k, each
coupled linearly to the system with strength c_k.  An orthogonal change of
coordinates X = O q turns it into a chain whose frequency matrix T is
symmetric tridiagonal with the same spectrum {omega_k^2}; the system then
couples only to the first chain mode, with strength D0 = ||c||.  The
construction is Lanczos tridiagonalization of diag(omega^2) seeded with
c/||c||, with full reorthogonalization (one classical Gram-Schmidt pass per
step, a second only when the first cancels, per the DGKS criterion), and
with row signs chosen so that every nearest-neighbor coupling D_j is
positive while T carries -D_j on the off-diagonal.

The map costs O(N^3), but the short chains of the truncated dynamics read
only its leading rows: `chain_from_io(io, rows=k)` stops after k Lanczos
vectors, at O(k^2 N), with rows and coefficients bitwise equal to the full
map's.  Where no map row is read at all, `chain_coefficients` rebuilds
Omega_j and D_j from the nodes omega_k^2 and weights c_k^2 alone in O(N^2),
by Gautschi's square-root-free RKPW updating (Gragg & Harrod, Numer. Math.
44, 1984; Gautschi, Orthogonal Polynomials: Computation and Approximation,
OUP 2004, sec. 2.2.3).

`verify_equivalence` certifies a full map without an eigensolve: the two
residuals come from symmetric rank-N products in one work buffer, and T's
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
        T = np.diag(self.Omega**2)
        idx = np.arange(self.N - 1)
        T[idx, idx + 1] = -self.D
        T[idx + 1, idx] = -self.D
        return T


@dataclass(frozen=True)
class OrthogonalMap:
    """Row j holds the coefficients of chain mode j in bath coordinates:
    X_j = sum_k O[j, k] q_k.  Row 0 is c/||c|| by construction.  A cut map
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
    """Construct the equivalent chain by Lanczos tridiagonalization.

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
    below 1e-12 * max(omega^2), which signals an effectively reducible
    spectrum/coupling combination; a cut map checks only the couplings it
    builds.
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

    No eigensolve runs and no N x N array is formed beyond the map and two
    work arrays: O O^T and (O omega)(O omega)^T are symmetric rank-N
    updates into one buffer, their residuals taken in place, and T stays
    tridiagonal.  The spectrum is checked by Sturm counts of T's pivots at
    omega_k^2 -/+ delta (delta = rtol * max(omega^2)), which decide exactly
    whether every sorted eigenvalue lies within delta of its omega_k^2
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
    step = io.N + 1                 # the diagonals of g are strided slices

    G = O @ O.T
    g = G.reshape(-1)
    g[::step] -= 1.0
    ortho = np.abs(G, out=G).max()
    P = O * io.omega
    np.matmul(P, P.T, out=G)
    g[::step] -= chain.Omega**2
    g[1::step] += chain.D
    g[io.N::step] += chain.D
    tri_res = np.abs(G, out=G).max()
    eig_mis = _spectrum_mismatch(chain, w2, rtol * scale)

    report = EquivalenceReport(
        orthogonality=float(ortho),
        tridiagonal_residual=float(tri_res),
        eigenvalue_mismatch=float(eig_mis),
        tolerance=rtol,
        passed=False,
    )
    return replace(report, passed=not report.failures(scale))
