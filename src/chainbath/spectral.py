"""Mapping an independent-oscillator bath onto a nearest-neighbor chain.

The bath is a set of uncoupled oscillators with frequencies omega_k, each
coupled linearly to the system with strength c_k.  An orthogonal change of
coordinates X = O q turns it into a chain whose frequency matrix T is
symmetric tridiagonal with the same spectrum {omega_k^2}; the system then
couples only to the first chain mode, with strength D0 = ||c||.
`chain_from_io` builds O by Lanczos tridiagonalization of diag(omega^2)
seeded with c/||c||, fully reorthogonalized by one classical Gram-Schmidt
pass per step (a second would change nothing), with row signs chosen so that
every coupling D_j is positive while T carries -D_j off the diagonal.

Lanczos costs O(N^3) in matrix-vector products.  The short chains of the
truncated dynamics read only the map's leading rows: `chain_from_io(io,
rows=k)` stops after k Lanczos vectors, at O(k^2 N), and those rows are
bitwise the full map's.  Where no map row is read at all,
`chain_coefficients` rebuilds Omega_j and D_j from the nodes omega_k^2 and
weights c_k^2 alone in O(N^2), by Gautschi's square-root-free RKPW
updating (Gragg & Harrod, Numer. Math. 44, 1984; Gautschi, Orthogonal
Polynomials: Computation and Approximation, OUP 2004, sec. 2.2.3).

Nodes and weights fix the chain: it is equivalent to the bath exactly when
T's spectral measure, D0^2 times the squared first components of its unit
eigenvectors at its eigenvalues, is sum_k c_k^2 delta(x - omega_k^2).
`certify_chain` checks coefficients against that measure in O(N^2) time
and O(N) memory, with no map and no eigensolve: Sturm counts, the signs of
T's LDL^T pivots, place each eigenvalue lambda_k within delta of
omega_k^2, and the same pivot recurrence run from T's far end gives each
weight as -1/dm_0'(lambda_k), dm_0 being the top pivot (Golub & Welsch,
Math. Comp. 23, 1969).  Where nodes nearly coincide, a rounding of T
turns their eigenvectors, and each weight is allowed what that moves it.
The check of a full map by its residuals, which the tests hold this
certificate against, is `verify_equivalence` in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Breakdown, check_index

# The certificates' tolerance, relative to max(omega^2) for T's eigenvalues
# and to max(c_k^2) for its weights
_RTOL = 1e-9
# Omega0 and each omega_k lie between these, each c_k below the upper one:
# the fourth powers that the recurrences form stay finite and nonzero
SCALE = (float(np.finfo(float).tiny) ** 0.25, float(np.finfo(float).max) ** 0.25)


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
    its N is k."""

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


@dataclass(frozen=True)
class ChainCertificate:
    """Backward-error certificate of chain coefficients against a bath, from
    `certify_chain`.  `failed` names, as in the `build-chain` sidecar, the
    mismatches above their bounds; `passed` holds when it is empty."""

    eigenvalue_mismatch: float
    weight_mismatch: float
    failed: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failed


def build_io_model(omega, c, Omega0) -> IOModel:
    """Validate and freeze an independent-oscillator bath description.

    Raises ValueError if omega is not strictly increasing, if any frequency
    or coupling is not finite and positive, or lies outside `SCALE` (about
    1e-77 to 1e77; a coupling may be smaller).
    """
    omega = np.asarray(omega, dtype=float)
    c = np.asarray(c, dtype=float)
    if omega.ndim != 1 or c.ndim != 1 or len(omega) == 0:
        raise ValueError("omega and c must be nonempty 1-d sequences")
    if len(omega) != len(c):
        raise ValueError(f"len(omega)={len(omega)} differs from len(c)={len(c)}")
    lo, hi = SCALE
    # NaN fails every comparison
    if not (lo <= Omega0 <= hi and lo <= omega.min() and omega.max() <= hi
            and 0 < c.min() and c.max() <= hi):
        raise ValueError(f"omega_k and Omega0 must lie within [{lo:.3g}, {hi:.3g}] "
                         f"and c_k within (0, {hi:.3g}]")
    if np.any(np.diff(omega) <= 0):
        raise ValueError("bath frequencies must be strictly increasing")
    return IOModel(_frozen_array(omega), _frozen_array(c), float(Omega0))


def _breakdown(j: int, d: float) -> Breakdown:
    return Breakdown(
        f"coupling D_{j} = {d:.3e} below 1e-12*max(omega^2); "
        "spectrum/coupling combination is effectively reducible"
    )


def _chain_model(io: IOModel, Omega2, D) -> ChainModel:
    """The frozen chain of the bath `io` from its Omega_j^2 and its D_j."""
    return ChainModel(Omega=_frozen_array(np.sqrt(Omega2)), D=_frozen_array(D),
                      D0=float(np.linalg.norm(io.c)), Omega0=io.Omega0)


def chain_from_io(io: IOModel, rows: int | None = None) -> tuple[ChainModel, np.ndarray]:
    """The equivalent chain and its orthogonal map O, by Lanczos.

    Row j of O holds the coefficients of chain mode j in bath coordinates:
    X_j = sum_k O[j, k] q_k.  Row 0 is c/||c||, by construction.

    Runs Lanczos on diag(omega^2) from v1 = c/||c||, reorthogonalized at
    every step by one classical Gram-Schmidt pass against all previous
    vectors.  A second (DGKS) pass would run only where the first keeps
    under 1/sqrt(2) of ||r||, so where beta is below the rounding r carries
    along the earlier rows, about sqrt(j) u max(omega^2) (5e-15 max(omega^2)
    at j = 2048): far under the Breakdown floor, and a second pass only
    lowers beta, so Breakdown is raised either way.  The first pass kept at
    least 1 - 4e-16 of ||r|| on the perfbench workloads and 0.9997 on
    near-reducible random baths (CHANGES.md).  Row signs alternate: T has -D_j
    off the diagonal, D_j > 0, and row 0 stays +c/||c||.

    `rows` (1 <= rows <= N, default N) stops after the first `rows` Lanczos
    vectors, at O(rows^2 N): the returned chain holds Omega_1..Omega_rows
    and D_1..D_{rows-1}, and the cut map only the leading rows, each
    bitwise equal to the full map's.

    Returns (ChainModel, O), O a read-only (rows, N) array.  Raises Breakdown when an
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

    norm = np.linalg.norm(io.c)
    if norm == 0.0:  # every c_k^2 underflows
        raise _breakdown(0, norm)
    v = io.c / norm
    V[0] = v
    u = w2 * v
    diag[0] = v @ u
    v_prev = np.zeros(N)
    beta = 0.0
    for j in range(1, rows):
        r = u - diag[j - 1] * v - beta * v_prev
        r -= V[:j].T @ (V[:j] @ r)  # full reorthogonalization, one pass
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
    return _chain_model(io, diag, offdiag), V


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
    return _chain_model(io, alpha, D)


def _sturm_newton(a, b, x, pivmin):
    """One pass of the LDL^T pivot recurrence of T - x, for every x at once.

    T has diagonal `a` and squared off-diagonal `b`; the pivots are
    d_j = (a_j - x) - b_{j-1}/d_{j-1}, a pivot below `pivmin` in magnitude
    taken as -pivmin.  Returns the number of negative pivots at each x,
    which is the number of eigenvalues of T below x (Sturm),
    sum_j d_j'/d_j = det(T - x)'/det(T - x), whose inverse is the Newton
    step on det(T - x), and the last pivot's derivative d_{N-1}', taken
    before that pivot is guarded.
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
    return count, dlog, dp


def _spectrum_mismatch(chain: ChainModel, w2: np.ndarray, delta: float):
    """max_k |lambda_k - w2_k| for T's sorted spectrum, certified against
    delta, and the Newton steps w2_k - lambda_k.

    Sturm counts at w2_k -/+ delta decide exactly whether every lambda_k
    lies within delta of w2_k.  Where it does, the value is the Newton step
    on det(T - x) from x = w2_k (capped at delta, which the count proves);
    where it does not, lambda_k is bisected on the same count and the value
    is kept above delta.  The steps returned are the capped Newton steps,
    with their signs, at every k.
    """
    a = chain.Omega**2
    b = chain.D**2
    # replacing a pivot by -pivmin moves T's diagonal by at most pivmin, far
    # below any tolerance, and keeps b/d and d'/d finite at every point
    pivmin = np.finfo(float).eps ** 2 * w2.max()
    N = len(w2)
    count, dlog, _ = _sturm_newton(a, b, np.concatenate([w2 - delta, w2, w2 + delta]), pivmin)
    k = np.arange(N)
    ok = (count[:N] <= k) & (count[2 * N:] >= k + 1)
    with np.errstate(divide="ignore"):  # det' = 0: the counts alone decide
        step = np.clip(1.0 / dlog[N: 2 * N], -delta, delta)
    mismatch = np.abs(step)
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
    return float(mismatch.max()), step


def _weight_allowance(io: IOModel) -> np.ndarray:
    """How far rounding alone moves each weight `certify_chain` reads.

    A float T is the bath's chain only to about eps max(omega^2), as its
    eigenvalues show; take T and the reading point each off by twice that,
    eta.  To first order, with d_j = omega_j^2 - omega_k^2, T's eigenvector
    turns towards its neighbours' and the reading picks up their poles,
    moving D0^2 w_k by at most 2 e_k, e_k = eta (c_k (sum_{j != k}
    c_j^2 / d_j^2)^(1/2) + |sum_{j != k} c_j^2 / d_j|); e_k^2 / c_k^2 adds
    the second order.  Tiny where the nodes are resolved, large where they
    nearly coincide.  O(N^2) time, O(N) memory.
    """
    w2 = io.omega**2
    c = io.c
    eta = 2.0 * np.finfo(float).eps * w2.max()
    e = np.empty(io.N)
    for k in range(io.N):
        d = w2 - w2[k]
        d[k] = np.inf
        with np.errstate(divide="ignore"):  # omega_k^2 rounded onto its neighbour's
            q = c / d
        e[k] = eta * (c[k] * np.sqrt(q @ q) + abs(c @ q))
    return 2.0 * e + e**2 / c**2


def certify_chain(io: IOModel, chain: ChainModel) -> ChainCertificate:
    """Certify that `chain` is the bath's chain, from its coefficients alone.

    The chain is the bath's exactly when T's eigenvalues are the omega_k^2
    and its weights D0^2 w_k, w_k the squared first component of T's unit
    eigenvector of lambda_k, are the c_k^2.  The eigenvalues are placed by
    Sturm counts (`_spectrum_mismatch`): `eigenvalue_mismatch`.  The
    weights come from the top pivot dm_0 of T - x eliminated bottom-up,
    whose inverse is sum_k w_k / (lambda_k - x), so w_k = -1/dm_0'(lambda_k)
    (Golub & Welsch): one pass of the same pivot recurrence over T reversed,
    at the points one Newton step on det(T - x) moves omega_k^2 to.  At
    omega_k^2 itself a weight far below its neighbours' would come out
    wrong, because dm_0 has a pole beside each such zero.  The weights sum
    to one, so D0^2, their total, is checked against sum_k c_k^2 too:
    `weight_mismatch` = max(max_k |D0^2 w_k - c_k^2|, |D0^2 - sum_k c_k^2|)
    / max_k c_k^2.

    `passed` holds when eigenvalue_mismatch <= 1e-9 max(omega^2) and each of
    those differences is within 1e-9 max(c_k^2), plus `_weight_allowance`
    for the w_k: near-degenerate nodes may pass above 1e-9.  A NaN fails.
    O(N^2) time, O(N) memory.
    """
    if io.N != chain.N:
        raise ValueError(f"sizes disagree: io N={io.N}, chain N={chain.N}")
    w2 = io.omega**2
    scale = w2.max()
    eig_mis, step = _spectrum_mismatch(chain, w2, _RTOL * scale)
    pivmin = np.finfo(float).eps ** 2 * scale
    _, _, dm0 = _sturm_newton(chain.Omega[::-1] ** 2, chain.D[::-1] ** 2, w2 - step, pivmin)
    c2 = io.c**2
    error = np.abs(chain.D0**2 / -dm0 - c2)
    total = abs(chain.D0**2 - c2.sum())
    bound = _RTOL * c2.max()
    checks = {
        "eigenvalue_mismatch": eig_mis <= _RTOL * scale,
        "weight_mismatch": total <= bound and np.all(error <= bound + _weight_allowance(io)),
    }
    return ChainCertificate(
        eigenvalue_mismatch=eig_mis,
        weight_mismatch=float(np.maximum(error.max(), total) / c2.max()),
        failed=tuple(name for name, ok in checks.items() if not ok),
    )
