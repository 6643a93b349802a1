"""Chain construction, characteristic-minor polynomials, and equivalence checks."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbath import spectral
from chainbath.errors import (
    Breakdown,
    DimensionMismatch,
    IndexOutOfRange,
    NonincreasingSpectrum,
    NonpositiveParameter,
)
from chainbath.instances import geometric_spectrum, linear_spectrum
from chainbath.spectral import (
    LEAF,
    ChainModel,
    OrthogonalMap,
    build_io_model,
    chain_coefficients,
    chain_from_io,
    char_poly_eval,
    lanczos_chain,
    verify_equivalence,
    _dense_tridiagonal,
    _secular_roots,
    _tridiagonal_eigh,
)
from tests.conftest import long_chain, random_bath


def rkpw_scalar(x, w, num=float):
    """Gautschi's RKPW as a plain double loop over nodes and positions, in
    the number type `num` (float, or mpmath.mpf for an extended-precision
    oracle): returns (alpha, beta) with alpha_j = Omega_j^2,
    beta_0 = ||c||^2 and beta_j = D_j^2."""
    alpha = [num(v) for v in x]
    beta = [num(0)] * len(x)
    beta[0] = num(w[0])
    for m in range(1, len(x)):
        pn, gam, sig, t = num(w[m]), num(1), num(0), num(0)
        for k in range(m + 1):
            rho = beta[k] + pn
            tmp = gam * rho
            old_sig = sig
            if rho <= 0:
                gam, sig = num(1), num(0)
            else:
                gam, sig = beta[k] / rho, pn / rho
            tk = sig * (alpha[k] - num(x[m])) - gam * t
            alpha[k] -= tk - t
            t = tk
            pn = t * t / sig if sig > 0 else old_sig * beta[k]
            beta[k] = tmp
    return np.array(alpha), np.array(beta)


class TestBuildIOModel:
    def test_minimal_valid(self):
        io = build_io_model([2.0], [1.0], 1.0)
        assert io.N == 1
        assert io.omega[0] == 2.0 and io.c[0] == 1.0

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(NonincreasingSpectrum):
            build_io_model([1.0, 1.0], [1.0, 1.0], 1.0)

    def test_sign_violation_rejected(self):
        with pytest.raises(NonpositiveParameter):
            build_io_model([1.0, 2.0], [-1.0, 1.0], 1.0)
        with pytest.raises(NonpositiveParameter):
            build_io_model([1.0, 2.0], [1.0, 1.0], 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_io_model([1.0, 2.0], [1.0], 1.0)

    def test_immutability(self):
        io = build_io_model([1.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            io.omega[0] = 5.0


class TestChainFromIO:
    def test_single_mode_identity(self):
        io = build_io_model([2.0], [1.0], 1.0)
        chain, omap = chain_from_io(io)
        assert chain.Omega[0] == pytest.approx(2.0)
        assert chain.D0 == pytest.approx(1.0)
        assert chain.D.size == 0
        assert omap.O == pytest.approx(np.array([[1.0]]))

    def test_two_mode_hand_example(self):
        # omega = (1, 2), c = (1, 1): one Lanczos step by hand gives
        # Omega_1 = Omega_2 = sqrt(2.5), D_1 = 1.5, D0 = sqrt(2),
        # first row (1, 1)/sqrt(2); eigenvalues of T are {1, 4}.
        io = build_io_model([1.0, 2.0], [1.0, 1.0], 1.0)
        chain, omap = chain_from_io(io)
        assert chain.Omega == pytest.approx([np.sqrt(2.5), np.sqrt(2.5)])
        assert chain.D == pytest.approx([1.5])
        assert chain.D0 == pytest.approx(np.sqrt(2.0))
        assert omap.O[0] == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.linalg.eigvalsh(chain.tridiagonal()) == pytest.approx([1.0, 4.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for N in (2, 4, 8, 16, 32, 64):
            omega = np.sort(rng.uniform(0.5, 3.0, N))
            while np.min(np.diff(omega)) < 1e-3:
                omega = np.sort(rng.uniform(0.5, 3.0, N))
            c = rng.uniform(0.1, 1.0, N)
            io = build_io_model(omega, c, 1.0)
            chain, omap = chain_from_io(io)
            w2 = omega**2
            eig = np.sort(np.linalg.eigvalsh(chain.tridiagonal()))
            assert np.abs(eig - w2).max() <= 1e-9 * w2.max()
            assert np.abs(omap.O @ omap.O.T - np.eye(N)).max() <= 1e-10

    def test_couplings_positive(self, small_instance):
        _, chain, _, _ = small_instance
        assert np.all(chain.D > 0) and chain.D0 > 0

    def test_row_one_is_normalized_coupling(self, small_instance):
        io, _, omap, _ = small_instance
        assert np.array_equal(omap.O[0], io.c / np.linalg.norm(io.c))

    def test_minor_polynomial_proportionality(self, small_instance):
        # O[j, k] = P_{j-1}(omega_k^2) * c_k / (||c|| prod_{l<j} D_l),
        # the diagnostic form of the eigenvector/minor relation.
        io, chain, omap, _ = small_instance
        norm_c = np.linalg.norm(io.c)
        for j in range(1, io.N + 1):
            pred = (char_poly_eval(chain, j - 1, io.omega**2) * io.c
                    / (norm_c * np.prod(chain.D[: j - 1])))
            assert omap.O[j - 1] == pytest.approx(pred, rel=1e-8, abs=1e-10)

    def test_breakdown_on_reducible_coupling(self):
        io = build_io_model([1.0, 2.0], [1.0, 1e-13], 1.0)
        with pytest.raises(Breakdown):
            chain_from_io(io)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(1, 96))
    def test_map_properties_on_random_baths(self, data, N):
        io = random_bath(data, N)
        chain, omap = chain_from_io(io)
        report = verify_equivalence(io, chain, omap)
        assert report.orthogonality <= 1e-13
        assert report.passed
        assert np.abs(omap.O[0] - io.c / np.linalg.norm(io.c)).max() <= 1e-15
        assert np.all(chain.D > 0)

    @pytest.mark.parametrize("spectrum", [linear_spectrum, geometric_spectrum])
    def test_long_chain_stays_orthogonal(self, spectrum):
        io = long_chain(spectrum)
        report = assert_matches_oracle(io, *chain_from_io(io))
        assert report.orthogonality <= 1e-13
        assert report.passed
        # the Sturm check measures T's own spectrum, not eigvalsh's rounding
        assert report.eigenvalue_mismatch <= 1e-14 * (io.omega**2).max()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(1, 96))
    def test_row_cut_is_the_leading_rows(self, data, N):
        io = random_bath(data, N)
        rows = data.draw(st.integers(1, N))
        chain, omap = chain_from_io(io)
        cut, cut_map = chain_from_io(io, rows=rows)
        assert cut.N == rows and cut_map.O.shape == (rows, N)
        assert np.array_equal(cut_map.O, omap.O[:rows])
        assert np.array_equal(cut.Omega, chain.Omega[:rows])
        assert np.array_equal(cut.D, chain.D[: rows - 1])
        assert (cut.D0, cut.Omega0) == (chain.D0, chain.Omega0)

    def test_row_cut_out_of_range(self, small_instance):
        io = small_instance[0]
        for rows in (0, io.N + 1):
            with pytest.raises(IndexOutOfRange):
                chain_from_io(io, rows=rows)

    def test_row_cut_checks_only_its_couplings(self):
        # D_1 is numerically zero: one row never meets it, two rows do
        io = build_io_model([1.0, 2.0], [1.0, 1e-13], 1.0)
        assert chain_from_io(io, rows=1)[0].N == 1
        with pytest.raises(Breakdown):
            chain_from_io(io, rows=2)


def assert_coefficients_match(chain, ref, rtol):
    assert chain.N == ref.N and (chain.D0, chain.Omega0) == (ref.D0, ref.Omega0)
    assert np.all(np.abs(chain.Omega / ref.Omega - 1.0) <= rtol)
    assert np.all(np.abs(chain.D / ref.D - 1.0) <= rtol)


class TestChainCoefficients:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(1, 96))
    def test_matches_lanczos_on_random_baths(self, data, N):
        io = random_bath(data, N)
        assert_coefficients_match(chain_coefficients(io), chain_from_io(io)[0], 1e-12)

    @pytest.mark.parametrize("spectrum", [linear_spectrum, geometric_spectrum])
    def test_matches_lanczos_on_long_chains(self, spectrum):
        io = long_chain(spectrum)
        assert_coefficients_match(chain_coefficients(io), lanczos_chain(io)[0], 1e-12)

    @pytest.mark.parametrize("spectrum", [linear_spectrum, geometric_spectrum])
    def test_against_50_digit_oracle(self, spectrum):
        # the same updating in 50 digits on the same doubles (70 digits give
        # the same rounded coefficients).  At N = 200 RKPW is within 2.7e-15
        # (linear) and 5.8e-15 (geometric) in Omega_j and 1.3e-14 and
        # 2.9e-14 in D_j; Lanczos within 8.9e-16 and 6.7e-16, 3.5e-15 and
        # 2.3e-15
        io = long_chain(spectrum, 200)
        with mpmath.workdps(50):
            alpha, beta = rkpw_scalar([mpmath.mpf(v) ** 2 for v in io.omega],
                                      [mpmath.mpf(v) ** 2 for v in io.c], mpmath.mpf)
            Omega = np.array([float(mpmath.sqrt(v)) for v in alpha])
            D = np.array([float(mpmath.sqrt(v)) for v in beta[1:]])
        oracle = ChainModel(Omega=Omega, D=D, D0=float(np.linalg.norm(io.c)), Omega0=io.Omega0)
        assert_coefficients_match(chain_coefficients(io), oracle, 1e-13)
        assert_coefficients_match(lanczos_chain(io)[0], oracle, 1e-14)

    def test_wavefront_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        omega = np.sort(rng.uniform(0.5, 3.0, 64))
        io = build_io_model(omega, rng.uniform(0.1, 1.0, 64), 1.0)
        alpha, beta = rkpw_scalar(io.omega**2, io.c**2)
        chain = chain_coefficients(io)
        assert np.array_equal(chain.Omega, np.sqrt(alpha))
        assert np.array_equal(chain.D, np.sqrt(beta[1:]))
        assert beta[0] == pytest.approx(chain.D0**2, rel=1e-14)

    def test_two_mode_hand_example(self):
        chain = chain_coefficients(build_io_model([1.0, 2.0], [1.0, 1.0], 1.0))
        assert chain.Omega == pytest.approx([np.sqrt(2.5), np.sqrt(2.5)], rel=1e-15)
        assert chain.D == pytest.approx([1.5], rel=1e-15)

    def test_single_mode(self):
        chain = chain_coefficients(build_io_model([2.0], [1.0], 1.0))
        assert chain.Omega[0] == 2.0 and chain.D.size == 0 and chain.D0 == 1.0

    def test_breakdown_on_reducible_coupling(self):
        io = build_io_model([1.0, 2.0], [1.0, 1e-13], 1.0)
        with pytest.raises(Breakdown, match="D_1"):
            chain_coefficients(io)


class TestCharPoly:
    def test_empty_minor_is_one(self, small_instance):
        _, chain, _, _ = small_instance
        assert char_poly_eval(chain, 0, 0.37) == 1.0

    def test_first_minor(self):
        io = build_io_model([1.0, 2.0], [1.0, 1.0], 1.0)
        chain, _ = chain_from_io(io)
        # P_1(lambda) = Omega_1^2 - lambda = 2.5 - 1.0
        assert char_poly_eval(chain, 1, 1.0) == pytest.approx(1.5)

    def test_full_poly_vanishes_at_eigenvalues(self):
        rng = np.random.default_rng(5)
        omega = np.sort(rng.uniform(0.5, 2.5, 3))
        io = build_io_model(omega, rng.uniform(0.2, 0.8, 3), 1.0)
        chain, _ = chain_from_io(io)
        vals = char_poly_eval(chain, 3, omega**2)
        assert np.abs(vals).max() < 1e-9 * (omega**2).max() ** 3

    def test_recurrence_matches_dense_determinant(self):
        rng = np.random.default_rng(6)
        for N in (4, 8, 16):
            omega = np.sort(rng.uniform(0.5, 3.0, N))
            io = build_io_model(omega, rng.uniform(0.1, 1.0, N), 1.0)
            chain, _ = chain_from_io(io)
            T = chain.tridiagonal()
            for lam in rng.uniform(0.0, 9.0, 4):
                dense = np.linalg.det(T - lam * np.eye(N))
                rec = char_poly_eval(chain, N, lam)
                assert rec == pytest.approx(dense, rel=1e-8, abs=1e-12)

    def test_index_out_of_range(self, small_instance):
        _, chain, _, _ = small_instance
        with pytest.raises(IndexOutOfRange):
            char_poly_eval(chain, chain.N + 1, 0.0)


class TestVerifyEquivalence:
    def test_self_consistency(self, small_instance):
        io, chain, omap, _ = small_instance
        assert verify_equivalence(io, chain, omap).passed

    def test_perturbation_detected(self, small_instance):
        io, chain, omap, _ = small_instance
        from chainbath.spectral import ChainModel

        Omega = chain.Omega.copy()
        Omega[1] += 1e-3
        bad = ChainModel(Omega=Omega, D=chain.D, D0=chain.D0, Omega0=chain.Omega0)
        report = verify_equivalence(io, bad, omap)
        assert not report.passed
        assert report.tridiagonal_residual > 1e-4

    def test_large_random(self):
        rng = np.random.default_rng(7)
        omega = np.sort(rng.uniform(0.5, 4.0, 32))
        io = build_io_model(omega, rng.uniform(0.1, 1.0, 32), 1.0)
        chain, omap = chain_from_io(io)
        report = verify_equivalence(io, chain, omap)
        assert report.passed
        assert report.orthogonality <= 1e-10
        assert report.tridiagonal_residual <= 1e-9 * (omega**2).max()

    def test_dimension_mismatch(self, small_instance):
        io, chain, omap, _ = small_instance
        other = build_io_model([1.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(DimensionMismatch):
            verify_equivalence(other, chain, omap)


def dense_oracle(io, chain, omap, rtol=1e-9):
    """The dense check: (passed, eigenvalue mismatch) with T's spectrum from
    eigvalsh and both residuals from dense N x N products."""
    w2 = io.omega**2
    bound = rtol * w2.max()
    T = chain.tridiagonal()
    ortho = np.abs(omap.O @ omap.O.T - np.eye(io.N)).max()
    tri = np.abs(T - (omap.O * w2) @ omap.O.T).max()
    eig = np.abs(np.sort(np.linalg.eigvalsh(T)) - w2).max()
    return (ortho <= max(rtol, 1e-10) and tri <= bound and eig <= bound), eig


def assert_matches_oracle(io, chain, omap):
    report = verify_equivalence(io, chain, omap)
    passed, eig = dense_oracle(io, chain, omap)
    assert report.passed == passed
    assert abs(report.eigenvalue_mismatch - eig) <= 1e-13 * (io.omega**2).max()
    return report


def shifted(chain, j, shift):
    """The chain with Omega_j^2 (0-based j) moved by `shift`."""
    Omega2 = chain.Omega**2
    Omega2[j] += shift
    return ChainModel(Omega=np.sqrt(Omega2), D=chain.D, D0=chain.D0, Omega0=chain.Omega0)


class TestSpectrumCheck:
    """The Sturm-count spectrum check against the dense eigvalsh oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(1, 96))
    def test_matches_dense_oracle_on_random_baths(self, data, N):
        io = random_bath(data, N)
        assert_matches_oracle(io, *chain_from_io(io))

    @pytest.mark.parametrize("omega, c", [([2.0], [1.0]), ([1.0, 2.0], [1.0, 1.0])])
    def test_one_and_two_modes(self, omega, c):
        io = build_io_model(omega, c, 1.0)
        assert assert_matches_oracle(io, *chain_from_io(io)).passed

    def test_near_degenerate_pair(self):
        # the delta-intervals of omega_2^2 and omega_3^2 overlap
        omega = np.array([0.5, 1.0, 1.0 + 1e-10, 1.7, 2.5])
        io = build_io_model(omega, np.full(5, 0.3), 1.0)
        assert assert_matches_oracle(io, *chain_from_io(io)).passed

    def test_shifted_diagonal(self):
        # the weakly coupled top mode sits at the chain's end, so moving the
        # last Omega_j^2 moves its eigenvalue by nearly as much
        io = build_io_model([1.0, 2.0, 4.0, 8.0], [1.0, 1.0, 1.0, 1e-3], 1.0)
        chain, omap = chain_from_io(io)
        assert omap.O[3, 3] ** 2 > 0.98
        delta = 1e-9 * (io.omega**2).max()
        close = assert_matches_oracle(io, shifted(chain, 3, 0.5 * delta), omap)
        assert close.passed and close.eigenvalue_mismatch <= delta
        far = assert_matches_oracle(io, shifted(chain, 3, 2.0 * delta), omap)
        assert not far.passed and far.eigenvalue_mismatch >= delta
        assert far.failures((io.omega**2).max()) == ["tridiagonal_residual",
                                                      "eigenvalue_mismatch"]

    def test_flat_determinant_is_capped_at_delta(self):
        # eigenvalues 1 -/+ 0.495 delta, both within delta of omega_1^2 = 1
        # and omega_2^2: det(T - x) is nearly flat at x = 1, so the Newton
        # step overshoots, and the counts cap it at delta
        io = build_io_model([1.0, 1.0 + 1e-11], [1.0, 1.0], 1.0)
        omap = chain_from_io(io)[1]
        delta = 1e-9 * (io.omega**2).max()
        t = 0.35 * delta
        chain = ChainModel(Omega=np.sqrt([1.0 + t, 1.0 - t]), D=np.array([t]),
                           D0=1.0, Omega0=1.0)
        report = verify_equivalence(io, chain, omap)
        assert dense_oracle(io, chain, omap)[1] <= delta
        assert report.eigenvalue_mismatch <= delta
        assert "eigenvalue_mismatch" not in report.failures((io.omega**2).max())

    def test_failed_count_is_reported_above_delta(self):
        # Omega_1^2 lies on the lower probe point fl(1 - delta), where a
        # zero pivot counts as below: the count fails, and the value must
        # say so although 1 - Omega_1^2 rounds below delta
        rtol = 5e-9
        io = build_io_model([1.0], [1.0], 1.0)
        chain = ChainModel(Omega=np.array([0.9999999975]), D=np.zeros(0), D0=1.0, Omega0=1.0)
        assert chain.Omega[0] ** 2 == 1.0 - rtol and 1.0 - (1.0 - rtol) < rtol
        report = verify_equivalence(io, chain, chain_from_io(io)[1], rtol=rtol)
        assert report.failures(1.0) == ["eigenvalue_mismatch"] and not report.passed

    def test_nan_coefficient_fails(self):
        io = build_io_model([1.0, 2.0], [1.0, 1.0], 1.0)
        chain, omap = chain_from_io(io)
        bad = ChainModel(Omega=np.array([np.nan, chain.Omega[1]]), D=chain.D,
                         D0=chain.D0, Omega0=chain.Omega0)
        report = verify_equivalence(io, bad, omap)
        assert not report.passed
        assert report.failures(4.0) == ["tridiagonal_residual", "eigenvalue_mismatch"]

    def test_runs_no_dense_eigensolve(self, no_eigensolve):
        io = long_chain(linear_spectrum, 64)
        chain, omap = chain_from_io(io)
        assert verify_equivalence(io, chain, omap).passed

    @pytest.mark.parametrize("where", [None, (1, 0), (150, 20), (199, 198)])
    def test_blocks_match_whole_products(self, monkeypatch, where):
        # blocks of 64 at N = 200, where T's band crosses from one block
        # into the next: an intact map, and a defect in a block on the
        # diagonal or below it, read as with whole products
        monkeypatch.setattr(spectral, "_CHECK_BLOCK", 64)
        io = long_chain(linear_spectrum, 200)
        chain, omap = chain_from_io(io)
        O = omap.O.copy()
        if where is not None:
            O[where] += 1e-6
        report = verify_equivalence(io, chain, OrthogonalMap(O))
        ortho = np.abs(O @ O.T - np.eye(io.N)).max()
        tri = np.abs(chain.tridiagonal() - (O * io.omega**2) @ O.T).max()
        assert report.orthogonality == pytest.approx(ortho, rel=1e-9, abs=1e-15)
        assert report.tridiagonal_residual == pytest.approx(tri, rel=1e-9, abs=1e-14)
        assert report.passed is (where is None)

    def test_residuals_work_in_blocks(self):
        # the residual products go a block of rows and columns at a time:
        # 1.25 N^2 doubles at N = 1024, where whole products take 2
        N = 2 * LEAF
        io = long_chain(linear_spectrum, N)
        chain, omap = chain_from_io(io)
        tracemalloc.start()
        try:
            assert verify_equivalence(io, chain, omap).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * N * N * 8

    def test_two_work_arrays(self):
        N = 512
        io = long_chain(linear_spectrum, N)
        chain, omap = chain_from_io(io)
        tracemalloc.start()
        try:
            verify_equivalence(io, chain, omap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * N * N * 8


def assert_eigh_matches_dense(a, b):
    """`_tridiagonal_eigh` against eigvalsh of the dense matrix: ascending
    eigenvalues and the residual T Q - Q diag(lam) to 1e-14 of the largest
    eigenvalue, orthogonality to 1e-14."""
    lam, Q = _tridiagonal_eigh(a, b)
    T = _dense_tridiagonal(a, b)
    ref = np.linalg.eigvalsh(T)
    scale = np.abs(ref).max()
    assert np.all(np.diff(lam) >= 0)
    assert np.abs(lam - ref).max() <= 1e-14 * scale
    assert np.abs(Q.T @ Q - np.eye(len(a))).max() <= 1e-14
    assert np.abs(T @ Q - Q * lam).max() <= 1e-14 * scale
    return lam


@pytest.fixture
def small_leaf(monkeypatch):
    """Leaves of 8 sites, so that small matrices take several merges."""
    monkeypatch.setattr(spectral, "LEAF", 8)


@pytest.fixture
def secular_calls(monkeypatch):
    """(d, c2, alpha) of every secular equation a merge solves."""
    calls = []
    solve = spectral._secular_roots
    monkeypatch.setattr(spectral, "_secular_roots", lambda d, c2, alpha, **kw:
                        calls.append((d, c2, alpha)) or solve(d, c2, alpha, **kw))
    return calls


class TestDivideAndConquer:
    """Full maps above LEAF modes: eigenvectors of T by arrowhead merges."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(LEAF + 1, 3 * LEAF))
    def test_map_on_random_baths(self, seed, N):
        # `random_bath`'s distribution, drawn by numpy: gaps in [0.01, 0.2],
        # couplings log-uniform over [1e-6, 1]
        rng = np.random.default_rng(seed)
        io = build_io_model(0.1 + np.cumsum(rng.uniform(0.01, 0.2, N)),
                            10.0 ** rng.uniform(-6.0, 0.0, N), 1.0)
        chain, omap = chain_from_io(io)
        ref = chain_coefficients(io)
        assert np.array_equal(chain.Omega, ref.Omega) and np.array_equal(chain.D, ref.D)
        report = verify_equivalence(io, chain, omap)
        assert report.passed and report.orthogonality <= 1e-13
        # row 0 is c/||c|| only as far as RKPW's T pins it: 6.5e-13 at most
        # over seeds 0-7
        assert np.abs(omap.O[0] - io.c / np.linalg.norm(io.c)).max() <= 1e-11

    @pytest.mark.parametrize("spectrum", [linear_spectrum, geometric_spectrum])
    def test_long_chains_match_lanczos(self, spectrum):
        # measured: 9.5e-14 (linear) and 2.2e-13 (geometric) entrywise
        io = long_chain(spectrum)
        omap = chain_from_io(io)[1]
        assert np.abs(omap.O - lanczos_chain(io)[1].O).max() <= 1e-12
        # a cut is Lanczos: its rows agree with the full map's to the same
        assert np.abs(chain_from_io(io, rows=32)[1].O - omap.O[:32]).max() <= 1e-12

    def test_route_switches_above_leaf(self):
        small = long_chain(linear_spectrum, LEAF)
        (chain, omap), (ref, ref_map) = chain_from_io(small), lanczos_chain(small)
        assert np.array_equal(omap.O, ref_map.O) and np.array_equal(chain.D, ref.D)
        large = long_chain(linear_spectrum, LEAF + 1)
        chain = chain_from_io(large)[0]
        assert np.array_equal(chain.Omega, chain_coefficients(large).Omega)

    @pytest.mark.parametrize("coupling", [0.0, 1e-30])
    def test_vanishing_couplings_deflate(self, small_leaf, secular_calls, coupling):
        # a vanishing b at a split point zeroes (or nearly) a whole half of
        # z: those poles deflate, and the secular equation never sees them
        rng = np.random.default_rng(5)
        a, b = rng.uniform(1.0, 3.0, 37), rng.uniform(0.1, 1.0, 36)
        b[17] = coupling    # between site 17 and the middle site 18
        assert_eigh_matches_dense(a, b)
        assert len(secular_calls[-1][0]) == 18    # the top merge: half 1's 18 poles gone

    @pytest.mark.parametrize("offset", [0.0, 1e-16])
    def test_tied_poles_rotate(self, small_leaf, secular_calls, offset):
        # a uniform chain's two halves share their spectrum (exactly, or to
        # 1e-16): each pair of tied poles rotates into one
        a, b = np.full(35, 2.0), np.ones(34)
        a[18:] += offset
        assert_eigh_matches_dense(a, b)
        assert len(secular_calls[-1][0]) == 17    # of 34 poles, one per tied pair

    def test_near_singular_merge(self, small_leaf, secular_calls):
        # the uniform chain shifted by its lowest eigenvalue: positive
        # definite, but at the top merge alpha - sum z_k^2/d_k rounds to
        # <= 0, so a Schur check there would refuse it
        a, b = np.full(143, 2.0), np.ones(142)
        a -= np.linalg.eigvalsh(_dense_tridiagonal(a, b))[0]
        lam = assert_eigh_matches_dense(a, b)
        assert abs(lam[0]) <= 1e-14 * lam[-1]
        d, c2, alpha = secular_calls[-1]
        assert alpha <= np.sum(c2 / d)

    def test_secular_roots_leave_the_schur_check_to_the_caller(self):
        # at the Schur threshold the lowest root is 0: the solver returns it
        d, c2 = np.array([0.5, 1.0, 1.5]), np.array([0.04, 0.16, 0.09])
        sigma, tau = _secular_roots(d, c2, float(np.sum(c2 / d)))
        assert abs(sigma[0] + tau[0]) <= 1e-15

    def test_breakdown_keeps_its_criterion(self):
        # one heavy mode: D_1 = 7.2e-14 < 1e-12 max(omega^2), on both routes
        omega = np.linspace(0.5, 2.5, LEAF + 88)
        c = np.full(omega.size, 1e-15)
        c[0] = 1.0
        io = build_io_model(omega, c, 1.2)
        for build in (chain_from_io, lanczos_chain):
            with pytest.raises(Breakdown, match="D_1 "):
                build(io)

    def test_at_most_three_work_arrays(self):
        # the halves' vectors share the output array, and the top merge adds
        # one work array and blocks of a few hundred rows: 2.77 N^2 doubles
        # measured at N = 1024, 2.26 at N = 2048
        N = 2 * LEAF
        io = long_chain(linear_spectrum, N)
        tracemalloc.start()
        try:
            chain_from_io(io)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * N * N * 8
