"""Chain construction, characteristic-minor polynomials, and equivalence checks."""

import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbath import spectral
from chainbath.errors import Breakdown
from chainbath.instances import geometric_spectrum, linear_spectrum
from chainbath.spectral import (
    ChainModel,
    build_io_model,
    certify_chain,
    chain_coefficients,
    chain_from_io,
)
from tests.conftest import long_chain, numpy_bath, random_bath
from tests import oracles
from tests.oracles import char_poly_eval, tridiagonal, verify_equivalence


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
        with pytest.raises(ValueError, match="strictly increasing"):
            build_io_model([1.0, 1.0], [1.0, 1.0], 1.0)

    def test_sign_violation_rejected(self):
        with pytest.raises(ValueError, match="c_k within"):
            build_io_model([1.0, 2.0], [-1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="Omega0 must lie within"):
            build_io_model([1.0, 2.0], [1.0, 1.0], 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("len(c) must lie within [2, 2], not 1")):
            build_io_model([1.0, 2.0], [1.0], 1.0)
        with pytest.raises(ValueError, match="nonempty"):
            build_io_model([], [], 1.0)

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
        assert omap == pytest.approx(np.array([[1.0]]))

    def test_two_mode_hand_example(self):
        # omega = (1, 2), c = (1, 1): one Lanczos step by hand gives
        # Omega_1 = Omega_2 = sqrt(2.5), D_1 = 1.5, D0 = sqrt(2),
        # first row (1, 1)/sqrt(2); eigenvalues of T are {1, 4}.
        io = build_io_model([1.0, 2.0], [1.0, 1.0], 1.0)
        chain, omap = chain_from_io(io)
        assert chain.Omega == pytest.approx([np.sqrt(2.5), np.sqrt(2.5)])
        assert chain.D == pytest.approx([1.5])
        assert chain.D0 == pytest.approx(np.sqrt(2.0))
        assert omap[0] == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.linalg.eigvalsh(tridiagonal(chain)) == pytest.approx([1.0, 4.0])

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
            eig = np.sort(np.linalg.eigvalsh(tridiagonal(chain)))
            assert np.abs(eig - w2).max() <= 1e-9 * w2.max()
            assert np.abs(omap @ omap.T - np.eye(N)).max() <= 1e-10

    def test_couplings_positive(self, small_instance):
        _, chain, _, _ = small_instance
        assert np.all(chain.D > 0) and chain.D0 > 0

    def test_row_one_is_normalized_coupling(self, small_instance):
        io, _, omap, _ = small_instance
        assert np.array_equal(omap[0], io.c / np.linalg.norm(io.c))

    def test_minor_polynomial_proportionality(self, small_instance):
        # O[j, k] = P_{j-1}(omega_k^2) * c_k / (||c|| prod_{l<j} D_l),
        # the diagnostic form of the eigenvector/minor relation.
        io, chain, omap, _ = small_instance
        norm_c = np.linalg.norm(io.c)
        for j in range(1, io.N + 1):
            pred = (char_poly_eval(chain, j - 1, io.omega**2) * io.c
                    / (norm_c * np.prod(chain.D[: j - 1])))
            assert omap[j - 1] == pytest.approx(pred, rel=1e-8, abs=1e-10)

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
        assert np.abs(omap[0] - io.c / np.linalg.norm(io.c)).max() <= 1e-15
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
        # the map is a read-only array of the full map's leading rows, bitwise
        assert type(cut_map) is np.ndarray and not cut_map.flags.writeable
        assert cut.N == rows and cut_map.shape == (rows, N)
        assert cut_map.tobytes() == omap[:rows].tobytes()
        assert np.array_equal(cut.Omega, chain.Omega[:rows])
        assert np.array_equal(cut.D, chain.D[: rows - 1])
        assert (cut.D0, cut.Omega0) == (chain.D0, chain.Omega0)

    def test_row_cut_is_the_leading_rows_at_600_modes(self):
        io = long_chain(linear_spectrum, 600)
        chain, omap = chain_from_io(io)
        for rows in (1, 32, 599):
            cut, cut_map = chain_from_io(io, rows=rows)
            assert np.array_equal(cut_map, omap[:rows])
            assert np.array_equal(cut.Omega, chain.Omega[:rows])
            assert np.array_equal(cut.D, chain.D[: rows - 1])

    def test_builds_one_work_array(self):
        # the map is built in place of the Lanczos vectors, with no copy
        N = 1024
        io = long_chain(linear_spectrum, N)
        tracemalloc.start()
        try:
            chain_from_io(io)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * N * N * 8

    def test_row_cut_out_of_range(self, small_instance):
        io = small_instance[0]
        for rows in (0, io.N + 1):
            with pytest.raises(ValueError, match=re.escape(
                    f"map rows must lie within [1, {io.N}], not {rows}")):
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
        assert_coefficients_match(chain_coefficients(io), chain_from_io(io)[0], 1e-12)

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
        assert_coefficients_match(chain_from_io(io)[0], oracle, 1e-14)

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

    def test_breakdown_keeps_its_criterion(self):
        # one heavy mode: D_1 = 7.2e-14 < 1e-12 max(omega^2), by RKPW as by
        # Lanczos
        omega = np.linspace(0.5, 2.5, 600)
        c = np.full(omega.size, 1e-15)
        c[0] = 1.0
        io = build_io_model(omega, c, 1.2)
        for build in (chain_from_io, chain_coefficients):
            with pytest.raises(Breakdown, match="D_1 "):
                build(io)


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
            T = tridiagonal(chain)
            for lam in rng.uniform(0.0, 9.0, 4):
                dense = np.linalg.det(T - lam * np.eye(N))
                rec = char_poly_eval(chain, N, lam)
                assert rec == pytest.approx(dense, rel=1e-8, abs=1e-12)

    def test_index_out_of_range(self, small_instance):
        _, chain, _, _ = small_instance
        with pytest.raises(ValueError, match=re.escape(
                f"minor index must lie within [0, {chain.N}], not {chain.N + 1}")):
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
        with pytest.raises(ValueError, match=re.escape(
                f"chain size must lie within [{other.N}, {other.N}], not {chain.N}")):
            verify_equivalence(other, chain, omap)


def dense_oracle(io, chain, omap, rtol=1e-9):
    """The dense check: (passed, eigenvalue mismatch) with T's spectrum from
    eigvalsh and both residuals from dense N x N products."""
    w2 = io.omega**2
    bound = rtol * w2.max()
    T = tridiagonal(chain)
    ortho = np.abs(omap @ omap.T - np.eye(io.N)).max()
    tri = np.abs(T - (omap * w2) @ omap.T).max()
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
        assert omap[3, 3] ** 2 > 0.98
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
        monkeypatch.setattr(oracles, "_CHECK_BLOCK", 64)
        io = long_chain(linear_spectrum, 200)
        chain, omap = chain_from_io(io)
        O = omap.copy()
        if where is not None:
            O[where] += 1e-6
        report = verify_equivalence(io, chain, O)
        ortho = np.abs(O @ O.T - np.eye(io.N)).max()
        tri = np.abs(tridiagonal(chain) - (O * io.omega**2) @ O.T).max()
        assert report.orthogonality == pytest.approx(ortho, rel=1e-9, abs=1e-15)
        assert report.tridiagonal_residual == pytest.approx(tri, rel=1e-9, abs=1e-14)
        assert report.passed is (where is None)

    def test_residuals_work_in_blocks(self):
        # the residual products go a block of rows and columns at a time:
        # 1.25 N^2 doubles at N = 1024, where whole products take 2
        N = 1024
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


def dense_weight_mismatch(io, chain):
    """max_k |D0^2 V[0, k]^2 - c_k^2| / max_k c_k^2 from eigh of T."""
    c2 = io.c**2
    return np.abs(chain.D0**2 * np.linalg.eigh(tridiagonal(chain))[1][0] ** 2 - c2).max() / c2.max()


def clustered_bath(seed, gap, size=2, N=8):
    """The linear bath on [0.5, 2.5] with the `size - 1` frequencies above
    omega_{N/2 - 1} moved to omega_{N/2 - 1} (1 + m gap), m = 1, 2, ...;
    couplings log-uniform over [1e-6, 1], or all 1 for seed None."""
    omega = np.linspace(0.5, 2.5, N)
    omega[N // 2: N // 2 + size - 1] = omega[N // 2 - 1] * (1.0 + gap * np.arange(1, size))
    if seed is None:
        return build_io_model(omega, np.ones(N), 1.0)
    return build_io_model(omega, 10.0 ** np.random.default_rng(seed).uniform(-6.0, 0.0, N), 1.0)


# baths with two or three nodes 1e-12 to 1e-10 apart, each chain of which
# some float T reads above 1e-9 in weight_mismatch
NEAR_DEGENERATE = {
    # TestSpectrumCheck's near-degenerate pair and flat determinant
    "pair": lambda: build_io_model([0.5, 1.0, 1.0 + 1e-10, 1.7, 2.5], np.full(5, 0.3), 1.0),
    "flat": lambda: build_io_model([1.0, 1.0 + 1e-11], [1.0, 1.0], 1.0),
    "gap1e-12": lambda: clustered_bath(8, 1e-12),
    "gap1e-11": lambda: clustered_bath(8, 1e-11),
    "gap1e-10": lambda: clustered_bath(1, 1e-10),
    # the middle node's neighbours' poles cancel: its eigenvector's turn
    # is what moves it
    "triple-equal": lambda: clustered_bath(None, 1e-11, size=3),
    # weights far below their neighbours': the second-order term counts
    "triple": lambda: clustered_bath(11, 1e-10, size=3),
}


class TestCertifyChain:
    """The map-free certificate: Sturm counts for the nodes, -1/dm_0' for
    the weights."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(1, 1536))
    def test_passes_on_random_baths(self, data, N):
        io = random_bath(data, N)
        chain = chain_coefficients(io)
        report = certify_chain(io, chain)
        assert report.passed
        if N <= 96:
            # the map's certificate agrees, and the weights are eigh's
            assert verify_equivalence(io, *chain_from_io(io)).passed
            assert abs(report.weight_mismatch - dense_weight_mismatch(io, chain)) <= 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(97, 1536))
    def test_passes_on_large_random_baths(self, seed, N):
        # measured at most 3.1e-11 over 180 such baths
        io = numpy_bath(seed, N)
        report = certify_chain(io, chain_coefficients(io))
        assert report.passed and report.weight_mismatch <= 1e-10

    @pytest.mark.parametrize("spectrum", [linear_spectrum, geometric_spectrum])
    @pytest.mark.parametrize("N", [1024, 2048])
    def test_long_chains(self, spectrum, N):
        # measured: weight_mismatch 1.9e-12 and 4.1e-12 (linear), 2.6e-12
        # and 6.0e-12 (geometric); eigenvalue_mismatch about 1e-15
        io = long_chain(spectrum, N)
        report = certify_chain(io, chain_coefficients(io))
        assert report.passed and report.weight_mismatch <= 1e-10
        assert report.eigenvalue_mismatch <= 1e-14 * (io.omega**2).max()
        # the rounding allowance leaves the weights checked to about 1e-10:
        # measured at most 1.2e-10 (geometric, N = 2048)
        assert spectral._weight_allowance(io).max() <= 2e-10 * (io.c**2).max()

    @pytest.mark.parametrize("bath", sorted(NEAR_DEGENERATE))
    def test_near_degenerate_nodes(self, bath):
        # a rounding of T turns the pair's eigenvectors by about
        # eps max(omega^2) / gap, so no float T carries their single
        # weights to 1e-9, and the rounding allowance admits RKPW's T and
        # Lanczos's alike
        io = NEAR_DEGENERATE[bath]()
        reports = [certify_chain(io, chain)
                   for chain in (chain_coefficients(io), chain_from_io(io)[0])]
        assert all(report.passed for report in reports)
        assert max(report.weight_mismatch for report in reports) > 1e-9

    @pytest.mark.parametrize("bath", sorted(NEAR_DEGENERATE))
    def test_near_degenerate_bath_is_still_tied(self, bath):
        # the allowance is wide at the pair only: the chain of a bath with
        # the same nodes and other couplings, or D0 off by 1e-8, fails
        io = NEAR_DEGENERATE[bath]()
        chain = chain_coefficients(io)
        c = io.c * np.linspace(1.0, 3.0, io.N)
        c *= np.linalg.norm(io.c) / np.linalg.norm(c)
        other = chain_coefficients(build_io_model(io.omega, c, io.Omega0))
        assert certify_chain(io, other).failed == ("weight_mismatch",)
        off = ChainModel(Omega=chain.Omega, D=chain.D, D0=chain.D0 * (1 + 1e-8),
                         Omega0=chain.Omega0)
        assert certify_chain(io, off).failed == ("weight_mismatch",)

    @pytest.mark.parametrize("omega, c", [([2.0], [1.0]), ([1.0, 2.0], [1.0, 1.0])])
    def test_one_and_two_modes(self, omega, c):
        io = build_io_model(omega, c, 1.0)
        report = certify_chain(io, chain_coefficients(io))
        assert report.passed and report.weight_mismatch <= 1e-15

    def test_weights_are_read_at_the_eigenvalues(self):
        # a weight 1e-12 below its neighbours': dm_0 has a pole beside its
        # zero, so at omega_k^2, which RKPW's T reproduces only to about
        # eps max(omega^2), dm_0' is far off; one Newton step on det(T - x)
        # first lands where the formula holds
        io = numpy_bath(2, 1024)
        chain = chain_coefficients(io)
        w2, c2 = io.omega**2, io.c**2
        _, _, dm0 = spectral._sturm_newton(chain.Omega[::-1] ** 2, chain.D[::-1] ** 2, w2,
                                           np.finfo(float).eps ** 2 * w2.max())
        assert np.abs(chain.D0**2 / -dm0 - c2).max() / c2.max() > 1e-9
        report = certify_chain(io, chain)
        assert report.passed and report.weight_mismatch <= 1e-11

    def test_map_free_and_small(self, no_eigensolve):
        # no eigensolve, no map, and O(N) memory: the pivot passes hold a
        # few arrays of 3N points
        N = 2048
        io = long_chain(linear_spectrum, N)
        chain = chain_coefficients(io)
        tracemalloc.start()
        try:
            assert certify_chain(io, chain).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * N * N * 8

    def test_dimension_mismatch(self, small_instance):
        io, chain, _, _ = small_instance
        with pytest.raises(ValueError, match=re.escape(
                f"chain size must lie within [2, 2], not {chain.N}")):
            certify_chain(build_io_model([1.0, 2.0], [1.0, 1.0], 1.0), chain)
