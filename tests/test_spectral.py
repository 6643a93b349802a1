"""Chain construction, characteristic-minor polynomials, and equivalence checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbath.errors import (
    Breakdown,
    DimensionMismatch,
    IndexOutOfRange,
    NonincreasingSpectrum,
    NonpositiveParameter,
)
from chainbath.instances import geometric_spectrum, linear_spectrum
from chainbath.spectral import (
    build_io_model,
    chain_coefficients,
    chain_from_io,
    char_poly_eval,
    verify_equivalence,
)
from tests.conftest import long_chain, random_bath


def rkpw_scalar(x, w):
    """Gautschi's RKPW as a plain double loop over nodes and positions:
    returns (alpha, beta) with alpha_j = Omega_j^2, beta_0 = ||c||^2 and
    beta_j = D_j^2."""
    alpha = [float(v) for v in x]
    beta = [0.0] * len(x)
    beta[0] = float(w[0])
    for m in range(1, len(x)):
        pn, gam, sig, t = float(w[m]), 1.0, 0.0, 0.0
        for k in range(m + 1):
            rho = beta[k] + pn
            tmp = gam * rho
            old_sig = sig
            if rho <= 0:
                gam, sig = 1.0, 0.0
            else:
                gam, sig = beta[k] / rho, pn / rho
            tk = sig * (alpha[k] - float(x[m])) - gam * t
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
        report = verify_equivalence(io, *chain_from_io(io))
        assert report.orthogonality <= 1e-13
        assert report.passed

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
        assert_coefficients_match(chain_coefficients(io), chain_from_io(io)[0], 1e-12)

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
