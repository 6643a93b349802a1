"""Resolvent parameters, source construction, and the closed Volterra solution."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from chainbath.bounds import ThermalState, sample_thermal
from chainbath.dynamics import InitialState, extended_initial_conditions
from chainbath.errors import UnstableMode
from chainbath.instances import coupling_profile, linear_spectrum
from chainbath.kernels import convolve_on_grid
from chainbath.solution import VolterraParams, mu_delta, solve_volterra_closed
from chainbath.spectral import ChainModel, build_io_model, chain_from_io
from tests.conftest import make_instance
from tests.oracles import (
    Trajectory,
    coupling,
    evolve_truncated,
    free_mode,
    free_source_series,
    kernel_closed_form,
    kernel_eval,
    resolvent_series,
    solve_volterra_numeric,
    source_term,
    x_reduced_form,
)


def linear_instance(N, seed=0):
    """The CLI's linear family (c0 = 0.5/sqrt(N), Omega0 = 1.2) with a
    thermal draw at kT = 1."""
    omega = linear_spectrum(N, 0.5, 2.5)
    io = build_io_model(omega, coupling_profile(omega, 0.5 / math.sqrt(N)), 1.2)
    chain, omap = chain_from_io(io)
    return io, chain, omap, sample_thermal(io, ThermalState(1.0), seed)


def volterra_error(chain, omap, init, times):
    """(max |x_volterra - x_full|, max |x_full|) on the grid."""
    full = evolve_truncated(chain, chain.N, init, omap, times)
    F = source_term(chain, chain.N, full, init, omap)
    p = mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
    x = solve_volterra_closed(p, F, times)
    return np.abs(x - full.x).max(), np.abs(full.x).max()


def gl_convolve(kernel_fn, values_fn, t, nodes=128):
    x, w = leggauss(nodes)
    s = 0.5 * t * (x + 1)
    return 0.5 * t * np.sum(w * kernel_fn(t - s) * values_fn(s))


class TestMuDelta:
    def test_frozen_example(self):
        # (Omega0, Omega1, D0) = (2, 1, 1): Delta = (4-1)^2 + 4 = 13,
        # mu^2 = (5 +- sqrt(13))/2; frozen from the resolvent-coefficient
        # identities below.
        p = mu_delta(2.0, 1.0, 1.0)
        assert p.mu1**2 - p.mu2**2 == pytest.approx(np.sqrt(13.0))
        assert p.mu1**2 == pytest.approx((5 + np.sqrt(13)) / 2)
        assert p.mu2**2 == pytest.approx((5 - np.sqrt(13)) / 2)
        assert p.mu1 > p.mu2 > 0

    def test_coefficient_identities(self):
        # the resolvent poles factor (s^2+Om0^2)(s^2+Om1^2) - D0^2
        for Om0, Om1, D0 in [(2.0, 1.0, 1.0), (1.3, 2.2, 0.7), (0.9, 1.1, 0.5)]:
            p = mu_delta(Om0, Om1, D0)
            assert p.mu1**2 + p.mu2**2 == pytest.approx(Om0**2 + Om1**2, rel=1e-12)
            assert (p.mu1 * p.mu2) ** 2 == pytest.approx(
                Om0**2 * Om1**2 - D0**2, rel=1e-12
            )

    def test_complex_resolvent(self):
        with pytest.raises(UnstableMode, match=re.escape(
                "D0 = 1 >= Omega0*Omega1 = 1; lower resolvent frequency is not real")):
            mu_delta(1.0, 1.0, 1.0)

    def test_decoupled_limit(self):
        p = mu_delta(2.0, 1.0, 1e-9)
        assert p.mu1 == pytest.approx(2.0, abs=1e-9)
        assert p.mu2 == pytest.approx(1.0, abs=1e-9)

    def test_coincident_frequencies_accepted(self):
        # a weakly coupled resonant pair: mu1 and mu2 agree to 1e-7, which
        # the nested solve needs no partial fractions for
        p = mu_delta(1.0, 1.0, 1e-7)
        assert p.mu1 == pytest.approx(1.0, abs=1e-7)
        assert p.mu2 == pytest.approx(1.0, abs=1e-7)
        assert p.mu1 >= p.mu2 > 0

    def test_positivity_required(self):
        with pytest.raises(ValueError, match=re.escape(
                "Omega0 must lie within [5e-324, inf], not -1.0")):
            mu_delta(-1.0, 1.0, 0.5)
        # NaN passes a bare `<= 0`: it once returned mu1 = mu2 = nan
        with pytest.raises(ValueError, match=re.escape(
                "Omega0 must lie within [5e-324, inf], not nan")):
            mu_delta(np.nan, 1.0, 0.5)

    def test_resolvent_equation(self):
        # R = Lam K1 + Lam K1 * R with Lam = D0^2/(Om0 Om1)
        Om0, Om1, D0 = 1.6, 1.1, 0.8
        p = mu_delta(Om0, Om1, D0)
        freqs, coeffs = resolvent_series(p)
        lam = D0**2 / (Om0 * Om1)
        k1 = kernel_closed_form([Om0, Om1])

        def R(t):
            return np.sin(np.multiply.outer(np.asarray(t, float), freqs)) @ coeffs

        for t in (0.4, 1.3, 2.6):
            conv = gl_convolve(lambda u: kernel_eval(k1, u), R, t)
            assert float(R(t)) == pytest.approx(
                lam * kernel_eval(k1, t) + lam * conv, abs=1e-8
            )


class TestSourceTerm:
    def test_single_mode_closed_form(self):
        # N = 1: F(t) = f_0(t) + (D0/Om0) int sin(Om0 (t-s)) f_1(s) ds
        io = build_io_model([1.7], [0.6], 1.2)
        chain, omap = chain_from_io(io)
        init = InitialState(q0=np.array([0.8]), qdot0=np.array([-0.3]),
                            x0=0.4, xdot0=0.2)
        times = np.linspace(0, 6, 513)
        traj = evolve_truncated(chain, 1, init, omap, times)
        F = source_term(chain, 1, traj, init, omap)

        y0, ydot0 = extended_initial_conditions(omap, init, 1)
        f0 = lambda s: free_mode(chain.Omega0, init.x0, init.xdot0, s)
        f1 = lambda s: free_mode(chain.Omega[0], y0[1], ydot0[1], s)
        for m in (64, 200, 512):
            t = times[m]
            oracle = f0(t) + (chain.D0 / chain.Omega0) * gl_convolve(
                lambda u: np.sin(chain.Omega0 * u), f1, t
            )
            assert F[m] == pytest.approx(oracle, abs=1e-9)

    def test_zero_initial_conditions(self, small_instance):
        io, chain, omap, _ = small_instance
        init = InitialState(q0=np.zeros(io.N), qdot0=np.zeros(io.N))
        times = np.linspace(0, 5, 257)
        traj = evolve_truncated(chain, chain.N, init, omap, times)
        F = source_term(chain, chain.N, traj, init, omap)
        assert np.abs(F).max() == 0.0

    def test_independent_of_system_path(self, small_instance):
        # F never reads the x samples: feeding a tampered x series changes nothing
        io, chain, omap, init = small_instance
        times = np.linspace(0, 5, 513)
        traj = evolve_truncated(chain, chain.N, init, omap, times)
        F = source_term(chain, chain.N, traj, init, omap)
        tampered = Trajectory(times=times, x=np.sin(7 * times), xdot=traj.xdot,
                              X=traj.X, Xdot=traj.Xdot)
        F2 = source_term(chain, chain.N, tampered, init, omap)
        assert np.array_equal(F, F2)

    def test_grid_too_coarse(self, small_instance):
        io, chain, omap, init = small_instance
        times = np.linspace(0, 20, 33)
        traj = evolve_truncated(chain, chain.N, init, omap, times)
        with pytest.raises(ValueError, match="relative interpolation error .* exceeds 1e-7"):
            source_term(chain, chain.N, traj, init, omap)

    def test_free_ladder_vs_quadrature(self):
        # f-tilde_2 against a brute-force evaluation of the recurrence
        io, chain, omap, init = make_instance(31, 2)
        times = np.linspace(0, 2.9, 2901)
        series = free_source_series(chain, 2, init, omap, times)
        freqs = np.concatenate([[chain.Omega0], chain.Omega])
        modes0, modesd0 = extended_initial_conditions(omap, init, len(omap))

        def f(i):
            return lambda s: free_mode(freqs[i], modes0[i], modesd0[i], s)

        k0 = kernel_closed_form(freqs[:1])
        k1 = kernel_closed_form(freqs[:2])
        for m in (700, 2900):
            t = times[m]
            val = f(0)(t)
            val += (coupling(chain, 0) / freqs[0]) * gl_convolve(
                lambda u: kernel_eval(k0, u), f(1), t)
            val += (coupling(chain, 0) / freqs[0]) * (coupling(chain, 1) / freqs[1]) \
                * gl_convolve(lambda u: kernel_eval(k1, u), f(2), t)
            assert series[m] == pytest.approx(val, abs=1e-10)

    def test_coincident_frequencies(self):
        # three equal frequencies (system and the first two chain modes): the
        # nested cascade needs no partial fractions, so it has no pole here
        chain = ChainModel(Omega=np.array([1.5, 1.5, 2.0]), D=np.array([0.4, 0.3]),
                           D0=0.5, Omega0=1.5)
        omap = np.eye(3)
        init = InitialState(q0=np.array([0.3, -0.7, 0.5]),
                            qdot0=np.array([0.2, 0.4, -0.6]), x0=0.8, xdot0=-0.1)
        times = np.linspace(0, 10, 2048)
        err, scale = volterra_error(chain, omap, init, times)
        assert err <= 1e-9 * scale


class TestVolterraSolvers:
    def test_zero_source(self):
        p = mu_delta(2.0, 1.0, 1.0)
        times = np.linspace(0, 5, 257)
        assert np.all(solve_volterra_closed(p, np.zeros_like(times), times) == 0)

    @pytest.mark.parametrize("Om0, Om1, D0", [(1.6, 1.1, 0.8), (2.0, 1.0, 1.0),
                                              (1.3, 2.2, 0.7), (0.9, 1.1, 0.5)])
    def test_nested_solve_matches_partial_fractions(self, Om0, Om1, D0):
        # separated mu: the nested two-sine cascade against the paper's
        # resolvent series on the same grid quadrature
        p = mu_delta(Om0, Om1, D0)
        times = np.linspace(0, 12, 2049)
        F = np.cos(1.3 * times) + 0.4 * np.sin(0.7 * times) * times
        freqs, coeffs = resolvent_series(p)
        ref = F + sum(a * convolve_on_grid(f, F, times) for f, a in zip(freqs, coeffs))
        x = solve_volterra_closed(p, F, times)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(F).max()

    def test_equal_resolvent_frequencies(self):
        # mu1 = mu2 = 1, where the partial fractions read 0/0: R is then
        # D0^2 (sin(tau) - tau cos(tau)) / 2, checked by Gauss-Legendre
        p = VolterraParams(mu1=1.0, mu2=1.0, D0=0.5)
        times = np.linspace(0, 6, 1025)
        x = solve_volterra_closed(p, np.cos(1.3 * times), times)
        for m in (256, 700, 1024):
            t = times[m]
            conv = gl_convolve(lambda u: 0.25 * (np.sin(u) - u * np.cos(u)) / 2,
                               lambda s: np.cos(1.3 * s), t)
            assert x[m] == pytest.approx(np.cos(1.3 * t) + conv, abs=1e-12)

    def test_weak_coupling_limit(self):
        p = mu_delta(2.0, 1.0, 1e-8)
        times = np.linspace(0, 5, 257)
        F = np.cos(1.3 * times)
        x = solve_volterra_closed(p, F, times)
        assert np.abs(x - F).max() < 1e-12

    def test_reconstruction_matches_exact(self):
        io, chain, omap, init = make_instance(77, 3)
        times = np.linspace(0, 10 / chain.Omega0, 2049)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        F = source_term(chain, chain.N, full, init, omap)
        p = mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
        x = solve_volterra_closed(p, F, times)
        assert np.abs(x - full.x).max() < 1e-6
        # long linear-family chains: the cascade keeps every digit with depth
        for N in (32, 128):
            _, chain, omap, init = linear_instance(N)
            err, scale = volterra_error(chain, omap, init, np.linspace(0, 10, 2048))
            assert err <= 1e-9 * scale, f"N={N}"

    @pytest.mark.parametrize("N", [8, 64, 256])
    def test_depth_at_coarsest_grid(self, N):
        # 384 samples on [0, 10] is about the coarsest grid the 1e-7 grid
        # check accepts for this family; 320 samples is refused
        _, chain, omap, init = linear_instance(N)
        coarse = np.linspace(0, 10, 320)
        with pytest.raises(ValueError, match="relative interpolation error .* exceeds 1e-7"):
            source_term(chain, chain.N,
                        evolve_truncated(chain, chain.N, init, omap, coarse), init, omap)
        err, scale = volterra_error(chain, omap, init, np.linspace(0, 10, 384))
        assert err <= 1e-6 * scale

    def test_numeric_zero_kernel(self):
        k1 = kernel_closed_form([1.0, 2.0])
        times = np.linspace(0, 4, 129)
        F = np.sin(times)
        x = solve_volterra_numeric(k1, 0.0, F, times)
        assert np.array_equal(x, F)

    def test_numeric_second_order_convergence(self):
        Om0, Om1, D0 = 1.6, 1.1, 0.8
        p = mu_delta(Om0, Om1, D0)
        k1 = kernel_closed_form([Om0, Om1])
        pref = D0**2 / (Om0 * Om1)
        errs = []
        for M in (257, 513, 1025):
            times = np.linspace(0, 6, M)
            F = np.cos(1.3 * times)
            x_num = solve_volterra_numeric(k1, pref, F, times)
            x_ref = solve_volterra_closed(p, F, times)
            errs.append(np.abs(x_num - x_ref).max())
        slope = np.polyfit(np.log([256, 512, 1024]), np.log(errs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_numeric_bounded_resonance_free(self):
        Om0, Om1, D0 = 1.6, 1.1, 0.8
        p = mu_delta(Om0, Om1, D0)
        k1 = kernel_closed_form([Om0, Om1])
        times = np.linspace(0, 30, 4097)
        F = np.sin(p.mu1 * times)
        x_num = solve_volterra_numeric(k1, D0**2 / (Om0 * Om1), F, times)
        x_ref = solve_volterra_closed(p, F, times)
        assert np.abs(x_num).max() < 50
        assert np.abs(x_num - x_ref).max() < 5e-3


class TestReducedIdentity:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 32))
    def test_every_level_on_random_instances(self, seed, N):
        io, chain, omap, init = make_instance(seed, N)
        times = np.linspace(0, 4 / chain.Omega0, 513)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        for n in range(1, N + 1):
            rhs = x_reduced_form(chain, n, full, init, omap)
            assert np.abs(rhs - full.x).max() <= 1e-9, f"N={N}, n={n}"

    def test_all_levels(self):
        for seed, N in ((11, 2), (12, 4), (13, 6)):
            io, chain, omap, init = make_instance(seed, N)
            times = np.linspace(0, 8 / chain.Omega0, 2049)
            full = evolve_truncated(chain, chain.N, init, omap, times)
            for n in range(1, N + 1):
                rhs = x_reduced_form(chain, n, full, init, omap)
                assert np.abs(rhs - full.x).max() < 1e-6, f"N={N}, n={n}"

    def test_linearity_in_initial_data(self, small_instance):
        io, chain, omap, init = small_instance
        doubled = InitialState(q0=2 * init.q0, qdot0=2 * init.qdot0,
                               x0=2 * init.x0, xdot0=2 * init.xdot0)
        times = np.linspace(0, 6, 513)
        p = mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
        xs = []
        for ini in (init, doubled):
            traj = evolve_truncated(chain, chain.N, ini, omap, times)
            F = source_term(chain, chain.N, traj, ini, omap)
            xs.append(solve_volterra_closed(p, F, times))
        assert np.abs(xs[1] - 2 * xs[0]).max() < 1e-12 * max(1, np.abs(xs[1]).max())


class TestCutMap:
    """On the N = 16 linear chain cut at rows = 4, level 4 is the end of the
    cut chain, not the untruncated chain: every function that takes the map
    refuses it, and the levels below still match the full map."""

    @pytest.fixture
    def cut(self):
        io, chain, omap, init = linear_instance(16)
        cut_chain, cut_map = chain_from_io(io, rows=4)
        times = np.linspace(0, 5, 513)
        traj = evolve_truncated(chain, chain.N, init, omap, times)
        return chain, omap, cut_chain, cut_map, init, traj

    def test_source_term(self, cut):
        chain, omap, cut_chain, cut_map, init, traj = cut
        with pytest.raises(ValueError, match="ends a chain cut"):
            source_term(cut_chain, 4, traj, init, cut_map)
        assert np.array_equal(source_term(cut_chain, 3, traj, init, cut_map),
                              source_term(chain, 3, traj, init, omap))

    def test_x_reduced_form(self, cut):
        chain, omap, cut_chain, cut_map, init, traj = cut
        with pytest.raises(ValueError, match="ends a chain cut"):
            x_reduced_form(cut_chain, 4, traj, init, cut_map)
        assert np.array_equal(x_reduced_form(cut_chain, 3, traj, init, cut_map),
                              x_reduced_form(chain, 3, traj, init, omap))

    def test_free_source_series(self, cut):
        chain, omap, cut_chain, cut_map, init, traj = cut
        with pytest.raises(ValueError, match="ends a chain cut"):
            free_source_series(cut_chain, 4, init, cut_map, traj.times)
        assert np.array_equal(free_source_series(cut_chain, 3, init, cut_map, traj.times),
                              free_source_series(chain, 3, init, omap, traj.times))
