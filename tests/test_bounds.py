"""Error functionals, deterministic and thermal bounds, thermal sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbath.bounds import (
    ThermalState,
    _log_weight_sums,
    bound_deterministic,
    bound_thermal,
    min_modes,
    sample_thermal,
)
from chainbath import dynamics
from chainbath.dynamics import (
    InitialState,
    assemble_extended_matrix,
    evolve_truncated_x,
    extended_initial_conditions,
)
from chainbath.instances import (
    MARGIN,
    coupling_profile,
    geometric_spectrum,
    linear_spectrum,
    random_initial_state,
    random_io_model,
)
from chainbath.solution import mu_delta, volterra_source
from chainbath.spectral import build_io_model, chain_coefficients, chain_from_io
from tests.conftest import long_chain, make_instance
from tests.oracles import (
    GridMismatch,
    char_poly_eval,
    epsilon1,
    epsilon1_pointwise,
    epsilon2,
    epsilon_empirical,
    error_report,
    evolve_raw,
    evolve_truncated,
    fit_loglog_slope,
    source_term,
    thermal_error_mc,
)


def full_and_truncated(chain, omap, init, n, times):
    full = evolve_truncated(chain, chain.N, init, omap, times)
    trunc = evolve_truncated(chain, n, init, omap, times)
    return full, trunc


class TestEpsilonEmpirical:
    def test_no_truncation_is_zero(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 4, 129)
        full, same = full_and_truncated(chain, omap, init, chain.N, times)
        assert np.all(epsilon_empirical(full, same) == 0)

    def test_starts_at_zero(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 4, 129)
        full, trunc = full_and_truncated(chain, omap, init, 1, times)
        eps = epsilon_empirical(full, trunc)
        assert eps[0] == 0.0  # identical initial conditions, bit-exact at t = 0
        assert np.all(eps >= 0)

    def test_grid_mismatch(self, small_instance):
        _, chain, omap, init = small_instance
        a = evolve_truncated(chain, 1, init, omap, np.linspace(0, 4, 65))
        b = evolve_truncated(chain, chain.N, init, omap, np.linspace(0, 4, 129))
        with pytest.raises(GridMismatch):
            epsilon_empirical(b, a)


class TestEpsilon1:
    def test_zero_tail_series(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 4, 257)
        assert np.all(epsilon1(chain, 1, times, np.zeros_like(times)) == 0)

    def test_vanishes_at_full_length(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 4, 257)
        assert np.all(epsilon1(chain, chain.N, times, np.ones_like(times)) == 0)

    def test_source_difference_identity(self):
        # F_N - F_n (both built from the full trajectories) equals eps1, and
        # the package's two-level F_N equals the oracle's level-N one
        io, chain, omap, init = make_instance(41, 5)
        times = np.linspace(0, 6 / chain.Omega0, 1025)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        F_N = source_term(chain, chain.N, full, init, omap)
        assert np.abs(volterra_source(chain, init, omap, times, full.mode(2)) - F_N).max() \
            <= 1e-13 * np.abs(F_N).max()
        for n in (1, 2, 3):
            F_n = source_term(chain, n, full, init, omap)
            e1 = epsilon1(chain, n, times, full.mode(n + 1))
            assert np.abs((F_N - F_n) - e1).max() < 1e-7

    def test_grid_too_coarse(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 20, 17)
        with pytest.raises(ValueError, match="relative interpolation error .* exceeds 1e-7"):
            epsilon1(chain, 1, times, np.cos(3 * times))


class TestEpsilon1Pointwise:
    @staticmethod
    def linear_chain(N=128):
        """The CLI's linear family (c0 = 0.5/sqrt(N), Omega0 = 1.2) with the
        seed-0 thermal draw, and X_{n+1}(s) from the full eigensolution."""
        omega = linear_spectrum(N, 0.5, 2.5)
        io = build_io_model(omega, coupling_profile(omega, 0.5 / np.sqrt(N)), 1.2)
        chain, omap = chain_from_io(io)
        init = sample_thermal(io, ThermalState(1.0), 0)
        A = assemble_extended_matrix(chain, chain.N)
        y0, ydot0 = extended_initial_conditions(omap, init, len(omap))

        def x_next(n):
            return lambda s: evolve_raw(A, y0, ydot0, s)[0][:, n + 1]

        return chain, omap, init, x_next

    def test_refuses_large_times(self):
        # max(Omega) * t = 4.6, outside the Taylor range; the closed form
        # cancels at this order (2.1e-3 against 4.4e-8 on the grid)
        chain, _, _, x_next = self.linear_chain()
        with pytest.raises(ValueError, match="epsilon1"):
            epsilon1_pointwise(chain, 8, [2.5], x_next(8))

    @pytest.mark.parametrize("n", [2, 8])
    def test_matches_grid_cascade(self, n):
        chain, omap, init, x_next = self.linear_chain()
        wmax = float(chain.mode_freqs[: n + 1].max())
        times = np.linspace(0, 0.45 / wmax, 2049)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        grid = epsilon1(chain, n, times, full.mode(n + 1))
        # from t = 0.1125/wmax on, where the grid resolves eps1 ~ t^(2n+2)
        idx = np.arange(512, 2049, 256)
        point = epsilon1_pointwise(chain, n, times[idx], x_next(n))
        assert np.all(np.abs(point - grid[idx]) <= 1e-9 * np.abs(grid[idx]))


class TestEpsilon2:
    def test_zero_input(self, small_instance):
        _, chain, _, _ = small_instance
        p = mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
        times = np.linspace(0, 4, 129)
        assert np.all(epsilon2(p, np.zeros_like(times), times) == 0)

    def test_decomposition_matches_empirical(self):
        # exact for n = 1 (for larger n the sources also differ through the
        # intermediate modes, at the same order as eps2 itself)
        for seed in (51, 52, 53):
            io, chain, omap, init = make_instance(seed, 5)
            wmax = float(io.omega.max())
            times = np.linspace(0, 3 / wmax, 513)
            full, trunc = full_and_truncated(chain, omap, init, 1, times)
            eps = epsilon_empirical(full, trunc)
            p = mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
            e1 = epsilon1(chain, 1, times, full.mode(2))
            e2 = epsilon2(p, e1, times)
            assert np.abs(np.abs(e1 + e2) - eps).max() < 1e-6

    def test_higher_order_by_four_powers(self):
        # eps2 ~ t^(2n+6) vs eps1 ~ t^(2n+2): slope difference = 4
        io, chain, omap, init = make_instance(54, 4)
        wmax = float(io.omega.max())
        n = 1
        A_full = assemble_extended_matrix(chain, chain.N)
        y0, ydot0 = extended_initial_conditions(omap, init, len(omap))
        ts = np.geomspace(0.02 / wmax, 0.2 / wmax, 10)

        def x_next(s):
            return evolve_raw(A_full, y0, ydot0, s)[0][:, n + 1]

        e1 = np.abs(epsilon1_pointwise(chain, n, ts, x_next))
        slope1 = fit_loglog_slope(ts, e1)
        # eps2 on a dense grid covering the window
        times = np.linspace(0, 0.2 / wmax, 2049)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        p = mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
        e1g = epsilon1(chain, n, times, full.mode(n + 1))
        e2g = np.abs(epsilon2(p, e1g, times))
        mask = times >= 0.02 / wmax
        slope2 = fit_loglog_slope(times[mask], e2g[mask])
        assert slope1 == pytest.approx(2 * n + 2, abs=0.1)
        assert slope2 == pytest.approx(2 * n + 6, abs=0.3)


class TestDeterministicBound:
    def test_zero_at_time_zero(self, small_instance):
        io, chain, _, init = small_instance
        assert bound_deterministic(io, chain, 1, 0.0, init) == 0.0

    def test_quiescent_bath(self, small_instance):
        io, chain, _, _ = small_instance
        quiet = InitialState(q0=np.zeros(io.N), qdot0=np.zeros(io.N), x0=1.0)
        assert bound_deterministic(io, chain, 1, 2.0, quiet) == 0.0

    def test_dominates_empirical(self):
        for seed in (61, 62, 63, 64):
            io, chain, omap, init = make_instance(seed, 6)
            wmax = float(io.omega.max())
            times = np.linspace(0, 3 / wmax, 257)
            full = evolve_truncated(chain, chain.N, init, omap, times)
            for n in (1, 2, 3):
                trunc = evolve_truncated(chain, n, init, omap, times)
                eps = epsilon_empirical(full, trunc)
                b = bound_deterministic(io, chain, n, times, init)
                assert np.all(eps <= b + 1e-12), f"seed={seed}, n={n}"


class TestThermalBound:
    def test_zero_at_time_zero(self, small_instance):
        io, chain, _, _ = small_instance
        assert bound_thermal(io, chain, 1, 0.0, ThermalState(1.0)) == 0.0

    def test_sqrt_kt_scaling(self, small_instance):
        io, chain, _, _ = small_instance
        b1 = bound_thermal(io, chain, 2, 1.5, ThermalState(0.4))
        b2 = bound_thermal(io, chain, 2, 1.5, ThermalState(3.6))
        assert b2 / b1 == pytest.approx(3.0, rel=1e-12)

    def test_dominates_monte_carlo_mean(self):
        io, chain, omap, _ = make_instance(71, 5)
        wmax = float(io.omega.max())
        times = np.linspace(0.2 / wmax, 3 / wmax, 65)
        th = ThermalState(1.0)
        for n in (1, 2):
            mean, se = thermal_error_mc(io, chain, omap, n, th, times, 4000, seed=5)
            b = bound_thermal(io, chain, n, times, th)
            assert np.all(mean <= b + 3 * se), f"n={n}"


def test_bounds_at_the_full_cut_are_zero():
    # the cut n = N is the bath itself: both bounds are exactly 0 there, on
    # RKPW's chain, on Lanczos's and on a one-row prefix, which is never
    # read, for array and scalar t alike (in float64, P_N on the bath's
    # spectrum is rounding noise, and it differs between the two chains)
    N = 16
    omega = linear_spectrum(N, 0.5, 2.5)
    io = build_io_model(omega, coupling_profile(omega, 0.125), 1.1)
    init = random_initial_state(np.random.default_rng(5), N)
    times = np.linspace(0.0, 4.0, 512)
    for chain in (chain_coefficients(io), chain_from_io(io)[0], chain_from_io(io, rows=1)[0]):
        for bound, data in ((bound_deterministic, init), (bound_thermal, ThermalState(1.0))):
            full_cut = bound(io, chain, N, times, data)
            assert full_cut.shape == times.shape and not np.any(full_cut)
            assert type(bound(io, chain, N, 2.0, data)) is float
            assert bound(io, chain, N, 2.0, data) == 0.0


class TestThermalSampler:
    def test_half_normal_mean(self):
        io, _, _, _ = make_instance(81, 4)
        th = ThermalState(1.7)
        draws = 100_000
        rng_seed = 333
        # one big batch through the same generator contract
        q = np.empty((draws, io.N))
        state = sample_thermal(io, th, rng_seed)
        rng = np.random.default_rng(rng_seed)
        q = (np.sqrt(th.kT) / io.omega) * rng.standard_normal((draws, io.N))
        mean_abs = np.abs(q).mean(axis=0)
        expect = np.sqrt(2 * th.kT / np.pi) / io.omega
        sigma = np.sqrt(th.kT * (1 - 2 / np.pi)) / io.omega / np.sqrt(draws)
        assert np.all(np.abs(mean_abs - expect) <= 3 * sigma)
        assert state.q0.shape == (io.N,)

    def test_deterministic_in_seed(self, small_instance):
        io, _, _, _ = small_instance
        th = ThermalState(2.0)
        a = sample_thermal(io, th, 11)
        b = sample_thermal(io, th, 11)
        assert np.array_equal(a.q0, b.q0) and np.array_equal(a.qdot0, b.qdot0)

    def test_scales_exactly_with_sqrt_kt(self, small_instance):
        io, _, _, _ = small_instance
        a = sample_thermal(io, ThermalState(1.0), 7)
        b = sample_thermal(io, ThermalState(1e-8), 7)
        assert b.q0 == pytest.approx(1e-4 * a.q0, rel=1e-12)
        assert b.qdot0 == pytest.approx(1e-4 * a.qdot0, rel=1e-12)

    def test_system_data_zero(self, small_instance):
        io, _, _, _ = small_instance
        s = sample_thermal(io, ThermalState(1.0), 3)
        assert s.x0 == 0.0 and s.xdot0 == 0.0

    def test_positive_temperature_required(self):
        with pytest.raises(ValueError, match="kT must be positive and finite"):
            ThermalState(0.0)


class TestMinModes:
    def test_huge_tolerance(self, small_instance):
        io, chain, _, _ = small_instance
        n = min_modes(io, chain, 1.0, 1e9, ThermalState(1.0))
        assert type(n) is int and n == 0

    def test_consistency_with_direct_evaluation(self, small_instance):
        io, chain, _, _ = small_instance
        th = ThermalState(1.0)
        wmax = float(io.omega.max())
        for t in np.linspace(0.3, 3.0, 5) / wmax:
            for tol in (1e-2, 1e-5, 1e-8):
                n = min_modes(io, chain, t, tol, th)
                assert bound_thermal(io, chain, n, t, th) <= tol
                if n > 0:
                    assert bound_thermal(io, chain, n - 1, t, th) > tol

    def test_monotone_in_time_and_tolerance(self, small_instance):
        io, chain, _, _ = small_instance
        th = ThermalState(1.0)
        wmax = float(io.omega.max())
        ts = np.linspace(0.2, 2.0, 6) / wmax
        tols = np.geomspace(1e-1, 1e-9, 6)
        table = [[min_modes(io, chain, t, tol, th) for tol in tols] for t in ts]
        arr = np.array(table)
        assert np.all(np.diff(arr, axis=0) >= 0)   # later time: more modes
        assert np.all(np.diff(arr, axis=1) >= 0)   # tighter tol: more modes

    @pytest.mark.parametrize("t, tol", [(np.nan, 1e-3), (np.inf, 1e-3), (1.0, np.nan),
                                        (1.0, np.inf), (1.0, -np.inf)])
    def test_non_finite_time_or_tolerance(self, small_instance, t, tol):
        # NaN slips past a bare `tol <= 0`: it once returned n = N
        io, chain, _, _ = small_instance
        with pytest.raises(ValueError, match="finite"):
            min_modes(io, chain, t, tol, ThermalState(1.0))

    def test_negative_time(self, small_instance):
        # the bound is even in t, so t < 0 would pass for |t|
        io, chain, _, _ = small_instance
        with pytest.raises(ValueError, match=">= 0"):
            min_modes(io, chain, -1.0, 1e-3, ThermalState(1.0))

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_nonpositive_tolerance(self, small_instance, tol):
        io, chain, _, _ = small_instance
        with pytest.raises(ValueError, match="tol must be positive"):
            min_modes(io, chain, 1.0, tol, ThermalState(1.0))

    def test_no_shorter_cut_returns_the_bath_size(self, small_instance):
        # no cut n < N meets 1e-300; the cut n = N, the bath itself, does
        io, chain, _, _ = small_instance
        n = min_modes(io, chain, 2.0, 1e-300, ThermalState(1.0))
        assert type(n) is int and n == io.N

    def test_bound_monotone_in_n_at_small_times(self):
        for seed in (101, 102, 103):
            io, chain, _, _ = make_instance(seed, 6)
            wmax = float(io.omega.max())
            th = ThermalState(1.0)
            for t in (0.1 / wmax, 0.3 / wmax, 0.5 / wmax):
                bs = [bound_thermal(io, chain, n, t, th)
                      for n in range(chain.N + 1)]
                assert all(bs[k + 1] <= bs[k] for k in range(chain.N))


class TestWeightRecurrence:
    @pytest.mark.parametrize("N", [8, 64, 1024])
    @pytest.mark.parametrize("family", ["linear", "geometric", "random"])
    def test_matches_the_unscaled_recurrence(self, family, N):
        # exp of each value is the unscaled recurrence's sum wherever that is
        # finite and nonzero: to n = N on the small chains (where it is a sum
        # of rounding noise), and until it overflows on the N = 1024 ones
        if family == "random":
            io = random_io_model(np.random.default_rng(N), N)
        else:
            io = long_chain(linear_spectrum if family == "linear" else geometric_spectrum, N)
        chain = chain_coefficients(io)
        init = sample_thermal(io, ThermalState(1.0), N)
        u = np.abs(init.q0) + np.abs(init.qdot0) / io.omega
        compared = 0
        for n, log_s in enumerate(_log_weight_sums(io, chain, u)):
            with np.errstate(over="ignore", invalid="ignore"):
                ref = float(np.sum(np.abs(char_poly_eval(chain, n, io.omega**2)) * u))
            if not math.isfinite(ref):
                break
            if ref > 0:
                assert math.exp(log_s) == pytest.approx(ref, rel=2e-13, abs=0.0), n
                compared += 1
        assert compared > min(N, 100)

    def test_min_modes_certifies_the_long_chain(self):
        # where n = 83 once overflowed float(factorial(2n + 6))
        io = long_chain(linear_spectrum)
        assert min_modes(io, chain_coefficients(io), 20.0, 1e-12, ThermalState(1.0)) == 154


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 64),
       ts=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4))
def test_bounds_are_never_nan_and_min_modes_monotone(seed, N, ts):
    # every cut of an in-regime bath, to t = 50: a value or inf, no warning
    rng = np.random.default_rng(seed)
    io = random_io_model(rng, N)
    chain = chain_coefficients(io)
    init = random_initial_state(rng, N)
    th = ThermalState(1.0)
    ts = sorted(ts)
    for n in range(N + 1):
        assert not np.isnan(bound_deterministic(io, chain, n, ts, init)).any()
        assert not np.isnan(bound_thermal(io, chain, n, ts, th)).any()
    tols = [1e-2, 1e-6, 1e-12]
    table = np.array([[min_modes(io, chain, t, tol, th) for tol in tols] for t in ts])
    assert np.all(np.diff(table, axis=0) >= 0) and np.all(np.diff(table, axis=1) >= 0)


class TestSmallTimeSlope:
    def test_resolvable_window_from_trajectories(self):
        # where float64 can see the difference, the trajectory route and the
        # functional route agree on the t^(2n+2) scaling
        io, chain, omap, init = make_instance(91, 6)
        wmax = float(io.omega.max())
        n = 1
        ts = np.geomspace(0.05 / wmax, 0.4 / wmax, 12)
        A_full = assemble_extended_matrix(chain, chain.N)
        A_tr = assemble_extended_matrix(chain, n)
        yf, ydf = extended_initial_conditions(omap, init, len(omap))
        eps = np.abs(evolve_raw(A_full, yf, ydf, ts)[0][:, 0]
                     - evolve_raw(A_tr, yf[: n + 1], ydf[: n + 1], ts)[0][:, 0])
        slope_traj = fit_loglog_slope(ts, eps)

        def x_next(s):
            return evolve_raw(A_full, yf, ydf, s)[0][:, n + 1]

        e1 = np.abs(epsilon1_pointwise(chain, n, ts, x_next))
        slope_func = fit_loglog_slope(ts, e1)
        assert slope_traj == pytest.approx(2 * n + 2, abs=0.25)
        assert slope_func == pytest.approx(slope_traj, abs=0.25)

    def test_error_report_assembles(self, small_instance):
        io, chain, omap, init = small_instance
        wmax = float(io.omega.max())
        times = np.linspace(0, 3 / wmax, 257)
        rep = error_report(io, chain, omap, 1, init, times, ThermalState(1.0))
        assert rep.n == 1
        assert np.all(rep.eps_empirical <= rep.bound_det + 1e-12)
        assert rep.bound_thermal is not None
        assert rep.slope_smallt == pytest.approx(4.0, abs=0.15)

    def test_error_report_decomposes_the_full_chain_once(self, monkeypatch):
        # one eigensolve of the full chain serves x_full and X_{n+1}(s), one
        # more the cut chain; the per-slope-time evolve_raw route made 11
        N, n = 256, 2
        omega = linear_spectrum(N, 0.5, 2.5)
        io = build_io_model(omega, coupling_profile(omega, 0.5 / np.sqrt(N)), 1.2)
        chain, omap = chain_from_io(io)
        init = sample_thermal(io, ThermalState(1.0), 3)
        times = np.linspace(0.0, 10.0, 257)
        calls = []
        decompose = dynamics._decompose
        monkeypatch.setattr(dynamics, "_decompose",
                            lambda A: calls.append(len(A)) or decompose(A))
        rep = error_report(io, chain, omap, n, init, times)
        assert sorted(calls) == [n + 1, N + 1]
        monkeypatch.undo()

        x_full = evolve_truncated_x(chain, N, init, omap, times)
        x_n = evolve_truncated_x(chain, n, init, omap, times)
        assert np.array_equal(rep.eps_empirical, np.abs(x_full - x_n))

        A_full = assemble_extended_matrix(chain, N)
        yf, ydf = extended_initial_conditions(omap, init, len(omap))
        wmax = float(chain.mode_freqs.max())
        ts = np.geomspace(1e-3 / wmax, 1e-2 / wmax, 9)
        e1 = epsilon1_pointwise(
            chain, n, ts, lambda s: evolve_raw(A_full, yf, ydf, s)[0][:, n + 1])
        assert rep.slope_smallt == pytest.approx(fit_loglog_slope(ts, np.abs(e1)),
                                                 rel=1e-9)

    def test_error_report_refuses_a_cut_map(self):
        # its x_full evolves the untruncated chain, which a cut map is not:
        # refused at the cut's end n = 4 and below it alike
        N = 16
        omega = linear_spectrum(N, 0.5, 2.5)
        io = build_io_model(omega, coupling_profile(omega, 0.5 / np.sqrt(N)), 1.2)
        chain, omap = chain_from_io(io, rows=4)
        init = sample_thermal(io, ThermalState(1.0), 0)
        times = np.linspace(0.0, 5.0, 129)
        for n in (4, 2):
            with pytest.raises(ValueError, match="evolves the untruncated chain"):
                error_report(io, chain, omap, n, init, times)


def test_strong_coupling_bound_probe():
    # ROADMAP item 2: the bound weighs mode k by |P_n(omega_k^2)| and drops
    # its coupling c_k, so at c_k > 1 it under-bounds at leading order.  The
    # probe pins the two cuts where it does; the c_k fix flips it, to assert
    # that no cut is violated.  c in [1.5, 3] is drawn as is, with Omega0
    # the least that meets both regime limits at MARGIN, times U(1, 1.3):
    # `random_io_model` would scale the couplings back into the weak regime.
    violations = []
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        omega = np.sort(rng.uniform(0.5, 3.0, 5))
        c = rng.uniform(1.5, 3.0, 5)
        c2 = c * c
        omega1 = np.sqrt(np.sum(c2 * omega**2) / c2.sum())
        least = max(np.sqrt(np.sum(c2 / omega**2) / MARGIN),
                    np.sqrt(c2.sum()) / (MARGIN * omega1))
        io = build_io_model(omega, c, least * rng.uniform(1.0, 1.3))
        chain, omap = chain_from_io(io)
        init = random_initial_state(rng, io.N)
        times = np.linspace(0, 3 / omega.max(), 257)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        for n in (1, 2):
            eps = epsilon_empirical(full, evolve_truncated(chain, n, init, omap, times))
            b = bound_deterministic(io, chain, n, times, init)
            above = eps > 1e-10 * np.abs(full.x).max()
            if np.any(eps[above] > b[above]):
                violations.append((seed, n, float(np.max(eps[above] / b[above]))))
    assert [(seed, n) for seed, n, _ in violations] == [(3, 2), (4, 1)], violations
    assert [ratio for *_, ratio in violations] == pytest.approx([1.42, 1.18], abs=0.01)
