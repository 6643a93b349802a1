"""Closed-form, Taylor (float64 and mpmath), and quadrature routes to the nested
kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from chainbath.kernels import _GL_W, _GL_X, STENCIL, convolve_on_grid
from tests.oracles import (
    DegenerateFrequencies,
    ToleranceNotReached,
    check_grid,
    kernel_closed_form,
    kernel_deriv_zero,
    kernel_eval,
    kernel_quadrature,
    kernel_series_mp,
    kernel_taylor,
    kernel_taylor_remainder,
)

# Gauss-Legendre nodes per grid interval: the table's length
NODES = len(_GL_X)


def random_distinct_freqs(rng, count, lo=0.5, hi=5.0):
    while True:
        f = rng.uniform(lo, hi, count)
        w2 = np.sort(f**2)
        if count == 1 or np.min(np.diff(w2)) > 1e-3 * w2.max():
            return f


class TestClosedForm:
    def test_bare_sine(self):
        rep = kernel_closed_form([1.7])
        assert rep.order == 0
        taus = np.linspace(0, 3, 7)
        assert kernel_eval(rep, taus) == pytest.approx(np.sin(1.7 * taus))

    def test_two_frequency_example(self):
        # K(tau) = (2 sin tau - sin 2 tau)/3 for frequencies (1, 2)
        rep = kernel_closed_form([1.0, 2.0])
        assert rep.coeffs == pytest.approx([2 / 3, -1 / 3])
        assert kernel_eval(rep, np.pi / 2) == pytest.approx(2 / 3)

    def test_three_frequency_vs_quadrature(self):
        val = kernel_eval(kernel_closed_form([1.0, 2.0, 3.0]), 0.7)
        assert val == pytest.approx(kernel_quadrature([1.0, 2.0, 3.0], 0.7), abs=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFrequencies):
            kernel_closed_form([1.0, 1.0 + 1e-10])

    def test_moment_conditions(self):
        # sum_j alpha_j Omega_j^(2m) (-1)^m = 0 for m < i encodes the
        # vanishing of the first 2i derivatives at the origin.
        rng = np.random.default_rng(3)
        freqs = random_distinct_freqs(rng, 5)
        rep = kernel_closed_form(freqs)
        for m in range(rep.order):
            resid = (-1) ** m * np.sum(rep.coeffs * rep.freqs ** (2 * m + 1))
            assert abs(resid) < 1e-10 * np.abs(rep.coeffs * rep.freqs).max()


class TestKernelEval:
    def test_sine_at_quarter_period(self):
        assert kernel_eval(kernel_closed_form([1.0]), np.pi / 2) == pytest.approx(1.0)

    def test_vanishes_at_origin(self):
        assert kernel_eval(kernel_closed_form([1.0, 2.0]), 0.0) == 0.0

    def test_matches_taylor(self):
        freqs = [1.0, 2.0, 3.0]
        closed = kernel_eval(kernel_closed_form(freqs), 0.5)
        assert closed == pytest.approx(kernel_taylor(freqs, 40, 0.5), abs=1e-9)


class TestQuadrature:
    def test_zero_nestings(self):
        for tau in (0.0, 0.9, 2.4):
            assert kernel_quadrature([1.0], tau) == pytest.approx(np.sin(tau))

    def test_matches_closed_two_freqs(self):
        assert kernel_quadrature([1.0, 2.0], np.pi / 2, tol=1e-11) == pytest.approx(
            2 / 3, abs=1e-10
        )

    def test_confluent_frequencies_allowed(self):
        # symbolic limit of the closed form at Omega = Omega_1 = 1:
        # (sin tau - tau cos tau)/2
        for tau in (0.3, 1.1, 2.0):
            expect = (np.sin(tau) - tau * np.cos(tau)) / 2
            assert kernel_quadrature([1.0, 1.0], tau) == pytest.approx(expect, abs=1e-10)

    def test_tolerance_not_reached(self):
        # six fast frequencies: the capped panel schedule cannot resolve them
        with pytest.raises(ToleranceNotReached):
            kernel_quadrature([30.0, 31.0, 32.0, 33.0, 34.0, 35.0], 2.0, tol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kernel_quadrature([1.0], -0.5)
        with pytest.raises(ValueError):
            kernel_quadrature([1.0], 0.5, tol=0.0)


class TestDerivZero:
    def test_even_orders_vanish(self):
        assert kernel_deriv_zero([1.0, 2.0], 2) == 0.0
        assert kernel_deriv_zero([1.0, 2.0], 8) == 0.0

    def test_low_odd_orders_vanish(self):
        assert kernel_deriv_zero([1.0, 2.0, 3.0], 3) == 0.0  # k <= 2i = 4
        assert kernel_deriv_zero([1.0, 2.0, 3.0], 1) == 0.0

    def test_leading_is_product(self):
        assert kernel_deriv_zero([1.0, 2.0], 3) == pytest.approx(2.0)
        rng = np.random.default_rng(8)
        freqs = random_distinct_freqs(rng, 4)
        i = len(freqs) - 1
        assert kernel_deriv_zero(freqs, 2 * i + 1) == pytest.approx(
            np.prod(freqs), rel=1e-12
        )

    def test_fifth_derivative_frozen_value(self):
        # d^5/dtau^5 sin(a tau) at 0 is a^5, so the fifth derivative of
        # (2 sin tau - sin 2 tau)/3 at 0 is (2 * 1**5 - 2**5)/3, exactly -10
        expect, rest = divmod(2 * 1**5 - 2**5, 3)
        assert (expect, rest) == (-10, 0)
        assert kernel_deriv_zero([1.0, 2.0], 5) == pytest.approx(-10.0)

    def test_matches_sine_series_route(self):
        rng = np.random.default_rng(9)
        for count in (2, 3, 4, 5):
            freqs = random_distinct_freqs(rng, count, hi=3.0)
            rep = kernel_closed_form(freqs)
            i = count - 1
            for k in range(2 * i + 1, 2 * i + 10, 2):
                a = kernel_deriv_zero(freqs, k)
                b = rep.deriv_zero(k)
                assert a == pytest.approx(b, rel=1e-8, abs=1e-8)

    def test_confluent_frequencies_supported(self):
        # (sin tau - tau cos tau)/2 has third derivative 1 at the origin
        assert kernel_deriv_zero([1.0, 1.0], 3) == pytest.approx(1.0)


class TestTaylor:
    def test_matches_closed_form_small_tau(self):
        closed = kernel_eval(kernel_closed_form([1.0, 2.0]), 0.1)
        assert kernel_taylor([1.0, 2.0], 40, 0.1) == pytest.approx(closed, abs=1e-12)

    def test_zero_at_origin(self):
        assert kernel_taylor([1.0, 2.0, 3.0], 40, 0.0) == 0.0

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            kernel_taylor([1.0, 2.0], 3, 0.1)  # needs >= 2i+2 = 4

    def test_leading_order_slope(self):
        # log-log slope of K_i near the origin is 2i+1
        for freqs in ([1.0, 2.0], [1.0, 2.0, 3.0]):
            i = len(freqs) - 1
            t1, t2 = 1e-3, 2e-3
            v1 = kernel_taylor(freqs, 40, t1)
            v2 = kernel_taylor(freqs, 40, t2)
            slope = np.log(abs(v2 / v1)) / np.log(t2 / t1)
            assert slope == pytest.approx(2 * i + 1, abs=1e-3)

    def test_remainder_estimate_bounds_truncation(self):
        freqs = [1.0, 2.0, 3.0]
        tau = 1.5
        lo = kernel_taylor(freqs, 20, tau)
        hi = kernel_taylor(freqs, 60, tau)
        assert abs(hi - lo) <= 2 * kernel_taylor_remainder(freqs, 20, tau)


class TestCrossRouteAgreement:
    def test_triple_agreement(self):
        # closed form, Taylor (order >= 40), nested quadrature: i <= 5,
        # random distinct frequencies in [0.5, 5], tau in [0, 2].
        rng = np.random.default_rng(21)
        for i in range(1, 6):
            freqs = random_distinct_freqs(rng, i + 1)
            rep = kernel_closed_form(freqs)
            for tau in (0.4, 1.2, 2.0):
                closed = kernel_eval(rep, tau)
                taylor = kernel_taylor(freqs, 48, tau)
                quad = kernel_quadrature(freqs, tau, tol=1e-10)
                assert closed == pytest.approx(taylor, abs=1e-8)
                assert closed == pytest.approx(quad, abs=1e-8)

    def test_mpmath_series(self):
        # the 80-digit Taylor series against the sine series where that
        # keeps its digits (order 2, well-separated frequencies, tau to 10:
        # 4.4e-16 here), and against the float64 Taylor sum at small tau
        freqs = np.array([1.2, 0.7, 2.1])
        tau = np.linspace(0, 10, 21)
        ref = kernel_eval(kernel_closed_form(freqs), tau)
        assert np.abs(kernel_series_mp(freqs, tau) - ref).max() <= 2e-15
        for t in (0.05, 0.2):
            assert kernel_series_mp(freqs, [t])[0] == pytest.approx(kernel_taylor(freqs, 40, t),
                                                                    rel=1e-15)
        assert kernel_series_mp(freqs, [0.0])[0] == 0.0

    def test_recursion_consistency(self):
        # appending a frequency equals convolving with the new sine
        rng = np.random.default_rng(22)
        freqs = random_distinct_freqs(rng, 3, hi=3.0)
        new = 3.7
        rep_lo = kernel_closed_form(freqs)
        rep_hi = kernel_closed_form(np.append(freqs, new))
        x, w = leggauss(64)
        for tau in (0.6, 1.4):
            s = 0.5 * tau * (x + 1)
            conv = 0.5 * tau * np.sum(w * kernel_eval(rep_lo, tau - s) * np.sin(new * s))
            assert kernel_eval(rep_hi, tau) == pytest.approx(conv, abs=1e-8)

    def test_nesting_suppression_ratio(self):
        # leading Taylor terms: K_{i+1}/K_i ~ Omega_{i+1} tau^2 / ((2i+2)(2i+3))
        freqs = [1.3, 0.9, 2.1]
        i = 1
        new = 2.8
        lead_lo = kernel_deriv_zero(freqs[: i + 1], 2 * i + 1)
        lead_hi = kernel_deriv_zero(freqs[: i + 1] + [new], 2 * i + 3)
        assert lead_hi / lead_lo == pytest.approx(new)
        tau = 0.5
        ratio = new * tau**2 / ((2 * i + 2) * (2 * i + 3))
        k_lo = abs(kernel_eval(kernel_closed_form(freqs[: i + 1]), tau))
        k_hi = abs(kernel_eval(kernel_closed_form(freqs[: i + 1] + [new]), tau))
        assert k_hi <= 2.0 * ratio * k_lo


def gl_sine_convolution(freq, values_fn, t, nodes=128):
    """int_0^t sin(freq (t-s)) v(s) ds by one high-order Gauss-Legendre rule."""
    x, w = leggauss(nodes)
    s = 0.5 * t * (x + 1)
    return 0.5 * t * np.sum(w * np.sin(freq * (t - s)) * values_fn(s))


def convolve_per_node(f, values, times):
    """convolve_on_grid in its per-node form: each interval's STENCIL-point
    Lagrange interpolant (stencil t_{k-2}..t_{k+3}, one-sided at the ends)
    evaluated at its NODES Gauss-Legendre nodes, and cos/sin of every
    node."""
    M = len(times)
    P, h = min(STENCIL, M), times[-1] / (M - 1)
    x, w = leggauss(NODES)
    u = 0.5 * (x + 1.0)
    vs = np.empty((M - 1, NODES))
    for k in range(M - 1):
        start = min(max(k - (P // 2 - 1), 0), M - P)
        pts = np.arange(start, start + P) - k               # stencil in steps from t_k
        lag = [np.prod([(u - pts[l]) / (pts[j] - pts[l]) for l in range(P) if l != j], axis=0)
               for j in range(P)]
        vs[k] = values[start:start + P] @ np.array(lag)
    s = 0.5 * (times[1:] + times[:-1])[:, None] + 0.5 * h * x
    C = np.concatenate([[0.0], np.cumsum(np.cos(f * s) * vs @ (0.5 * h * w))])
    S = np.concatenate([[0.0], np.cumsum(np.sin(f * s) * vs @ (0.5 * h * w))])
    return np.sin(f * times) * C - np.cos(f * times) * S


class TestConvolveOnGrid:
    def test_quintic_exact_on_short_grids(self):
        # the 6-point stencil reproduces a quintic exactly, from the
        # shortest grid that holds one stencil up
        quintic = np.poly1d([0.3, -1.1, 0.7, 1.9, -0.4, 0.8])
        for M in range(6, 65):
            times = np.linspace(0, 2, M)
            conv = convolve_on_grid(1.3, quintic(times), times)
            ref = [gl_sine_convolution(1.3, quintic, t) for t in times]
            assert np.abs(conv - ref).max() <= 1e-12, f"M={M}"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           M=st.sampled_from([2, 3, 4, 5, 6, 7, 64, 2048]),
           t_max=st.floats(0.1, 20.0))
    def test_matches_per_node_form(self, seed, M, t_max):
        # the grid-point trig regroups the per-node sum; on random signals
        # and frequencies the two agree to rounding, including
        # the one-sided end windows and grids shorter than one stencil
        rng = np.random.default_rng(seed)
        times = np.linspace(0, t_max, M)
        values = rng.standard_normal(M) * 10.0 ** rng.uniform(-3, 3)
        f = rng.uniform(0.05, 5.0)
        scale = np.abs(values).max() * t_max
        conv = convolve_on_grid(f, values, times)
        ref = convolve_per_node(f, values, times)
        assert np.abs(conv - ref).max() <= 1e-13 * scale

    def test_zero_signal_gives_positive_zeros(self):
        # an exact cancellation is written as +0.0, so a CSV never prints -0
        times = np.linspace(0, 10, 64)
        conv = convolve_on_grid(1.0, np.zeros(64), times)
        assert np.all(conv == 0.0) and not np.any(np.signbit(conv))

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_fewer_points_than_stencil(self, M):
        # below six samples the stencil is the whole grid: exact for
        # polynomials of degree M-1
        poly = np.poly1d(np.linspace(1.0, -0.5, M))
        times = np.linspace(0, 1.5, M)
        conv = convolve_on_grid(0.9, poly(times), times)
        ref = [gl_sine_convolution(0.9, poly, t) for t in times]
        assert np.abs(conv - ref).max() <= 1e-13

    def test_grid_must_be_uniform(self):
        times = np.linspace(0, 3, 101)
        v = np.sin(times)
        convolve_on_grid(1.0, v, times)
        bent = times.copy()
        bent[50] += 1e-6 * times[1]
        with pytest.raises(ValueError, match="uniform"):
            convolve_on_grid(1.0, v, bent)
        with pytest.raises(ValueError):
            convolve_on_grid(1.0, v, times + 0.5)
        with pytest.raises(ValueError):
            convolve_on_grid(1.0, v[:1], times[:1])


class TestGaussLegendreTable:
    def test_matches_leggauss(self):
        # the literal table is numpy's rule to 2 ulp
        x, w = leggauss(NODES)
        assert np.all(np.abs(_GL_X - x) <= 2 * np.spacing(np.abs(x)))
        assert np.all(np.abs(_GL_W - w) <= 2 * np.spacing(w))

    def test_symmetric(self):
        assert np.array_equal(_GL_X, -_GL_X[::-1])
        assert np.array_equal(_GL_W, _GL_W[::-1])

    def test_exact_through_degree_15(self):
        # NODES points integrate x^k over [-1, 1] exactly up to k = 2 NODES - 1;
        # leggauss's rounded weights miss the even moments by up to 1.2e-15
        for k in range(2 * NODES):
            exact = (1 - (-1) ** (k + 1)) / (k + 1)
            assert abs(_GL_W @ _GL_X**k - exact) <= 2e-15, k


class TestCheckGrid:
    def test_gate_reads_the_grid_and_frequency_alone(self):
        # (5/384) (h max_freq)^4 against 1e-7, whatever the signal's size:
        # h max_freq = 0.05 reads 8.1e-8, 0.06 reads 1.69e-7
        times = np.linspace(0, 1, 101)
        check_grid(times, 5.0)
        with pytest.raises(ValueError, match=r"relative interpolation error 1\.688e-07 exceeds 1e-7"):
            check_grid(times, 6.0)
        with pytest.raises(ValueError, match="relative interpolation error inf exceeds"):
            check_grid(times, 1e80)
