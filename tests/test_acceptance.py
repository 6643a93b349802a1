"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line with its measured margin.  Run with `pytest -v
tests/test_acceptance.py` (add -s to see the lines on success)."""

import hashlib
import json
import time

import mpmath as mp
import numpy as np
import pytest

from chainbath.bounds import (
    ThermalState,
    bound_deterministic,
    bound_thermal,
    min_modes,
    sample_thermal,
)
from chainbath.cli import main
from chainbath.dynamics import (
    InitialState,
    assemble_extended_matrix,
    extended_initial_conditions,
)
from chainbath.instances import random_initial_state, random_io_model
from chainbath.solution import mu_delta, solve_volterra_closed
from chainbath.spectral import build_io_model, chain_from_io
from tests.oracles import (
    epsilon1_pointwise,
    epsilon_empirical,
    evolve_raw,
    evolve_truncated,
    fit_loglog_slope,
    kernel_closed_form,
    kernel_eval,
    kernel_quadrature,
    kernel_taylor,
    source_term,
    thermal_error_mc,
    tridiagonal,
)


def report(label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def distinct_freqs(rng, count, lo, hi, min_gap2):
    while True:
        f = np.sort(rng.uniform(lo, hi, count))
        if count == 1 or np.min(np.diff(f**2)) >= min_gap2:
            return f


def test_a01_chain_round_trip():
    """50 random baths across N in {2,...,64}: spectrum reproduced to 1e-9,
    map orthogonal to 1e-10, under 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20250801)
    sizes = [2, 4, 8, 16, 32, 64]
    worst_eig, worst_orth = 0.0, 0.0
    count = 0
    while count < 50:
        N = sizes[count % len(sizes)]
        omega = distinct_freqs(rng, N, 0.5, 3.0, 1e-4)
        c = rng.uniform(0.1, 1.0, N)
        io = build_io_model(omega, c, 1.0)
        chain, omap = chain_from_io(io)
        w2 = omega**2
        eig = np.sort(np.linalg.eigvalsh(tridiagonal(chain)))
        worst_eig = max(worst_eig, float(np.abs(eig - w2).max() / w2.max()))
        worst_orth = max(worst_orth, float(np.abs(omap @ omap.T - np.eye(N)).max()))
        count += 1
    elapsed = time.perf_counter() - start
    report("A1 chain round trip",
           worst_eig <= 1e-9 and worst_orth <= 1e-10 and elapsed < 5.0,
           f"eig rel {worst_eig:.2e}, orth {worst_orth:.2e}, {elapsed:.2f}s")


def test_a02_kernel_triple_agreement():
    """20 random frequency sets, nesting depth up to 5: closed form, Taylor
    at order 40, and nested quadrature agree to 1e-8 on tau in [0, 2],
    under 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(77001)
    worst = 0.0
    depths = [1] * 6 + [2] * 5 + [3] * 4 + [4] * 3 + [5] * 2
    for i in depths:
        freqs = distinct_freqs(rng, i + 1, 0.5, 2.5, 0.05)
        rep = kernel_closed_form(freqs)
        for tau in (0.5, 1.25, 2.0):
            closed = kernel_eval(rep, tau)
            taylor = kernel_taylor(freqs, 40, tau)
            quad = kernel_quadrature(freqs, tau, tol=1e-10)
            worst = max(worst, abs(closed - taylor), abs(closed - quad))
    elapsed = time.perf_counter() - start
    report("A2 kernel triple agreement",
           worst <= 1e-8 and elapsed < 30.0,
           f"worst {worst:.2e}, {elapsed:.1f}s")


def _cauchy_derivs(rep, kmax, nodes=256, dps=50):
    """Numerical derivatives of the closed-form kernel at the origin via the
    Cauchy integral on |z| = 1, evaluated in extended precision (float64
    finite differences cannot certify 1e-8 at order 14)."""
    with mp.workdps(dps):
        freqs = [mp.mpf(f) for f in rep.freqs]
        coeffs = [mp.mpf(c) for c in rep.coeffs]
        zs = [mp.exp(2j * mp.pi * m / nodes) for m in range(nodes)]
        fvals = [sum(c * mp.sin(f * z) for f, c in zip(freqs, coeffs)) for z in zs]
        out = []
        for k in range(kmax + 1):
            acc = sum(fv * mp.exp(-2j * mp.pi * k * m / nodes)
                      for m, fv in enumerate(fvals)) / nodes
            out.append(float(mp.re(acc) * mp.factorial(k)))
        return out


def test_a03_derivative_structure():
    """Numerical derivatives of the closed form at 0: all even orders up to
    2i+4 and all orders up to 2i below 1e-8; order 2i+1 equals the frequency
    product to 1e-10 relative."""
    rng = np.random.default_rng(5150)
    worst_zero, worst_lead = 0.0, 0.0
    for i in range(1, 6):
        freqs = distinct_freqs(rng, i + 1, 0.5, 2.5, 0.05)
        rep = kernel_closed_form(freqs)
        ds = _cauchy_derivs(rep, 2 * i + 4)
        for k in range(0, 2 * i + 5):
            if k % 2 == 0 or k <= 2 * i:
                worst_zero = max(worst_zero, abs(ds[k]))
        lead_rel = abs(ds[2 * i + 1] - np.prod(freqs)) / np.prod(freqs)
        worst_lead = max(worst_lead, lead_rel)
    report("A3 kernel derivative structure",
           worst_zero <= 1e-8 and worst_lead <= 1e-10,
           f"max vanishing {worst_zero:.2e}, leading rel {worst_lead:.2e}")


def test_a04_closed_solution_identity():
    """20 random coupled systems (N <= 6): the closed Volterra reconstruction
    from exact trajectories matches the exact dynamics to 1e-6 sup-norm on
    [0, 10/Omega0], under 60 s."""
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(40_000 + trial)
        io = random_io_model(rng, trial % 5 + 2)
        chain, omap = chain_from_io(io)
        init = random_initial_state(rng, io.N)
        times = np.linspace(0.0, 10.0 / chain.Omega0, 2049)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        params = mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
        F = source_term(chain, chain.N, full, init, omap)
        x = solve_volterra_closed(params, F, times)
        worst = max(worst, float(np.abs(x - full.x).max()))
    elapsed = time.perf_counter() - start
    report("A4 closed-solution identity",
           worst <= 1e-6 and elapsed < 60.0,
           f"sup {worst:.2e}, {elapsed:.1f}s")


def test_a05_deterministic_bound_dominance():
    """100 random instances (N <= 8), every truncation 1 <= n < N: empirical
    error within the deterministic bound (+1e-12) at every grid point on
    [0, 3/omega_max].  Zero violations tolerated."""
    violations = []
    worst_margin = np.inf
    for trial in range(100):
        rng = np.random.default_rng(50_000 + trial)
        N = trial % 7 + 2
        io = random_io_model(rng, N)
        chain, omap = chain_from_io(io)
        init = random_initial_state(rng, io.N)
        wmax = float(io.omega.max())
        times = np.linspace(0.0, 3.0 / wmax, 257)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        for n in range(1, N):
            trunc = evolve_truncated(chain, n, init, omap, times)
            eps = epsilon_empirical(full, trunc)
            b = bound_deterministic(io, chain, n, times, init)
            margin = float(np.min(b + 1e-12 - eps))
            worst_margin = min(worst_margin, margin)
            if margin < 0:
                violations.append((trial, n, margin))
    report("A5 deterministic bound dominance",
           not violations,
           f"{len(violations)} violations, tightest margin {worst_margin:.2e}")


def test_a06_small_time_scaling():
    """log-log slope of the truncation error on t in [1e-3, 1e-2]/omega_max
    equals 2n+2 within 0.15 for n in {1,2,3} on 10 instances.  The error is
    evaluated through its exact integral representation (the trajectory
    subtraction is below the float64 floor on this window); initial data are
    position-only so the leading coefficient cannot degenerate."""
    worst_dev = 0.0
    for trial in range(10):
        rng = np.random.default_rng(60_000 + trial)
        io = random_io_model(rng, 6)
        chain, omap = chain_from_io(io)
        init = InitialState(q0=rng.uniform(-1.0, 1.0, io.N), qdot0=np.zeros(io.N),
                            x0=rng.uniform(-1.0, 1.0))
        wmax = float(io.omega.max())
        A_full = assemble_extended_matrix(chain, chain.N)
        y0, ydot0 = extended_initial_conditions(omap, init, len(omap))
        ts = np.geomspace(1e-3 / wmax, 1e-2 / wmax, 9)
        for n in (1, 2, 3):
            def x_next(s, n=n):
                return evolve_raw(A_full, y0, ydot0, s)[0][:, n + 1]

            e1 = np.abs(epsilon1_pointwise(chain, n, ts, x_next))
            slope = fit_loglog_slope(ts, e1)
            worst_dev = max(worst_dev, abs(slope - (2 * n + 2)))
    report("A6 small-time scaling", worst_dev <= 0.15,
           f"max |slope - (2n+2)| = {worst_dev:.3f}")


def test_a07_thermal_bound_dominance():
    """Monte-Carlo thermal mean of the truncation error (1e4 samples, fixed
    seed) within the thermal bound plus 3 standard errors at every grid
    point, for 10 instances and kT in {0.1, 1, 10}, under 5 min."""
    start = time.perf_counter()
    violations = []
    for trial in range(10):
        rng = np.random.default_rng(70_000 + trial)
        io = random_io_model(rng, trial % 2 + 5)
        chain, omap = chain_from_io(io)
        wmax = float(io.omega.max())
        times = np.linspace(0.2 / wmax, 3.0 / wmax, 65)
        for kT in (0.1, 1.0, 10.0):
            th = ThermalState(kT)
            for n in (1, 2):
                mean, se = thermal_error_mc(io, chain, omap, n, th, times,
                                            10_000, seed=909 + trial)
                b = bound_thermal(io, chain, n, times, th)
                margin = float(np.min(b + 3 * se - mean))
                if margin < 0:
                    violations.append((trial, kT, n, margin))
    elapsed = time.perf_counter() - start
    report("A7 thermal bound dominance",
           not violations and elapsed < 300.0,
           f"{len(violations)} violations, {elapsed:.1f}s")


def test_a08_half_normal_sampler():
    """Sampler mean of |q_k(0)| over 1e5 draws matches sqrt(2 kT/pi)/omega_k
    within 3 sigma."""
    rng = np.random.default_rng(88)
    io = random_io_model(rng, 4)
    th = ThermalState(1.7)
    draws = 100_000
    acc = np.zeros(io.N)
    for seed in range(draws):
        acc += np.abs(sample_thermal(io, th, seed).q0)
    mean_abs = acc / draws
    expect = np.sqrt(2 * th.kT / np.pi) / io.omega
    sigma = np.sqrt(th.kT * (1 - 2 / np.pi)) / io.omega / np.sqrt(draws)
    dev = np.abs(mean_abs - expect) / sigma
    report("A8 half-normal sampler", bool(np.all(dev <= 3.0)),
           f"max deviation {dev.max():.2f} sigma")


def test_a09_min_modes_consistency():
    """On a 10x10 (t, tol) grid the returned n is certified and minimal,
    verified by recomputing the bound at n and n-1."""
    rng = np.random.default_rng(99)
    io = random_io_model(rng, 8)
    chain, _ = chain_from_io(io)
    th = ThermalState(1.0)
    wmax = float(io.omega.max())
    ok = True
    for t in np.linspace(0.2, 3.0, 10) / wmax:
        for tol in np.geomspace(1e-1, 1e-10, 10):
            res = min_modes(io, chain, float(t), float(tol), th)
            if not res.certified:
                continue
            if bound_thermal(io, chain, res.n, t, th) > tol:
                ok = False
            if res.n > 0 and bound_thermal(io, chain, res.n - 1, t, th) <= tol:
                ok = False
    report("A9 min-modes consistency", ok)


def test_a10_cli_determinism(tmp_path):
    """Three repeated runs of every CLI command with identical config+seed
    produce byte-identical CSVs."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "geometric", "N": 5, "omega_min": 0.6,
                  "omega_max": 2.8, "c0": 0.35, "power": 0.5},
        "Omega0": 1.2,
        "truncations": [1, 2, 5],
        "t_max": 5.0,
        "samples": 512,
        "kT": 1.0,
        "seed": 424242,
        "min_modes": {"times": [0.5, 1.0], "tols": [1e-3, 1e-6]},
        "sweep": {"N": [4, 6], "n": [1], "kT": [0.5, 2.0]},
    }))
    ok = True
    detail = []
    for cmd in ("build-chain", "simulate", "kernels", "bound", "min-modes", "sweep"):
        out = tmp_path / f"{cmd}.csv"
        hashes = set()
        for _ in range(3):
            rc = main([cmd, "--config", str(cfg_path), "--out", str(out)])
            ok &= rc == 0
            hashes.add(hashlib.sha256(out.read_bytes()).hexdigest())
        ok &= len(hashes) == 1
        detail.append(f"{cmd}:{'=' if len(hashes) == 1 else '!'}")
    report("A10 CLI determinism", ok, " ".join(detail))
