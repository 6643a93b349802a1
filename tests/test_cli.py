"""CLI contract: exit codes, determinism, config round-trip, file formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainbath
from chainbath import dynamics, spectral
from chainbath.cli import build_initial_state, build_model, fmt, main, resolve_config, write_csv
from chainbath.kernels import kernel_closed_form, kernel_eval
from chainbath.spectral import chain_coefficients, chain_from_io


def write_config(path, **overrides):
    cfg = {
        "model": {"family": "linear", "N": 4, "omega_min": 0.8,
                  "omega_max": 2.4, "c0": 0.4},
        "Omega0": 1.1,
        "truncations": [1, 2],
        "t_max": 5.0,
        "samples": 512,
        "kT": 1.0,
        "seed": 5,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


LINEAR_16 = {"family": "linear", "N": 16, "omega_min": 0.5, "omega_max": 2.5, "c0": 0.125}


@pytest.fixture
def chain_builds(monkeypatch):
    """The `rows` argument of every `spectral.chain_from_io` call."""
    calls = []
    monkeypatch.setattr(spectral, "chain_from_io",
                        lambda io, rows=None: calls.append(rows) or chain_from_io(io, rows))
    return calls


class TestExitCodes:
    def test_validation_failure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [2.0, 1.0], "c": [0.5, 0.5]})
        assert main(["build-chain", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_breakdown(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.0, 1e-13]})
        assert main(["build-chain", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_min_modes_breakdown(self, tmp_path):
        # min-modes builds the coefficients alone, and checks every coupling
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.0, 1e-13]})
        assert main(["min-modes", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize("command", ["bound", "kernels"])
    def test_breakdown_only_inside_the_rows_built(self, tmp_path, command):
        # D_1 is numerically zero: a cut at n = 1 builds one row and never
        # meets it, a cut at n = 2 does
        cfg = tmp_path / "cfg.json"
        out = str(tmp_path / "o.csv")
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.0, 1e-13]},
                     truncations=[1])
        assert main([command, "--config", str(cfg), "--out", out]) == 0
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.0, 1e-13]},
                     truncations=[1, 2])
        assert main([command, "--config", str(cfg), "--out", out]) == 3

    def test_unstable_regime(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # ||c|| = 2 with Omega0*Omega1 < 2: no oscillatory evolution
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.2, 1.6]},
                     Omega0=1.0)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 4

    def test_missing_config(self, tmp_path):
        assert main(["bound", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestBuildChain:
    def test_single_mode_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [2.0], "c": [1.0]}, Omega0=1.0)
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,Omega_j,D_j"
        assert lines[1].startswith("1,2,")
        assert len(lines) == 2
        diag = json.loads((tmp_path / "chain.csv.resolved.json").read_text())
        assert diag["diagnostics"]["passed"] is True
        assert diag["diagnostics"]["tridiagonal_residual"] <= 1e-12

    def test_residuals_reported_random(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "random", "N": 8}, seed=12)
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((out.parent / "chain.csv.resolved.json").read_text())
        assert diag["diagnostics"]["eigenvalue_mismatch"] <= 1e-9 * 9.0

    def test_large_random_config_bit_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "random", "N": 32}, seed=7)
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        h1 = sha(out)
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        assert sha(out) == h1
        assert len(out.read_text().splitlines()) == 33


class TestSimulate:
    def test_columns_and_reconstruction(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1, 4])
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_full,x_n1,x_n4,x_volterra,abs_err_volterra"
        data = np.loadtxt(lines[1:], delimiter=",")
        # n = N column equals x_full bitwise
        assert np.array_equal(data[:, 1], data[:, 3])
        assert data[:, 5].max() <= 1e-6

    def test_weak_coupling_free_oscillation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # couplings deliberately non-uniform: uniform c on two modes gives an
        # exactly degenerate chain, which the closed-form source refuses
        write_config(cfg, model={"omega": [1.5, 2.5], "c": [1.3e-7, 0.7e-7]},
                     Omega0=1.0, truncations=[2],
                     initial_state={"q0": [0.0, 0.0], "qdot0": [0.0, 0.0],
                                    "x0": 1.0, "xdot0": 0.0})
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert data[:, 1] == pytest.approx(np.cos(data[:, 0]), abs=1e-10)
        assert data[:, 4].max() <= 1e-6  # reconstruction error column ~ 0


class TestKernelsCommand:
    def test_cascade_to_order_128(self, tmp_path):
        # the linear family at N = 128: every order obeys |K_i| <= tau^i/i!,
        # which the closed form breaks from order ~6 on, and the low orders
        # agree with the closed form where it still holds its digits
        N = 128
        cfg = tmp_path / "cfg.json"
        conf = write_config(
            cfg, model={"family": "linear", "N": N, "omega_min": 0.5,
                        "omega_max": 2.5, "c0": 0.5 / math.sqrt(N)},
            Omega0=1.2, t_max=10.0, samples=2048, truncations=list(range(1, N + 1)))
        out = tmp_path / "kernels.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        tau = data[:, 0]
        log_tau = np.log(np.where(tau > 0, tau, 1e-300))
        for i in range(1, N + 1):
            envelope = np.exp(i * log_tau - math.lgamma(i + 1))
            assert np.all(np.abs(data[:, i]) <= envelope + 1e-12), f"K_{i}"
        chain, _ = chain_from_io(build_model(conf))
        for i in range(1, 5):
            ref = kernel_eval(kernel_closed_form(chain.mode_freqs[: i + 1]), tau)
            assert np.abs(data[:, i] - ref).max() <= 1e-9, f"K_{i}"

    def test_row_cut_matches_full_map(self, tmp_path, monkeypatch, chain_builds):
        # kernels builds the first max(orders) rows; the full map gives the
        # same bytes
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_16, truncations=[1, 3, 6], samples=1024)
        cut, full = tmp_path / "cut.csv", tmp_path / "full.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(cut)]) == 0
        assert chain_builds == [6]
        monkeypatch.setattr(spectral, "chain_from_io", lambda io, rows=None: chain_from_io(io))
        assert main(["kernels", "--config", str(cfg), "--out", str(full)]) == 0
        assert cut.read_bytes() == full.read_bytes()

    def test_order_out_of_range(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1, 5])
        assert main(["kernels", "--config", str(cfg),
                     "--out", str(tmp_path / "k.csv")]) == 2

    def test_grid_too_coarse(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, samples=16)
        assert main(["kernels", "--config", str(cfg),
                     "--out", str(tmp_path / "k.csv")]) == 2


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the only runtime dependency: simulate and kernels, run in a
    # fresh interpreter, never import scipy, nor numpy.ma (~30 ms of start-up,
    # which np.unique, for one, loads)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    out = str(tmp_path / "o.csv")
    script = (
        "import sys\n"
        "from chainbath.cli import main\n"
        "for cmd in ('simulate', 'kernels'):\n"
        f"    assert main([cmd, '--config', {str(cfg)!r}, '--out', {out!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(chainbath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestBoundCommand:
    def test_ratio_below_one_and_zero_first_row(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, t_max=2.5)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = np.loadtxt(lines[1:], delimiter=",")
        header = lines[0].split(",")
        assert header[0] == "t" and data[0, 0] == 0.0
        assert np.all(data[0, 1:] == 0.0)  # all-zero first row
        for j, name in enumerate(header):
            if name.startswith("ratio"):
                assert data[:, j].max() <= 1.0

    def test_thermal_column_scales_with_sqrt_kt(self, tmp_path):
        outs = []
        for kT in (1.0, 4.0):
            cfg = tmp_path / f"cfg{kT}.json"
            write_config(cfg, kT=kT, t_max=2.5,
                         initial_state={"q0": [0.1, 0.1, 0.1, 0.1],
                                        "qdot0": [0.0, 0.0, 0.0, 0.0]})
            out = tmp_path / f"bound{kT}.csv"
            assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            col = lines[0].split(",").index("bound_thermal_n1")
            outs.append(np.loadtxt(lines[1:], delimiter=",")[:, col])
        ratio = outs[1][1:] / outs[0][1:]
        assert ratio == pytest.approx(np.full_like(ratio, 2.0), rel=1e-12)

    def test_full_cut_reuses_the_full_trajectory(self, tmp_path, monkeypatch):
        # n = N is x_full itself, which needs no eigensolve: one for n = 1
        N = 8
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.8,
                                 "omega_max": 2.4, "c0": 0.2},
                     truncations=[1, N], t_max=2.5)
        calls = []
        decompose = dynamics._decompose
        monkeypatch.setattr(dynamics, "_decompose",
                            lambda A: calls.append(len(A)) or decompose(A))
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(calls) == [2]
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        for name in (f"eps_n{N}", f"ratio_n{N}"):
            assert np.all(data[:, header.index(name)] == 0.0)

    def test_short_cut_matches_full_map_route(self, tmp_path):
        # a cut at n = 4 < N = 16 builds four map rows and takes x_full from
        # the oscillator picture: eps_n4 agrees with x(t) of the full chain
        # minus the cut, and is not the zero column of a mistaken reuse
        N = LINEAR_16["N"]
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, model=LINEAR_16, truncations=[1, 4], t_max=4.0)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        init = build_initial_state(cfg, io)
        chain, omap = chain_from_io(io)
        times = data[:, 0]
        x_full = dynamics.evolve_truncated_x(chain, N, init, omap, times)
        for n in (1, 4):
            x_n = dynamics.evolve_truncated_x(chain, n, init, omap, times)
            eps = data[:, header.index(f"eps_n{n}")]
            assert np.abs(eps - np.abs(x_full - x_n)).max() <= 1e-13 * np.abs(x_full).max()
            assert eps.max() > 1e-6 * np.abs(x_full).max()

    def test_builds_only_the_rows_it_reads(self, tmp_path, chain_builds):
        # bound builds max(truncations) < N rows; min-modes builds no map
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_16, truncations=[4, 1], t_max=2.5)
        assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        assert chain_builds == [4]
        assert main(["min-modes", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 0
        assert chain_builds == [4]

    def test_full_cut_builds_no_full_map(self, tmp_path, monkeypatch, chain_builds):
        # a cut at n = N reads the coefficients alone: one map row for the
        # cut at n = 1, and RKPW for the bound columns at n = N
        from chainbath import bounds

        N = LINEAR_16["N"]
        coefficient_builds = []
        monkeypatch.setattr(spectral, "chain_coefficients",
                            lambda io: coefficient_builds.append(io.N)
                            or chain_coefficients(io))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, model=LINEAR_16, truncations=[1, N], t_max=4.0)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert chain_builds == [1] and coefficient_builds == [N]
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        init = build_initial_state(cfg, io)
        th = bounds.ThermalState(cfg["kT"])
        times = data[:, 0]
        routes = {"bound_det": lambda chain: bounds.bound_deterministic(io, chain, N, times, init),
                  "bound_thermal": lambda chain: bounds.bound_thermal(io, chain, N, times, th)}
        for kind, bound in routes.items():
            got = data[:, header.index(f"{kind}_n{N}")]
            assert np.array_equal(got, bound(chain_coefficients(io)))
            # P_N vanishes on the bath spectrum, so both routes give only its
            # rounding floor, and that floor is negligible beside the cut n = 1
            floor = 1e-12 * data[:, header.index(f"{kind}_n1")].max()
            assert got.max() <= floor
            assert bound(chain_from_io(io)[0]).max() <= floor
        for name in (f"eps_n{N}", f"ratio_n{N}"):
            assert np.all(data[:, header.index(name)] == 0.0)

    def test_repeated_index_is_one_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1, 1, 2], t_max=2.5)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(
            ["t"] + [f"{kind}_n{n}" for n in (1, 2)
                     for kind in ("eps", "bound_det", "bound_thermal", "ratio")])


class TestMinModesCommand:
    def test_huge_tolerance_all_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes={"times": [0.5, 1.0], "tols": [1e9]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert np.all(data[:, 1] == 0)

    def test_repeated_tolerance_is_one_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes={"times": [0.5, 1.0],
                                     "tols": [1e-2, 1e-4, 1e-2]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,n_tol_0.01,n_tol_0.0001"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_interior_cells_match_direct_bound(self, tmp_path):
        from chainbath import bounds, spectral
        from chainbath.cli import build_model, resolve_config

        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, min_modes={"times": [0.5, 1.5],
                                          "tols": [1e-2, 1e-5]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = np.loadtxt(lines[1:], delimiter=",")
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        chain, _ = spectral.chain_from_io(io)
        th = bounds.ThermalState(cfg["kT"])
        for r, t in enumerate([0.5, 1.5]):
            for c, tol in enumerate([1e-2, 1e-5]):
                n = int(data[r, 1 + c])
                assert bounds.bound_thermal(io, chain, n, t, th) <= tol
                if n > 0:
                    assert bounds.bound_thermal(io, chain, n - 1, t, th) > tol


class TestSweep:
    def test_single_cell_matches_bound_style_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [4], "n": [1], "kT": [1.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,n,kT,max_eps,max_ratio,status,error"
        assert len(lines) == 2 and ",ok," in lines[1]

    def test_deterministic_and_sorted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [8, 4], "n": [2, 1], "kT": [1.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        h1 = sha(out)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert sha(out) == h1
        data = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert data == sorted(data, key=lambda r: (int(r[0]), int(r[1])))

    def test_all_cells_failed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [4], "n": [1], "kT": [-1.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 5
        assert "NonpositiveParameter" in out.read_text()


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        for cmd in ("build-chain", "simulate", "kernels", "bound", "min-modes"):
            out = tmp_path / f"{cmd}.csv"
            hashes = set()
            for _ in range(2):
                assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
                hashes.add(sha(out))
            assert len(hashes) == 1, cmd

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out1 = tmp_path / "a.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "b.csv"
        assert main(["bound", "--config", str(out1) + ".resolved.json",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_thermal_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["bound", "--config", str(cfg), "--out", str(b),
                     "--seed", "99"]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("cmd", ["simulate", "build-chain", "kernels", "bound",
                                     "min-modes", "sweep"])
    def test_float_format_round_trips(self, tmp_path, cmd):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1 / 3, 2 / 7]},
                     truncations=[2])
        out = tmp_path / "out.csv"
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        text = {header.index(name) for name in ("status", "error") if name in header}
        # re-serialize every number with the same format: identical text
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            assert [c for j, c in enumerate(cells) if j not in text] == [
                fmt(float(c)) for j, c in enumerate(cells) if j not in text]

    def test_write_csv_text_contract(self, tmp_path):
        # numbers print as the per-value formatting did: str(int) for
        # integers, 17 significant digits for floats; text as it is
        ints = np.array([0, -7, 2**53 - 1], dtype=np.int64)
        floats = [0.1, -0.0, math.nan]
        edges = [math.inf, -math.inf, 5e-324]
        big = np.array([1e300, -1e-300, 1 / 3])
        text = ["", "ok", "NonpositiveParameter"]
        out = tmp_path / "t.csv"
        write_csv(out, {"i": ints, "a": floats, "b": edges, "c": big, "s": text})
        expect = "i,a,b,c,s\n" + "".join(
            f"{int(i)},{a:.17g},{b:.17g},{c:.17g},{s}\n"
            for i, a, b, c, s in zip(ints, floats, edges, big, text))
        assert out.read_bytes() == expect.encode()
        first = out.read_text().splitlines()[1]
        assert first == "0,0.10000000000000001,inf,1.0000000000000001e+300,"
