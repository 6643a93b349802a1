"""Tests of the benchmark itself: inputs, checks, tracer and determinism.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_inputs_are_a_function_of_the_seed():
    for name in [*workloads.WORKLOADS, *workloads.PROBES]:
        a = workloads.invocations(name, 3)
        assert a == workloads.invocations(name, 3)
        assert [i.config["seed"] for i in a] != [
            i.config["seed"] for i in workloads.invocations(name, 4)]


def test_benchmark_json_names_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, u) for n, u, _ in run.PER_LAYER]


def _write(tmp_path, header, rows, diagnostics=None):
    out = tmp_path / "o.csv"
    out.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")
    side = {"resolved_config": {}, "diagnostics": diagnostics or {}}
    (tmp_path / "o.csv.resolved.json").write_text(json.dumps(side))
    return out


def test_check_simulate_volterra_tolerance(tmp_path):
    header = ["t", "x_full", "x_volterra"]
    good = _write(tmp_path, header, [(0, 1.0, 1.0), (1, -2.0, -2.0 + 1e-7)])
    assert checks.check("simulate", 0, good)[0] is None
    bad = _write(tmp_path, header, [(0, 1.0, 1.0), (1, -2.0, -2.0 + 1e-5)])
    assert "x_volterra" in checks.check("simulate", 0, bad)[0]


def test_check_kernel_envelope(tmp_path):
    header = ["tau", "K_1", "K_2"]
    good = _write(tmp_path, header, [(0, 0, 0), (1, 0.9, 0.4), (2, 1.9, 1.9)])
    assert checks.check("kernels", 0, good)[0] is None
    bad = _write(tmp_path, header, [(0, 0, 0), (1, 0.9, 0.6)])  # K_2(1) > 1/2
    assert "K_2" in checks.check("kernels", 0, bad)[0]


def test_check_bound_ignores_rounding_floor(tmp_path):
    header = ["t", "eps_n1", "bound_det_n1", "eps_n4", "bound_det_n4"]
    at_floor = _write(tmp_path, header, [(1, 1.0, 2.0, 1e-16, 1e-30)])
    assert checks.check("bound", 0, at_floor)[0] is None
    above = _write(tmp_path, header, [(1, 1.0, 2.0, 1e-6, 1e-30)])
    assert "eps_n4" in checks.check("bound", 0, above)[0]


def test_check_rejects_exit_code_nonfinite_and_sidecar_verdicts(tmp_path):
    assert checks.check("bound", 1, tmp_path / "absent.csv")[0] == "exit code 1"
    nan = _write(tmp_path, ["t", "eps_n1", "bound_det_n1"], [(1, "nan", 1.0)])
    assert "non-finite" in checks.check("bound", 0, nan)[0]
    chain = _write(tmp_path, ["j", "Omega_j", "D_j"], [(1, 1.0, 0.0)], {"passed": False})
    assert checks.check("build-chain", 0, chain)[0] is not None
    sweep = _write(tmp_path, ["N", "max_eps", "status", "error"],
                   [(4, 0.1, "ok", "")], {"failed": 1})
    assert checks.check("sweep", 0, sweep)[0] is not None
    modes = _write(tmp_path, ["t", "n_tol_0.01"], [(1, 2)],
                   {"uncertified_cells": 0, "monotone_in_t": True, "monotone_in_tol": False})
    assert checks.check("min-modes", 0, modes)[0] is not None


def test_tracer_self_times_stay_nonnegative_across_threads():
    tr = tracer.Tracer()
    leaf = tr.wrap(lambda: time.sleep(0.02), "kernels.leaf")

    def fan_out():
        with ThreadPoolExecutor(max_workers=4) as pool:
            for f in [pool.submit(leaf) for _ in range(8)]:
                f.result()

    parent = tr.wrap(fan_out, "cli.parent")
    parent()
    s = tr.summary()
    funcs = s["functions"]
    assert funcs["kernels.leaf"]["calls"] == 8
    # the pool's spans overlap, so their busy time exceeds the parent's wall
    assert funcs["kernels.leaf"]["busy_ns"] > funcs["cli.parent"]["busy_ns"]
    assert s["min_self_ns"] >= 0
    assert funcs["cli.parent"]["self_ns"] == funcs["cli.parent"]["busy_ns"]


def _config(tmp_path, **extra):
    inv = workloads.invocations("cli-small", 1)[0]
    cfg = dict(inv.config, **extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_tracer_sees_calls_through_every_namespace(tmp_path):
    cfg = _config(tmp_path, samples=256, truncations=[1, 2])
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans), "--", "simulate",
         "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
        cwd=ROOT, env=run.Runner(ROOT, tmp_path, time.perf_counter()).env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    s = json.loads(spans.read_text())
    funcs = s["functions"]
    # cli dispatches through _COMMANDS; solution binds convolve_on_grid by name
    assert funcs["cli.cmd_simulate"]["calls"] == 1
    assert funcs["solution.solve_volterra_closed"]["calls"] == 1
    assert funcs["kernels.convolve_on_grid"]["calls"] >= 2
    assert s["counts"]["kernels.convolve_freq_samples"] > 0
    assert s["counts"]["cli.csv_bytes"] == (tmp_path / "o.csv").stat().st_size
    assert s["min_self_ns"] >= 0


def test_two_runs_at_one_seed_write_identical_csvs(tmp_path):
    invs = [i for i in workloads.invocations("cli-small", 5) if i.label.endswith("-s0")]
    digests = []
    for k in range(2):
        work = tmp_path / f"run{k}"
        work.mkdir()
        records = run.run_pass(run.Runner(ROOT, work, time.perf_counter()), invs, 0, False)
        assert all(r["ok"] for r in records), [r["reason"] for r in records]
        digests.append({r["label"]: r["csv_sha256"] for r in records})
    assert digests[0] == digests[1]
    assert all(digests[0].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("records, expect", [
    ([("a", "x"), ("a", "x")], [True, True]),
    ([("a", "x"), ("a", "y")], [True, False]),
])
def test_determinism_across_passes(records, expect):
    recs = [{"label": label, "csv_sha256": digest, "ok": True, "reason": None}
            for label, digest in records]
    run.check_determinism(recs)
    assert [r["ok"] for r in recs] == expect
