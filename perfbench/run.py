"""chainbath benchmark: closed-loop CLI workloads with verified outputs.

    python3 perfbench/run.py --workload volterra --seed 1 --seconds 20 --trace 0

Run from the root of a chainbath source checkout.  One client runs the
workload's CLI invocations one at a time, each in a fresh interpreter with
`src` on PYTHONPATH, and repeats the whole pass, with the same inputs, until
`--seconds` have gone by (at least two passes).  Every invocation's output is
checked (checks.py) and its CSV hashed; a CSV that differs between passes
breaks the byte-determinism contract and fails its invocation.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes (tracer.py) until the time is up, and prints the per-layer
metrics per traced pass; `trace.overhead_s` is the median traced pass's wall
time minus the median untraced one's.  The last line of standard output is the
result as JSON; a full report, with machine facts, every invocation's
timings and CSV sha256, goes to `--report` (default `.perfbench/`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check, sha256
from workloads import PROBES, WORKLOADS, invocations

HERE = Path(__file__).resolve().parent

# Set-up samples: a few before the first pass, then about SETUP_PER_PASS
# between the invocations of each untraced pass, so that their median spans
# the whole run as the workload's own timings do.
SETUP_FIRST = 3
SETUP_PER_PASS = 4
# No median rests on a single pass, even when one pass outlasts --seconds.
MIN_PASSES = 2
IMPORTTIME_SAMPLES = 3
# Stop starting passes after this long, and kill a child that outlives the
# hard limit, so that a run always ends within 180 s.
LAST_PASS_START_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "ratio")]

# (metric, unit, where it comes from in the summed tracer output)
PER_LAYER = [
    ("kernels.convolve_on_grid_s", "s", ("busy", "kernels.convolve_on_grid")),
    ("kernels.convolve_on_grid_calls", "count", ("calls", "kernels.convolve_on_grid")),
    ("kernels.convolve_freq_samples", "count", ("count", "kernels.convolve_freq_samples")),
    ("kernels.kernel_closed_form_s", "s", ("busy", "kernels.kernel_closed_form")),
    ("kernels.kernel_eval_s", "s", ("busy", "kernels.kernel_eval")),
    ("solution.source_term_s", "s", ("busy", "solution.source_term")),
    ("solution.free_source_series_s", "s", ("busy", "solution.free_source_series")),
    ("solution.solve_volterra_closed_s", "s", ("busy", "solution.solve_volterra_closed")),
    ("solution.volterra_err_max", "abs", ("fact", "volterra_err_max")),
    ("spectral.chain_from_io_s", "s", ("busy", "spectral.chain_from_io")),
    ("spectral.chain_from_io_calls", "count", ("calls", "spectral.chain_from_io")),
    ("spectral.lanczos_dim3", "count", ("count", "spectral.lanczos_dim3")),
    ("spectral.verify_equivalence_s", "s", ("busy", "spectral.verify_equivalence")),
    ("spectral.char_poly_eval_s", "s", ("busy", "spectral.char_poly_eval")),
    ("spectral.char_poly_steps", "count", ("count", "spectral.char_poly_steps")),
    ("bounds.bound_thermal_calls", "count", ("calls", "bounds.bound_thermal")),
    ("bounds.min_modes_s", "s", ("busy", "bounds.min_modes")),
    ("bounds.bound_deterministic_s", "s", ("busy", "bounds.bound_deterministic")),
    ("bounds.bound_thermal_s", "s", ("busy", "bounds.bound_thermal")),
    ("bounds.overflow_errors", "count", ("count", "bounds.overflow_errors")),
    ("bounds.sample_thermal_s", "s", ("busy", "bounds.sample_thermal")),
    ("dynamics.evolve_truncated_s", "s", ("busy", "dynamics.evolve_truncated")),
    ("dynamics.evolve_truncated_calls", "count", ("calls", "dynamics.evolve_truncated")),
    ("dynamics.eigh_dim3", "count", ("count", "dynamics.eigh_dim3")),
    ("dynamics.evolve_samples", "count", ("count", "dynamics.evolve_samples")),
    ("instances.random_io_model_s", "s", ("busy", "instances.random_io_model")),
    ("cli.import_s", "s", ("import", "chainbath.cli")),
    ("cli.import_scipy_s", "s", ("import", "scipy.interpolate")),
    ("cli.write_csv_s", "s", ("busy", "cli.write_csv")),
    ("cli.csv_bytes", "count", ("count", "cli.csv_bytes")),
    ("cli.write_sidecar_s", "s", ("busy", "cli.write_sidecar")),
    ("cli.build_initial_state_s", "s", ("busy", "cli.build_initial_state")),
    ("cli.sweep_wall_s", "s", ("busy", "cli.cmd_sweep")),
    ("cli.sweep_cell_busy_s", "s", ("busy", "cli._sweep_cell")),
] + [(f"{layer}.self_s", "s", ("layer", layer)) for layer in
     ("cli", "spectral", "dynamics", "kernels", "solution", "bounds", "instances")] + [
    ("trace.spans", "count", ("spans", None)),
    ("trace.overhead_s", "s", ("overhead", None)),
]

_MACHINE_PROBE = r"""
import ctypes, json, platform
import numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = None
try:
    path = next(l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l)
    get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
    get.restype = ctypes.c_int
    threads = get()
except (OSError, AttributeError, StopIteration):
    pass
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas_name": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration"),
                  "blas_threads_runtime": threads}))
"""


class Runner:
    """Starts children one at a time and accounts for each with os.wait4."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root, self.work, self.started = root, work, started
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        self.env = env

    def child(self, argv, log_name):
        """(exit code, wall s, user+sys CPU s, max RSS MB, log path)."""
        log = self.work / log_name
        limit = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    cwd=self.root, env=self.env)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, log


def machine_facts(runner: Runner) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh
                              if l.startswith("model name")), None)
    except OSError:
        pass
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        # recorded as found; the benchmark never sets them
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        # dropping the page cache needs root and affects every process
        "startup_cache": "warm only",
    }
    rc, *_, log = runner.child([sys.executable, "-c", _MACHINE_PROBE], "machine.log")
    if rc == 0:
        facts.update(json.loads(log.read_text().strip().splitlines()[-1]))
    return facts


_SETUP_ARGV = [sys.executable, "-c", "import chainbath.cli"]


def setup_sample(runner: Runner) -> float:
    """Wall time of a fresh interpreter importing chainbath.cli."""
    return runner.child(_SETUP_ARGV, "setup.log")[1]


def first_setup_samples(runner: Runner) -> list[float]:
    rc, *_ = runner.child(_SETUP_ARGV, "setup.log")  # warm-up: bytecode, page cache
    if rc != 0:
        raise RuntimeError("chainbath.cli does not import; see setup.log")
    return [setup_sample(runner) for _ in range(SETUP_FIRST)]


def measure_imports(runner: Runner) -> dict[str, float]:
    """Median cumulative import time of each module, from -X importtime."""
    argv = [sys.executable, "-X", "importtime", "-c",
            "import chainbath.cli, scipy.interpolate"]
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_SAMPLES):
        *_, log = runner.child(argv, "importtime.log")
        for line in log.read_text().splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m:
                samples.setdefault(m.group(2), []).append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


def run_pass(runner, invs, index, traced, setup=None):
    """Run one pass; returns its invocation records.

    With a `setup` list, set-up samples are appended to it between
    invocations, about SETUP_PER_PASS of them.
    """
    records = []
    stride = max(1, len(invs) // SETUP_PER_PASS)
    for k, inv in enumerate(invs):
        cfg = runner.work / f"{inv.label}.json"
        cfg.write_text(json.dumps(inv.config, sort_keys=True))
        out = runner.work / f"{inv.label}.csv"
        for stale in (out, Path(str(out) + ".resolved.json")):
            stale.unlink(missing_ok=True)
        cli = [inv.command, "--config", str(cfg), "--out", str(out)]
        spans = runner.work / f"{inv.label}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *cli]
        else:
            argv = [sys.executable, "-m", "chainbath.cli", *cli]
        rc, wall, cpu, rss, log = runner.child(argv, f"{inv.label}.log")
        reason, facts = check(inv.command, rc, out)
        rec = {"pass": index, "label": inv.label, "command": inv.command,
               "traced": traced, "exit": rc, "wall_s": wall, "cpu_s": cpu,
               "max_rss_mb": rss, "ok": reason is None, "reason": reason,
               "csv_sha256": sha256(out) if out.exists() else None, **facts}
        if reason is not None:
            rec["log_tail"] = log.read_text(errors="replace")[-400:]
        if traced and spans.exists():
            rec["trace"] = json.loads(spans.read_text())
        records.append(rec)
        if setup is not None and k % stride == 0:
            setup.append(setup_sample(runner))
    return records


def check_determinism(records):
    """Fail every invocation whose CSV differs from the first pass's."""
    first = {}
    for rec in records:
        digest = rec["csv_sha256"]
        if digest is None:
            continue
        ref = first.setdefault(rec["label"], digest)
        if digest != ref and rec["ok"]:
            rec["ok"] = False
            rec["reason"] = "CSV differs from the first pass at the same seed"


def _pass_sums(records, key):
    sums = {}
    for rec in records:
        sums[rec["pass"]] = sums.get(rec["pass"], 0.0) + rec[key]
    return list(sums.values())


def end_to_end(records, setup):
    walls = [r["wall_s"] for r in records]
    passes = len({r["pass"] for r in records})
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(_pass_sums(records, "wall_s")), passes),
        "cmd_p50_s": (statistics.median(walls), len(walls)),
        "cpu_s": (statistics.median(_pass_sums(records, "cpu_s")), passes),
        "peak_rss_mb": (max(r["max_rss_mb"] for r in records), len(records)),
        "pass_frac": (sum(r["ok"] for r in records) / len(records), len(records)),
    }
    units = dict(END_TO_END)
    return {name: (value, units[name], n) for name, (value, n) in values.items()}


def per_layer(traced, untraced_wall, imports):
    """Per-pass means of the traced passes' layer metrics."""
    passes = sorted({r["pass"] for r in traced})
    k = len(passes)
    funcs, counts, layers, spans = {}, {}, {}, 0
    for rec in traced:
        tr = rec.get("trace")
        if tr is None:
            continue
        for name, f in tr["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "busy_ns": 0})
            acc["calls"] += f["calls"]
            acc["busy_ns"] += f["busy_ns"]
        for name, v in tr["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in tr["layers_self_ns"].items():
            layers[name] = layers.get(name, 0) + v
        spans += tr["spans"]
    pass_walls = _pass_sums(traced, "wall_s")
    out = {}
    for metric, unit, (kind, key) in PER_LAYER:
        if kind == "busy":
            value = funcs.get(key, {}).get("busy_ns", 0) * 1e-9 / k
        elif kind == "calls":
            value = funcs.get(key, {}).get("calls", 0) / k
        elif kind == "count":
            value = counts.get(key, 0) / k
        elif kind == "layer":
            value = layers.get(key, 0) * 1e-9 / k
        elif kind == "fact":
            value = max((r.get(key, 0.0) for r in traced), default=0.0)
        elif kind == "import":
            value = imports.get(key, 0.0)
        elif kind == "spans":
            value = spans / k
        else:  # overhead
            value = statistics.median(pass_walls) - untraced_wall
        out[metric] = (value, unit, k)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + sorted(PROBES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="path of the full JSON report")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    # On SIGTERM, unwind through Runner.child, which kills and reaps the
    # running child, and through the clean-up of the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "chainbath" / "cli.py").is_file():
        print("error: run from the root of a chainbath checkout "
              "(src/chainbath/cli.py not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work, started)
        facts = machine_facts(runner)
        setup = first_setup_samples(runner)
        invs = invocations(args.workload, args.seed)

        # A traced run alternates untraced and traced passes, so that the
        # overhead compares passes run close together in time.
        kinds = (False, True) if args.trace else (False,)
        t0 = time.perf_counter()
        records, index = [], 0
        while True:
            for traced in kinds:
                records += run_pass(runner, invs, index, traced,
                                    None if traced else setup)
                index += 1
            if ((index >= MIN_PASSES * len(kinds)
                 and time.perf_counter() - t0 >= args.seconds)
                    or time.perf_counter() - started >= LAST_PASS_START_S):
                break
        check_determinism(records)

        min_self = None
        if args.trace:
            untraced = [r for r in records if not r["traced"]]
            traced = [r for r in records if r["traced"]]
            metrics = per_layer(traced, statistics.median(_pass_sums(untraced, "wall_s")),
                                measure_imports(runner))
            selfs = [r["trace"]["min_self_ns"] for r in traced
                     if r.get("trace") and r["trace"]["min_self_ns"] is not None]
            min_self = min(selfs, default=0)
        else:
            metrics = end_to_end(records, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and (min_self is None or min_self >= 0)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "setup_samples_s": setup,
        "attempted": len(records), "failed": failed,
        "fail_frac": failed / len(records), "min_self_ns": min_self,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "invocations": records,
    }
    report_path = Path(args.report) if args.report else (
        root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
          f"python={facts.get('python')} numpy={facts.get('numpy')} "
          f"scipy={facts.get('scipy')} blas={facts.get('blas_name')} "
          f"{facts.get('blas_version')} threads={facts.get('blas_threads_runtime')} "
          f"env={facts['thread_env']} (warm-cache start-up only)")
    for rec in records:
        if not rec["ok"]:
            print(f"FAIL pass {rec['pass']} {rec['label']}: {rec['reason']}")
    print(f"{args.workload}: {failed}/{len(records)} invocations failed a check "
          f"(fail_frac {failed / len(records):.4g}); report {report_path}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit:6s} (n={n})")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
