"""Digest what every benchmark invocation writes, to show that a change
leaves the program's outputs byte-identical.

    python tests/output_digest.py ROOT [OTHER_ROOT] [--seeds 1 2 3]

Runs each invocation of `perfbench/workloads.py`, workloads and probes, for
each seed, one at a time, as `python -m chainbath.cli` with
PYTHONPATH=<root>/src, in a fresh temporary directory.  The invocations
come from this checkout's `perfbench/` for every root, so two roots run the
same inputs.  Each invocation's record is its exit code and the sha256 of
its CSV, its `.resolved.json` sidecar, its stdout and its stderr, each with
the temporary directory replaced by a fixed token (the summary line prints
the `--out` path); the `.timings.json` file is not deterministic and is
left out.

With one root it prints the records as JSON.  With two it lists each
invocation whose record differs and exits 1 if any does.  It reads
`perfbench/` and writes nothing there; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
TOKEN = b"<work>"


def invocations(seeds):
    """(key, command, config) of every workload and probe at each seed."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    for name in (*workloads.WORKLOADS, *workloads.PROBES):
        for seed in seeds:
            for inv in workloads.invocations(name, seed):
                yield f"{name}/{seed}/{inv.label}", inv.command, inv.config


def digest(data: bytes, work: str) -> str:
    return hashlib.sha256(data.replace(work.encode(), TOKEN)).hexdigest()


def run_one(root: Path, command: str, config: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as work:
        cfg, out = Path(work, "config.json"), Path(work, "out.csv")
        cfg.write_text(json.dumps(config, sort_keys=True))
        proc = subprocess.run(
            [sys.executable, "-m", "chainbath.cli", command, "--config", str(cfg),
             "--out", str(out)], cwd=work, env=env, capture_output=True, check=False)
        record = {"exit": proc.returncode}
        for field, path in (("csv", out), ("sidecar", Path(f"{out}.resolved.json"))):
            record[field] = digest(path.read_bytes(), work) if path.exists() else None
        record["stdout"] = digest(proc.stdout, work)
        record["stderr"] = digest(proc.stderr, work)
    return record


def records(root: Path, seeds) -> dict:
    return {key: run_one(root, command, config)
            for key, command, config in invocations(seeds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", type=Path, metavar="ROOT")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    if len(args.roots) > 2:
        parser.error("give one root or two")
    runs = [records(root.resolve(), args.seeds) for root in args.roots]
    if len(runs) == 1:
        print(json.dumps(runs[0], indent=1, sort_keys=True))
        return 0
    before, after = runs
    differ = [key for key in before if before[key] != after[key]]
    for key in differ:
        fields = [f for f in before[key] if before[key][f] != after[key][f]]
        print(f"{key}: {', '.join(fields)} differ "
              f"(exit {before[key]['exit']} -> {after[key]['exit']})")
    print(f"{len(before) - len(differ)} of {len(before)} invocations identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
