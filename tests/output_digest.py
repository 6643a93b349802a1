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

With one root it prints the records as JSON.  With two it runs each
invocation on both roots back to back, so that one pair of CSVs is held at
a time, and lists each invocation whose record differs: the fields that
differ (csv, sidecar, stdout, stderr), the exit codes and, under it, each
CSV column that differs with its largest |before - after| over its largest
finite |before| ("not comparable" for a column of text, of another
length or on one side only).  It exits 1 if any invocation differs.  It reads `perfbench/` and
writes nothing there; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
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


def read_columns(path: Path) -> dict:
    """The CSV's columns by name, each a list of its cells as text."""
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def column_move(before, after):
    """max |before - after| / max finite |before| of two columns of numbers
    (0 where they are equal cell by cell, inf or NaN included); None for
    text or columns of different lengths."""
    try:
        x, y = [float(v) for v in before], [float(v) for v in after]
    except ValueError:
        return None
    if len(x) != len(y):
        return None
    scale = max((abs(v) for v in x if math.isfinite(v)), default=0.0)
    diff = max((0.0 if p == q or (p != p and q != q) else abs(p - q) for p, q in zip(x, y)),
               default=0.0)
    return diff / scale if scale else (0.0 if diff == 0 else math.inf)


def run_one(root: Path, command: str, config: dict):
    """The record of one invocation on `root`, and its CSV's columns (None
    when it wrote no CSV)."""
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
        columns = read_columns(out) if out.exists() else None
    return record, columns


def compare(before_root: Path, after_root: Path, seeds) -> int:
    """Print what moved between the two roots, invocation by invocation;
    the count of invocations that differ."""
    total = differ = 0
    for key, command, config in invocations(seeds):
        (before, cols_b), (after, cols_a) = (run_one(root, command, config)
                                             for root in (before_root, after_root))
        total += 1
        if before == after:
            continue
        differ += 1
        fields = [f for f in before if before[f] != after[f]]
        print(f"{key}: {', '.join(fields)} differ "
              f"(exit {before['exit']} -> {after['exit']})")
        if "csv" in fields and cols_b is not None and cols_a is not None:
            for name in sorted(cols_b.keys() | cols_a.keys()):
                if cols_b.get(name) != cols_a.get(name):
                    move = (column_move(cols_b[name], cols_a[name])
                            if name in cols_b and name in cols_a else None)
                    print(f"    {name}: " + ("not comparable" if move is None else f"{move:.3g}"))
    print(f"{total - differ} of {total} invocations identical")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", type=Path, metavar="ROOT")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    if len(args.roots) > 2:
        parser.error("give one root or two")
    roots = [root.resolve() for root in args.roots]
    if len(roots) == 2:
        return 1 if compare(*roots, args.seeds) else 0
    print(json.dumps({key: run_one(roots[0], command, config)[0]
                      for key, command, config in invocations(args.seeds)},
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
