"""Run one chainbath CLI invocation with every layer boundary timed.

    python perfbench/tracer.py OUT.json -- <chainbath CLI arguments>

Wraps, from outside the package, each public function of the modules
`cli`, `spectral`, `dynamics`, `kernels`, `solution`, `bounds` and
`instances` on every module namespace that bound it (`solution` and `bounds`
import `convolve_on_grid` by name; `cli` dispatches through `_COMMANDS`),
plus `cli._sweep_cell`, the sweep's per-cell worker, and minus the per-value
formatter `cli.fmt`.  Spans are kept on one stack per thread, so the sweep's
pool threads nest their own spans and no self time goes negative.  Totals
are aggregated in memory and written to OUT.json once the invocation ends;
the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "spectral", "dynamics", "kernels", "solution", "bounds", "instances")
PRIVATE = {"cli": ("_sweep_cell",)}
# `cli.fmt` formats one CSV value and runs once per value (131072 times in a
# 16384-sample `simulate`); a span there costs about as much as the call, so
# it stays unwrapped and its time counts in `cli.write_csv`.
UNTRACED = {"cli.fmt"}


def _size(x) -> int:
    """Element count of an array, a sequence or a scalar."""
    if hasattr(x, "size"):
        return int(x.size)
    return len(x) if hasattr(x, "__len__") else 1


# Work counts computed from a call's bound arguments (and, for write_csv,
# from the file it wrote).
COUNTERS = {
    "kernels.convolve_on_grid": lambda a: {
        "kernels.convolve_freq_samples": _size(a["freqs"]) * len(a["times"])},
    "spectral.chain_from_io": lambda a: {"spectral.lanczos_dim3": a["io"].N ** 3},
    "spectral.char_poly_eval": lambda a: {
        "spectral.char_poly_steps": int(a["j"]) * _size(a["lam"])},
    "dynamics.evolve_truncated": lambda a: {
        "dynamics.eigh_dim3": (int(a["n"]) + 1) ** 3,
        "dynamics.evolve_samples": (int(a["n"]) + 1) * len(a["times"])},
    "cli.write_csv": lambda a: {"cli.csv_bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """Per-function calls, busy time and self time, per-layer self time."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)   # time with the function on a stack
        self.self_ns = defaultdict(int)   # minus time in traced callees
        self.counts = defaultdict(int)
        self.min_self_ns = None
        self.spans = 0
        self._overflows = []  # exceptions, compared by identity

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name):
        counter = COUNTERS.get(name)
        sig = inspect.signature(func) if counter else None
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            stack = self._stack()
            outer = all(frame[0] != name for frame in stack)
            frame = [name, 0]  # name, ns covered by child spans
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except OverflowError as exc:
                if layer == "bounds":
                    with self._lock:
                        if not any(e is exc for e in self._overflows):
                            self._overflows.append(exc)
                raise
            finally:
                dur = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_ns = dur - frame[1]
                with self._lock:
                    self.spans += 1
                    self.calls[name] += 1
                    self.self_ns[name] += self_ns
                    if outer:
                        self.busy_ns[name] += dur
                    if self.min_self_ns is None or self_ns < self.min_self_ns:
                        self.min_self_ns = self_ns
            if counter:
                work = counter(sig.bind(*args, **kwargs).arguments)
                with self._lock:
                    for key, value in work.items():
                        self.counts[key] += value
            return result

        return traced

    def install(self):
        """Replace every traced function on every namespace that binds it."""
        package = importlib.import_module("chainbath")
        mods = {name: importlib.import_module(f"chainbath.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))
                        and f"{layer}.{attr}" not in UNTRACED):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        table = mods["cli"]._COMMANDS
        for key, func in table.items():
            table[key] = wrappers.get(func, func)
        return mods["cli"]

    def summary(self) -> dict:
        layers = defaultdict(int)
        for name, ns in self.self_ns.items():
            layers[name.split(".", 1)[0]] += ns
        counts = dict(self.counts)
        counts["bounds.overflow_errors"] = len(self._overflows)
        return {
            "functions": {name: {"calls": self.calls[name], "busy_ns": self.busy_ns[name],
                                 "self_ns": self.self_ns[name]} for name in self.calls},
            "layers_self_ns": dict(layers),
            "counts": counts,
            "spans": self.spans,
            "min_self_ns": self.min_self_ns,
        }


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
