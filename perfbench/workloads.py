"""Workload definitions: the CLI invocations each workload runs.

Every input is generated from the workload seed with Python's own `random`
module, so the parent process needs neither numpy nor chainbath.  One pass
of a workload is its list of `Invocation`s, run one after another; every
pass of a run repeats the same inputs.

`WORKLOADS` are the measured workloads: each stays in the range where the
program passes every check at the commit that added the benchmark, since a
measured run must not fail.  `PROBES` run the configurations beyond that
range on which the program is known to fail (Volterra blow-up from N = 20
on, kernel envelope from order 5 on, `OverflowError` in `bound` and
`min-modes` from n = 85 on, an `inf` ratio at n = 64 and N = 2048).  They
are run the same way (`run.py --workload volterra-wide`) and report
`correct: false` until those defects are fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, the config it is given, and a short label."""

    label: str
    command: str
    config: dict


def _linear_model(N: int) -> dict:
    # c0 = 0.5/sqrt(N) keeps ||c|| fixed, so every N stays in the
    # oscillatory, real-resolvent regime.
    return {"family": "linear", "N": N, "omega_min": 0.5, "omega_max": 2.5,
            "c0": 0.5 / math.sqrt(N)}


VOLTERRA_SAMPLES = 16384


def _base(N: int, seed: int, **extra) -> dict:
    cfg = {"model": _linear_model(N), "Omega0": 1.2, "t_max": 10.0,
           "samples": 2048, "kT": 1.0, "seed": seed,
           "initial_state": {"kind": "thermal"}}
    cfg.update(extra)
    return cfg


def volterra(rng: random.Random) -> list[Invocation]:
    """`simulate` for N in {8, 12, 12} and `kernels` at N = 128.

    The Volterra reconstruction's time goes to `kernels.convolve_on_grid`,
    whose cost grows as N^2 * samples, so the grid is fine (16384 samples).
    `kernels` runs the same layer by evaluation.
    """
    out = []
    for N in (8, 12, 12):
        cfg = _base(N, rng.randrange(2**31), samples=VOLTERRA_SAMPLES,
                    truncations=[1, 2, 4, 8])
        out.append(Invocation(f"simulate-N{N}-{len(out)}", "simulate", cfg))
    out.append(Invocation("kernels-N128", "kernels",
                          _base(128, rng.randrange(2**31), samples=VOLTERRA_SAMPLES,
                                truncations=[1, 2, 4])))
    return out


def _chain_commands(rng, plans) -> list[Invocation]:
    """`build-chain`, `bound` and `min-modes` for each (N, truncations, min_modes)."""
    out = []
    for N, truncs, mm in plans:
        cfg = _base(N, rng.randrange(2**31), truncations=truncs)
        if mm is not None:
            cfg["min_modes"] = mm
        for command in ("build-chain", "bound", "min-modes"):
            out.append(Invocation(f"{command}-N{N}", command, cfg))
    return out


def long_chain(rng: random.Random) -> list[Invocation]:
    """`build-chain`, `bound` and `min-modes` at N = 1024 and N = 2048.

    The dense O(N^3) chain map and eigensolve dominate and `min-modes`
    scans the bounds over n; no convolution runs here.
    """
    return _chain_commands(rng, (
        (1024, [1, 4, 16, 32],
         {"times": [0.5, 2.0, 10.0], "tols": [1e-2, 1e-6, 1e-12]}),
        (2048, [1, 4, 16, 32], None),
    ))


def cli_small(rng: random.Random) -> list[Invocation]:
    """All six commands on an N = 8 config, for three seeds.

    Start-up (the lazy scipy import), CSV and sidecar writing, and the
    sweep's thread pool dominate here.
    """
    out = []
    for k in range(3):
        cfg = {"model": _linear_model(8), "Omega0": 1.2, "truncations": [1, 2, 4],
               "t_max": 6.0, "samples": 512, "kT": 1.0,
               "seed": rng.randrange(2**31),
               "initial_state": {"kind": "thermal"},
               "min_modes": {"times": [0.5, 1.0, 2.0], "tols": [1e-2, 1e-4, 1e-6]},
               "sweep": {"N": [4, 8, 16, 32], "n": [1, 2, 4], "kT": [0.1, 1.0, 10.0]}}
        for command in ("build-chain", "simulate", "kernels", "bound",
                        "min-modes", "sweep"):
            out.append(Invocation(f"{command}-s{k}", command, cfg))
    return out


def volterra_wide(rng: random.Random) -> list[Invocation]:
    """`simulate` for N in {8, 32, 64, 128} and `kernels` to order 128."""
    out = []
    for N in (8, 32, 64, 128):
        cfg = _base(N, rng.randrange(2**31), truncations=[1, 2, 4, 8])
        out.append(Invocation(f"simulate-N{N}", "simulate", cfg))
    orders = [2**k for k in range(8)]  # 1, 2, 4, ..., 128
    out.append(Invocation("kernels-N128", "kernels",
                          _base(128, rng.randrange(2**31), truncations=orders)))
    return out


def long_chain_deep(rng: random.Random) -> list[Invocation]:
    """`long_chain` with truncations to n = 256 and a deep `min-modes` scan."""
    return _chain_commands(rng, (
        (1024, [1, 4, 16, 64, 100, 256],
         {"times": [0.5, 2.0, 20.0], "tols": [1e-2, 1e-6, 1e-12]}),
        (2048, [1, 4, 16, 64], None),
    ))


WORKLOADS = {"volterra": volterra, "long-chain": long_chain, "cli-small": cli_small}
PROBES = {"volterra-wide": volterra_wide, "long-chain-deep": long_chain_deep}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The inputs of one pass of `workload`, a pure function of `seed`."""
    make = WORKLOADS.get(workload) or PROBES[workload]
    return make(random.Random(f"{workload}/{seed}"))
