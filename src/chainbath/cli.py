"""Command-line front end.

Subcommands: build-chain, simulate, kernels, bound, min-modes, sweep.
A JSON config describes the model, grids, temperature and seed; every
command hands named columns to one `write_csv` (UTF-8, LF, header row,
numbers with 17 significant digits so they round-trip bit-exactly; a name
given twice is one column) plus a sidecar `<out>.resolved.json` echoing the
fully resolved config, which reproduces the run when fed back as the config.
All randomness flows from the config seed through numpy SeedSequences, so
identical config+seed gives byte-identical CSVs.  Sweep wall-times go to
`<out>.timings.json`, the one deliberately non-deterministic output.

Each command builds only the part of the chain it reads: `build-chain` and
`simulate` the full Lanczos map, `bound` its rows up to the largest cut
below N (and the coefficients alone, by RKPW, for a cut at n = N),
`kernels` its first max(orders) rows, and `min-modes` the coefficients
alone.  `bound` takes the untruncated x(t) from the secular equation of
the independent-oscillator matrix, with no eigensolve.

Exit codes: 0 ok, 2 validation failure, 3 chain-construction breakdown,
4 unstable/complex-resolvent regime, 5 every sweep cell failed.  A
breakdown is reported only where it happens inside the part of the chain
the command builds: `min-modes` and `bound` with a cut at n = N check
every coupling, `bound` otherwise and `kernels` only the couplings among
the rows they build.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import bounds, dynamics, instances, kernels, solution, spectral
from .errors import (
    Breakdown,
    ChainBathError,
    ComplexResolvent,
    DegenerateResolvent,
    UnstableMode,
    check_index,
)

_DEFAULTS = {
    "Omega0": 1.0,
    "truncations": [1],
    "t_max": 10.0,
    "samples": 512,
    "kT": 1.0,
    "seed": 0,
    "initial_state": {"kind": "thermal"},
    "min_modes": {"times": [0.5, 1.0, 2.0], "tols": [1e-2, 1e-4, 1e-6]},
    "sweep": {"N": [4], "n": [1], "kT": [1.0]},
}


def fmt(x) -> str:
    """17-significant-digit decimal (round-trip exact for binary64)."""
    return f"{float(x):.17g}"


def write_csv(path, columns):
    """Write `columns`, an ordered mapping of header name to 1-D column, as
    one CSV table.  Numeric columns print as `fmt` does (integers below 2^53
    print as integers), text columns as they are."""
    cols = [np.asarray(col) for col in columns.values()]
    line = ",".join("%s" if col.dtype.kind in "US" else "%.17g" for col in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in zip(*(col.tolist() for col in cols), strict=True))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_sidecar(path, resolved, diagnostics=None):
    payload = {"resolved_config": resolved}
    if diagnostics:
        payload["diagnostics"] = diagnostics
    write_json(str(path) + ".resolved.json", payload)


def resolve_config(path, overrides) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if "resolved_config" in raw:  # a sidecar fed back in
        raw = raw["resolved_config"]
    cfg = json.loads(json.dumps(_DEFAULTS))
    cfg.update(raw)
    for key in ("seed", "samples"):
        if overrides.get(key) is not None:
            cfg[key] = overrides[key]
    if overrides.get("tmax") is not None:
        cfg["t_max"] = overrides["tmax"]
    if "model" not in cfg:
        raise ValueError("config must contain a 'model' section")
    return cfg


def build_model(cfg):
    """IOModel from an explicit or parametric model section."""
    m = cfg["model"]
    if "omega" in m:
        omega = np.asarray(m["omega"], dtype=float)
        c = np.asarray(m["c"], dtype=float)
    else:
        family = m.get("family", "linear")
        N = int(m["N"])
        if family == "linear":
            omega = instances.linear_spectrum(N, m["omega_min"], m["omega_max"])
            c = instances.coupling_profile(omega, m.get("c0", 0.5), m.get("power", 0.0))
        elif family == "geometric":
            omega = instances.geometric_spectrum(N, m["omega_min"], m["omega_max"])
            c = instances.coupling_profile(omega, m.get("c0", 0.5), m.get("power", 0.0))
        elif family == "random":
            rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
            io, _, _ = instances.random_io_model(
                rng, N,
                omega_range=tuple(m.get("omega_range", (0.5, 3.0))),
                c_range=tuple(m.get("c_range", (0.1, 1.0))),
                Omega0_range=(cfg["Omega0"], cfg["Omega0"]),
            )
            return io
        else:
            raise ValueError(f"unknown model family {family!r}")
    return spectral.build_io_model(omega, c, cfg["Omega0"])


def build_initial_state(cfg, io) -> dynamics.InitialState:
    section = cfg["initial_state"]
    if "q0" in section:
        return dynamics.InitialState(
            q0=np.asarray(section["q0"], dtype=float),
            qdot0=np.asarray(section["qdot0"], dtype=float),
            x0=float(section.get("x0", 0.0)),
            xdot0=float(section.get("xdot0", 0.0)),
        )
    kind = section.get("kind", "thermal")
    sub = np.random.SeedSequence(cfg["seed"]).spawn(2)[1]
    if kind == "thermal":
        return bounds.sample_thermal(io, bounds.ThermalState(cfg["kT"]), sub)
    if kind == "random":
        rng = np.random.default_rng(sub)
        return instances.random_initial_state(rng, io.N, scale=section.get("scale", 1.0))
    raise ValueError(f"unknown initial_state kind {kind!r}")


def time_grid(cfg) -> np.ndarray:
    samples = int(cfg["samples"])
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if cfg["t_max"] <= 0:
        raise ValueError("t_max must be positive")
    return np.linspace(0.0, float(cfg["t_max"]), samples)


def cmd_build_chain(cfg, out) -> int:
    io = build_model(cfg)
    chain, omap = spectral.chain_from_io(io)
    report = spectral.verify_equivalence(io, chain, omap)
    # the last mode has no outgoing coupling: D_N prints as 0
    write_csv(out, {"j": np.arange(1, chain.N + 1), "Omega_j": chain.Omega,
                    "D_j": np.append(chain.D, 0.0)})
    diag = {
        "D0": chain.D0,
        "orthogonality_residual": report.orthogonality,
        "tridiagonal_residual": report.tridiagonal_residual,
        "eigenvalue_mismatch": report.eigenvalue_mismatch,
        "passed": report.passed,
    }
    write_sidecar(out, cfg, diag)
    print(f"chain written to {out}: N={chain.N}, D0={fmt(chain.D0)}, "
          f"residuals (orth {report.orthogonality:.3e}, tri {report.tridiagonal_residual:.3e}, "
          f"eig {report.eigenvalue_mismatch:.3e}), passed={report.passed}")
    return 0


def cmd_simulate(cfg, out) -> int:
    io = build_model(cfg)
    chain, omap = spectral.chain_from_io(io)
    init = build_initial_state(cfg, io)
    times = time_grid(cfg)
    # the source reads positions only: no velocities
    full = dynamics.evolve_truncated(chain, chain.N, init, omap, times, velocities=False)
    params = solution.mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
    F = solution.source_term(chain, chain.N, full, init, omap)
    x_vol = solution.solve_volterra_closed(params, F, times)

    cols = {"t": times, "x_full": full.x}
    for n in (int(n) for n in cfg["truncations"]):
        cols[f"x_n{n}"] = _truncated_x(chain, n, init, omap, times, full.x)
    err = np.abs(full.x - x_vol)
    write_csv(out, {**cols, "x_volterra": x_vol, "abs_err_volterra": err})
    write_sidecar(out, cfg, {"max_volterra_error": float(err.max())})
    print(f"simulation written to {out}: max |x_full - x_volterra| = {err.max():.3e}")
    return 0


def cmd_kernels(cfg, out) -> int:
    io = build_model(cfg)
    orders = sorted({int(n) for n in cfg["truncations"]})
    for i in orders:
        check_index(i, io.N, "kernel order")
    top = max(orders, default=0)
    # K_top reads Omega_0..Omega_top: the first `top` chain rows
    chain, _ = spectral.chain_from_io(io, rows=max(top, 1))
    freqs = chain.mode_freqs
    times = time_grid(cfg)
    kernels.check_grid(times, 1.0, float(freqs[: top + 1].max()))
    # K_0 = sin(Omega_0 t), K_i = K_{i-1} * sin(Omega_i .): one grid convolution per order
    cols = {"tau": times}
    k = np.sin(freqs[0] * times)
    for i in range(top + 1):
        if i:
            k = kernels.convolve_on_grid([freqs[i]], [1.0], k, times)
        if i in orders:
            cols[f"K_{i}"] = k
    write_csv(out, cols)
    write_sidecar(out, cfg)
    print(f"kernel table written to {out}: orders {orders}")
    return 0


def _truncated_x(chain, n, init, omap, times, x_full):
    """x(t) cut after mode n; n = N, the bath size, is `x_full` itself, with
    no second eigensolve.  `chain` and `omap` may hold only the leading n
    modes."""
    return x_full if n == init.N else dynamics.evolve_truncated_x(chain, n, init, omap, times)


def _ratio(eps, bound):
    """eps/bound where the bound is positive, 0 where it vanishes."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(bound > 0, eps / np.where(bound > 0, bound, 1.0), 0.0)


def cmd_bound(cfg, out) -> int:
    io = build_model(cfg)
    # a repeated index names the same columns: compute it once
    truncations = list(dict.fromkeys(int(n) for n in cfg["truncations"]))
    for n in truncations:
        check_index(n, io.N, "truncation index")
    # a cut n < N reads the chain's first n rows; the cut n = N reads only
    # the coefficients, and its x_n is x_full, which needs no chain
    below = [n for n in truncations if n < io.N]
    chain, omap = spectral.chain_from_io(io, rows=max([1, *below]))
    full = spectral.chain_coefficients(io) if io.N in truncations else None
    init = build_initial_state(cfg, io)
    th = bounds.ThermalState(cfg["kT"])
    times = time_grid(cfg)
    x_full = dynamics.evolve_io_x(io, init, times)

    cols = {"t": times}
    max_ratio = 0.0
    for n in truncations:
        eps = np.abs(x_full - _truncated_x(chain, n, init, omap, times, x_full))
        cut = full if n == io.N else chain
        b_det = bounds.bound_deterministic(io, cut, n, times, init)
        ratio = _ratio(eps, b_det)
        max_ratio = max(max_ratio, float(ratio.max()))
        cols[f"eps_n{n}"] = eps
        cols[f"bound_det_n{n}"] = b_det
        cols[f"bound_thermal_n{n}"] = bounds.bound_thermal(io, cut, n, times, th)
        cols[f"ratio_n{n}"] = ratio
    write_csv(out, cols)
    write_sidecar(out, cfg, {"max_ratio": max_ratio})
    print(f"error report written to {out}: max eps/bound ratio = {max_ratio:.6g}")
    return 0


def cmd_min_modes(cfg, out) -> int:
    io = build_model(cfg)
    chain = spectral.chain_coefficients(io)
    th = bounds.ThermalState(cfg["kT"])
    ts = [float(t) for t in cfg["min_modes"]["times"]]
    tols = [float(v) for v in cfg["min_modes"]["tols"]]
    table = [[bounds.min_modes(io, chain, t, tol, th) for tol in tols] for t in ts]

    cols = {"t": ts}
    for j, tol in enumerate(tols):
        cols[f"n_tol_{fmt(tol)}"] = [line[j].n for line in table]
    write_csv(out, cols)

    monotone_t = all(
        table[i][j].n <= table[i + 1][j].n
        for j in range(len(tols)) for i in range(len(ts) - 1)
    ) if sorted(ts) == ts else True
    monotone_tol = all(
        table[i][j].n >= table[i][j + 1].n
        for i in range(len(ts)) for j in range(len(tols) - 1)
    ) if sorted(tols) == tols else True
    uncertified = sum(not cell.certified for line in table for cell in line)
    write_sidecar(out, cfg, {
        "monotone_in_t": monotone_t,
        "monotone_in_tol": monotone_tol,
        "uncertified_cells": uncertified,
    })
    flag = "" if (monotone_t and monotone_tol) else "  [NON-MONOTONE]"
    print(f"min-modes table written to {out}: {len(ts)}x{len(tols)} cells, "
          f"{uncertified} uncertified{flag}")
    return 0


_SWEEP_COLUMNS = ("N", "n", "kT", "max_eps", "max_ratio", "status", "error")


def _sweep_cell(args):
    """One sweep cell's `_SWEEP_COLUMNS` values, and its wall time."""
    N, n, kT, seed_seq, cfg = args
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(seed_seq)
        io, chain, omap = instances.random_io_model(rng, N)
        init = bounds.sample_thermal(io, bounds.ThermalState(kT), seed_seq.spawn(1)[0])
        wmax = float(io.omega.max())
        times = np.linspace(0.0, 3.0 / wmax, int(cfg["samples"]))
        cut = min(n, chain.N)
        x_full = dynamics.evolve_truncated_x(chain, chain.N, init, omap, times)
        eps = np.abs(x_full - _truncated_x(chain, cut, init, omap, times, x_full))
        b = bounds.bound_deterministic(io, chain, cut, times, init)
        ratio = float(np.max(_ratio(eps, b)))
        return (N, n, kT, float(eps.max()), ratio, "ok", ""), time.perf_counter() - t0
    except ChainBathError as exc:
        return (N, n, kT, np.nan, np.nan, "error", type(exc).__name__), time.perf_counter() - t0


def cmd_sweep(cfg, out) -> int:
    sw = cfg["sweep"]
    cells = sorted(
        (int(N), int(n), float(kT))
        for N in sw["N"] for n in sw["n"] for kT in sw["kT"]
    )
    seqs = np.random.SeedSequence(cfg["seed"]).spawn(len(cells))
    jobs = [(N, n, kT, seq, cfg) for (N, n, kT), seq in zip(cells, seqs)]
    results = [_sweep_cell(job) for job in jobs]

    cols = {name: [r[j] for r, _ in results] for j, name in enumerate(_SWEEP_COLUMNS)}
    write_csv(out, cols)
    write_json(str(out) + ".timings.json",
               {f"N{r[0]}_n{r[1]}_kT{fmt(r[2])}": dt for r, dt in results})
    ok = cols["status"].count("ok")
    write_sidecar(out, cfg, {"cells": len(cells), "failed": len(cells) - ok})
    print(f"sweep written to {out}: {ok}/{len(cells)} cells succeeded")
    return 0 if ok > 0 else 5


_COMMANDS = {
    "build-chain": cmd_build_chain,
    "simulate": cmd_simulate,
    "kernels": cmd_kernels,
    "bound": cmd_bound,
    "min-modes": cmd_min_modes,
    "sweep": cmd_sweep,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainbath",
        description="Bath-to-chain mapping, exact reduced dynamics, and "
                    "certified truncation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--samples", type=int, default=None, help="override sample count")
        p.add_argument("--tmax", type=float, default=None, help="override t_max")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, vars(args))
        return _COMMANDS[args.command](cfg, args.out)
    except Breakdown as exc:
        print(f"error: chain construction breakdown: {exc}", file=sys.stderr)
        return 3
    except (UnstableMode, ComplexResolvent, DegenerateResolvent) as exc:
        print(f"error: {type(exc).__name__}: {exc} "
              "(requires positive-definite dynamics and D0 < Omega0*Omega1)",
              file=sys.stderr)
        return 4
    except (ChainBathError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: invalid configuration or input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
