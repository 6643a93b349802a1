"""Command-line front end.

Commands: build-chain, simulate, kernels, bound, min-modes, sweep.  A
JSON config describes the model, grids, temperature and seed.  Each command
builds only the part of the chain it reads (README, Performance): none
builds a full map or runs an eigensolve at the bath's size.

Run protocol: a command returns its named columns, its diagnostics (or
none), a one-line summary and a verdict (none, or exit 5 or 6 with a
reason); `main` alone reports them.  It writes `<out>` through `write_csv`
(UTF-8, LF, header row, 17 significant digits, which round-trip; a name
given twice is one column; a block of rows at a time) and
`<out>.resolved.json`, the resolved config (the defaults filled in, down
to the keys a partial `min_modes` or `sweep` section leaves out; fed back
as the config, it reproduces the run) with the diagnostics, and prints the
summary as the one stdout line.  Every nonzero exit, on a bad
command line too, prints one stderr line `error: ...` and no traceback.
Identical config+seed gives byte-identical CSVs: all randomness flows from
the seed through numpy SeedSequences.  `sweep` runs each distinct cell
once; its cell wall times go to `<out>.timings.json`, the one file a
command writes itself and the one non-deterministic output.

Threads: a command runs BLAS and LAPACK on one thread.  Importing this
module sets `OPENBLAS_NUM_THREADS=1` unless the caller set it,
`GOTO_NUM_THREADS` or `OMP_NUM_THREADS`, or numpy is already loaded (the
library and such a process keep their threads).  Every product and
eigensolve here is small, at most a few hundred rows, so a second OpenBLAS
thread only spins between calls: it costs CPU time and saves no wall time.
With one thread the CSV bytes do not depend on the machine's core count.

Verdicts: `build-chain` writes `D0`, `eigenvalue_mismatch`,
`weight_mismatch` and `passed`, the certificate of
`spectral.certify_chain`.  `simulate` writes `max_volterra_error` and
`passed`, which holds when max|x_full - x_volterra| <= 1e-9 max|x_full|.
`bound` writes `max_ratio`, the largest eps/bound_det over the samples
whose eps is above EPS_FLOOR_ROUNDOFFS * u * max|x_full| (u the unit
roundoff; below it eps can be rounding alone) and whose bound_det is
finite, `samples_below_floor`, the count of the samples at or below the
floor, and `samples_vacuous`, of those above it whose bound_det is inf:
each sample is one of the three.  The CSV's `ratio_n*` columns keep every
sample.  A cut at n = N writes exactly 0 in its four columns and builds no
chain: the cut is the bath itself, so x_N is x_full and its bound is 0
(`bounds`).  `min-modes` finds an n, at most N, in every cell, so its
`uncertified_cells` reads 0 (the benchmark's checker requires the key).
`sweep`'s `max_ratio` reads above the same floor within its cell (0 where
n >= N), and a failed cell's `error` names its numerical failure:
`Breakdown`, `UnstableMode` or `ComplexResolvent`.
The `bound_*` columns hold a finite value or inf, never NaN, and inf only
where the bound is above float64's largest value; a `ratio_n*` sample is
inf only where a bound underflowed under a rounding-level eps.

Exit codes: 0 ok; 2 invalid input, before any output: a command line
the parser refuses, an unwritable `<out>`, a config value that
`resolve_config` refuses (it judges the whole config, whatever the command
reads, and names the key by its config path), or, built from keys each
within its range, a bath (`config.model`), a thermal draw (`config.kT`)
or a grid (`config.samples`) that float64 or the convolution cannot hold,
named by that path; 3 chain-construction breakdown,
reported only inside the part of the chain the command builds; 4
unstable/complex-resolvent regime; 5 every sweep cell failed numerically:
outputs written; 6 a numerical check failed: outputs written but not
certified (`build-chain` when its certificate fails, `simulate` when its
Volterra residual is above its bound).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# One BLAS thread (see the module docstring), set before numpy loads OpenBLAS
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(key in os.environ for key in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import bounds, dynamics, instances, kernels, solution, spectral
from .errors import Breakdown, ChainBathError, ComplexResolvent, UnstableMode

# `simulate` certifies its Volterra column only within this share of max|x_full|
VOLTERRA_RTOL = 1e-9
# `bound` and `sweep` read eps/bound only where eps = |x_full - x_n| exceeds
# EPS_FLOOR_ROUNDOFFS * u * max|x_full|, u the unit roundoff: the two routes
# to x agree to about 280 u max|x| at N = 2048 (README), so below that floor,
# with a margin of 3.7, eps can be rounding alone
EPS_FLOOR_ROUNDOFFS = 1024
# what a command's verdict, exit 5 or 6, says of the outputs `main` wrote
_WRITTEN = {5: "outputs written", 6: "outputs written but not certified"}
# Rows per block of `write_csv`: one block's values are Python objects at a time
CSV_ROWS = 1024

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
# By `model` family (None: an explicit model, one that gives `omega`) and by
# `initial_state` kind (None: explicit data, given `q0`): the keys it
# requires, and the JSON types of its keys, read as `_DEFAULTS` is; a tuple
# is a range, exactly as many numbers, in nondecreasing order
_FAMILIES = {
    None: (("c",), {"omega": [0.0], "c": [0.0]}),
    "linear": (("N", "omega_min", "omega_max"),
               {"N": 1, "omega_min": 0.0, "omega_max": 0.0, "c0": 0.0, "power": 0.0}),
    "random": (("N",), {"N": 1, "omega_range": (0.0, 0.0), "c_range": (0.0, 0.0)}),
}
_FAMILIES["geometric"] = _FAMILIES["linear"]
_KINDS = {None: (("qdot0",), {"q0": [0.0], "qdot0": [0.0], "x0": 0.0, "xdot0": 0.0}),
          "thermal": ((), {}), "random": ((), {"scale": 0.0})}
_POSITIVE = math.ulp(0.0)  # the least positive float: [_POSITIVE, hi] is (0, hi]
_FINITE = float(np.finfo(float).max)
_HUGE = spectral.SCALE[1]
_JSON_TYPES = {bool: "boolean", int: "number", float: "number", str: "string", list: "list",
               tuple: "list", dict: "object"}
# The closed interval [lo, hi] that holds each number, by config path ("[]"
# for every item of a list), and for a list its length; NaN lies in none.
# Each is what the library needs of the value, or the command that reads it:
# with every frequency within SCALE, each phase up to t_max is finite; the
# bound is even in t; a sweep cell cuts at min(n, N), so below N it reads at
# least one map row, and its bath has omega_k >= 0.5, so its thermal draw
# stays within SCALE.  The random family's Omega0 lies within instances.RANGE.
_RANGES = {
    "Omega0": spectral.SCALE, "t_max": (_POSITIVE, _HUGE), "kT": (_POSITIVE, _FINITE),
    "samples": (2, math.inf), "seed": (0, math.inf), "truncations[]": (0, math.inf),
    "min_modes.times[]": (0.0, _FINITE), "min_modes.tols[]": (_POSITIVE, _FINITE),
    # a list at least 1 long, or an integer >= 1
    **dict.fromkeys(("sweep.N", "sweep.n", "sweep.kT", "sweep.N[]", "sweep.n[]", "model.N",
                     "model.omega"), (1, math.inf)),
    "sweep.kT[]": (_POSITIVE, _HUGE),
    "model.omega_min": spectral.SCALE, "model.omega_max": spectral.SCALE,
    "model.c0": (_POSITIVE, _HUGE), "model.power": (-_FINITE, _FINITE),
    "model.omega_range[]": instances.RANGE, "model.c_range[]": instances.RANGE,
    "model.omega[]": spectral.SCALE, "model.c[]": (_POSITIVE, _HUGE),
    "initial_state.scale": (0.0, _HUGE),
    **dict.fromkeys(("initial_state.q0[]", "initial_state.qdot0[]", "initial_state.x0",
                     "initial_state.xdot0"), (-_HUGE, _HUGE)),
}


def fmt(x) -> str:
    """17-significant-digit decimal (round-trip exact for binary64)."""
    return f"{float(x):.17g}"


def write_csv(path, columns):
    """Write `columns`, an ordered mapping of header name to 1-D column, as
    one CSV table, CSV_ROWS rows at a time.  Numeric columns print as `fmt`
    does (integers below 2^53 print as integers), text columns as they are."""
    cols = [np.asarray(col) for col in columns.values()]
    line = ",".join("%s" if col.dtype.kind in "US" else "%.17g" for col in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, max(map(len, cols), default=0), CSV_ROWS):
            block = (col[start:start + CSV_ROWS].tolist() for col in cols)
            fh.writelines(line % row for row in zip(*block, strict=True))


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
    """The run config: the JSON object at `path` (or a sidecar's
    `resolved_config`) over `_DEFAULTS`, a partial `min_modes` or `sweep`
    section filled from them, with the command line's `overrides`.

    The one place that refuses a config value, whatever the command reads:
    a ValueError names the first key refused by its config path.  The
    config must be an object with a `model`; `model.family` and
    `initial_state.kind` must be known, with every key they require
    (`_FAMILIES`, `_KINDS`); each value must have its default's JSON type
    (`_check_types`) and each number, and each list's length, lie within
    its `_RANGES` interval.  An explicit model gives as many couplings as
    frequencies, and the random family's `Omega0` lies within
    `instances.RANGE`.  Only the bath's size is checked later, by the
    command that reads the key: each truncation is at most N, and an
    explicit `q0` and `qdot0` hold N entries."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "resolved_config" in raw:  # a sidecar fed back in
        raw = raw["resolved_config"]
    _check_types(raw, {}, "config", "")
    cfg = json.loads(json.dumps(_DEFAULTS))
    for key in ("min_modes", "sweep"):  # the defaults fill a partial section
        if isinstance(raw.get(key), dict):
            cfg[key].update(raw.pop(key))
    cfg.update(raw)
    for key, flag in (("seed", "seed"), ("samples", "samples"), ("t_max", "tmax")):
        if overrides.get(flag) is not None:
            cfg[key] = overrides[flag]
    if "model" not in cfg:
        raise ValueError("config.model is required")
    _check_types(cfg, {**_DEFAULTS, "model": {"family": ""}}, "config", "")
    model, state = cfg["model"], cfg["initial_state"]
    family = None if "omega" in model else model.get("family", "linear")
    kind = None if "q0" in state else state.get("kind", "thermal")
    for key, section, selector, choice, tables in (("model", model, "family", family, _FAMILIES),
                                                   ("initial_state", state, "kind", kind, _KINDS)):
        if choice not in tables:
            known = ", ".join(sorted(name for name in tables if name))
            raise ValueError(f"config.{key}.{selector} must be one of {known}, "
                             f"not {json.dumps(choice)}")
        required, types = tables[choice]
        for name in required:
            if name not in section:
                raise ValueError(f"config.{key}.{name} is required")
        _check_types(section, types, f"config.{key}", key)
    if family is None:
        _check_range(model["c"], len(model["omega"]), len(model["omega"]), "config.model.c")
    if family == "random":
        _check_range(cfg["Omega0"], *instances.RANGE, "config.Omega0")
    return cfg


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), "null")


def _check_types(value, default, name, key):
    """ValueError naming `name` where `value` has another JSON type than its
    `default`, or lies outside the `_RANGES` interval of its path `key`:
    objects stay objects (keys with no default pass), lists stay lists,
    each item typed as the default's first, a tuple default a range
    (exactly its length, lo <= hi), numbers stay numbers, and integers (a
    default that is an int) stay integers."""
    if _json_type(value) != _json_type(default):
        raise ValueError(f"{name} must be a JSON {_json_type(default)}, not {json.dumps(value)}")
    if isinstance(default, int) and isinstance(value, float):
        raise ValueError(f"{name} must be an integer, not {json.dumps(value)}")
    if isinstance(default, dict):
        for sub in default:
            if sub in value:
                _check_types(value[sub], default[sub], f"{name}.{sub}",
                             f"{key}.{sub}" if key else sub)
    elif isinstance(default, (list, tuple)):
        for i, item in enumerate(value):
            _check_types(item, default[0], f"{name}[{i}]", f"{key}[]")
        if isinstance(default, tuple) and (len(value) != len(default) or value != sorted(value)):
            raise ValueError(f"{name} must hold {len(default)} numbers lo <= hi, "
                             f"not {json.dumps(value)}")
    if key in _RANGES:
        _check_range(value, *_RANGES[key], name)


def _check_range(value, lo, hi, name):
    """ValueError naming `name` unless lo <= value <= hi, or for a list
    lo <= its length <= hi (NaN fails every comparison)."""
    size, what = (len(value), "have a length") if isinstance(value, list) else (value, "lie")
    if not lo <= size <= hi:
        raise ValueError(f"{name} must {what} within [{lo:.3g}, {hi:.3g}], not {json.dumps(size)}")


def _given(section, *keys) -> dict:
    """The entries of `section` under `keys` that the config gives: the
    callee's own defaults fill the others."""
    return {key: section[key] for key in keys if key in section}


def _naming(path, build, *args, **kwargs):
    """build(*args, **kwargs), re-raising its ValueError prefixed with the
    config `path` it was built from: a bath, thermal draw or grid that
    float64 or the convolution cannot hold though each key lies within its
    range."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def build_model(cfg):
    """IOModel from the explicit or parametric model section of a resolved
    config; a bath whose spectrum does not increase, or that float64 cannot
    hold, is refused as `config.model`."""
    m = cfg["model"]
    family = m.get("family", "linear")
    if "omega" in m:
        omega, c = np.asarray(m["omega"], dtype=float), np.asarray(m["c"], dtype=float)
    elif family == "random":
        rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
        return _naming("config.model", instances.random_io_model, rng, m["N"],
                       **_given(m, "omega_range", "c_range"), Omega0_range=(cfg["Omega0"],) * 2)
    else:
        spectrum = {"linear": instances.linear_spectrum,
                    "geometric": instances.geometric_spectrum}[family]
        omega = spectrum(m["N"], m["omega_min"], m["omega_max"])
        c = instances.coupling_profile(omega, m.get("c0", 0.5), **_given(m, "power"))
    return _naming("config.model", spectral.build_io_model, omega, c, cfg["Omega0"])


def build_initial_state(cfg, io) -> dynamics.InitialState:
    """The initial state of a resolved config on the bath `io`: explicit
    data must hold one entry per bath mode, and a thermal draw that float64
    cannot hold is refused as `config.kT`."""
    section = cfg["initial_state"]
    if "q0" in section:
        for key in ("q0", "qdot0"):
            _check_range(section[key], io.N, io.N, f"config.initial_state.{key}")
        return dynamics.InitialState(
            q0=np.asarray(section["q0"], dtype=float),
            qdot0=np.asarray(section["qdot0"], dtype=float),
            **{key: float(value) for key, value in _given(section, "x0", "xdot0").items()})
    sub = np.random.SeedSequence(cfg["seed"]).spawn(2)[1]
    if section.get("kind", "thermal") == "thermal":
        return _naming("config.kT", bounds.sample_thermal, io, bounds.ThermalState(cfg["kT"]), sub)
    rng = np.random.default_rng(sub)
    return instances.random_initial_state(rng, io.N, **_given(section, "scale"))


def cmd_build_chain(cfg, out):
    io = build_model(cfg)
    chain = spectral.chain_coefficients(io)
    report = spectral.certify_chain(io, chain)
    diag = {"D0": chain.D0, "eigenvalue_mismatch": report.eigenvalue_mismatch,
            "weight_mismatch": report.weight_mismatch, "passed": report.passed}
    summary = (f"chain written to {out}: N={chain.N}, D0={fmt(chain.D0)}, mismatch "
               f"(eig {report.eigenvalue_mismatch:.3e}, weight {report.weight_mismatch:.3e}), "
               f"passed={report.passed}")
    verdict = None if report.passed else (
        6, f"equivalence check failed ({', '.join(report.failed)})")
    # the last mode has no outgoing coupling: D_N prints as 0
    return ({"j": np.arange(1, chain.N + 1), "Omega_j": chain.Omega,
             "D_j": np.append(chain.D, 0.0)}, diag, summary, verdict)


def _truncations(cfg, N):
    """The cut indices, each at most N and given once (one name, one
    column), and those below N."""
    for i, n in enumerate(cfg["truncations"]):
        _check_range(n, 0, N, f"config.truncations[{i}]")
    truncations = list(dict.fromkeys(cfg["truncations"]))
    return truncations, [n for n in truncations if n < N]


def cmd_simulate(cfg, out):
    io = build_model(cfg)
    truncations, below = _truncations(cfg, io.N)
    # the level-1 source reads Omega_1, D_1 and X_2; a cut, its own rows
    chain, O = spectral.chain_from_io(io, rows=min(io.N, max([2, *below])))
    init = build_initial_state(cfg, io)
    times = np.linspace(0.0, float(cfg["t_max"]), cfg["samples"])
    x_full, *X_2 = dynamics.evolve_io_modes(io, init, O[1:2], times)
    params = solution.mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
    # the grid gate reads the rows built and the resolvent's top frequency
    _naming("config.samples", kernels.check_grid, times,
            max(float(chain.mode_freqs.max()), params.mu1))
    F = solution.volterra_source(chain, init, O, times, *X_2)
    x_vol = solution.solve_volterra_closed(params, F, times)

    cols = {"t": times, "x_full": x_full}
    for n in truncations:
        # n = N, the bath size, is x_full itself, with no second eigensolve
        cols[f"x_n{n}"] = (x_full if n == io.N
                           else dynamics.evolve_truncated_x(chain, n, init, O, times))
    err = np.abs(x_full - x_vol)
    bound = VOLTERRA_RTOL * float(np.abs(x_full).max())
    passed = bool(err.max() <= bound)
    verdict = None if passed else (6, f"max_volterra_error {err.max():.3e} exceeds "
                                      f"{VOLTERRA_RTOL:g} * max|x_full| ({bound:.3e})")
    return ({**cols, "x_volterra": x_vol, "abs_err_volterra": err},
            {"max_volterra_error": float(err.max()), "passed": passed},
            f"simulation written to {out}: max |x_full - x_volterra| = {err.max():.3e}", verdict)


def cmd_kernels(cfg, out):
    io = build_model(cfg)
    orders = sorted(_truncations(cfg, io.N)[0])
    top = max(orders, default=0)
    # K_top reads Omega_0..Omega_top: the first `top` chain rows
    chain, _ = spectral.chain_from_io(io, rows=max(top, 1))
    freqs = chain.mode_freqs
    times = np.linspace(0.0, float(cfg["t_max"]), cfg["samples"])
    _naming("config.samples", kernels.check_grid, times, float(freqs[: top + 1].max()))
    # K_0 = sin(Omega_0 t), K_i = K_{i-1} * sin(Omega_i .): one grid convolution per order
    cols = {"tau": times}
    k = np.sin(freqs[0] * times)
    for i in range(top + 1):
        if i:
            k = kernels.convolve_on_grid(freqs[i], k, times)
        if i in orders:
            cols[f"K_{i}"] = k
    return cols, None, f"kernel table written to {out}: orders {orders}", None


def _ratio(eps, bound):
    """eps/bound where the bound is positive, 0 where it vanishes; inf where
    a rounding-level eps sits over a bound that underflowed."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return np.where(bound > 0, eps / np.where(bound > 0, bound, 1.0), 0.0)


def _cut_route(io, init, times, truncations):
    """The rounding floor of eps, the Lanczos rows of the largest cut below
    N (at least one; None if no cut is below N) and, per cut n, (n, eps,
    bound_det, ratio) with eps = |x_full - x_n|, x_full from the secular
    equation.  n = N is the bath itself: x_N is x_full and the library's
    bound is exactly 0, so its columns are exactly 0 and it builds no chain."""
    below = [n for n in truncations if n < io.N]
    chain, O = spectral.chain_from_io(io, rows=max(1, *below)) if below else (None, None)
    x_full = dynamics.evolve_io_x(io, init, times)
    floor = EPS_FLOOR_ROUNDOFFS * (np.finfo(float).eps / 2) * float(np.abs(x_full).max())
    cuts = []
    for n in truncations:
        x_n = x_full if n == io.N else dynamics.evolve_truncated_x(chain, n, init, O, times)
        eps = np.abs(x_full - x_n)
        b_det = bounds.bound_deterministic(io, chain, n, times, init)
        cuts.append((n, eps, b_det, _ratio(eps, b_det)))
    return floor, chain, cuts


def _above_floor(floor, cuts):
    """Over the samples of `_cut_route`'s cuts: the largest ratio where eps
    > floor and the bound is finite, the count of samples whose eps is at
    or below the floor (rounding alone can make it), and the count of those
    above it whose bound is inf (vacuous).  Neither of those two kinds says
    anything about the bound."""
    max_ratio, below_floor, vacuous = 0.0, 0, 0
    for _, eps, b_det, ratio in cuts:
        above = eps > floor
        inf = above & np.isinf(b_det)
        max_ratio = max(max_ratio, float(ratio[above & ~inf].max(initial=0.0)))
        below_floor += int(above.size - np.count_nonzero(above))
        vacuous += int(np.count_nonzero(inf))
    return max_ratio, below_floor, vacuous


def cmd_bound(cfg, out):
    io = build_model(cfg)
    truncations, _ = _truncations(cfg, io.N)
    init = build_initial_state(cfg, io)
    th = bounds.ThermalState(cfg["kT"])
    times = np.linspace(0.0, float(cfg["t_max"]), cfg["samples"])

    cols = {"t": times}
    floor, chain, cuts = _cut_route(io, init, times, truncations)
    for n, eps, b_det, ratio in cuts:
        cols[f"eps_n{n}"] = eps
        cols[f"bound_det_n{n}"] = b_det
        cols[f"bound_thermal_n{n}"] = bounds.bound_thermal(io, chain, n, times, th)
        cols[f"ratio_n{n}"] = ratio
    max_ratio, below_floor, vacuous = _above_floor(floor, cuts)
    return (cols, {"max_ratio": max_ratio, "samples_below_floor": below_floor,
                   "samples_vacuous": vacuous},
            f"error report written to {out}: max eps/bound ratio = {max_ratio:.6g} "
            f"({below_floor} samples below the rounding floor, {vacuous} with a vacuous bound)",
            None)


def _nondecreasing(values, keys):
    """Whether `values` never decrease as their `keys` increase."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return all(values[i] <= values[j] for i, j in zip(order, order[1:]))


def cmd_min_modes(cfg, out):
    io = build_model(cfg)
    chain = spectral.chain_coefficients(io)
    th = bounds.ThermalState(cfg["kT"])
    ts = [float(t) for t in cfg["min_modes"]["times"]]
    tols = [float(v) for v in cfg["min_modes"]["tols"]]
    table = [[bounds.min_modes(io, chain, t, tol, th) for tol in tols] for t in ts]

    cols = {"t": ts}
    for j, tol in enumerate(tols):
        cols[f"n_tol_{fmt(tol)}"] = [line[j] for line in table]
    monotone_t = all(_nondecreasing([line[j] for line in table], ts) for j in range(len(tols)))
    monotone_tol = all(_nondecreasing([-n for n in line], tols) for line in table)
    flag = "" if (monotone_t and monotone_tol) else "  [NON-MONOTONE]"
    # every cell finds its n (the module docstring): the key stays for the
    # benchmark's checker
    return (cols, {"monotone_in_t": monotone_t, "monotone_in_tol": monotone_tol,
                   "uncertified_cells": 0},
            f"min-modes table written to {out}: {len(ts)}x{len(tols)} cells{flag}", None)


_SWEEP_COLUMNS = ("N", "n", "kT", "max_eps", "max_ratio", "status", "error")


def _sweep_cell(N, n, kT, seed_seq, samples):
    """One sweep cell's `_SWEEP_COLUMNS` values, and its wall time: `bound`'s
    route at the one cut min(n, N), on a random bath and a thermal draw."""
    t0 = time.perf_counter()
    try:
        io = instances.random_io_model(np.random.default_rng(seed_seq), N)
        # the first child `seed_seq.spawn(1)` would give, without advancing
        # seed_seq: a cell is a pure function of its job
        child = np.random.SeedSequence(seed_seq.entropy, spawn_key=seed_seq.spawn_key + (0,))
        init = bounds.sample_thermal(io, bounds.ThermalState(kT), child)
        times = np.linspace(0.0, 3.0 / float(io.omega.max()), samples)
        floor, _, cuts = _cut_route(io, init, times, [min(n, N)])
        max_ratio, eps = _above_floor(floor, cuts)[0], cuts[0][1]
        return (N, n, kT, float(eps.max()), max_ratio, "ok", ""), time.perf_counter() - t0
    except ChainBathError as exc:
        return (N, n, kT, np.nan, np.nan, "error", type(exc).__name__), time.perf_counter() - t0


def cmd_sweep(cfg, out):
    sw = cfg["sweep"]
    # a cell given twice is one cell
    cells = sorted({(N, n, float(kT)) for N in sw["N"] for n in sw["n"] for kT in sw["kT"]})
    seqs = np.random.SeedSequence(cfg["seed"]).spawn(len(cells))
    results = [_sweep_cell(N, n, kT, seq, cfg["samples"]) for (N, n, kT), seq in zip(cells, seqs)]
    write_json(str(out) + ".timings.json",
               {f"N{r[0]}_n{r[1]}_kT{fmt(r[2])}": dt for r, dt in results})

    cols = {name: [r[j] for r, _ in results] for j, name in enumerate(_SWEEP_COLUMNS)}
    ok = cols["status"].count("ok")
    failed = ", ".join(sorted(set(cols["error"])))
    verdict = None if ok else (5, f"every sweep cell failed ({failed})")
    return (cols, {"cells": len(cells), "failed": len(cells) - ok},
            f"sweep written to {out}: {ok}/{len(cells)} cells succeeded", verdict)


_COMMANDS = {
    "build-chain": cmd_build_chain,
    "simulate": cmd_simulate,
    "kernels": cmd_kernels,
    "bound": cmd_bound,
    "min-modes": cmd_min_modes,
    "sweep": cmd_sweep,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` prints it as one line and exits 2
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainbath",
        description="Bath-to-chain mapping, exact reduced dynamics, and "
                    "certified truncation bounds.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--samples", type=int, default=None, help="override sample count")
    parser.add_argument("--tmax", type=float, default=None, help="override t_max")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = resolve_config(args.config, vars(args))
        columns, diagnostics, summary, verdict = _COMMANDS[args.command](cfg, args.out)
        write_csv(args.out, columns)
        write_sidecar(args.out, cfg, diagnostics)
    except Breakdown as exc:
        print(f"error: chain construction breakdown: {exc}", file=sys.stderr)
        return 3
    except (UnstableMode, ComplexResolvent) as exc:
        print(f"error: {type(exc).__name__}: {exc} "
              "(requires positive-definite dynamics and D0 < Omega0*Omega1)",
              file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: invalid configuration or input: {exc}", file=sys.stderr)
        return 2
    print(summary)
    if verdict is None:
        return 0
    code, reason = verdict
    print(f"error: {reason}; {_WRITTEN[code]}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
