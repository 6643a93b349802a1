"""CLI fuzz properties.

Every config, valid or not, ends in a documented exit.  Each example runs
one command in process through `cli.main` on a generated config: small
baths (N <= 8, sweep N <= 16, at most 64 samples) whose values mix
in-regime numbers with negative ones, zeros, magnitudes from 1e-300 to
1e300, wrong list lengths and empty lists.  pytest turns every numpy
`RuntimeWarning` into an error, so a warning fails the property as a
traceback does.  An exit 2 names a `config.` path: the key refused, or
the keys a bath or thermal draw was built from where float64 cannot hold
it; a value refused for its range lies outside the interval the line
prints.  Exits 2, 3 and 4 leave no output file; exits 0, 5 and 6 leave
the CSV, its sidecar and its timings.

Every `kernels` exit 0 is accurate: on random in-regime baths, each K_i it
certifies, on the grid asked for or on a refined one, lies within 2e-9
max|K_i| (twice its tolerance) plus 1e-13 max|K_i| (rounding) of an
80-digit Taylor series.

Every trajectory column that `simulate` and `bound` write is accurate: on
spread, clustered and strongly coupled baths of up to 48 modes, `x_full`,
each `x_n`, and `bound`'s `eps_n` lie within 1e-11 max|x| of the dense
routes of `tests/oracles.py`, and a certified `x_volterra` within its
1e-9 max|x| tolerance plus that.
"""

import collections
import contextlib
import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbath import spectral
from chainbath.cli import (
    _COMMANDS,
    CONVOLUTION_RTOL,
    build_initial_state,
    build_model,
    main,
    resolve_config,
)
from chainbath.spectral import chain_from_io
from tests.conftest import assert_outside_printed_interval
from tests.oracles import evolve_io, evolve_truncated, kernel_series_mp

MAGNITUDES = st.integers(-300, 300).map(lambda e: 10.0 ** e)
# an extreme or invalid number: a magnitude from 1e-300 to 1e300 of either
# sign, or zero
BAD_NUMBERS = st.one_of(MAGNITUDES, MAGNITUDES.map(lambda x: -x), st.just(0.0))


def mostly(valid, bad=BAD_NUMBERS):
    """`valid`, or `bad` for one of the eight values of a draw: most
    examples get deep into a command with one or two odd values."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 3 else valid)


def numbers(lo, hi):
    return mostly(st.floats(lo, hi))


def lists(item, min_size=0, max_size=3):
    """Lists of `item`, sometimes empty or of extreme numbers."""
    return mostly(st.lists(item, min_size=min_size, max_size=max_size),
                  st.lists(BAD_NUMBERS, max_size=3))


def pair(lo, hi):
    """A range [a, b] with lo <= a < b <= hi, or a list of another length or
    of extreme numbers."""
    return mostly(st.tuples(st.floats(lo, (lo + hi) / 2), st.floats((lo + hi) / 2 + 0.1, hi))
                  .map(list), st.lists(BAD_NUMBERS, max_size=3))


SIZES = mostly(st.integers(1, 8), st.integers(-1, 0))
MODELS = st.one_of(
    st.fixed_dictionaries(
        {"family": st.sampled_from(["linear", "geometric"]), "N": SIZES,
         "omega_min": numbers(0.5, 1.0), "omega_max": numbers(1.5, 3.0),
         "c0": numbers(0.01, 0.3)},
        optional={"power": numbers(-1.0, 1.0)}),
    st.fixed_dictionaries({"family": st.just("random"), "N": SIZES},
                          optional={"omega_range": pair(0.5, 3.0), "c_range": pair(0.01, 1.0)}),
    st.integers(1, 8).flatmap(lambda N: st.fixed_dictionaries(
        {"omega": lists(numbers(0.5, 3.0), N, N).map(sorted),
         "c": lists(numbers(0.01, 0.3), N, N)})),
)
STATES = st.one_of(
    st.just({"kind": "thermal"}),
    st.fixed_dictionaries({"kind": st.just("random"), "scale": numbers(0.1, 2.0)}),
)
CONFIGS = st.fixed_dictionaries(
    {"model": MODELS, "samples": mostly(st.integers(32, 64), st.integers(0, 31))},
    optional={
        "Omega0": numbers(1.0, 3.0),
        "truncations": lists(mostly(st.integers(0, 8), st.integers(-1, 9))),
        "t_max": numbers(0.05, 0.5),
        "kT": numbers(0.1, 10.0),
        "seed": st.integers(0, 2**32 - 1),
        "initial_state": STATES,
        "min_modes": st.fixed_dictionaries({"times": lists(numbers(0.0, 5.0)),
                                            "tols": lists(numbers(1e-8, 0.1))}),
        "sweep": st.fixed_dictionaries({"N": lists(mostly(st.integers(1, 16),
                                                          st.integers(-1, 0)), max_size=2),
                                        "n": lists(mostly(st.integers(1, 16), st.integers(-1, 0)),
                                                   max_size=2),
                                        "kT": lists(numbers(0.1, 10.0), max_size=2)}),
    },
)


def run(command, cfg, tmp):
    """(exit code, stdout, stderr) of one in-process run; the CSV at tmp/o.csv."""
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    for stale in tmp.glob("o.csv*"):
        stale.unlink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(tmp / "o.csv")])
    return code, out.getvalue(), err.getvalue()


def check_csv(path):
    """Every number finite, but for inf in the bound and ratio columns and
    NaN in a sweep cell whose status is error."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    for row in rows:
        assert len(row) == len(header)
        cells = dict(zip(header, row))
        for name, text in cells.items():
            if name in ("status", "error"):
                continue
            value = float(text)
            if math.isinf(value):
                assert name.startswith(("bound_", "ratio_")), (name, text)
            elif math.isnan(value):
                assert cells.get("status") == "error" and name in ("max_eps", "max_ratio")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_COMMANDS)), cfg=CONFIGS)
def test_every_config_ends_in_a_documented_exit(tmp_path_factory, command, cfg):
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    code, out, err = run(command, cfg, tmp)
    assert code in (0, 2, 3, 4, 5, 6)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        if code == 2:
            assert " config." in err, err
            assert_outside_printed_interval(err)
    else:
        assert err == ""
        check_csv(tmp / "o.csv")
    # a run that wrote its outputs says so in one stdout line
    assert out.count("\n") == (code in (0, 5, 6))
    written = {path.name for path in tmp.glob("o.csv*")}
    if code in (0, 5, 6):
        assert {"o.csv", "o.csv.resolved.json", "o.csv.timings.json"} <= written, written
    else:
        assert not written, written


@st.composite
def kernel_configs(draw):
    """An explicit bath of N <= 16 modes in [0.2, 3], at least 0.01 apart, with
    sum c_k^2/omega_k^2 <= 0.81 Omega0^2 (in the regime), one to four
    orders up to 16, 64 to 2048 samples (log-uniform by octave) and t_max
    up to 10."""
    N = draw(st.integers(1, 16))
    omega = [0.2 + k / 100 for k in sorted(draw(st.lists(st.integers(0, 280), min_size=N,
                                                          max_size=N, unique=True)))]
    Omega0 = draw(st.floats(0.5, 3.0))
    c = [draw(st.floats(0.01, 0.9)) * w * Omega0 / math.sqrt(N) for w in omega]
    return {"model": {"omega": omega, "c": c}, "Omega0": Omega0,
            "truncations": draw(st.lists(st.integers(0, N), min_size=1, max_size=4, unique=True)),
            "samples": draw(st.integers(6, 10).flatmap(lambda e: st.integers(2**e, 2**(e + 1)))),
            "t_max": draw(st.floats(0.5, 10.0))}


def test_every_kernels_exit_0_is_accurate(tmp_path):
    # on 17 samples of each table, the last among them; both exits are
    # met, some exit 0 comes from a refined grid, and some certifies an
    # order of 8 or more out to t >= 5.  Refinement makes exit 6 rare here
    # (3 to 8 of the 150 draws, which vary with the numeric literals of the
    # modules loaded before)
    codes = collections.Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cfg=kernel_configs())
    def check(cfg):
        code, _, _ = run("kernels", cfg, tmp_path)
        codes[code] += 1
        assert code in (0, 6)
        if code:
            return
        conf = resolve_config(tmp_path / "cfg.json", {})
        orders = sorted(conf["truncations"])
        chain, _ = chain_from_io(build_model(conf), rows=max(orders + [1]))
        data = np.loadtxt(tmp_path / "o.csv", delimiter=",", skiprows=1, ndmin=2)
        rows = np.linspace(0, len(data) - 1, 17).astype(int)
        for j, i in enumerate(orders, start=1):
            scale = np.abs(data[:, j]).max()
            ref = kernel_series_mp(chain.mode_freqs[: i + 1], data[rows, 0])
            assert np.abs(data[rows, j] - ref).max() <= (2 * CONVOLUTION_RTOL + 1e-13) * scale, i
        codes["deep"] += orders[-1] >= 8 and conf["t_max"] >= 5
        diag = json.loads((tmp_path / "o.csv.resolved.json").read_text())["diagnostics"]
        codes["refined"] += diag["grid_samples"] > conf["samples"]

    check()
    assert codes[0] >= 50 and codes[6] >= 1 and codes["refined"] >= 10, codes
    assert codes["deep"] >= 2, codes


BATH_KINDS = ("spread", "clustered", "strong")


@st.composite
def trajectory_configs(draw):
    """(kind, config): an explicit bath of N <= 48 modes of one of
    BATH_KINDS, a thermal or random state, t_max up to 100, 256 to 4096
    samples (log-uniform by octave) and one to three cuts in [0, N].
    Spread frequencies lie in [0.2, 3], at least 0.01 apart; clustered ones
    in up to four clusters 1e-9 to 1e-3 wide; both couple within the regime
    (sum c_k^2/omega_k^2 <= 0.81 Omega0^2).  A strong bath takes spread
    frequencies and c_k in [1.5, 3], with Omega0 1.001 times the least
    value that meets both regime limits, sum c_k^2/omega_k^2 < Omega0^2 and
    D0 < Omega0 Omega1."""
    kind = draw(st.sampled_from(BATH_KINDS))
    N = draw(st.integers(1, 48))
    if kind == "clustered":
        m = draw(st.integers(1, min(4, N)))
        centres = sorted(draw(st.lists(st.integers(0, 28), min_size=m, max_size=m, unique=True)))
        width = 10.0 ** draw(st.floats(-9.0, -3.0))
        sizes = [len(range(j, N, m)) for j in range(m)]
        omega = [0.2 + k / 10 + width * i / max(size - 1, 1)
                 for k, size in zip(centres, sizes) for i in range(size)]
    else:
        omega = [0.2 + k / 100 for k in sorted(draw(st.lists(st.integers(0, 280), min_size=N,
                                                              max_size=N, unique=True)))]
    if kind == "strong":
        c = draw(st.lists(st.floats(1.5, 3.0), min_size=N, max_size=N))
        c2 = np.square(c)
        Omega0 = 1.001 * max(math.sqrt(np.sum(c2 / np.square(omega))),
                             np.sum(c2) / math.sqrt(np.sum(c2 * np.square(omega))))
    else:
        Omega0 = draw(st.floats(0.5, 3.0))
        c = [draw(st.floats(0.01, 0.9)) * w * Omega0 / math.sqrt(N) for w in omega]
    state = draw(st.one_of(st.just({"kind": "thermal"}), st.fixed_dictionaries(
        {"kind": st.just("random"), "scale": st.floats(0.1, 2.0)})))
    return kind, {
        "model": {"omega": omega, "c": [float(v) for v in c]}, "Omega0": float(Omega0),
        "initial_state": state, "seed": draw(st.integers(0, 2**32 - 1)),
        "truncations": draw(st.lists(st.integers(0, N), min_size=1, max_size=3, unique=True)),
        "samples": draw(st.integers(8, 11).flatmap(lambda e: st.integers(2**e, 2**(e + 1)))),
        "t_max": draw(st.floats(1.0, 100.0))}


def read_table(path):
    """The CSV's columns by name, as float arrays."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, data.T))


def test_every_trajectory_column_is_accurate(tmp_path, monkeypatch):
    # each run that writes its CSV (exit 0 or 6) is checked against the
    # dense routes: x_full against the bath's, each x_n against the cut on
    # the map the run built (n = N: the bath's), eps_n against their
    # difference; and every bath kind writes some CSV
    maps = []
    monkeypatch.setattr(spectral, "chain_from_io",
                        lambda io, rows=None: maps.append(chain_from_io(io, rows)) or maps[-1])
    written = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn=trajectory_configs())
    def check(drawn):
        kind, cfg = drawn
        for command in ("simulate", "bound"):
            maps.clear()
            code, _, _ = run(command, cfg, tmp_path)
            assert code in (0, 3, 4, 6), code
            if code not in (0, 6):
                continue
            written[kind] += 1
            conf = resolve_config(tmp_path / "cfg.json", {})
            io = build_model(conf)
            init = build_initial_state(conf, io)
            times = np.linspace(0.0, conf["t_max"], conf["samples"])
            x = evolve_io(io, init, times).x
            scale = float(np.abs(x).max())
            cols = read_table(tmp_path / "o.csv")
            chain, O = maps[0] if maps else (None, None)
            if command == "simulate":
                assert np.abs(cols["x_full"] - x).max() <= 1e-11 * scale
                if code == 0:
                    assert (np.abs(cols["x_volterra"] - x).max()
                            <= (CONVOLUTION_RTOL + 1e-11) * scale)
            for n in conf["truncations"]:
                x_n = x if n == io.N else evolve_truncated(chain, n, init, O, times).x
                if command == "simulate":
                    assert np.abs(cols[f"x_n{n}"] - x_n).max() <= 1e-11 * scale, n
                else:
                    assert np.abs(cols[f"eps_n{n}"] - np.abs(x - x_n)).max() <= 1e-11 * scale, n

    check()
    assert all(written[kind] for kind in BATH_KINDS), written
