"""CLI fuzz property: every config, valid or not, ends in a documented exit.

Each example runs one command in process through `cli.main` on a generated
config: small baths (N <= 8, sweep N <= 16, at most 64 samples) whose
values mix in-regime numbers with negative ones, zeros, magnitudes from
1e-300 to 1e300, wrong list lengths and empty lists.  pytest turns every
numpy `RuntimeWarning` into an error, so a warning fails the property as a
traceback does.  An exit 2 names a `config.` path: the key refused, or
the keys a bath, thermal draw or grid was built from where float64 or the
convolution cannot hold it; a value refused for its range lies outside the
interval the line prints.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chainbath.cli import _COMMANDS, main
from tests.conftest import assert_outside_printed_interval

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
         "omega_min": numbers(0.5, 1.0), "omega_max": numbers(1.5, 3.0)},
        optional={"c0": numbers(0.01, 0.3), "power": numbers(-1.0, 1.0)}),
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
