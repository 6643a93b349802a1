"""CLI contract: exit codes, determinism, config round-trip, file formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import chainbath
from chainbath import cli, dynamics, kernels, solution, spectral
from chainbath.cli import (
    CONVOLUTION_RTOL,
    EPS_FLOOR_ROUNDOFFS,
    _sweep_cell,
    build_initial_state,
    build_model,
    fmt,
    main,
    resolve_config,
    write_csv,
)
from chainbath.errors import Breakdown
from chainbath.spectral import chain_coefficients, chain_from_io
from tests.conftest import assert_outside_printed_interval, bath_x, cut_x
from tests.oracles import (
    char_poly_eval,
    evolve_truncated,
    kernel_closed_form,
    kernel_eval,
    kernel_series_mp,
    source_term,
)


LINEAR_4 = {"family": "linear", "N": 4, "omega_min": 0.8, "omega_max": 2.4, "c0": 0.4}
LINEAR_1536 = {"family": "linear", "N": 1536, "omega_min": 0.5, "omega_max": 2.5,
               "c0": 0.5 / math.sqrt(1536)}
# an override that leaves its key out of the config
ABSENT = object()


def write_config(path, **overrides):
    cfg = {
        "model": dict(LINEAR_4),
        "Omega0": 1.1,
        "truncations": [1, 2],
        "t_max": 5.0,
        "samples": 512,
        "kT": 1.0,
        "seed": 5,
    }
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not ABSENT}
    path.write_text(json.dumps(cfg))
    return cfg


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def eps_floor(x_full):
    """The rounding floor below which `bound` and `sweep` read no ratio."""
    return EPS_FLOOR_ROUNDOFFS * (np.finfo(float).eps / 2) * np.abs(x_full).max()


COMMANDS = ("build-chain", "simulate", "kernels", "bound", "min-modes", "sweep")
LINEAR_16 = {"family": "linear", "N": 16, "omega_min": 0.5, "omega_max": 2.5, "c0": 0.125}


@pytest.fixture
def chain_builds(monkeypatch):
    """The `rows` argument of every `spectral.chain_from_io` call."""
    calls = []
    monkeypatch.setattr(spectral, "chain_from_io",
                        lambda io, rows=None: calls.append(rows) or chain_from_io(io, rows))
    return calls


class TestExitCodes:
    def test_validation_failure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [2.0, 1.0], "c": [0.5, 0.5]})
        assert main(["build-chain", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_breakdown(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.0, 1e-13]})
        assert main(["build-chain", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_breakdown_above_leaf(self, tmp_path):
        # build-chain takes its chain from RKPW at every N, which breaks
        # down at the same D_1 = 7.2e-14 as Lanczos; the name recalls the
        # 512-mode route switch (LEAF) that this 600-mode bath once crossed
        N = 600
        c = [1.0] + [1e-15] * (N - 1)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": np.linspace(0.5, 2.5, N).tolist(), "c": c})
        assert main(["build-chain", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_min_modes_breakdown(self, tmp_path):
        # min-modes builds the coefficients alone, and checks every coupling
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.0, 1e-13]})
        assert main(["min-modes", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize("command", ["bound", "kernels"])
    def test_couplings_that_underflow_break_down(self, tmp_path, capsys, command):
        # every c_k^2 underflows to 0, so ||c|| = D0 does too: the map's
        # first row c/||c|| does not exist
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1e-300, 1e-300]}, truncations=[1])
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: chain construction breakdown: coupling D_0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "bound", "kernels"])
    def test_breakdown_only_inside_the_rows_built(self, tmp_path, command):
        # D_2 = 8.7e-12 is below 1e-12 max(omega^2) = 1.6e-11: a cut at
        # n = 1 builds at most two rows and never meets it, a cut at n = 3
        # builds three and does; a cut at n = N builds no row
        cfg = tmp_path / "cfg.json"
        out = str(tmp_path / "o.csv")
        far = {"model": {"omega": [1.0, 2.0, 3.0, 4.0], "c": [1.0, 1.0, 1e-13, 1e-13]},
               "Omega0": 2.0}
        runs = [([1], 0), ([3], 3)] + [([2, 4], 0)] * (command == "bound")
        for truncations, code in runs:
            write_config(cfg, **far, truncations=truncations)
            assert main([command, "--config", str(cfg), "--out", out]) == code

    def test_unstable_regime(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # ||c|| = 2 with Omega0*Omega1 < 2: no oscillatory evolution
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1.2, 1.6]},
                     Omega0=1.0)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 4

    @pytest.mark.parametrize("body", ["[1, 2]", "42", "null", '"x"', '{"resolved_config": 3}'])
    def test_config_not_an_object(self, tmp_path, capsys, body):
        # a config body, or a sidecar's resolved config, that is no JSON
        # object is refused in one stderr line, with no traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        out = tmp_path / "o.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration or input: config must be a JSON "
                              "object") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["bound"], id="no-flags"),
        pytest.param(["bogus", "--config", "c.json", "--out", "o.csv"], id="unknown-command"),
        pytest.param(["bound", "--config", "c.json", "--out", "o.csv", "--seed", "1.5"],
                     id="fractional-seed"),
    ])
    def test_bad_command_line(self, tmp_path, monkeypatch, capsys, argv):
        # the parser's refusal is one stderr line, as every nonzero exit's,
        # with no usage text
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "c.json")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not (tmp_path / "o.csv").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "min-modes" in capsys.readouterr().out

    @pytest.mark.parametrize("command, overrides, key", [
        ("simulate", {"model": {"omega": [1.0, 2.0]}}, "config.model.c"),
        ("bound", {"initial_state": {"q0": [0.1, 0.2, 0.3, 0.4]}}, "config.initial_state.qdot0"),
        ("min-modes", {"model": {"family": "linear", "omega_min": 0.5, "omega_max": 2.5}},
         "config.model.N"),
        ("build-chain", {"model": {"family": "random"}}, "config.model.N"),
        ("kernels", {"model": {"family": "geometric", "N": 4, "omega_max": 2.5}},
         "config.model.omega_min"),
        # a config is judged whole: sweep reads no model key
        ("sweep", {"model": {"family": "random"}}, "config.model.N"),
        # c0 has no default: 0.5 with the default Omega0 of 1 put this bath
        # outside the regime (sum c_k^2/omega_k^2 = 1.298)
        *((command, {"model": {"N": 4, "omega_min": 0.5, "omega_max": 2.5}, "Omega0": ABSENT},
           "config.model.c0") for command in COMMANDS),
    ])
    def test_missing_model_or_state_key(self, tmp_path, capsys, command, overrides, key):
        # a key the model family, the explicit model or the explicit state
        # needs is named by its config path, not by a bare KeyError
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: invalid configuration or input: {key} is required\n"
        assert not out.exists()

    def test_missing_config(self, tmp_path):
        assert main(["bound", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("N", [1, 4, 64])
    def test_defaults_compose_into_a_run(self, tmp_path, N):
        # a linear bath given c0 = 0.2/sqrt(N), every other key left to its
        # default, runs every command to exit 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"N": N, "omega_min": 0.5, "omega_max": 2.5,
                                             "c0": 0.2 / math.sqrt(N)}}))
        for command in COMMANDS:
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command

    @pytest.mark.parametrize("tmax", ["nan", "inf", "-inf"])
    def test_non_finite_tmax_flag(self, tmp_path, tmax):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "o.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out), f"--tmax={tmax}"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_non_finite_tmax_in_config(self, tmp_path, command):
        # json writes and reads NaN: the config takes the flag's path
        cfg = tmp_path / "cfg.json"
        write_config(cfg, t_max=math.nan)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("section", [{"times": [1.0], "tols": [math.nan]},
                                         {"times": [math.nan, 1.0], "tols": [1e-3]},
                                         {"times": [1.0], "tols": [math.inf]}])
    def test_non_finite_min_modes_entries(self, tmp_path, section):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes=section)
        out = tmp_path / "o.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_min_modes_time(self, tmp_path):
        # the bound is even in t: t = -1 once wrote the row of t = 1
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes={"times": [-1.0, 1.0], "tols": [1e-3]})
        out = tmp_path / "o.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, says", [
        pytest.param("bound", {"truncations": 5}, " config.", id="bound-truncations"),
        *(pytest.param(command, {"model": [1, 2]}, " config.", id=f"{command}-model")
          for command in ("build-chain", "simulate", "kernels", "bound", "min-modes")),
        pytest.param("min-modes", {"min_modes": {"times": 1, "tols": [0.1]}}, " config.",
                     id="min-modes-times"),
        pytest.param("bound", {"seed": 1.5}, " config.", id="bound-seed"),
        pytest.param("bound", {"truncations": [1.5]}, " config.",
                     id="bound-truncations-fraction"),
        # the cut n = 1 exists at N = 1, so a model N run as 1 passes the cut check
        *(pytest.param(command, {"model": {**LINEAR_4, **model}, "truncations": [1]},
                       " config.", id=f"{command}-{name}")
          for command in ("bound", "min-modes")
          for name, model in (("N-list", {"N": [4]}), ("N-zero", {"N": 0}),
                              ("N-fraction", {"N": 1.5}), ("N-true", {"N": True}),
                              ("c0-string", {"c0": "x"}),
                              ("omega_range-number", {"family": "random", "omega_range": 3}))),
        pytest.param("bound", {"initial_state": {"kind": "random", "scale": "x"}}, " config.",
                     id="bound-scale-string"),
        # a range is exactly two numbers
        *(pytest.param(command, {"model": {"family": "random", "N": 4, **model}}, " config.",
                       id=f"{command}-{name}")
          for command in ("build-chain", "simulate", "kernels", "bound", "min-modes")
          for name, model in (("c_range-three", {"c_range": [0.1, 0.2, 0.3]}),
                              ("omega_range-three", {"omega_range": [0.5, 1.0, 2.0]}),
                              ("c_range-one", {"c_range": [1]}),
                              ("c_range-empty", {"c_range": []}))),
        # values of the right type that the command cannot use
        pytest.param("bound", {"model": ABSENT}, "config.model is required", id="bound-no-model"),
        pytest.param("build-chain", {"model": {"family": "cubic", "N": 4}},
                     "config.model.family must be one of geometric, linear, random, "
                     'not "cubic"', id="build-chain-family-unknown"),
        pytest.param("simulate", {"initial_state": {"kind": "frozen"}},
                     'config.initial_state.kind must be one of random, thermal, not "frozen"',
                     id="simulate-kind-unknown"),
        *(pytest.param("min-modes", {"min_modes": {"times": [1.0], "tols": [0.1, tol]}},
                       "config.min_modes.tols[1] must lie within", id=f"min-modes-tol-{name}")
          for name, tol in (("zero", 0.0), ("negative", -1e-3))),
        # the random family draws Omega0 within instances.RANGE, narrower
        # than the SCALE that the other families allow
        pytest.param("build-chain", {"model": {"family": "random", "N": 4}, "Omega0": 1e50},
                     "config.Omega0 must lie within [3.4947656141084224e-39, "
                     "3.402823669209385e+38], not 1e+50", id="build-chain-random-Omega0"),
        # a bound prints exactly: rounded, 1.16e77 read as inside [1.22e-77, 1.16e+77]
        pytest.param("build-chain", {"Omega0": 1.16e77},
                     "config.Omega0 must lie within [1.221338669755462e-77, "
                     "1.157920892373162e+77], not 1.16e+77", id="build-chain-Omega0-above-SCALE"),
        pytest.param("build-chain", {"model": {"family": "random", "N": 4,
                                               "omega_range": [2.0, 1.0]}},
                     "config.model.omega_range must hold 2 numbers lo <= hi",
                     id="build-chain-omega_range-reversed"),
        pytest.param("bound", {"model": {"omega": [1.0, 2.0], "c": [0.1, 0.2, 0.3]}},
                     "config.model.c must have a length within [2, 2]", id="bound-c-longer"),
        # a config is judged whole: a key refused even where the command
        # does not read it
        pytest.param("build-chain", {"kT": 0.0}, "config.kT must lie within",
                     id="build-chain-kT-zero"),
        pytest.param("build-chain", {"samples": 1},
                     f"config.samples must lie within [2, {sys.maxsize // 8}]",
                     id="build-chain-samples-one"),
        # a size no numpy array of float64 holds, refused before anything is
        # allocated: numpy's linspace raises IndexError for counts near
        # 2^63, and a larger allocation fails with a line that names no key
        *(pytest.param(command, {"samples": 2**63}, f"config.samples must lie within "
                       f"[2, {sys.maxsize // 8}], not {2**63}", id=f"{command}-samples-2^63")
          for command in ("bound", "kernels", "sweep")),
        *(pytest.param(command, {"model": {**LINEAR_4, "N": 2**63 - 1}}, f"config.model.N must "
                       f"lie within [1, {sys.maxsize // 8}], not {2**63 - 1}",
                       id=f"{command}-N-2^63-1") for command in ("build-chain", "bound")),
        pytest.param("sweep", {"sweep": {"N": [2**62], "n": [1], "kT": [1.0]}},
                     f"config.sweep.N[0] must lie within [1, {sys.maxsize // 8}], not {2**62}",
                     id="sweep-N-2^62"),
        pytest.param("build-chain", {"min_modes": {"tols": [0]}},
                     "config.min_modes.tols[0] must lie within", id="build-chain-tol-zero"),
        # the bath's size, checked by the command that reads the key
        pytest.param("simulate", {"initial_state": {"q0": [0.1] * 4, "qdot0": [0.1] * 3}},
                     "config.initial_state.qdot0 must have a length within [4, 4], not 3",
                     id="simulate-state-uneven"),
        *(pytest.param(command, {"initial_state": {"q0": [0.1, 0.2], "qdot0": [0.1, 0.2]}},
                       "config.initial_state.q0 must have a length within [4, 4], not 2",
                       id=f"{command}-state-short")
          for command in ("simulate", "bound")),
        *(pytest.param(command, {"truncations": [1, 5]},
                       "config.truncations[1] must lie within [0, 4], not 5",
                       id=f"{command}-truncation-past-N")
          for command in ("simulate", "kernels", "bound")),
        # rounded to three digits, 1537 and 1540 read as inside [0, 1.54e+03]
        pytest.param("kernels", {"model": LINEAR_1536, "truncations": [1537]},
                     "config.truncations[0] must lie within [0, 1536], not 1537",
                     id="kernels-truncation-past-N1536"),
        pytest.param("bound", {"model": LINEAR_1536, "truncations": [1],
                               "initial_state": {"q0": [0.1] * 1540, "qdot0": [0.1] * 1540}},
                     "config.initial_state.q0 must have a length within [1536, 1536], not 1540",
                     id="bound-state-past-N1536"),
    ])
    def test_wrong_json_type(self, tmp_path, capsys, command, overrides, says):
        # a missing model, an unknown family or kind, or a value of another
        # JSON type than its default's or outside its range fails the config
        # check in one stderr line that names the key, before the command
        # builds anything; so does a cut or an explicit state that does not
        # fit the bath
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and err.count("\n") == 1
        assert says in err
        assert_outside_printed_interval(err)
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, path", [
        pytest.param("bound", {"model": {**LINEAR_4, "c0": 1e200}, "truncations": [1]},
                     "config.model.c0", id="bound-c0"),
        pytest.param("simulate", {"Omega0": 1e200}, "config.Omega0", id="simulate-Omega0"),
        pytest.param("build-chain", {"model": {"family": "random", "N": 4,
                                               "omega_range": [0.5, 1e300]}},
                     "config.model.omega_range[1]", id="build-chain-omega_range"),
        pytest.param("bound", {"model": {**LINEAR_4, "power": 1e10}}, "config.model",
                     id="bound-power"),
        *(pytest.param("bound", {"model": {**LINEAR_4, "N": N, "omega_min": 1e308,
                                           "omega_max": -1e308}}, "config.model.omega_min",
                       id=f"bound-omega-span-N{N}")
          for N in (1, 4)),
        pytest.param("bound", {"model": {**LINEAR_4, "omega_max": LINEAR_4["omega_min"]}},
                     "config.model", id="bound-omega-equal"),
        pytest.param("bound", {"initial_state": {"kind": "random", "scale": 1e308}},
                     "config.initial_state.scale", id="bound-scale"),
        pytest.param("bound", {"t_max": 1e300}, "config.t_max", id="bound-t_max"),
        pytest.param("bound", {"initial_state": {"q0": [1e300, 0.0, 0.0, 0.0],
                                                 "qdot0": [0.0] * 4}},
                     "config.initial_state.q0[0]", id="bound-state-entry"),
        pytest.param("bound", {"kT": 1e300}, "config.kT", id="bound-kT"),
        # the cut n = 3 of this bath breaks down (exit 3), but the initial
        # state is drawn before the chain is built
        *(pytest.param(command, {"model": {"omega": [1, 2, 3, 4], "c": [1, 1, 1e-13, 1e-13]},
                                 "Omega0": 2, "truncations": [3], "kT": 1e300},
                       "config.kT", id=f"{command}-kT-before-breakdown")
          for command in ("simulate", "bound")),
    ])
    def test_value_float64_cannot_hold(self, tmp_path, capsys, command, overrides, path):
        # a bath or state whose squares or draws overflow float64 is refused
        # in one stderr line that names its config path, with no numpy
        # warning and nothing written; a bath built from keys each within its
        # range (an overflowing coupling, a spectrum that does not increase,
        # a thermal draw) is named by the keys it was built from
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and err.count("\n") == 1
        named = err.removeprefix("error: invalid configuration or input: ").split()[0]
        assert named.rstrip(":") == path, err
        assert not out.exists()

    def test_sweep_needs_two_samples(self, tmp_path):
        # one sample is the grid t = 0 alone, where every cell reads eps 0
        cfg = tmp_path / "cfg.json"
        write_config(cfg, samples=1, sweep={"N": [4], "n": [1], "kT": [1.0]})
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "bound"])
    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys, command):
        # a size this machine cannot hold, raised here by a stub (a real one
        # could meet the OOM killer): one stderr line that says so, even
        # when the exception carries no text, and no traceback
        for exc, text in ((MemoryError(), "MemoryError"),
                          (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate")):
            def raise_(*args, exc=exc):
                raise exc
            monkeypatch.setattr(dynamics, "sample", raise_)
            cfg = tmp_path / "cfg.json"
            write_config(cfg)
            out = tmp_path / "o.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: out of memory: {text}"), err
            assert not out.exists()

    def test_key_error_is_no_invalid_input(self, tmp_path, monkeypatch):
        # no config is refused by KeyError: one is a fault of the program,
        # and `main` lets it through rather than blame the config
        def raise_(*args):
            raise KeyError("x")
        monkeypatch.setattr(dynamics, "sample", raise_)
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        with pytest.raises(KeyError):
            main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize("command, overrides, nonfinite", [
        # t_max 1e77: the cascades overflow to a residual of 4.6e299, and K_8 to NaN
        ("simulate", {"t_max": 1e77, "samples": 32}, ()),
        ("kernels", {"t_max": 1e77, "samples": 32}, ("K_8",)),
        # Omega0 1e20: mu2 rounds to 0, and the resolvent's D0^2/(mu1 mu2) to inf
        ("simulate", {"Omega0": 1e20, "t_max": 1e-20, "samples": 64},
         ("x_volterra", "abs_err_volterra"))])
    def test_float64_overflow_fails_its_verdict(self, tmp_path, capsys, command, overrides,
                                                nonfinite):
        # no warning (pytest makes one an error) and no traceback: one stderr
        # line, both files written, exit 6, and inf or NaN only in the columns
        # README names
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **{"model": {"family": "linear", "N": 8, "omega_min": 0.5,
                                       "omega_max": 2.5, "c0": 0.2},
                             "Omega0": 1.2, "truncations": [1, 2, 4, 8], **overrides})
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("outputs written but not certified"), err
        diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
        assert diag["passed"] is False
        header = out.read_text().splitlines()[0].split(",")
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert [name for j, name in enumerate(header)
                if not np.isfinite(data[:, j]).all()] == list(nonfinite)

    def test_uncertified_chain(self, tmp_path, monkeypatch, capsys):
        # a failed certificate still writes both files, then exits 6
        def failed(io, chain):
            return spectral.ChainCertificate(eigenvalue_mismatch=1e-16, weight_mismatch=0.5,
                                             failed=("weight_mismatch",))
        monkeypatch.setattr(spectral, "certify_chain", failed)
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: equivalence check failed (weight_mismatch); "
                       "outputs written but not certified"]
        assert len(out.read_text().splitlines()) == 5
        side = json.loads((tmp_path / "chain.csv.resolved.json").read_text())
        assert side["diagnostics"]["passed"] is False


def _scaled(chain, name, j, factor):
    """The chain with entry j of its field `name` times `factor`."""
    values = getattr(chain, name).copy()
    values[j] *= factor
    return replace(chain, **{name: values})


def _swapped(chain, j):
    Omega = chain.Omega.copy()
    Omega[[j, j + 1]] = Omega[[j + 1, j]]
    return replace(chain, Omega=Omega)


def _other_bath(io, chain):
    """The chain of a bath with the same omega_k and ||c||, its couplings
    scaled 1x to 3x across the band: only the weights tell the two apart."""
    c = io.c * np.linspace(1.0, 3.0, io.N)
    c *= np.linalg.norm(io.c) / np.linalg.norm(c)
    return chain_coefficients(spectral.build_io_model(io.omega, c, io.Omega0))


# wrong chains for a bath, each of which the certificate must refuse
CHAIN_MUTANTS = {
    "other_bath": _other_bath,
    "D0": lambda io, chain: replace(chain, D0=chain.D0 * (1 + 1e-8)),
    "D_j": lambda io, chain: _scaled(chain, "D", io.N // 2, 1 + 1e-9),
    "Omega_j": lambda io, chain: _scaled(chain, "Omega", io.N // 2, 1 + 1e-9),
    "swap": lambda io, chain: _swapped(chain, io.N // 2),
    "nan": lambda io, chain: _scaled(chain, "D", io.N // 2, np.nan),
}


class TestBuildChain:
    def test_single_mode_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [2.0], "c": [1.0]}, Omega0=1.0)
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,Omega_j,D_j"
        assert lines[1].startswith("1,2,")
        assert len(lines) == 2
        diag = json.loads((tmp_path / "chain.csv.resolved.json").read_text())
        assert diag["diagnostics"]["passed"] is True
        assert diag["diagnostics"]["weight_mismatch"] <= 1e-12

    def test_residuals_reported_random(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "random", "N": 8}, seed=12)
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((out.parent / "chain.csv.resolved.json").read_text())
        assert diag["diagnostics"]["eigenvalue_mismatch"] <= 1e-9 * 9.0

    def test_certifies_without_eigensolve(self, tmp_path, no_eigensolve):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={**LINEAR_16, "N": 64})
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "chain.csv.resolved.json").read_text())
        assert diag["diagnostics"]["passed"] is True

    def test_builds_no_map(self, tmp_path, monkeypatch, no_eigensolve):
        # above 512 modes too: coefficients by RKPW, certified without a map
        def refuse(*args, **kwargs):
            raise AssertionError("map built or checked")
        monkeypatch.setattr(spectral, "chain_from_io", refuse)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={**LINEAR_16, "N": 600})
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "chain.csv.resolved.json").read_text())["diagnostics"]
        assert set(diag) == {"D0", "eigenvalue_mismatch", "weight_mismatch", "passed"}
        assert diag["passed"] is True and diag["weight_mismatch"] <= 1e-11

    @pytest.mark.parametrize("mutant", sorted(CHAIN_MUTANTS))
    def test_certificate_ties_the_chain_to_the_bath(self, tmp_path, monkeypatch, capsys,
                                                    mutant):
        monkeypatch.setattr(spectral, "chain_coefficients",
                            lambda io: CHAIN_MUTANTS[mutant](io, chain_coefficients(io)))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={**LINEAR_16, "N": 64})
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: equivalence check failed (") and "weight_mismatch" in err

    @pytest.mark.parametrize("omega, c", [
        ([0.5, 1.0, 1.0 + 1e-10, 1.7, 2.5], [0.3] * 5),
        ([1.0, 1.0 + 1e-11], [1.0, 1.0]),
    ])
    def test_certifies_near_degenerate_baths(self, tmp_path, omega, c):
        # nodes 2e-10 and 2e-11 apart: their single weights are fixed only
        # up to the rounding allowance, which the certificate grants
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": omega, "c": c})
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "chain.csv.resolved.json").read_text())["diagnostics"]
        assert diag["passed"] is True

    def test_large_random_config_bit_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "random", "N": 32}, seed=7)
        out = tmp_path / "chain.csv"
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        h1 = sha(out)
        assert main(["build-chain", "--config", str(cfg), "--out", str(out)]) == 0
        assert sha(out) == h1
        assert len(out.read_text().splitlines()) == 33


class TestSimulate:
    def test_columns_and_reconstruction(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1, 4])
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_full,x_n1,x_n4,x_volterra,abs_err_volterra"
        data = np.loadtxt(lines[1:], delimiter=",")
        # n = N column equals x_full bitwise
        assert np.array_equal(data[:, 1], data[:, 3])
        assert data[:, 5].max() <= 1e-6

    def test_weak_coupling_free_oscillation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # couplings deliberately non-uniform: uniform c on two modes gives an
        # exactly degenerate chain, which the closed-form source refuses
        write_config(cfg, model={"omega": [1.5, 2.5], "c": [1.3e-7, 0.7e-7]},
                     Omega0=1.0, truncations=[2],
                     initial_state={"q0": [0.0, 0.0], "qdot0": [0.0, 0.0],
                                    "x0": 1.0, "xdot0": 0.0})
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert data[:, 1] == pytest.approx(np.cos(data[:, 0]), abs=1e-10)
        assert data[:, 4].max() <= 1e-6  # reconstruction error column ~ 0


    def test_builds_two_rows_and_no_eigensolve(self, tmp_path, no_eigensolve, chain_builds):
        # with no cut below N the level-1 source reads two map rows, and
        # x_full and X_2 come from the secular route; the convolutions'
        # Gauss-Legendre rule is a fixed table
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_16, truncations=[16], t_max=4.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert chain_builds == [2]

    def test_builds_the_rows_its_cuts_read(self, tmp_path, monkeypatch, chain_builds):
        # cuts at 4 and 1 < N read four rows; each evolves at its own size
        calls = []
        decompose = dynamics._decompose
        monkeypatch.setattr(dynamics, "_decompose",
                            lambda A: calls.append(len(A)) or decompose(A))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_16, truncations=[4, 1], t_max=4.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert chain_builds == [4] and sorted(calls) == [2, 5]

    def test_memory_holds_no_bath_sized_square(self, tmp_path):
        # no N x N and no samples x N array: measured 0.085 N^2 doubles at
        # N = 2048 with 2048 samples, where the full map alone took 1
        N = 2048
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / math.sqrt(N)},
                     Omega0=1.2, t_max=10.0, samples=2048, truncations=[1, 16, N])
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.12 * N * N * 8

    @pytest.mark.parametrize("N", [1, 2, 8, 64])
    def test_matches_the_full_map_route(self, tmp_path, N):
        # x_volterra against the level-N source of the full map's
        # trajectories, and the cuts bitwise those of the full map (at
        # N = 1 the source has no X_2 and its cascade is one level deep)
        cuts = sorted({1, min(4, N)})
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, model={"family": "linear", "N": N, "omega_min": 0.5,
                                      "omega_max": 2.5, "c0": 0.5 / math.sqrt(N)},
                     Omega0=1.2, t_max=10.0, samples=2048, truncations=cuts)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        init = build_initial_state(cfg, io)
        chain, omap = chain_from_io(io)
        times = data[:, 0]
        traj = evolve_truncated(chain, N, init, omap, times)
        F = source_term(chain, N, traj, init, omap)
        params = solution.mu_delta(chain.Omega0, chain.Omega[0], chain.D0)
        ref = solution.solve_volterra_closed(params, F, times)
        got = data[:, header.index("x_volterra")]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(traj.x).max()
        for n in cuts:
            x_n = (data[:, header.index("x_full")] if n == N
                   else cut_x(chain, n, init, omap, times))
            assert np.array_equal(data[:, header.index(f"x_n{n}")], x_n)

    def test_four_single_sine_convolutions(self, tmp_path, monkeypatch):
        # the source and the resolvent solve are one two-level cascade each,
        # one single-sine convolution per level
        calls = []
        convolve = kernels.convolve_on_grid

        def counting(freqs, values, times):
            calls.append(freqs)
            return convolve(freqs, values, times)

        monkeypatch.setattr(kernels, "convolve_on_grid", counting)
        monkeypatch.setattr(solution, "convolve_on_grid", counting)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_16, truncations=[1, 16], t_max=4.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert len(calls) == 4
        assert all(isinstance(f, float) for f in calls), calls

    @pytest.mark.parametrize("samples, code", [(96, 6), (218, 0), (219, 0)])
    def test_grid_gate(self, tmp_path, capsys, samples, code):
        # the residual alone judges the grid: 96 samples leave 6.5e-9 of
        # max|x_full| (exit 6), 218 leave 4.4e-11 (exit 0)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": 8, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / math.sqrt(8)},
                     Omega0=1.2, truncations=[1, 2, 4], t_max=6.0, samples=samples, seed=1)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == (code == 6) and all("max_volterra_error" in line for line in err)
        assert out.exists() and Path(f"{out}.resolved.json").exists()
        diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
        assert diag["passed"] == (code == 0)


class TestSimulateVerdict:
    def test_certified_run_passes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1])
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        diag = json.loads((tmp_path / "traj.csv.resolved.json").read_text())["diagnostics"]
        assert diag["passed"] is True and diag["max_volterra_error"] <= 1e-13

    def test_long_time_run_is_certified(self, tmp_path, capsys):
        # the level-N cascade once amplified rounding here to a residual of
        # about 330 against max|x_full| of 1.76 (exit 6); the level-1
        # source leaves 3.5e-13
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": 64, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / 8},
                     Omega0=1.2, t_max=100.0, samples=8192, truncations=[1], seed=1)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        diag = json.loads((tmp_path / "traj.csv.resolved.json").read_text())["diagnostics"]
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert diag["passed"] is True
        assert diag["max_volterra_error"] <= 1e-12 * np.abs(data[:, 1]).max()

    def test_resonant_weak_coupling_passes(self, tmp_path, capsys):
        # one bath mode at the system's frequency, coupled at 1e-7: the two
        # resolvent frequencies agree to 1e-7, and the nested resolvent solve
        # needs no distinct frequencies (the system starts displaced; at rest,
        # x is a 1e-7 remainder whose rounding in x_full the gate would see)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0], "c": [1e-7]}, Omega0=1.0,
                     truncations=[1], initial_state={"q0": [0.3], "qdot0": [-0.2],
                                                     "x0": 0.5, "xdot0": 0.1})
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        diag = json.loads((tmp_path / "traj.csv.resolved.json").read_text())["diagnostics"]
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert diag["passed"] is True
        assert diag["max_volterra_error"] <= 1e-13 * np.abs(data[:, 1]).max()

    def test_uncertified_run_exits_6(self, tmp_path, monkeypatch, capsys):
        # a Volterra column off by 1e-6 still writes both files, then exits 6
        solve = solution.solve_volterra_closed
        monkeypatch.setattr(solution, "solve_volterra_closed",
                            lambda params, F, times: solve(params, F, times) + 1e-6)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1])
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: max_volterra_error ")
        assert err[0].endswith("outputs written but not certified")
        assert len(out.read_text().splitlines()) == 513
        diag = json.loads((tmp_path / "traj.csv.resolved.json").read_text())["diagnostics"]
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert diag["passed"] is False
        assert diag["max_volterra_error"] > 1e-9 * np.abs(data[:, 1]).max()


LINEAR_128 = {"family": "linear", "N": 128, "omega_min": 0.5, "omega_max": 2.5,
              "c0": 0.5 / math.sqrt(128)}


class TestKernelsCommand:
    def test_cascade_to_order_128(self, tmp_path):
        # the linear family at N = 128: every order obeys |K_i| <= tau^i/i!,
        # which the closed form breaks from order ~6 on, and the low orders
        # agree with the closed form where it still holds its digits.  On
        # 2048 samples K_64 and K_128 are off by 9.5e-9 and 1.4e-6 of their
        # maxima, so the cascade runs again on 4095 and on 8189 samples,
        # where every estimate passes
        N = 128
        cfg = tmp_path / "cfg.json"
        conf = write_config(cfg, model=LINEAR_128, Omega0=1.2, t_max=10.0, samples=2048,
                            truncations=list(range(1, N + 1)))
        out = tmp_path / "kernels.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert diag["passed"] is True and diag["grid_samples"] == 4 * 2047 + 1
        assert len(data) == 2048 and np.array_equal(data[:, 0], np.linspace(0.0, 10.0, 2048))
        for i in range(1, N + 1):
            assert diag["error_estimate"][f"K_{i}"] <= CONVOLUTION_RTOL * np.abs(data[:, i]).max()
        tau = data[:, 0]
        log_tau = np.log(np.where(tau > 0, tau, 1e-300))
        for i in range(1, N + 1):
            envelope = np.exp(i * log_tau - math.lgamma(i + 1))
            assert np.all(np.abs(data[:, i]) <= envelope + 1e-12), f"K_{i}"
        chain, _ = chain_from_io(build_model(conf))
        for i in range(1, 5):
            ref = kernel_eval(kernel_closed_form(chain.mode_freqs[: i + 1]), tau)
            assert np.abs(data[:, i] - ref).max() <= 1e-9, f"K_{i}"

    def test_row_cut_matches_full_map(self, tmp_path, monkeypatch, chain_builds):
        # kernels builds the first max(orders) rows; the full map gives the
        # same bytes
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_16, truncations=[1, 3, 6], samples=1024)
        cut, full = tmp_path / "cut.csv", tmp_path / "full.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(cut)]) == 0
        assert chain_builds == [6]
        monkeypatch.setattr(spectral, "chain_from_io", lambda io, rows=None: chain_from_io(io))
        assert main(["kernels", "--config", str(cfg), "--out", str(full)]) == 0
        assert cut.read_bytes() == full.read_bytes()

    def test_order_out_of_range(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1, 5])
        assert main(["kernels", "--config", str(cfg),
                     "--out", str(tmp_path / "k.csv")]) == 2

    def test_grid_too_coarse(self, tmp_path):
        # 16 samples leave an estimate of 4.2e-5 of max|K_2|, and the two
        # halvings (31, then 61 samples) 7.4e-7 and 1.8e-8; K_1 still reads
        # 1.7e-9 on 61: the table is written on the 16 samples asked for,
        # not certified
        cfg = tmp_path / "cfg.json"
        write_config(cfg, samples=16)
        out = tmp_path / "k.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 6
        diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
        assert diag["passed"] is False and diag["grid_samples"] == 61
        assert len(out.read_text().splitlines()) == 17

    def test_a_passing_grid_is_not_refined(self, tmp_path, monkeypatch):
        # every estimate passes on the grid asked for: one cascade on it and
        # one on its half grid, and the table is that cascade
        grids = []
        convolve = kernels.convolve_on_grid

        def counting(freqs, values, times):
            grids.append(len(times))
            return convolve(freqs, values, times)

        monkeypatch.setattr(kernels, "convolve_on_grid", counting)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, samples=513, truncations=[1, 2])
        out = tmp_path / "k.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
        assert grids == [257, 257, 513, 513]
        diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
        assert diag["passed"] is True and diag["grid_samples"] == 513

    def test_two_samples_start_their_estimates_on_three(self, tmp_path, capsys):
        # 2 samples have no half grid: the cascade runs again on 3 and on 5
        # samples.  K_0 = sin(Omega_0 t) is exact on any grid and passes on
        # 3; K_2 still fails on 5; an empty order list passes on 2
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "k.csv"
        for orders, code, samples in (([0], 0, 3), ([0, 2], 6, 5), ([], 0, 2)):
            write_config(cfg, samples=2, truncations=orders)
            assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == code
            diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
            assert diag["grid_samples"] == samples and diag["passed"] == (code == 0)
            assert sorted(diag["error_estimate"]) == [f"K_{i}" for i in orders]
            assert all(math.isfinite(e) for e in diag["error_estimate"].values())
            assert len(out.read_text().splitlines()) == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_order_128_on_400_samples(self, tmp_path, capsys):
        # K_128 is off by 2.9e-2 of its maximum here, K_64 by 1.8e-4, and
        # after both halvings (1597 samples) their estimates still read
        # 6.5e-6 and 4.3e-8: both fail, and the one stderr line names them
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_128, Omega0=1.2, t_max=10.0, samples=400,
                     truncations=[64, 128])
        out = tmp_path / "k.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: error_estimate exceeds 1e-09 * max|K_i| at K_64, K_128; "
                       "outputs written but not certified"]
        diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
        assert diag["grid_samples"] == 4 * 399 + 1 and len(out.read_text().splitlines()) == 401

    @pytest.mark.parametrize("samples, step, grid_samples", [(101, 2, 401), (513, 16, 2049)])
    def test_estimate_against_mpmath(self, tmp_path, samples, step, grid_samples):
        # the Richardson estimate against an 80-digit Taylor series at the
        # CLI's own chain frequencies, on every `step`-th sample, the last
        # among them.  K_128 fails on every grid here, so the estimates are
        # those of the grid with a quarter of the step.  Measured
        # estimate/true ratios for K_1, K_8, K_16, K_32, K_64 and K_128:
        # 1.00, 1.00, 1.00, 1.02, 1.09 and 4.27 on 401 samples; 0.99 to 1.01
        # from K_8 on on 2049, where K_1's true error is rounding (2.0e-15
        # of its maximum) and its estimate 16 times below it
        orders = (1, 8, 16, 32, 64, 128)
        cfg = tmp_path / "cfg.json"
        conf = write_config(cfg, model=LINEAR_128, Omega0=1.2, t_max=10.0, samples=samples,
                            truncations=list(orders))
        out = tmp_path / "k.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 6
        diag = json.loads(Path(f"{out}.resolved.json").read_text())["diagnostics"]
        assert diag["grid_samples"] == grid_samples
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        chain, _ = chain_from_io(build_model(conf), rows=max(orders))
        rows = np.arange(0, samples, step)
        for j, i in enumerate(orders, start=1):
            scale = np.abs(data[:, j]).max()
            true = np.abs(data[rows, j] - kernel_series_mp(chain.mode_freqs[: i + 1],
                                                           data[rows, 0])).max()
            est = diag["error_estimate"][f"K_{i}"]
            if true <= 1e-14 * scale:  # the rounding floor: the estimate may sit below it
                assert est <= 1e-14 * scale, (i, est, true)
            else:
                top = 5.0 if (samples, i) == (101, 128) else 1.1
                assert 0.98 * true <= est <= top * true, (i, est / true)

    def test_refined_table_is_accurate(self, tmp_path):
        # the volterra-wide probe's table: on 2048 samples K_64 and K_128
        # are off by 9.5e-9 and 1.4e-6 of their maxima; the table written
        # after two halvings (8189 samples) holds them within 2.3e-12 and
        # 3.5e-10 of the 80-digit series, on every 64th sample and the last
        orders = [2**k for k in range(8)]
        cfg = tmp_path / "cfg.json"
        conf = write_config(cfg, model=LINEAR_128, Omega0=1.2, t_max=10.0, samples=2048,
                            truncations=orders)
        out = tmp_path / "k.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        chain, _ = chain_from_io(build_model(conf), rows=max(orders))
        rows = np.append(np.arange(0, 2048, 64), 2047)
        for j, i in enumerate(orders, start=1):
            scale = np.abs(data[:, j]).max()
            true = np.abs(data[rows, j] - kernel_series_mp(chain.mode_freqs[: i + 1],
                                                           data[rows, 0])).max()
            assert true <= CONVOLUTION_RTOL * scale, (i, true / scale)


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_child(argv, cwd=None, **env):
    """Run `argv` in a fresh interpreter on this package, in `cwd`, with no
    BLAS thread variable but those in `env`; its stdout, stripped."""
    src = str(Path(chainbath.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    child_env.update(env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *argv], env=child_env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the only runtime dependency: the six commands, run in a fresh
    # interpreter, never import scipy, a test-only package or the tests'
    # oracles (importable here: the child runs from the repository root),
    # nor numpy.ma (~30 ms of start-up, which np.unique, for one, loads) or
    # numpy.polynomial (0.8 MB; the Gauss-Legendre rule is a table)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    out = str(tmp_path / "o.csv")
    script = (
        "import sys\n"
        "from chainbath.cli import main\n"
        "for cmd in ('build-chain', 'simulate', 'kernels', 'bound', 'min-modes', 'sweep'):\n"
        f"    assert main([cmd, '--config', {str(cfg)!r}, '--out', {out!r}]) == 0, cmd\n"
        "test_only = ('scipy', 'mpmath', 'hypothesis', 'sympy', 'tests')\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in test_only)\n"
        "assert not loaded, loaded\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    )
    _run_child(["-c", script], cwd=Path(__file__).parents[1])


# the OS threads of the child after one eigensolve, and its thread variable
_THREADS_AFTER_EIGH = (
    "import os, numpy\n"
    "numpy.linalg.eigh(numpy.eye(64) + 1.0)\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)
needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts OS threads in /proc/self/task on two or more CPUs")


class TestOneBlasThread:
    @needs_threads
    def test_cli_runs_one_blas_thread(self):
        # numpy alone starts an OpenBLAS worker per CPU; after importing the
        # CLI, the process keeps its one thread
        assert _run_child(["-c", _THREADS_AFTER_EIGH]).split()[0] != "1"
        assert _run_child(["-c", "import chainbath.cli\n" + _THREADS_AFTER_EIGH]) == "1 1"

    @needs_threads
    def test_caller_thread_count_is_kept(self):
        assert _run_child(["-c", "import chainbath.cli\n" + _THREADS_AFTER_EIGH],
                          OPENBLAS_NUM_THREADS="2") == "2 2"

    def test_import_after_numpy_leaves_environment(self):
        script = ("import os, numpy\n"
                  "before = dict(os.environ)\n"
                  "import chainbath.cli\n"
                  "print(dict(os.environ) == before)\n")
        assert _run_child(["-c", script]) == "True"

    def test_bound_bytes_do_not_depend_on_threads(self, tmp_path):
        # at N = 1024 a BLAS product split over threads sums in another
        # order, which moved eps_n* in the last digits
        N = 1024
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / np.sqrt(N)},
                     Omega0=1.2, t_max=10.0, samples=2048, truncations=[1, 4, 16, 32], seed=1)
        outputs = []
        for env in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / f"bound{len(outputs)}.csv"
            _run_child(["-m", "chainbath.cli", "bound", "--config", str(cfg), "--out", str(out)],
                       **env)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestBoundCommand:
    def test_ratio_above_one_exits_6(self, tmp_path, capsys):
        # a strong one-mode bath (c 2.939 above 1, ROADMAP item 2) where eps
        # is 2.8 times bound_det: both files written, then exit 6; a weak
        # linear N = 8 bath stays within its bound and exits 0
        strong = {"model": {"omega": [2.974], "c": [2.939]}, "Omega0": 0.989,
                  "truncations": [0], "t_max": 100, "samples": 2048, "seed": 114,
                  "initial_state": {"kind": "random"}}
        cfg, out = tmp_path / "strong.json", tmp_path / "strong.csv"
        cfg.write_text(json.dumps(strong))
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: max_ratio 2.81")
        assert err[0].endswith("outputs written but not certified")
        assert len(out.read_text().splitlines()) == 2049
        diag = json.loads((tmp_path / "strong.csv.resolved.json").read_text())["diagnostics"]
        assert diag["max_ratio"] > 1
        write_config(cfg, model={"family": "linear", "N": 8, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.2}, truncations=[1, 4])
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_ratio_below_one_and_zero_first_row(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, t_max=2.5)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = np.loadtxt(lines[1:], delimiter=",")
        header = lines[0].split(",")
        assert header[0] == "t" and data[0, 0] == 0.0
        assert np.all(data[0, 1:] == 0.0)  # all-zero first row
        for j, name in enumerate(header):
            if name.startswith("ratio"):
                assert data[:, j].max() <= 1.0

    def test_thermal_column_scales_with_sqrt_kt(self, tmp_path):
        outs = []
        for kT in (1.0, 4.0):
            cfg = tmp_path / f"cfg{kT}.json"
            write_config(cfg, kT=kT, t_max=2.5,
                         initial_state={"q0": [0.1, 0.1, 0.1, 0.1],
                                        "qdot0": [0.0, 0.0, 0.0, 0.0]})
            out = tmp_path / f"bound{kT}.csv"
            assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            col = lines[0].split(",").index("bound_thermal_n1")
            outs.append(np.loadtxt(lines[1:], delimiter=",")[:, col])
        ratio = outs[1][1:] / outs[0][1:]
        assert ratio == pytest.approx(np.full_like(ratio, 2.0), rel=1e-12)

    def test_frequencies_one_ulp_apart_write_no_warning(self, tmp_path, capsys):
        # two bath frequencies one ulp apart: exit 0 and an empty stderr
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [2.9999999999999996, 3.0], "c": [0.25, 0.25]},
                     Omega0=1.2, truncations=[1], samples=32)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_full_cut_reuses_the_full_trajectory(self, tmp_path, monkeypatch):
        # n = N is x_full itself, which needs no eigensolve: one for n = 1
        N = 8
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.8,
                                 "omega_max": 2.4, "c0": 0.2},
                     truncations=[1, N], t_max=2.5)
        calls = []
        decompose = dynamics._decompose
        monkeypatch.setattr(dynamics, "_decompose",
                            lambda A: calls.append(len(A)) or decompose(A))
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(calls) == [2]
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        for name in (f"eps_n{N}", f"ratio_n{N}"):
            assert np.all(data[:, header.index(name)] == 0.0)

    def test_short_cut_matches_full_map_route(self, tmp_path):
        # a cut at n = 4 < N = 16 builds four map rows and takes x_full from
        # the oscillator picture: eps_n4 agrees with x(t) of the full chain
        # minus the cut, and is not the zero column of a mistaken reuse
        N = LINEAR_16["N"]
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, model=LINEAR_16, truncations=[1, 4], t_max=4.0)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        init = build_initial_state(cfg, io)
        chain, omap = chain_from_io(io)
        times = data[:, 0]
        x_full = cut_x(chain, N, init, omap, times)
        for n in (1, 4):
            x_n = cut_x(chain, n, init, omap, times)
            eps = data[:, header.index(f"eps_n{n}")]
            assert np.abs(eps - np.abs(x_full - x_n)).max() <= 1e-13 * np.abs(x_full).max()
            assert eps.max() > 1e-6 * np.abs(x_full).max()

    def test_eps_matches_simulates_columns(self, tmp_path):
        # simulate and bound share one route: |x_full - x_n| from simulate's
        # CSV is bound's eps_n, bit for bit, at n = 0, 1, N - 1 and N
        N = 8
        cuts = [0, 1, N - 1, N]
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.8,
                                 "omega_max": 2.4, "c0": 0.2},
                     truncations=cuts, t_max=4.0)
        tables = {}
        for command in ("simulate", "bound"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            data = np.loadtxt(lines[1:], delimiter=",")
            tables[command] = {name: data[:, j] for j, name in enumerate(lines[0].split(","))}
        x = tables["simulate"]
        for n in cuts:
            assert np.array_equal(np.abs(x["x_full"] - x[f"x_n{n}"]), tables["bound"][f"eps_n{n}"])
        assert tables["bound"][f"eps_n{N - 1}"].max() > 0.0

    def test_max_ratio_reads_only_above_the_floor(self, tmp_path):
        # at N = 1024 eps_n32 sits at the float64 floor while bound_det_n32
        # is near 1e-236: their ratio, read there, would be about 1e219
        N = 1024
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / np.sqrt(N)},
                     Omega0=1.2, t_max=10.0, samples=2048, truncations=[1, 4, 16, 32])
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "bound.csv.resolved.json").read_text())["diagnostics"]
        assert math.isfinite(diag["max_ratio"]) and 0.0 < diag["max_ratio"] <= 1.0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        eps = data[:, [header.index(f"eps_n{n}") for n in (1, 4, 16, 32)]]
        cfg = resolve_config(cfg, {})
        io = build_model(cfg)
        floor = eps_floor(bath_x(io, build_initial_state(cfg, io), data[:, 0]))
        assert diag["samples_below_floor"] == np.count_nonzero(eps <= floor)
        # the CSV's ratio columns are unchanged: there, the floor dominates
        assert data[:, header.index("ratio_n32")].max() > 1.0

    def test_overflow_reads_inf_and_never_nan(self, tmp_path):
        # N = 64 to t = 100: the cut n = 16's bounds leave float64's range in
        # the last 322 samples, and read inf exactly where a 30-digit
        # evaluation is above its largest value; no sample reads NaN, and no
        # RuntimeWarning (an error here) is raised
        N, n = 64, 16
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, model={"family": "linear", "N": N, "omega_min": 0.5,
                                      "omega_max": 2.5, "c0": 0.5 / math.sqrt(N)},
                     Omega0=1.2, t_max=100.0, samples=2048, truncations=[1, 4, n])
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        assert not np.isnan(data).any()
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        init = build_initial_state(cfg, io)
        chain, _ = chain_from_io(io, rows=n)
        minor = np.abs(char_poly_eval(chain, n, io.omega**2))
        weights = {"bound_det": np.abs(init.q0) + np.abs(init.qdot0) / io.omega,
                   "bound_thermal": math.sqrt(8 * cfg["kT"] / math.pi) / io.omega}
        with mpmath.workdps(30):
            a1 = mpmath.sqrt(chain.Omega0**2 + sum(mpmath.mpf(w) ** 2 for w in chain.Omega[:n]))
            a2 = mpmath.sqrt(chain.Omega0**2 + chain.Omega[0] ** 2 + a1**2)
            for kind, u in weights.items():
                col = data[:, header.index(f"{kind}_n{n}")]
                s = mpmath.mpf(float(np.sum(minor * u)))
                exact = np.array([
                    s * t ** (2 * n + 2) * (mpmath.cosh(t * a1) / mpmath.factorial(2 * n + 2)
                                            + chain.D0**2 * t**4 * mpmath.cosh(t * a2)
                                            / mpmath.factorial(2 * n + 6))
                    for t in map(mpmath.mpf, data[:, 0])])
                over = exact > np.finfo(float).max
                assert np.count_nonzero(over) == 322
                assert np.array_equal(np.isinf(col), over)
                rel = [abs(b / e - 1) for b, e in zip(col[~over], exact[~over]) if e > 0]
                assert max(rel) < 1e-12

    def test_inf_ratio_only_below_the_floor(self, tmp_path):
        # at N = 1024 the cut n = 100's bound underflows to a subnormal where
        # eps is rounding: their ratio reads inf, and every such sample is one
        # `samples_below_floor` counts
        N = 1024
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / math.sqrt(N)},
                     Omega0=1.2, t_max=10.0, samples=2048, truncations=[1, 100], seed=1)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        eps = data[:, [header.index(f"eps_n{n}") for n in (1, 100)]]
        ratio = data[:, [header.index(f"ratio_n{n}") for n in (1, 100)]]
        assert np.isinf(ratio).any()
        cfg = resolve_config(cfg, {})
        io = build_model(cfg)
        x_full = bath_x(io, build_initial_state(cfg, io), data[:, 0])
        assert np.all(eps[np.isinf(ratio)] <= eps_floor(x_full))
        diag = json.loads((tmp_path / "bound.csv.resolved.json").read_text())["diagnostics"]
        assert math.isfinite(diag["max_ratio"])

    def test_deep_cut_alone_reads_below_the_floor(self, tmp_path):
        # the cut n = 100 alone on the linear N = 1024 chain: every eps is
        # rounding, far below max|x_full|, and the floor, tied to x_full,
        # holds every sample
        N = 1024
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": N, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / math.sqrt(N)},
                     Omega0=1.2, t_max=10.0, samples=2048, truncations=[100], seed=1)
        assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "bound.csv")]) == 0
        diag = json.loads((tmp_path / "bound.csv.resolved.json").read_text())["diagnostics"]
        assert diag == {"max_ratio": 0.0, "samples_below_floor": 2048, "samples_vacuous": 0}

    def test_vacuous_bounds_are_counted(self, tmp_path, capsys):
        # the linear N = 64 chain to t = 1e6: nearly every bound_det sample
        # is inf, and says nothing of eps; max_ratio reads only the finite
        # ones above the floor, and each sample is one of the three kinds
        N = 64
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, model={"family": "linear", "N": N, "omega_min": 0.5,
                                      "omega_max": 2.5, "c0": 0.0625},
                     Omega0=1.2, t_max=1e6, samples=2048, truncations=[4, 16])
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        diag = json.loads((tmp_path / "bound.csv.resolved.json").read_text())["diagnostics"]
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = np.loadtxt(lines[1:], delimiter=",")
        eps = data[:, [header.index(f"eps_n{n}") for n in (4, 16)]]
        b_det = data[:, [header.index(f"bound_det_n{n}") for n in (4, 16)]]
        ratio = data[:, [header.index(f"ratio_n{n}") for n in (4, 16)]]
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        floor = eps_floor(bath_x(io, build_initial_state(cfg, io), data[:, 0]))
        above = eps > floor
        vacuous = above & np.isinf(b_det)
        assert diag["samples_vacuous"] == np.count_nonzero(vacuous) > 4000
        assert diag["samples_below_floor"] == np.count_nonzero(~above)
        read = above & ~vacuous
        assert diag["max_ratio"] == ratio[read].max(initial=0.0)
        assert f"{diag['samples_vacuous']} with a vacuous bound" in summary

    def test_builds_only_the_rows_it_reads(self, tmp_path, chain_builds):
        # bound builds max(truncations) < N rows; min-modes builds no map
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model=LINEAR_16, truncations=[4, 1], t_max=2.5)
        assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        assert chain_builds == [4]
        assert main(["min-modes", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 0
        assert chain_builds == [4]

    def test_full_cut_builds_no_full_map(self, tmp_path, monkeypatch, chain_builds):
        # a cut at n = N is the bath itself: no command but build-chain and
        # min-modes runs RKPW, bound's n = N columns are exactly 0, and the
        # n = 1 columns are bitwise those of the run without the n = N cut
        def refuse(io):
            raise AssertionError("chain_coefficients called")

        monkeypatch.setattr(spectral, "chain_coefficients", refuse)
        N = LINEAR_16["N"]
        cfg = tmp_path / "cfg.json"
        for command in ("simulate", "bound"):
            tables = []
            for truncations in ([1, N], [1]):
                write_config(cfg, model=LINEAR_16, truncations=truncations, t_max=4.0)
                out = tmp_path / f"{command}.csv"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
                lines = [line.split(",") for line in out.read_text().splitlines()]
                tables.append({name: [row[j] for row in lines[1:]]
                               for j, name in enumerate(lines[0])})
            with_full, without = tables
            for name, column in without.items():
                assert with_full[name] == column
            full_cut = [name for name in with_full if name.endswith(f"_n{N}")]
            assert len(full_cut) == {"simulate": 1, "bound": 4}[command]
            for name in full_cut:
                expected = with_full["x_full"] if command == "simulate" else ["0"] * 512
                assert with_full[name] == expected
        assert chain_builds == [2, 2, 1, 1]
        write_config(cfg, sweep={"N": [4], "n": [1, 4, 8], "kT": [1.0]}, samples=64)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3:6] for row in rows[1:]] == [["0", "0", "ok"]] * 2

    def test_repeated_index_is_one_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, truncations=[1, 1, 2], t_max=2.5)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(
            ["t"] + [f"{kind}_n{n}" for n in (1, 2)
                     for kind in ("eps", "bound_det", "bound_thermal", "ratio")])

    def test_lone_cut_at_zero(self, tmp_path):
        # n = 0 alone builds one map row: its columns are those it has
        # beside a deeper cut, bit for bit
        cols = []
        for truncations in ([0], [0, 2]):
            cfg = tmp_path / "cfg.json"
            write_config(cfg, truncations=truncations, t_max=2.5)
            out = tmp_path / "bound.csv"
            assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
            lines = [line.split(",") for line in out.read_text().splitlines()]
            n0 = [j for j, name in enumerate(lines[0]) if name == "t" or name.endswith("_n0")]
            cols.append([[line[j] for j in n0] for line in lines])
        assert len(cols[0][0]) == 5 and cols[0] == cols[1]


class TestMinModesCommand:
    def test_huge_tolerance_all_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes={"times": [0.5, 1.0], "tols": [1e9]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert np.all(data[:, 1] == 0)

    def test_time_past_float64_reads_the_bath_size(self, tmp_path, capsys):
        # at t = 1e308 the bound's cosh arguments overflow: every cut n < N
        # reads inf, so the cell writes N, the bath itself, whose bound is 0;
        # no numpy warning reaches stderr
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes={"times": [1.0, 1e308], "tols": [1e-3]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[2] == "1e+308,4"
        side = json.loads((tmp_path / "mm.csv.resolved.json").read_text())
        assert side["diagnostics"]["uncertified_cells"] == 0

    def test_repeated_tolerance_is_one_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes={"times": [0.5, 1.0],
                                     "tols": [1e-2, 1e-4, 1e-2]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,n_tol_0.01,n_tol_0.0001"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_interior_cells_match_direct_bound(self, tmp_path):
        from chainbath import bounds, spectral
        from chainbath.cli import build_model, resolve_config

        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, min_modes={"times": [0.5, 1.5],
                                          "tols": [1e-2, 1e-5]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = np.loadtxt(lines[1:], delimiter=",")
        cfg = resolve_config(cfg_path, {})
        io = build_model(cfg)
        chain, _ = spectral.chain_from_io(io)
        th = bounds.ThermalState(cfg["kT"])
        for r, t in enumerate([0.5, 1.5]):
            for c, tol in enumerate([1e-2, 1e-5]):
                n = int(data[r, 1 + c])
                assert bounds.bound_thermal(io, chain, n, t, th) <= tol
                if n > 0:
                    assert bounds.bound_thermal(io, chain, n - 1, t, th) > tol

    @pytest.mark.parametrize("key", ["times", "tols"])
    def test_unsorted_inputs_are_checked_for_monotonicity(self, tmp_path, monkeypatch, key):
        # a table whose n falls as t grows (and grows as tol grows), given
        # its times or tolerances out of order: the check reads them sorted
        from chainbath import bounds

        monkeypatch.setattr(bounds, "min_modes", lambda io, chain, t, tol, th:
                            int(10 * tol + 4 / t))
        mm = {"times": [0.5, 1.0], "tols": [0.1, 0.2]}
        mm[key] = mm[key][::-1]
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes=mm)
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "mm.csv.resolved.json").read_text())["diagnostics"]
        assert diag["monotone_in_t"] is False and diag["monotone_in_tol"] is False

    @pytest.mark.parametrize("flag, cell", [
        ("monotone_in_t", lambda t, tol: int(4 / t)),  # n falls as t grows
        ("monotone_in_tol", lambda t, tol: int(10 * tol)),  # n falls as tol shrinks
    ])
    def test_each_monotone_flag_reads_its_own_axis(self, tmp_path, monkeypatch, flag, cell):
        # a table that breaks one order sets that flag alone false, and the
        # command still exits 0
        from chainbath import bounds

        monkeypatch.setattr(bounds, "min_modes", lambda io, chain, t, tol, th: cell(t, tol))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, min_modes={"times": [1.0, 0.5, 2.0], "tols": [0.1, 0.3, 0.2]})
        out = tmp_path / "mm.csv"
        assert main(["min-modes", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "mm.csv.resolved.json").read_text())["diagnostics"]
        for key in ("monotone_in_t", "monotone_in_tol"):
            assert diag[key] is (key != flag), key
        assert out.read_text().splitlines()[1:] == [
            ",".join([fmt(t)] + [str(cell(t, tol)) for tol in (0.1, 0.3, 0.2)])
            for t in (1.0, 0.5, 2.0)]


class TestSweep:
    def test_single_cell_matches_bound_style_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [4], "n": [1], "kT": [1.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,n,kT,max_eps,max_ratio,status,error"
        assert len(lines) == 2 and ",ok," in lines[1]

    def test_deterministic_and_sorted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [8, 4], "n": [2, 1], "kT": [1.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        h1 = sha(out)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert sha(out) == h1
        data = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert data == sorted(data, key=lambda r: (int(r[0]), int(r[1])))

    def test_a_cell_given_twice_is_one_cell(self, tmp_path):
        # one CSV row per distinct cell, as if given once; the timings are
        # the run's, not the cells'
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        for out, sweep in ((once, {"N": [4], "n": [1], "kT": [1.0]}),
                           (twice, {"N": [4, 4], "n": [1], "kT": [1.0, 1]})):
            write_config(tmp_path / "cfg.json", sweep=sweep)
            assert main(["sweep", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
        assert twice.read_bytes() == once.read_bytes()
        assert sorted(json.loads(Path(f"{twice}.timings.json").read_text())) == [
            "command_s", "write_s"]
        assert json.loads(Path(f"{twice}.resolved.json").read_text())["diagnostics"]["cells"] == 1

    def test_an_exit_2_writes_nothing(self, tmp_path, capsys):
        # an `--out` that is a directory is refused before any file is
        # written: the timings go last, after the CSV and the sidecar
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [4], "n": [1], "kT": [1.0]})
        out = tmp_path / "outdir"
        out.mkdir()
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "outdir"]
        assert not any(out.iterdir())

    def test_cells_build_only_their_cut(self, tmp_path, monkeypatch, chain_builds):
        # a cell reads map rows up to its cut min(n, N) when that is below N,
        # none at n >= N, and decomposes nothing larger than cut + 1: x_full
        # comes from the secular equation, not from a full map
        sizes = []
        decompose = dynamics._decompose
        monkeypatch.setattr(dynamics, "_decompose",
                            lambda A: sizes.append(len(A)) or decompose(A))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [4, 8], "n": [1, 2, 8], "kT": [1.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert chain_builds == [1, 2, 1, 2]
        assert sizes == [2, 3, 2, 3]

    def test_cells_match_bound_route(self, tmp_path):
        # max_eps is max|x_full - x_n| bitwise, recomputed from the cell's
        # seed with the full map; max_ratio reads above the rounding floor,
        # and a cell at n >= N, whose eps is 0, reads 0
        from chainbath import bounds, instances

        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, samples=256,
                           sweep={"N": [4, 16], "n": [2, 16], "kT": [0.5]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cells = sorted((N, n) for N in (4, 16) for n in (2, 16))
        seqs = np.random.SeedSequence(cfg["seed"]).spawn(len(cells))
        for row, (N, n), seq in zip(rows, cells, seqs, strict=True):
            max_eps, max_ratio = float(row[3]), float(row[4])
            if n >= N:
                assert max_eps == 0.0 and max_ratio == 0.0
                continue
            io = instances.random_io_model(np.random.default_rng(seq), N)
            init = bounds.sample_thermal(io, bounds.ThermalState(0.5), seq.spawn(1)[0])
            times = np.linspace(0.0, 3.0 / float(io.omega.max()), 256)
            chain, omap = chain_from_io(io)
            eps = np.abs(bath_x(io, init, times) - cut_x(chain, n, init, omap, times))
            assert max_eps == eps.max()
            b = bounds.bound_deterministic(io, chain, n, times, init)
            above = eps > eps_floor(bath_x(io, init, times))
            assert max_ratio == (eps[above] / b[above]).max()
            assert 0.0 < max_ratio <= 1.0

    def test_short_chains_read_above_the_floor(self, tmp_path):
        # the cells whose cut n = 4 < N leaves eps near rounding: max_ratio
        # reads no sample that rounding alone makes, so every cell's eps is
        # within its bound
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "linear", "N": 8, "omega_min": 0.5,
                                 "omega_max": 2.5, "c0": 0.5 / math.sqrt(8)},
                     Omega0=1.2, t_max=6.0, samples=512, truncations=[1, 2, 4],
                     sweep={"N": [4, 8, 16, 32], "n": [1, 2, 4], "kT": [0.1, 1.0, 10.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 36 and all(row[5] == "ok" for row in rows)
        assert all(0.0 <= float(row[4]) <= 1.0 for row in rows)

    def test_cell_is_a_pure_function_of_its_job(self):
        # one job run twice draws the same bath and thermal state: the cell
        # derives its seeds without spawning from the job's sequence
        job = (8, 4, 1.0, np.random.SeedSequence(12345).spawn(3)[1], 128)
        first = _sweep_cell(*job)
        assert first[5] == "ok"
        assert _sweep_cell(*job) == first

    def test_all_cells_failed(self, tmp_path, monkeypatch, capsys):
        # a valid grid whose every cell fails numerically writes its outputs,
        # exits 5 and says so in one stderr line
        def breakdown(io, rows=None):
            raise Breakdown("coupling D_1 below 1e-12*max(omega^2)")
        monkeypatch.setattr(spectral, "chain_from_io", breakdown)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"N": [4, 8], "n": [1, 2], "kT": [1.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 5
        assert capsys.readouterr().err.splitlines() == [
            "error: every sweep cell failed (Breakdown); outputs written"]
        assert out.read_text().count(",error,Breakdown\n") == 4
        side = json.loads((tmp_path / "sweep.csv.resolved.json").read_text())
        assert side["diagnostics"] == {"cells": 4, "failed": 4}
        assert (tmp_path / "sweep.csv.timings.json").exists()

    @pytest.mark.parametrize("sweep", [
        {"N": [4], "n": [-1], "kT": [1.0]},
        {"N": [4], "n": [0, 1], "kT": [1.0]},
        {"N": [0], "n": [1], "kT": [1.0]},
        {"N": [4], "n": [1], "kT": [-1.0]},
        {"N": [4], "n": [1], "kT": [0.0]},
        {"N": [4], "n": [1], "kT": [math.inf]},
        {"N": [4], "n": [1], "kT": [1.0, 1e300]},
        {"N": [], "n": [1], "kT": [1.0]},
        {"N": [4], "n": [], "kT": [1.0]},
        {"N": [4], "n": [1], "kT": []},
    ], ids=["n-negative", "n-zero", "N-zero", "kT-negative", "kT-zero", "kT-inf", "kT-huge",
            "N-empty", "n-empty", "kT-empty"])
    def test_bad_grid_is_refused_before_any_cell(self, tmp_path, monkeypatch, capsys, sweep):
        # N >= 1, n >= 1, kT within (0, 1.16e77], and at least one cell
        monkeypatch.setattr("chainbath.cli._sweep_cell", None)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep=sweep)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration or input: config.sweep.")
        assert err.count("\n") == 1
        assert not out.exists()


class TestRandomFamily:
    def test_large_bath_runs_without_a_full_map(self, tmp_path, monkeypatch, chain_builds):
        # one O(N) draw at N = 1024: each command exits 0, builds map rows
        # only up to its cuts and solves no eigenproblem above cut + 1, or
        # above the Gauss-Legendre rule's node count
        sizes = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda A, *a, solve=solve, **k: sizes.append(len(A))
                                or solve(A, *a, **k))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"family": "random", "N": 1024}, truncations=[1, 4], seed=3)
        for cmd in ("build-chain", "simulate", "kernels", "bound", "min-modes"):
            out = tmp_path / f"{cmd}.csv"
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
        assert chain_builds and max(chain_builds) <= 4
        assert sizes and max(sizes) <= max(5, len(kernels._GL_X))


class TestRunProtocol:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_run_says_where_its_time_went(self, tmp_path, monkeypatch, command):
        # `main` times the command and the writing of its outputs, and writes
        # the two times last, after the CSV and the sidecar
        written = []
        for name in ("write_csv", "write_json"):
            writer = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda path, payload, writer=writer:
                                written.append(Path(path).name) or writer(path, payload))
        write_config(tmp_path / "cfg.json", sweep={"N": [4], "n": [1], "kT": [1.0]})
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
        assert written == ["o.csv", "o.csv.resolved.json", "o.csv.timings.json"]
        timings = json.loads(Path(f"{out}.timings.json").read_text())
        assert sorted(timings) == ["command_s", "write_s"]
        assert all(0.0 <= value < math.inf for value in timings.values()), timings


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        for cmd in ("build-chain", "simulate", "kernels", "bound", "min-modes"):
            out = tmp_path / f"{cmd}.csv"
            hashes = set()
            for _ in range(2):
                assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
                hashes.add(sha(out))
            assert len(hashes) == 1, cmd

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out1 = tmp_path / "a.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "b.csv"
        assert main(["bound", "--config", str(out1) + ".resolved.json",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("cmd, section, given, spelled", [
        ("min-modes", "min_modes", {"times": [1.0]},
         {"times": [1.0], "tols": [1e-2, 1e-4, 1e-6]}),
        ("min-modes", "min_modes", {"tols": [1e-3]},
         {"times": [0.5, 1.0, 2.0], "tols": [1e-3]}),
        ("sweep", "sweep", {"n": [1], "kT": [1.0]}, {"N": [4], "n": [1], "kT": [1.0]}),
        ("sweep", "sweep", {"N": [8]}, {"N": [8], "n": [1], "kT": [1.0]}),
    ])
    def test_partial_section_takes_the_defaults(self, tmp_path, cmd, section, given, spelled):
        # a section that leaves keys out takes them from the defaults: the
        # bytes of the run that spells them out, sidecar included
        outs = []
        for name, value in (("part", given), ("full", spelled)):
            write_config(tmp_path / f"{name}.json", **{section: value})
            out = tmp_path / f"{name}.csv"
            assert main([cmd, "--config", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
            outs.append((out.read_bytes(), Path(str(out) + ".resolved.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_override_changes_thermal_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bound", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["bound", "--config", str(cfg), "--out", str(b),
                     "--seed", "99"]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("cmd", ["simulate", "build-chain", "kernels", "bound",
                                     "min-modes", "sweep"])
    def test_float_format_round_trips(self, tmp_path, cmd):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"omega": [1.0, 2.0], "c": [1 / 3, 2 / 7]},
                     truncations=[2])
        out = tmp_path / "out.csv"
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        text = {header.index(name) for name in ("status", "error") if name in header}
        # re-serialize every number with the same format: identical text
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            assert [c for j, c in enumerate(cells) if j not in text] == [
                fmt(float(c)) for j, c in enumerate(cells) if j not in text]

    def test_write_csv_text_contract(self, tmp_path):
        # numbers print as the per-value formatting did: str(int) for
        # integers, 17 significant digits for floats; text as it is
        ints = np.array([0, -7, 2**53 - 1], dtype=np.int64)
        floats = [0.1, -0.0, math.nan]
        edges = [math.inf, -math.inf, 5e-324]
        big = np.array([1e300, -1e-300, 1 / 3])
        text = ["", "ok", "Breakdown"]
        out = tmp_path / "t.csv"
        write_csv(out, {"i": ints, "a": floats, "b": edges, "c": big, "s": text})
        expect = "i,a,b,c,s\n" + "".join(
            f"{int(i)},{a:.17g},{b:.17g},{c:.17g},{s}\n"
            for i, a, b, c, s in zip(ints, floats, edges, big, text))
        assert out.read_bytes() == expect.encode()
        first = out.read_text().splitlines()[1]
        assert first == "0,0.10000000000000001,inf,1.0000000000000001e+300,"

    def test_write_csv_streams_blocks_of_rows(self, tmp_path):
        # a 65536 x 8 table (4 MB of doubles) goes out a block of rows at a
        # time: measured 0.28 MB traced, where whole columns as lists took 16
        rng = np.random.default_rng(3)
        cols = {f"c{j}": rng.standard_normal(65536) for j in range(8)}
        out = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv(out, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        lines = out.read_text().splitlines()
        assert len(lines) == 65537
        assert lines[-1] == ",".join(fmt(col[-1]) for col in cols.values())

    @pytest.mark.parametrize("lengths", [(1024, 2048), (2048, 1024), (1500, 1000)])
    def test_write_csv_refuses_uneven_columns(self, tmp_path, lengths):
        # a length mismatch shows in some block, whichever column is longer
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {f"c{j}": np.zeros(n) for j, n in enumerate(lengths)})
