"""Output checks: one verdict per CLI invocation.

An invocation passes only if it exits 0, its CSV parses with every numeric
value finite, and the command's own check below holds.  The checks read
only the files the CLI wrote, never chainbath itself, so a defect in the
library cannot hide a defect in its output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

# README: the closed resolvent solution matches the exact dynamics to
# better than 1e-6 (relative to the trajectory's scale).
VOLTERRA_RTOL = 1e-6
# Slack for rounding in a sum of O(1) sines; |K_i(tau)| <= tau^i/i! is exact.
KERNEL_FLOOR = 1e-12
# Truncation errors below this share of the largest error in the file sit
# at the float64 cancellation floor of |x_full - x_n| and are not compared
# with the bound.  The largest error (n = 1) is of the order of |x|.
EPS_FLOOR_REL = 1e-12

_STRING_COLUMNS = {"status", "error"}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path) -> dict[str, list]:
    """Columns by header name; numeric columns as floats.

    Raises ValueError when a row is ragged or a numeric cell is not a
    finite float.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0]:
        raise ValueError("empty CSV")
    header = rows[0]
    if any(len(r) != len(header) for r in rows[1:]):
        raise ValueError("ragged CSV row")
    cols = {}
    for name, cells in zip(header, zip(*rows[1:]) if len(rows) > 1 else [()] * len(header)):
        if name in _STRING_COLUMNS:
            cols[name] = list(cells)
            continue
        values = [float(c) for c in cells]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value in column {name}")
        cols[name] = values
    return cols


def _tau_bound(tau: float, i: int) -> float:
    """tau^i / i!, in log space so that large orders do not overflow."""
    if i == 0:
        return 1.0
    if tau <= 0.0:
        return 0.0
    return math.exp(i * math.log(tau) - math.lgamma(i + 1))


def _build_chain(cols, side):
    if not side.get("diagnostics", {}).get("passed"):
        return "equivalence residuals did not pass"
    return None


def _volterra_err(cols) -> float:
    return max(abs(a - b) for a, b in zip(cols["x_full"], cols["x_volterra"]))


def _simulate(cols, side):
    scale = max(abs(v) for v in cols["x_full"])
    err = _volterra_err(cols)
    if not err <= VOLTERRA_RTOL * scale:
        return f"max|x_full - x_volterra| = {err:.3e} > {VOLTERRA_RTOL:g} * {scale:.3e}"
    return None


def _kernels(cols, side):
    tau = cols["tau"]
    for name, values in cols.items():
        if not name.startswith("K_"):
            continue
        i = int(name[2:])
        excess = max(abs(v) - _tau_bound(t, i) for t, v in zip(tau, values))
        if excess > KERNEL_FLOOR:
            return f"|{name}(tau)| exceeds tau^{i}/{i}! by {excess:.3e}"
    return None


def _bound(cols, side):
    ns = [name[len("eps_n"):] for name in cols if name.startswith("eps_n")]
    floor = EPS_FLOOR_REL * max(max(cols[f"eps_n{n}"]) for n in ns)
    for n in ns:
        bad = sum(e > floor and e > b
                  for e, b in zip(cols[f"eps_n{n}"], cols[f"bound_det_n{n}"]))
        if bad:
            return f"eps_n{n} above bound_det_n{n} at {bad} samples above floor {floor:.3e}"
    return None


def _min_modes(cols, side):
    diag = side.get("diagnostics", {})
    if diag.get("uncertified_cells") != 0:
        return f"{diag.get('uncertified_cells')} uncertified cells"
    if not (diag.get("monotone_in_t") and diag.get("monotone_in_tol")):
        return "table not monotone in t and tol"
    return None


def _sweep(cols, side):
    failed = side.get("diagnostics", {}).get("failed")
    if failed != 0:
        return f"{failed} sweep cells failed"
    return None


_CHECKS = {"build-chain": _build_chain, "simulate": _simulate, "kernels": _kernels,
           "bound": _bound, "min-modes": _min_modes, "sweep": _sweep}


def check(command: str, returncode: int, out_path) -> tuple[str | None, dict]:
    """(failure reason or None, per-command facts) for one invocation."""
    if returncode != 0:
        return f"exit code {returncode}", {}
    try:
        cols = read_csv(out_path)
        with open(str(out_path) + ".resolved.json", encoding="utf-8") as fh:
            side = json.load(fh)
        reason = _CHECKS[command](cols, side)
        facts = {"volterra_err_max": _volterra_err(cols)} if command == "simulate" else {}
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", {}
    return reason, facts
