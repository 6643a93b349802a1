"""Write `tests/x_reference.json`: x(t) of large random baths to 30 digits.

    PYTHONPATH=src:. python tests/make_x_reference.py

For each case in `CASES`, a (seed, N, margin) of
`test_dynamics.py::TestEvolveIoX::test_matches_dense_route_on_large_random_baths`
built by `tests.conftest.large_bath_case`, x(t) at the test's 257 samples
comes from the secular equation in `mpmath` at 30 digits: its N + 1 roots by
bracket-safeguarded Newton, started from the float64 roots of
`dynamics._secular_roots`, then the modal sum over the eigenvectors
(1, c_k / (lambda_j - omega_k^2)).  The test reads these samples in place
of the dense `eigh` oracle where that oracle is itself near or past the
test's bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
import numpy as np

from chainbath.dynamics import _secular_roots
from tests.conftest import LARGE_BATH_TIMES, large_bath_case

# the cases whose dense oracle is further than half the test's 1e-12
# max|x| from these samples: 2.27e-12, 7.64e-13, 1.08e-12 and 1.99e-12,
# where the secular route (`io_modes`) is within 4e-15 (the other five
# read 4e-14 to 4.4e-13)
CASES = [(0, 511, 1.0), (642921185, 542, 2.001), (2751905003, 318, 3.337),
         (210481816, 511, 1.623)]
PATH = Path(__file__).with_name("x_reference.json")


def case_key(seed, N, margin) -> str:
    return f"{seed}-{N}-{margin!r}"


def committed_reference(seed, N, margin):
    """The committed samples of the case, or None where there are none."""
    ref = json.loads(PATH.read_text()).get(case_key(seed, N, margin))
    return None if ref is None else np.array(ref)


def _root(g, dg, lo, hi, x):
    """The root of g, increasing on (lo, hi), from x by Newton's method,
    bisecting wherever a step leaves the shrinking bracket."""
    tol = mpmath.mpf(10) ** (2 - mpmath.mp.dps)
    for _ in range(400):
        gx = g(x)
        if gx < 0:
            lo = x
        else:
            hi = x
        step = gx / dg(x)
        new = x - step
        if not lo < new < hi:
            new = (lo + hi) / 2
        if abs(new - x) <= tol * abs(x) or hi - lo <= tol * abs(x):
            return new
        x = new
    raise RuntimeError("no convergence")


def x_reference(io, init, times, dps=30) -> np.ndarray:
    """x(t) at `times` from the secular equation at `dps` digits."""
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        poles = [mpf(w) ** 2 for w in io.omega]
        c = [mpf(v) for v in io.c]
        c2 = [v * v for v in c]
        alpha = mpf(io.Omega0) ** 2

        def g(lam):
            return lam - alpha - mpmath.fsum(ck / (lam - p) for ck, p in zip(c2, poles))

        def dg(lam):
            return 1 + mpmath.fsum(ck / (lam - p) ** 2 for ck, p in zip(c2, poles))

        sigma, tau = _secular_roots(io.omega**2, io.c**2, io.Omega0**2)
        # the stable bath has every root above 0; the last one below this
        top = max(poles[-1], alpha) + mpmath.fsum(c) + 1
        edges = [mpf(0)] + poles + [top]
        q0, qdot0 = [mpf(v) for v in init.q0], [mpf(v) for v in init.qdot0]
        x = [mpf(0)] * len(times)
        ts = [mpf(t) for t in times]
        for j in range(io.N + 1):
            lo, hi = edges[j], edges[j + 1]
            start = min(max(mpf(float(sigma[j])) + mpf(float(tau[j])), lo), hi)
            lam = _root(g, dg, lo, hi, start if lo < start < hi else (lo + hi) / 2)
            r = [ck / (lam - p) for ck, p in zip(c, poles)]
            norm2 = 1 + mpmath.fsum(v * v for v in r)
            a = (init.x0 + mpmath.fdot(r, q0)) / norm2
            w = mpmath.sqrt(lam)
            b = (init.xdot0 + mpmath.fdot(r, qdot0)) / (norm2 * w)
            for m, t in enumerate(ts):
                x[m] += a * mpmath.cos(w * t) + b * mpmath.sin(w * t)
        return np.array([float(v) for v in x])


def main() -> int:
    table = {}
    for case in CASES:
        io, init = large_bath_case(*case)
        table[case_key(*case)] = x_reference(io, init, LARGE_BATH_TIMES).tolist()
        print(case_key(*case), file=sys.stderr)
    PATH.write_text(json.dumps(table, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
