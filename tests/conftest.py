import re

import numpy as np
import pytest
from hypothesis import strategies as st

from chainbath.dynamics import cut_modes, io_modes, sample
from chainbath.instances import (
    coupling_profile,
    random_initial_state,
    random_io_model,
)
from chainbath.spectral import build_io_model, chain_from_io


def make_instance(seed, N, **kwargs):
    """Seeded admissible instance plus a generic initial state."""
    rng = np.random.default_rng(seed)
    io = random_io_model(rng, N, **kwargs)
    chain, omap = chain_from_io(io)
    init = random_initial_state(rng, io.N)
    return io, chain, omap, init


def bath_x(io, init, times):
    """The untruncated x(t) from the bath: row 0 of `io_modes` with no map
    rows, sampled."""
    return sample(io_modes(io, init, np.empty((0, io.N))), times)[0]


def cut_x(chain, n, init, omap, times):
    """x(t) of the chain cut after mode n, sampled."""
    return sample(cut_modes(chain, n, init, omap), times)[0]


def assert_outside_printed_interval(err):
    """A range refusal `... within [lo, hi], not v` in `err` prints a v that
    lies outside [lo, hi]: its bounds are printed exactly, not rounded."""
    for lo, hi, value in re.findall(r"within \[(\S+), (\S+)\], not (\S+)$", err, re.M):
        assert not float(lo) <= float(value) <= float(hi), err


@pytest.fixture
def no_eigensolve(monkeypatch):
    """np.linalg.eigvalsh and eigh raise for the length of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)


@pytest.fixture
def small_instance():
    return make_instance(1234, 4)


def random_bath(data, N):
    """Sorted frequencies with a minimum gap of 0.01, couplings log-uniform
    over [1e-6, 1].

    Hypothesis cannot draw baths above about 360 modes: over N in
    [1, 1536] its derandomized draws never exceed 361, and from about 900
    modes up it stops with `Unsatisfiable`.  Large baths come from
    `numpy_bath` instead."""
    gaps = data.draw(st.lists(st.floats(0.01, 0.2), min_size=N, max_size=N))
    log_c = data.draw(st.lists(st.floats(-6.0, 0.0), min_size=N, max_size=N))
    return build_io_model(0.1 + np.cumsum(gaps), 10.0 ** np.array(log_c), 1.0)


def numpy_bath(seed, N):
    """`random_bath`'s distribution drawn by numpy from a seed, at any N."""
    rng = np.random.default_rng(seed)
    return build_io_model(0.1 + np.cumsum(rng.uniform(0.01, 0.2, N)),
                          10.0 ** rng.uniform(-6.0, 0.0, N), 1.0)


def schur(io):
    """sum c_k^2/omega_k^2: the system's Omega0^2 must exceed it."""
    return float(np.sum(io.c**2 / io.omega**2))


# the sample grid of the large-bath dense-route check and its reference
LARGE_BATH_TIMES = np.linspace(0.0, 10.0, 257)


def large_bath_case(seed, N, margin):
    """The `numpy_bath` of (seed, N) with Omega0^2 = schur + margin, which
    keeps it stable, and a random initial state from seed."""
    bath = numpy_bath(seed, N)
    io = build_io_model(bath.omega, bath.c, np.sqrt(schur(bath) + margin))
    return io, random_initial_state(np.random.default_rng(seed), N)


def long_chain(spectrum, N=1024):
    """The N-mode bath on [0.5, 2.5] with ||c|| = 0.5 and Omega0 = 1.2."""
    omega = spectrum(N, 0.5, 2.5)
    return build_io_model(omega, coupling_profile(omega, 0.5 / np.sqrt(N)), 1.2)
