import numpy as np
import pytest
from hypothesis import strategies as st

from chainbath.instances import (
    coupling_profile,
    random_initial_state,
    random_io_model,
)
from chainbath.spectral import build_io_model


def make_instance(seed, N, **kwargs):
    """Seeded admissible instance plus a generic initial state."""
    rng = np.random.default_rng(seed)
    io, chain, omap = random_io_model(rng, N, **kwargs)
    init = random_initial_state(rng, io.N)
    return io, chain, omap, init


@pytest.fixture
def small_instance():
    return make_instance(1234, 4)


def random_bath(data, N):
    """Sorted frequencies with a minimum gap of 0.01, couplings log-uniform
    over [1e-6, 1]."""
    gaps = data.draw(st.lists(st.floats(0.01, 0.2), min_size=N, max_size=N))
    log_c = data.draw(st.lists(st.floats(-6.0, 0.0), min_size=N, max_size=N))
    return build_io_model(0.1 + np.cumsum(gaps), 10.0 ** np.array(log_c), 1.0)


def long_chain(spectrum, N=1024):
    """The N-mode bath on [0.5, 2.5] with ||c|| = 0.5 and Omega0 = 1.2."""
    omega = spectrum(N, 0.5, 2.5)
    return build_io_model(omega, coupling_profile(omega, 0.5 / np.sqrt(N)), 1.2)
