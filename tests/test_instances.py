"""Parametric families and the seeded random instance generator."""

import re

import numpy as np
import pytest

from chainbath import spectral
from chainbath.instances import (
    MARGIN,
    RANGE,
    coupling_profile,
    geometric_spectrum,
    linear_spectrum,
    random_initial_state,
    random_io_model,
)
from chainbath.spectral import chain_from_io
from tests.oracles import assemble_io_matrix


def test_linear_spectrum_endpoints():
    w = linear_spectrum(5, 0.5, 2.5)
    assert w[0] == 0.5 and w[-1] == 2.5 and np.all(np.diff(w) > 0)


def test_geometric_spectrum_ratio():
    w = geometric_spectrum(4, 0.5, 4.0)
    ratios = w[1:] / w[:-1]
    assert ratios == pytest.approx(np.full(3, 2.0))


@pytest.mark.parametrize("omega_min, omega_max", [(0.0, 2.0), (1.0, -2.0)])
def test_geometric_spectrum_needs_positive_ends(omega_min, omega_max):
    name, value = ("omega_min", omega_min) if omega_min <= 0 else ("omega_max", omega_max)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must lie within [5e-324, inf], not {value!r}")):
        geometric_spectrum(4, omega_min, omega_max)


@pytest.mark.parametrize("ranges", [{"omega_range": (3.0, 0.5)},
                                    {"c_range": (0.1, 2 * RANGE[1])},
                                    {"Omega0_range": (RANGE[0] / 2, 1.0)},
                                    {"Omega0_range": (1.0, np.nan)}])
def test_random_ranges_lie_within_range(ranges):
    # each range is lo <= hi within RANGE, where the scaling's (sum c^2)^2 is
    # finite: lo is checked within RANGE, then hi within [lo, RANGE[1]]
    (name, (lo, hi)), = ranges.items()
    says = (f"{name}[0] must lie within [{RANGE[0]!r}, {RANGE[1]!r}], not {lo!r}"
            if not RANGE[0] <= lo else
            f"{name}[1] must lie within [{lo!r}, {RANGE[1]!r}], not {hi!r}")
    with pytest.raises(ValueError, match=re.escape(says)):
        random_io_model(np.random.default_rng(0), 4, **ranges)


@pytest.mark.parametrize("scale", [-0.5, 1e78, np.nan])
def test_random_state_scale_within_scale(scale):
    with pytest.raises(ValueError, match="scale must lie within"):
        random_initial_state(np.random.default_rng(0), 4, scale)


def test_coupling_profile_power_law():
    w = linear_spectrum(3, 1.0, 4.0)
    c = coupling_profile(w, 0.5, power=1.0)
    assert c == pytest.approx(0.5 * w / w[0])


def test_random_instances_admissible():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        io = random_io_model(rng, 6)
        chain, _ = chain_from_io(io)
        assert np.linalg.eigvalsh(assemble_io_matrix(io)).min() > 0
        assert chain.D0 < chain.Omega0 * chain.Omega[0]


def test_random_instances_deterministic():
    a = random_io_model(np.random.default_rng(5), 4)
    b = random_io_model(np.random.default_rng(5), 4)
    assert np.array_equal(a.omega, b.omega) and np.array_equal(a.c, b.c)


@pytest.mark.parametrize("N", [1, 2, 64, 1024])
def test_random_instance_is_one_scaled_draw(N, monkeypatch, no_eigensolve):
    # no chain, no eigensolve: one draw, its couplings scaled by one factor
    # s <= 1, the largest under which both regime limits hold with MARGIN
    # (equal to rounding when s < 1).  The default ranges mostly meet the
    # Schur limit first; a narrow, strongly coupled band meets the
    # resolvent limit first.
    def refuse(*args, **kwargs):
        raise AssertionError("chain built")
    monkeypatch.setattr(spectral, "chain_from_io", refuse)
    monkeypatch.setattr(spectral, "chain_coefficients", refuse)
    binding = set()
    for omega_range, c_range in (((0.5, 3.0), (0.1, 1.0)), ((1.0, 1.1), (1.5, 3.0))):
        for seed in range(4):
            io = random_io_model(np.random.default_rng(seed), N, omega_range, c_range)
            again = random_io_model(np.random.default_rng(seed), N, omega_range, c_range)
            assert np.array_equal(io.omega, again.omega) and np.array_equal(io.c, again.c)
            assert io.Omega0 == again.Omega0

            rng = np.random.default_rng(seed)
            assert np.array_equal(io.omega, np.sort(rng.uniform(*omega_range, N)))
            s = io.c / rng.uniform(*c_range, N)
            assert np.allclose(s, s[0], rtol=1e-15, atol=0.0) and s[0] <= 1.0
            c2 = io.c**2
            schur = np.sum(c2 / io.omega**2) / (MARGIN * io.Omega0**2)
            Omega1 = np.sqrt(np.sum(c2 * io.omega**2) / c2.sum())
            resolvent = np.sqrt(c2.sum()) / (MARGIN * io.Omega0 * Omega1)
            assert schur <= 1.0 + 1e-14 and resolvent <= 1.0 + 1e-14
            if s[0] < 1.0:
                assert max(schur, resolvent) >= 1.0 - 1e-14
                binding.add("schur" if schur > resolvent else "resolvent")
    # at N = 1 both limits read c^2/omega^2, and the resolvent's is tighter
    assert binding == ({"resolvent"} if N == 1 else {"schur", "resolvent"})
