"""Basis encoding, sparse states and their invariants."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from fqca.lattice import (
    Boundary,
    DuplicateSiteError,
    Eps,
    FockState,
    LatticeConfig,
    OutOfRangeError,
    basis_from_particles,
    basis_state,
    bit_index,
    inner_product,
    particle_count,
    particles_from_basis,
    sector_project,
    site_of_bit,
    vacuum,
)


def test_bit_layout():
    assert bit_index(0, Eps.MINUS) == 0
    assert bit_index(0, Eps.PLUS) == 1
    assert bit_index(3, Eps.MINUS) == 6
    assert site_of_bit(7) == (3, Eps.PLUS)


@given(st.integers(min_value=0, max_value=63))
def test_site_of_bit_roundtrip(bit):
    cell, eps = site_of_bit(bit)
    assert bit_index(cell, eps) == bit


def test_config_validation():
    with pytest.raises(OutOfRangeError):
        LatticeConfig(L=1)
    with pytest.raises(OutOfRangeError):
        LatticeConfig(L=65)
    with pytest.raises(OutOfRangeError):
        LatticeConfig(L=4, dx=-1.0)
    cfg = LatticeConfig(L=4, dx=0.5, dt=0.25, theta=0.3)
    assert cfg.n_sites == 8
    assert cfg.c == 2.0
    assert cfg.mass == pytest.approx(0.3 * 0.25 / 0.25)


def test_basis_packing_and_errors():
    cfg = LatticeConfig(L=4)
    w = basis_from_particles(cfg, [(2, Eps.PLUS), (0, Eps.MINUS)])
    assert w == (1 << 5) | 1
    assert particle_count(w) == 2
    assert particles_from_basis(w) == [(0, Eps.MINUS), (2, Eps.PLUS)]
    with pytest.raises(DuplicateSiteError):
        basis_from_particles(cfg, [(1, Eps.PLUS), (1, Eps.PLUS)])
    with pytest.raises(OutOfRangeError):
        basis_from_particles(cfg, [(4, Eps.MINUS)])


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([Eps.MINUS, Eps.PLUS])),
        unique=True,
        max_size=8,
    )
)
def test_pack_unpack_roundtrip(particles):
    cfg = LatticeConfig(L=6)
    try:
        w = basis_from_particles(cfg, particles)
    except DuplicateSiteError:
        # distinct (cell, eps) tuples cannot collide; only equal ones do
        raise AssertionError("unique site lists must pack")
    assert sorted(particles) == particles_from_basis(w)


def test_vacuum_and_norm():
    cfg = LatticeConfig(L=3)
    vac = vacuum(cfg)
    assert vac.norm() == 1.0
    assert vac.amplitude(0) == 1.0
    assert not vac.is_zero()


def test_add_scale_prune():
    cfg = LatticeConfig(L=3)
    a = basis_state(cfg, [(0, Eps.PLUS)])
    b = a.scaled(-1.0)
    assert a.add(b).is_zero()
    assert a.scaled(1e-20).is_zero()


def test_inner_product_conjugate_linear():
    cfg = LatticeConfig(L=3)
    a = basis_state(cfg, [(0, Eps.PLUS)]).scaled(1j)
    b = basis_state(cfg, [(0, Eps.PLUS)]).scaled(2.0)
    assert inner_product(a, b) == pytest.approx(-2j)
    assert inner_product(b, a) == pytest.approx(2j)
    # summed in word order, so the order amplitudes were inserted in cannot
    # move the rounding
    ones = FockState(cfg, {1: 1.0, 2: 1.0, 4: 1.0})
    x = FockState(cfg, {1: 1e16, 2: 1.0, 4: -1e16})
    y = FockState(cfg, {4: -1e16, 1: 1e16, 2: 1.0})
    assert inner_product(x, ones) == inner_product(y, ones) == 0.0
    assert inner_product(ones, x) == inner_product(ones, y) == 0.0


def test_sector_project():
    cfg = LatticeConfig(L=3)
    mix = vacuum(cfg).add(basis_state(cfg, [(1, Eps.MINUS), (2, Eps.PLUS)]))
    assert set(sector_project(mix, 0).amplitudes) == {0}
    two = sector_project(mix, 2)
    assert all(w.bit_count() == 2 for w in two.amplitudes)


def test_json_roundtrip_and_layout():
    cfg = LatticeConfig(L=3)
    state = basis_state(cfg, [(0, Eps.MINUS), (2, Eps.PLUS)]).scaled(0.5 + 0.25j)
    obj = state.to_json_obj()
    assert obj["L"] == 3
    (entry,) = obj["amplitudes"]
    # first character is the occupation of (cell 0, Minus)
    assert entry["bits"] == "100001"
    back = FockState.from_json_obj(json.loads(state.dump()), cfg)
    assert back.amplitudes == state.amplitudes


@given(st.integers(0, 2**8 - 1))
def test_json_roundtrip_random_words(word):
    cfg = LatticeConfig(L=4)
    state = FockState(cfg, {word: 0.7 - 0.1j})
    assert FockState.from_json_obj(state.to_json_obj(), cfg).amplitudes == state.amplitudes


def test_normalized():
    cfg = LatticeConfig(L=2)
    s = basis_state(cfg, [(0, Eps.PLUS)]).scaled(3.0)
    assert s.normalized().norm() == pytest.approx(1.0)
    assert math.isclose(s.norm(), 3.0)
