"""Basis encoding, sparse states and their invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fock_algebra import inner_product, normalized, prune, to_json_obj, vacuum
from fqca.lattice import (
    Boundary,
    Eps,
    FockState,
    LatticeConfig,
    PRUNE_THRESHOLD,
    _bit_parity,
    basis_from_particles,
    bit_index,
)


def test_bit_layout():
    assert bit_index(0, Eps.MINUS) == 0
    assert bit_index(0, Eps.PLUS) == 1
    assert bit_index(3, Eps.MINUS) == 6
    assert bit_index(3, Eps.PLUS) == 7


def test_config_validation():
    with pytest.raises(ValueError, match="L must be >= 2, got 1"):
        LatticeConfig(L=1)
    with pytest.raises(ValueError, match="L must be <= 64, got 65"):
        LatticeConfig(L=65)
    with pytest.raises(ValueError, match="dx and dt must be positive"):
        LatticeConfig(L=4, dx=-1.0)
    cfg = LatticeConfig(L=4, dx=0.5, dt=0.25, theta=0.3)
    assert cfg.n_sites == 8
    assert cfg.c == 2.0
    assert cfg.mass == pytest.approx(0.3 * 0.25 / 0.25)


def test_basis_packing_and_errors():
    cfg = LatticeConfig(L=4)
    w = basis_from_particles(cfg, [(2, Eps.PLUS), (0, Eps.MINUS)])
    assert w == (1 << 5) | 1
    with pytest.raises(ValueError, match=r"site \(cell=1, eps=PLUS\) repeated"):
        basis_from_particles(cfg, [(1, Eps.PLUS), (1, Eps.PLUS)])
    with pytest.raises(ValueError, match=r"cell 4 outside \[0, 4\)"):
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
    except ValueError:
        # distinct (cell, eps) tuples cannot collide; only equal ones do
        raise AssertionError("unique site lists must pack")
    assert w == sum(1 << bit_index(cell, eps) for cell, eps in particles)


def test_vacuum_and_norm():
    cfg = LatticeConfig(L=3)
    vac = vacuum(cfg)
    assert vac.norm() == 1.0
    assert vac.amplitudes == {0: 1.0}


def test_prune_returns_new_state():
    cfg = LatticeConfig(L=3)
    amps = {1: 1.0, 2: 1e-20, 4: -PRUNE_THRESHOLD, 8: 2 * PRUNE_THRESHOLD}
    state = FockState(cfg, dict(amps))
    pruned = prune(state)
    assert pruned.amplitudes == {1: 1.0, 8: 2 * PRUNE_THRESHOLD}
    # states are never mutated, so the original keeps every amplitude
    assert state.amplitudes == amps
    assert prune(FockState(cfg, {1: 1e-20})).amplitudes == {}


def test_inner_product_conjugate_linear():
    cfg = LatticeConfig(L=3)
    a = FockState(cfg, {1 << 1: 1j})
    b = FockState(cfg, {1 << 1: 2.0})
    assert inner_product(a, b) == pytest.approx(-2j)
    assert inner_product(b, a) == pytest.approx(2j)
    # summed in word order, so the order amplitudes were inserted in cannot
    # move the rounding
    ones = FockState(cfg, {1: 1.0, 2: 1.0, 4: 1.0})
    x = FockState(cfg, {1: 1e16, 2: 1.0, 4: -1e16})
    y = FockState(cfg, {4: -1e16, 1: 1e16, 2: 1.0})
    assert inner_product(x, ones) == inner_product(y, ones) == 0.0
    assert inner_product(ones, x) == inner_product(ones, y) == 0.0


def test_json_roundtrip_and_layout():
    cfg = LatticeConfig(L=3)
    word = basis_from_particles(cfg, [(0, Eps.MINUS), (2, Eps.PLUS)])
    obj = to_json_obj(FockState(cfg, {word: 0.5 + 0.25j}))
    assert obj["L"] == 3
    # first character is the occupation of (cell 0, Minus)
    assert obj["amplitudes"] == [{"bits": "100001", "re": 0.5, "im": 0.25}]


def test_normalized():
    cfg = LatticeConfig(L=2)
    s = FockState(cfg, {1 << 1: 3.0})
    assert normalized(s).norm() == pytest.approx(1.0)
    assert math.isclose(s.norm(), 3.0)


def xor_fold_parity(words: np.ndarray, nbits: int) -> np.ndarray:
    """_bit_parity's xor-fold of the bits below nbits, which uint64 words
    took before np.bitwise_count, and every dtype before object words
    counted their bits with int.bit_count."""
    t = words.dtype.type
    fold = words
    shift = 1 << max(nbits - 1, 0).bit_length()
    while shift > 1:
        shift >>= 1
        fold = fold ^ (fold >> t(shift))
    return (fold & t(1)) != 0


def popcount_parity(words) -> list[bool]:
    return [bin(w).count("1") & 1 == 1 for w in words]


@given(st.lists(st.integers(0, (1 << 128) - 1), max_size=40))
def test_bit_parity_of_object_words(words):
    for extra in ([], [1 << 127], [(1 << 128) - 1, 1 << 127 | 1]):
        ws = words + extra
        odd = _bit_parity(np.array(ws, dtype=object))
        assert odd.dtype == bool and odd.shape == (len(ws),)
        assert odd.tolist() == popcount_parity(ws)


def test_bit_parity_of_empty_arrays():
    for dtype in (object, np.uint64):
        odd = _bit_parity(np.array([], dtype=dtype))
        assert odd.dtype == bool and odd.shape == (0,)


@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=40), st.integers(1, 64))
def test_bit_parity_of_uint64_words(words, nbits):
    ws = [w & ((1 << nbits) - 1) for w in words]
    u = np.array(ws, dtype=np.uint64)
    odd = _bit_parity(u)
    assert odd.dtype == bool
    assert np.array_equal(odd, xor_fold_parity(u, nbits))
    assert odd.tolist() == popcount_parity(ws)
    # the same 64-bit words as Python ints take the object path
    assert _bit_parity(np.array(ws, dtype=object)).tolist() == odd.tolist()
