"""Gate structure, unitarity, locality and the crossing phase."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fock_algebra import combination, distance, vacuum
from fqca.evolution import _coin_layer, _run, _shift_layer, coin_matrix, evolve, shift_matrix, step
from fqca.lattice import (
    Boundary,
    Eps,
    FockState,
    LatticeConfig,
    basis_state,
    bit_index,
)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, -1.1])
@pytest.mark.parametrize("bosonic", [False, True])
def test_gates_unitary(theta, bosonic):
    for gate in (coin_matrix(theta, bosonic), shift_matrix(bosonic)):
        assert np.max(np.abs(gate.conj().T @ gate - np.eye(4))) < 1e-14


def test_coin_single_occupations():
    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    cfg = LatticeConfig(L=2, theta=theta)
    coin = [_coin_layer(cfg, False)]
    out = _run(basis_state(cfg, [(0, Eps.MINUS)]), coin).amplitudes
    assert out[0b01] == pytest.approx(s)  # stays Minus
    assert out[0b10] == pytest.approx(c)  # becomes Plus
    out = _run(basis_state(cfg, [(0, Eps.PLUS)]), coin).amplitudes
    assert out[0b01] == pytest.approx(c)
    assert out[0b10] == pytest.approx(-s)


def test_coin_double_occupation_phase():
    cfg = LatticeConfig(L=2, theta=0.7)
    full = basis_state(cfg, [(0, Eps.MINUS), (0, Eps.PLUS)])
    assert _run(full, [_coin_layer(cfg, False)]).amplitudes == {0b11: -1.0}
    assert _run(full, [_coin_layer(cfg, True)]).amplitudes == {0b11: 1.0}


def test_shift_moves_and_phase():
    cfg = LatticeConfig(L=3)
    shift = [_shift_layer(cfg, False)]
    plus = basis_state(cfg, [(0, Eps.PLUS)])
    assert _run(plus, shift).amplitudes == {1 << 2: 1.0}
    minus = basis_state(cfg, [(1, Eps.MINUS)])
    assert _run(minus, shift).amplitudes == {1 << 1: 1.0}
    crossing = basis_state(cfg, [(0, Eps.PLUS), (1, Eps.MINUS)])
    assert _run(crossing, shift).amplitudes == {(1 << 1) | (1 << 2): -1.0}


def test_vacuum_invariant():
    cfg = LatticeConfig(L=5, theta=0.4)
    assert step(vacuum(cfg)).amplitudes == {0: 1.0}


def test_periodic_wraparound():
    cfg = LatticeConfig(L=4, theta=0.0)
    edge = basis_state(cfg, [(3, Eps.PLUS)])
    assert step(edge).amplitudes == {1 << 1: 1.0}  # (0, Plus)


def test_open_boundary_edge_turnaround():
    # at theta=0 the right edge has no shift partner, so a Plus occupation
    # stays put and the coin turns it into the left-mover of the same cell
    cfg = LatticeConfig(L=3, theta=0.0, boundary=Boundary.OPEN)
    out = step(basis_state(cfg, [(2, Eps.PLUS)]))
    assert out.amplitudes == {1 << 4: 1.0}  # (2, Minus)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 2**8 - 1),
    st.floats(-1.5, 1.5, allow_nan=False),
    st.sampled_from([Boundary.PERIODIC, Boundary.OPEN]),
)
def test_step_preserves_norm_and_particle_number(word, theta, boundary):
    cfg = LatticeConfig(L=4, theta=theta, boundary=boundary)
    state = FockState(cfg, {word: 1.0})
    out = step(state)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    for w in out.amplitudes:
        assert w.bit_count() == word.bit_count()


def test_step_linear():
    cfg = LatticeConfig(L=4, theta=0.5)
    a = basis_state(cfg, [(0, Eps.PLUS)])
    b = basis_state(cfg, [(2, Eps.MINUS), (3, Eps.PLUS)])
    lhs = step(combination(cfg, [(0.6, a), (0.8j, b)]))
    rhs = combination(cfg, [(0.6, step(a)), (0.8j, step(b))])
    assert distance(lhs, rhs) < 1e-13


def test_evolve_counts():
    cfg = LatticeConfig(L=4, theta=0.2)
    s = basis_state(cfg, [(1, Eps.PLUS)])
    assert evolve(s, 0).amplitudes == s.amplitudes
    with pytest.raises(ValueError):
        evolve(s, -1)


def occupied_outside(state: FockState, cells, radius: int) -> int:
    """Bits that words of state occupy more than radius cells from every one of cells."""
    cfg = state.config
    cone = sum(
        1 << bit_index(j, e)
        for j in range(cfg.L)
        if min(cfg.distance(j, c) for c in cells) <= radius
        for e in Eps
    )
    support = 0
    for w in state.amplitudes:
        support |= w
    return support & ~cone


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.OPEN])
def test_light_cone_exact(boundary):
    # one excitation at the central cell stays within 3 cells over 3 steps,
    # and reaches the edge of that cone
    cfg = LatticeConfig(L=12, theta=0.8, boundary=boundary)
    out = evolve(basis_state(cfg, [(6, Eps.PLUS)]), 3)
    assert occupied_outside(out, [6], 3) == 0
    assert occupied_outside(out, [6], 2) != 0


def test_light_cone_multi_particle():
    for boundary in Boundary:
        cfg = LatticeConfig(L=12, theta=0.5, boundary=boundary)
        out = evolve(basis_state(cfg, [(5, Eps.MINUS), (6, Eps.PLUS)]), 3)
        assert occupied_outside(out, [5, 6], 3) == 0
        assert occupied_outside(out, [5, 6], 2) != 0
