"""Ladder operators: signs, anticommutation, Heisenberg images.

The array ladder and the Heisenberg residual are checked against the
dict-based loops they replaced, kept in heisenberg_reference.py, exactly
(==, and for the ladder down to the sign of a zero part). The residual
holds the engine against the closed-form image of a ladder, one walk step
from its site, at every cell of either boundary.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import heisenberg_reference
from fock_algebra import (
    anticommutator,
    apply_combination,
    apply_ladder,
    build_state,
    dense_ladder,
    distance,
    vacuum,
)
from test_engine import AMPLITUDES, exact
from fqca import walk
from fqca.evolution import step
from fqca.fermion import LadderOp, OpKind, heisenberg_image
from fqca.lattice import (
    Boundary,
    Eps,
    FockState,
    LatticeConfig,
    basis_from_particles,
    basis_state,
    bit_index,
)


def cr(cell, eps):
    return LadderOp(OpKind.CREATE, cell, eps)


def an(cell, eps):
    return LadderOp(OpKind.ANNIHILATE, cell, eps)


def test_create_annihilate_basics():
    cfg = LatticeConfig(L=3)
    one = apply_ladder(vacuum(cfg), cr(1, Eps.PLUS))
    assert one.amplitudes == {1 << 3: 1.0}
    # double creation vanishes
    assert apply_ladder(one, cr(1, Eps.PLUS)).amplitudes == {}
    # annihilating an empty site vanishes
    assert apply_ladder(vacuum(cfg), an(0, Eps.MINUS)).amplitudes == {}
    assert apply_ladder(one, an(1, Eps.PLUS)).amplitudes == {0: 1.0}


def test_jordan_wigner_sign():
    cfg = LatticeConfig(L=3)
    # occupy the lowest site, then create above: no sign; create below an
    # occupied site: the string contributes -1 when acting past it
    low_then_high = build_state(cfg, [cr(2, Eps.PLUS), cr(0, Eps.MINUS)])
    high_then_low = build_state(cfg, [cr(0, Eps.MINUS), cr(2, Eps.PLUS)])
    w = (1 << 5) | 1
    assert low_then_high.amplitudes == {w: -1.0}
    assert high_then_low.amplitudes == {w: 1.0}


@st.composite
def creator_orders(draw):
    L = draw(st.sampled_from([2, 3, 4, 5, 6, 33, 64]))
    cfg = LatticeConfig(L=L, boundary=draw(st.sampled_from(list(Boundary))))
    site = st.tuples(st.integers(0, L - 1), st.sampled_from(list(Eps)))
    sites = draw(st.lists(site, unique=True, max_size=4))
    return cfg, sites, draw(st.permutations(sites))


@settings(deadline=None, max_examples=300)
@given(creator_orders())
def test_basis_word_is_the_canonical_ladder_chain(case):
    # two_particle_scatter starts from basis words and reads its probes by
    # word: that holds only because these creators, in canonical order, carry no sign
    cfg, sites, order = case
    word = basis_from_particles(cfg, sites)
    ascending = sorted(sites, key=lambda s: bit_index(*s))
    state = build_state(cfg, [cr(c, e) for c, e in ascending])
    assert exact(state) == {word: repr(1 + 0j)}
    # any other order is the canonical one times the sign of its permutation
    rank = [bit_index(*s) for s in order]
    inversions = sum(a > b for i, a in enumerate(rank) for b in rank[i + 1:])
    state = build_state(cfg, [cr(c, e) for c, e in order])
    assert state.amplitudes == {word: (-1) ** inversions}


def test_build_state_rejects_annihilators():
    cfg = LatticeConfig(L=3)
    with pytest.raises(ValueError):
        build_state(cfg, [an(0, Eps.PLUS)])


def test_ladder_out_of_range():
    cfg = LatticeConfig(L=3)
    with pytest.raises(ValueError, match="cell 3 outside lattice"):
        apply_ladder(vacuum(cfg), cr(3, Eps.PLUS))


def test_anticommutator_sector_truncation_shape():
    cfg = LatticeConfig(L=2)
    m = anticommutator(cfg, an(0, Eps.PLUS), cr(0, Eps.PLUS), sector_max_n=1)
    assert m.shape == (5, 5)  # vacuum + 4 one-particle words
    assert np.allclose(m, np.eye(5), atol=1e-14)


def walk_image(cfg, op) -> np.ndarray:
    """The image heisenberg_image checks op against: one walk step from op's
    site, conjugated for an annihilator."""
    column = walk.walk_step(cfg, walk.localized(cfg, op.cell, op.eps))
    return column if op.kind is OpKind.CREATE else column.conj()


def table(cfg, cell, eps) -> np.ndarray:
    """The image of a^dag at a bulk cell, written out by hand on the walk's layout."""
    c, s = math.cos(cfg.theta), math.sin(cfg.theta)
    image = np.zeros((cfg.L, 2), dtype=complex)
    if eps is Eps.PLUS:
        image[cell + 1] = s, c  # (cell + 1, minus), (cell + 1, plus)
    else:
        image[cell - 1] = c, -s
    return image


@pytest.mark.parametrize("theta", [0.1, 0.3])
def test_heisenberg_image_coefficients(theta):
    # the hand-written (cos, +-sin) table is the image of each creator and
    # annihilator, and it is the walk's column; a table with sin negated is not
    cfg = LatticeConfig(L=8, theta=theta, boundary=Boundary.OPEN)
    for eps in Eps:
        image = table(cfg, 4, eps)
        assert np.allclose(walk_image(cfg, cr(4, eps)), image, rtol=0, atol=1e-15)
        for op in (cr(4, eps), an(4, eps)):
            assert heisenberg_image(cfg, op, image) <= 1e-12
            assert heisenberg_image(cfg, op, table(replace(cfg, theta=-theta), 4, eps)) > 1e-3


def test_heisenberg_image_off_the_lattice():
    for boundary in Boundary:
        cfg = LatticeConfig(L=8, theta=0.2, boundary=boundary)
        for cell in (-1, 8):
            with pytest.raises(ValueError, match=f"cell {cell} outside lattice"):
                heisenberg_image(cfg, cr(cell, Eps.PLUS), np.zeros((8, 2), dtype=complex))


def _case(L, theta, boundary, op):
    cfg = LatticeConfig(L=L, theta=theta, boundary=boundary)
    name = f"L{L}-{boundary.value}-theta{theta}-{op.kind.value}-{op.cell}-{op.eps.name.lower()}"
    return pytest.param(cfg, op, id=name)


@pytest.mark.parametrize(
    "cfg, op",
    # the shipped heisenberg_check lattices, every kind and eps
    [_case(8, 0.3, Boundary.OPEN, LadderOp(k, 4, e)) for k in OpKind for e in Eps]
    + [_case(6, 0.3, Boundary.PERIODIC, LadderOp(k, 0, e)) for k in OpKind for e in Eps]
    + [
        _case(8, 0.1, Boundary.OPEN, cr(4, Eps.MINUS)),
        _case(8, -0.9, Boundary.OPEN, an(4, Eps.PLUS)),
        _case(8, 0.3, Boundary.OPEN, an(0, Eps.MINUS)),
        _case(8, 0.3, Boundary.PERIODIC, cr(4, Eps.PLUS)),
        # the ring's seam-crossing sites, and cells within 2 of the seam
        _case(8, 0.3, Boundary.PERIODIC, an(7, Eps.PLUS)),
        _case(8, -0.9, Boundary.PERIODIC, cr(1, Eps.MINUS)),
        _case(2, 0.3, Boundary.PERIODIC, an(1, Eps.MINUS)),
        # 128-bit words: the residual runs on object arrays
        _case(64, 0.3, Boundary.OPEN, cr(40, Eps.MINUS)),
        _case(64, 0.3, Boundary.PERIODIC, an(63, Eps.PLUS)),
    ],
)
def test_heisenberg_image_matches_dict_reference(cfg, op):
    # a sign error that negates every ladder alike leaves the residual
    # unchanged; test_apply_ladder_equals_reference_loop catches that one
    image = walk_image(cfg, op)
    for bosonic in (False, True):
        residual = heisenberg_image(cfg, op, image, bosonic=bosonic)
        assert isinstance(residual, float)
        assert residual > 1e-3 if bosonic else residual <= 1e-12
        assert residual == heisenberg_reference.heisenberg_image(cfg, op, image, bosonic)


@settings(deadline=None, max_examples=60)
@given(
    L=st.integers(2, 12),
    boundary=st.sampled_from(list(Boundary)),
    theta=st.floats(-math.pi, math.pi),
)
# sin(theta) at the pruning threshold: the engine drops those branches, so the image must too
@example(L=5, boundary=Boundary.PERIODIC, theta=1e-14)
def test_heisenberg_residual_at_every_cell(L, boundary, theta):
    # the closed form holds at every cell of either boundary, seam and edges
    # included; with the bosonic phases no cell's image is linear
    cfg = LatticeConfig(L=L, theta=theta, boundary=boundary)
    for cell in range(L):
        for op in (LadderOp(k, cell, e) for k in OpKind for e in Eps):
            image = walk_image(cfg, op)
            assert heisenberg_image(cfg, op, image) <= 1e-13
            assert heisenberg_image(cfg, op, image, bosonic=True) >= 1


@st.composite
def ladder_cases(draw):
    # 32 cells fill a 64-bit word exactly; 40 and 64 need Python-int words
    L = draw(st.one_of(st.integers(2, 6), st.sampled_from([32, 40, 64])))
    cfg = LatticeConfig(L=L)
    op = LadderOp(
        draw(st.sampled_from(list(OpKind))),
        draw(st.integers(0, L - 1)),
        draw(st.sampled_from(list(Eps))),
    )
    # dense random words and few-particle words, so particle numbers mix
    bits = st.lists(st.integers(0, cfg.n_sites - 1), max_size=4, unique=True)
    words = st.one_of(
        st.integers(0, (1 << cfg.n_sites) - 1), bits.map(lambda bs: sum(1 << b for b in bs))
    )
    return FockState(cfg, draw(st.dictionaries(words, AMPLITUDES, max_size=8))), op


@settings(deadline=None, max_examples=300)
@given(ladder_cases())
def test_apply_ladder_equals_reference_loop(case):
    state, op = case
    got = apply_ladder(state, op)
    want = heisenberg_reference.apply_ladder(state, op)
    assert got.amplitudes == want.amplitudes
    assert exact(got) == exact(want)


@pytest.mark.parametrize("L", [2, 3])
def test_dense_ladder_equals_loop_built_matrix(L):
    cfg = LatticeConfig(L=L)
    words = list(range(1 << cfg.n_sites))
    for kind in OpKind:
        for cell in range(L):
            for eps in Eps:
                op = LadderOp(kind, cell, eps)
                want = heisenberg_reference.dense_ladder(cfg, op, words)
                assert np.array_equal(dense_ladder(cfg, op), want)


def test_image_reproduces_evolution_on_two_particle_state():
    # conjugation identity applied to an entangled two-particle state
    cfg = LatticeConfig(L=8, theta=0.4, boundary=Boundary.OPEN)
    psi = basis_state(cfg, [(3, Eps.MINUS), (5, Eps.PLUS)])
    op = cr(4, Eps.PLUS)
    lhs = step(apply_ladder(psi, op))
    image = walk_image(cfg, op)
    terms = [(c, cr(cell, Eps(eps))) for (cell, eps), c in np.ndenumerate(image) if c]
    rhs = apply_combination(terms, step(psi))
    assert distance(lhs, rhs) < 1e-12
