"""Witness search and sign-rule constraint problem."""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import csp_reference
import witness_reference
from fqca import Boundary, Eps, LatticeConfig, basis_state, step
from fqca.cli import dump_json, main
from fqca.nogo import (
    CHAIN_SPEC,
    CORNERS,
    FootprintSpec,
    LatticeBounds,
    Site2D,
    chebyshev,
    check_witness_size,
    find_witness_triple,
    footprint,
    full_spec,
    min_witness_size,
    sign_csp,
    trivial_spec,
)

REPO = Path(__file__).resolve().parents[1]


def nontrivial(spec: FootprintSpec) -> bool:
    """Whether every label reaches every corner."""
    return all(spec.corner_targets(e, c) for e in range(spec.num_eps) for c in CORNERS)


def test_canonical_order_row_major():
    a = Site2D(3, 1, 1)
    b = Site2D(0, 2, 0)
    assert a < b and not b < a  # lower row wins regardless of column
    assert csp_reference.canonical_order(a, b) == -1
    assert csp_reference.canonical_order(b, a) == 1
    assert csp_reference.canonical_order(a, a) == 0
    # same cell: label 0 precedes label 1
    assert Site2D(1, 1, 0) < Site2D(1, 1, 1)
    assert csp_reference.canonical_order(Site2D(1, 1, 0), Site2D(1, 1, 1)) == -1


def test_footprint_interior_and_corner():
    spec = full_spec(2)
    bounds = LatticeBounds(5, 5)
    inner = footprint(Site2D(2, 2, 0), spec, bounds)
    assert len(inner) == 8  # four corners, two labels each
    corner = footprint(Site2D(0, 0, 1), spec, bounds)
    assert {(s.i, s.j) for s in corner} == {(1, 1)}


def test_trivial_spec_marches_diagonally():
    spec = trivial_spec(2)
    assert not nontrivial(spec)
    out = footprint(Site2D(1, 1, 0), spec, LatticeBounds(4, 4))
    assert out == {Site2D(2, 2, 0)}


def test_full_spec_nontrivial_and_eps_cap():
    assert nontrivial(full_spec(2))
    with pytest.raises(ValueError):
        full_spec(5)


def test_witness_path_respects_exclusion():
    # at 8 x 8 and min_distance 2 the shortest path that ignored s2 would pass next to it
    spec = full_spec(2)
    bounds = LatticeBounds(8, 8)
    triple = find_witness_triple(spec, bounds, min_distance=2)
    path = triple.path
    assert triple.s2 == Site2D(4, 4, 0)
    assert path[0] == triple.s1 and path[-1] == triple.s3
    assert all(chebyshev(s, triple.s2) >= 2 for s in path)
    for prev, nxt in zip(path, path[1:]):
        assert nxt in footprint(prev, spec, bounds)


# every one-cell displacement: a move along an axis changes the parity of i + j
MOVES = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
# each label reaches both labels along both axes, so every parity of s3 is reachable
AXES_SPEC = FootprintSpec(
    2, {e: {m: frozenset({0, 1}) for m in MOVES if 0 in m} for e in range(2)}
)


@st.composite
def footprint_specs(draw):
    """The full or trivial spec, or each label reaching a random label set by each of
    a random set of displacements, diagonal or along an axis."""
    num_eps = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["full", "trivial", "random"]))
    if kind == "full":
        return full_spec(num_eps)
    if kind == "trivial":
        return trivial_spec(num_eps)
    labels = st.frozensets(st.integers(0, num_eps - 1))
    moves = st.lists(st.sampled_from(MOVES), unique=True)
    return FootprintSpec(
        num_eps, {e: {m: draw(labels) for m in draw(moves)} for e in range(num_eps)}
    )


@settings(max_examples=200, deadline=None)
@given(
    spec=footprint_specs(),
    width=st.integers(1, 13),
    height=st.sampled_from([None, 1, 2, 3]),
    min_distance=st.integers(1, 4),
)
# the shipped and benchmark witness sizes
@example(spec=full_spec(2), width=15, height=None, min_distance=3)
@example(spec=full_spec(2), width=15, height=1, min_distance=3)
@example(spec=trivial_spec(2), width=15, height=None, min_distance=3)
# moves along the axes: no s3 may be skipped by the parity of i + j
@example(spec=AXES_SPEC, width=9, height=None, min_distance=3)
@example(spec=AXES_SPEC, width=5, height=None, min_distance=1)
def test_witness_matches_per_pair_search(spec, width, height, min_distance):
    bounds = LatticeBounds(width, width if height is None else height)
    assert find_witness_triple(spec, bounds, min_distance) == (
        witness_reference.find_witness_triple(spec, bounds, min_distance)
    )


def test_axis_moves_reach_the_first_s3_in_scan_order():
    # the first s3 of the scan is (7, 4, 0), of the other parity than s1
    triple = find_witness_triple(AXES_SPEC, LatticeBounds(9, 9), min_distance=3)
    assert triple.s3 == Site2D(7, 4, 0)
    assert (triple.s1.i + triple.s1.j) % 2 != (triple.s3.i + triple.s3.j) % 2
    assert triple.violations(AXES_SPEC, LatticeBounds(9, 9), 3) == 0


def test_witness_found_on_2d_lattice():
    triple = find_witness_triple(full_spec(2), LatticeBounds(15, 15), min_distance=3)
    assert triple is not None
    assert triple.s1 < triple.s2 < triple.s3
    assert all(chebyshev(s, triple.s2) >= 3 for s in triple.path)


def test_witness_violations_count_each_broken_condition():
    spec, bounds = full_spec(2), LatticeBounds(15, 15)
    triple = find_witness_triple(spec, bounds, min_distance=3)
    assert triple.violations(spec, bounds, 3) == 0
    path = triple.path
    near = sum(chebyshev(s, triple.s2) < 5 for s in path)
    assert near > 0
    cases = [
        (replace(triple, s1=triple.s3, s3=triple.s1), 2),  # out of order, ends swapped
        (replace(triple, path=path[:-1]), 1),  # stops short of s3
        (replace(triple, path=[]), 1),
        (replace(triple, path=path[:2] + path[1:]), 1),  # a step that stays put
    ]
    for corrupted, count in cases:
        assert corrupted.violations(spec, bounds, 3) == count
    # the distance is the caller's: the same path breaks a larger one
    assert triple.violations(spec, bounds, 5) == near


def test_no_witness_on_degenerate_1d_lattice():
    triple = find_witness_triple(full_spec(2), LatticeBounds(15, 1), min_distance=3)
    assert triple is None


def _automaton_moves(theta: float) -> dict:
    """label -> {(displacement, 0): labels} that one step of the automaton
    reaches from a lone particle at cell 1 of a 3-cell ring."""
    cfg = LatticeConfig(L=3, theta=theta, boundary=Boundary.PERIODIC)
    table = {}
    for eps in Eps:
        image = step(basis_state(cfg, [(1, eps)]))
        for word, amp in image.amplitudes.items():
            if amp:
                cell, label = divmod(word.bit_length() - 1, 2)
                table.setdefault(int(eps), {}).setdefault((cell - 1, 0), set()).add(label)
    return table


def test_chain_spec_is_the_automatons_moves():
    assert _automaton_moves(0.37) == CHAIN_SPEC.targets
    # at theta = 0 the coin is diagonal, so each move keeps one label: the
    # angle is what lets the table above see both
    still = _automaton_moves(0.0)
    assert still.keys() == CHAIN_SPEC.targets.keys()
    for eps, moves in still.items():
        assert moves.keys() == CHAIN_SPEC.targets[eps].keys()
        assert all(len(labels) == 1 for labels in moves.values())


def test_csp_1d_sat_with_crossing_rule():
    result = sign_csp(dimension=1, radius=1, spec=CHAIN_SPEC, lattice_size=6)
    assert result.sat
    assert result.num_constraints > 0

    def crosses(key):
        a, b = key
        before = (a[1], a[0], a[2]) < (b[1], b[0], b[2])
        after = (a[4], a[3], a[5]) < (b[4], b[3], b[5])
        return before != after

    for key, val in result.assignment.items():
        assert val == (-1 if crosses(key) else 1)


def test_csp_2d_unsat_with_far_certificate():
    result = sign_csp(dimension=2, radius=1, spec=full_spec(2), lattice_size=5)
    assert not result.sat
    assert result.violated
    for v in result.violated:
        assert v["separation"] > 1


def test_csp_2d_trivial_spec_sat():
    result = sign_csp(dimension=2, radius=1, spec=trivial_spec(2), lattice_size=5)
    assert result.sat
    assert all(v == 1 for v in result.assignment.values())


def test_csp_guards():
    with pytest.raises(ValueError, match="dimension must be 1 or 2"):
        sign_csp(dimension=3, radius=1, spec=full_spec(2))
    with pytest.raises(ValueError, match="radius <= 2 supported"):
        sign_csp(dimension=1, radius=3, spec=CHAIN_SPEC)
    with pytest.raises(ValueError, match="2D instance limited to 7 per side"):
        sign_csp(dimension=2, radius=1, spec=full_spec(2), lattice_size=9)


def test_witness_json_shape():
    triple = find_witness_triple(full_spec(2), LatticeBounds(11, 11), min_distance=3)
    obj = triple.to_json_obj()
    assert obj["type"] == "witness"
    assert len(obj["sites"]) == 3
    assert obj["path"][0] == obj["sites"][0]
    assert obj["path"][-1] == obj["sites"][2]


def test_csp_json_shapes():
    sat = sign_csp(dimension=1, radius=1, spec=CHAIN_SPEC, lattice_size=5).to_json_obj()
    assert sat["type"] == "sat"
    unsat = sign_csp(dimension=2, radius=1, spec=full_spec(2), lattice_size=5).to_json_obj()
    assert unsat["type"] == "unsat"
    assert unsat["violated_constraints"]


def test_min_witness_size_matches_search():
    # every size up to 4*min_distance + 7 holds a witness exactly from the bound on
    for min_distance in range(1, 6):
        for height in (None, 1, 2, 3, 6):
            smallest = min_witness_size(min_distance, height)
            sizes = range(1, 4 * min_distance + 8)
            found = [
                n for n in sizes
                if find_witness_triple(
                    full_spec(2), LatticeBounds(n, n if height is None else height), min_distance
                ) is not None
            ]
            assert found == ([] if smallest is None else list(range(smallest, sizes.stop)))


def test_check_witness_size():
    # a size below min_witness_size fails, unless no size holds a witness (height 1)
    for args in ((8, 3, None), (9, 3, 2), (2, 1, 3), (1, 3, 1), (15, 3, 1)):
        check_witness_size(*args)
    for args in ((7, 3, None), (8, 3, 2), (2, 1, 2)):
        with pytest.raises(ValueError):
            check_witness_size(*args)


def _csp_case(dimension, radius, spec, lattice_size):
    kind = "full" if nontrivial(spec) else "trivial"
    label = "1d" if spec is CHAIN_SPEC else f"{kind}{spec.num_eps}"
    return pytest.param(dimension, radius, spec, lattice_size, id=f"{label}-r{radius}-n{lattice_size}")


@pytest.mark.parametrize(
    "dimension, radius, spec, lattice_size",
    [_csp_case(1, r, CHAIN_SPEC, n) for r in (0, 1, 2) for n in range(2, 10)]
    + [
        _csp_case(2, r, full_spec(e), n)
        for r in (0, 1, 2)
        for e in (1, 2, 3, 4)
        for n in range(2, 7 if e <= 2 else 4)
    ]
    + [_csp_case(2, r, trivial_spec(2), n) for r in (0, 1, 2) for n in range(2, 7)]
    + [_csp_case(2, 1, full_spec(2), 7)]
    # the largest satisfiable 4-label instance the caps admit: 159,776 constraints
    + [_csp_case(2, 2, full_spec(4), 4)],
)
def test_csp_matches_reference_loop(dimension, radius, spec, lattice_size):
    # in 1D the reference takes its own copy of the automaton's moves
    got = sign_csp(dimension, radius, spec, lattice_size)
    want_spec = csp_reference.CHAIN_1D if spec is CHAIN_SPEC else spec
    want = csp_reference.sign_csp(dimension, radius, want_spec, lattice_size)
    assert dump_json(got.to_json_obj()) == dump_json(want.to_json_obj())


@st.composite
def footprints(draw):
    """A FootprintSpec of 1-4 labels, each reaching a random subset of the
    corners, each corner with a random nonempty set of target labels."""
    num_eps = draw(st.integers(1, 4))
    labels = st.frozensets(st.integers(0, num_eps - 1), min_size=1)
    corners = st.lists(st.sampled_from(CORNERS), unique=True)
    targets = {e: {c: draw(labels) for c in draw(corners)} for e in range(num_eps)}
    return FootprintSpec(num_eps, targets)


@settings(max_examples=40, deadline=None)
@given(spec=footprints(), radius=st.integers(0, 2), data=st.data())
def test_csp_matches_reference_on_random_footprints(spec, radius, data):
    # the reference keeps a check for one key demanding both signs, so a
    # conflict would show here as a mismatch
    lattice_size = data.draw(st.integers(2, 4 if spec.num_eps <= 2 else 3))
    got = sign_csp(2, radius, spec, lattice_size)
    want = csp_reference.sign_csp(2, radius, spec, lattice_size)
    assert dump_json(got.to_json_obj()) == dump_json(want.to_json_obj())


@pytest.mark.parametrize("lattice_size, golden", [(5, "nogo_csp_5x5"), (7, "nogo_csp_2d_7x7")])
def test_csp_certificate_golden(tmp_path, lattice_size, golden):
    # csp.json holds only integers, so it must match the stored file byte for byte
    cfg = json.loads((REPO / "experiments" / "nogo_csp.json").read_text())
    cfg["params"]["lattice_size"] = lattice_size
    cfg["output_dir"] = str(tmp_path / "out")
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "config.json"), "--quiet"]) == 0
    want = (REPO / "tests" / "data" / f"{golden}.csp.json").read_bytes()
    assert (tmp_path / "out" / "csp.json").read_bytes() == want
