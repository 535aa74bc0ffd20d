"""Reference ladder operators and Heisenberg fit: one Python dict per state.

This is how fqca applied ladder operators and fitted Heisenberg images
before both ran on word arrays, kept only as a test oracle. A ladder loops
over the words of a state, with one popcount per word for its sign. The fit
steps op|w> and |w> for each spanning word with `step`, one state at a
time, and fills its least-squares matrix row by row from dicts keyed by
(state, word).
"""

import itertools

import numpy as np

from fock_algebra import prune
from fqca.evolution import step
from fqca.fermion import (
    LadderOp,
    OpKind,
    _bulk_span_words,
    bulk_cells,
)
from fqca.lattice import (
    Boundary,
    Eps,
    FockState,
    LatticeConfig,
    bit_index,
)


def _jw_sign(word: int, bit: int) -> int:
    return -1 if (word & ((1 << bit) - 1)).bit_count() & 1 else 1


def apply_ladder(state: FockState, op: LadderOp) -> FockState:
    if not 0 <= op.cell < state.config.L:
        raise ValueError(f"cell {op.cell} outside lattice")
    b = bit_index(op.cell, op.eps)
    out: dict = {}
    create = op.kind is OpKind.CREATE
    for w, a in state.amplitudes.items():
        occupied = bool((w >> b) & 1)
        if create == occupied:
            continue  # double occupation / annihilating an empty site
        w2 = w | (1 << b) if create else w & ~(1 << b)
        out[w2] = out.get(w2, 0.0) + a * _jw_sign(w, b)
    return prune(FockState(state.config, out))


def dense_ladder(config: LatticeConfig, op: LadderOp, words: list[int]) -> np.ndarray:
    index = {w: i for i, w in enumerate(words)}
    mat = np.zeros((len(words), len(words)), dtype=complex)
    for w in words:
        img = apply_ladder(FockState(config, {w: 1.0}), op)
        for w2, a in img.amplitudes.items():
            mat[index[w2], index[w]] = a
    return mat


def heisenberg_image(
    config: LatticeConfig, op: LadderOp, bosonic: bool = False
) -> tuple[list[tuple[complex, LadderOp]], float]:
    cells = bulk_cells(config)
    if op.cell not in cells:
        edge = "boundary" if config.boundary is Boundary.OPEN else "seam"
        raise ValueError(f"bulk cell required: distance >= {cells.start} from the {edge}")

    candidates = [
        LadderOp(op.kind, (op.cell + d) % config.L, e)
        for d in (-1, 1)
        for e in (Eps.MINUS, Eps.PLUS)
    ]
    # op|w> and |w> for each spanning word w, in turn
    words = _bulk_span_words(config, op.cell, max_n=3)
    pairs = ((apply_ladder(psi, op), psi) for psi in (FockState(config, {w: 1.0}) for w in words))
    images = (step(psi, bosonic) for psi in itertools.chain.from_iterable(pairs))

    lhs_entries: dict[tuple[int, int], complex] = {}
    col_entries: list[dict[tuple[int, int], complex]] = [{} for _ in candidates]
    for si, (lhs, evolved) in enumerate(zip(images, images)):  # consecutive pairs
        for w2, a in lhs.amplitudes.items():
            lhs_entries[(si, w2)] = a
        for ci, cand in enumerate(candidates):
            img = apply_ladder(evolved, cand)
            for w2, a in img.amplitudes.items():
                col_entries[ci][(si, w2)] = a

    # rows in (state, word) order, so the fit never depends on dict order
    rows = sorted(set(lhs_entries).union(*col_entries))
    A = np.zeros((len(rows), len(candidates)), dtype=complex)
    y = np.zeros(len(rows), dtype=complex)
    for ri, key in enumerate(rows):
        y[ri] = lhs_entries.get(key, 0.0)
        for ci in range(len(candidates)):
            A[ri, ci] = col_entries[ci].get(key, 0.0)
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(np.linalg.norm(A @ coeffs - y))
    return [(complex(c), cand) for c, cand in zip(coeffs, candidates) if abs(c) > 1e-12], residual
