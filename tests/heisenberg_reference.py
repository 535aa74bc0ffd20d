"""Reference ladder operators and Heisenberg residual: one Python dict per state.

The ladder is how fqca applied ladder operators before they ran on word
arrays: it loops over the words of a state, with one popcount per word for
its sign. The residual is `fermion.heisenberg_image`'s closed form over
dicts: it steps op|w> and |w> for each spanning word with
`dict_engine.engine_step`, one state at a time, and sums both sides of the
image's identity in a dict keyed by (state, word). Both are kept only as
test oracles.
"""

import itertools

import numpy as np

from dict_engine import engine_step
from fock_algebra import prune
from fqca.fermion import LadderOp, OpKind
from fqca.lattice import (
    Boundary,
    Eps,
    FockState,
    LatticeConfig,
    PRUNE_THRESHOLD,
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
    config: LatticeConfig, op: LadderOp, image: np.ndarray, bosonic: bool = False
) -> float:
    # the spanning words in fermion's order, so both norms sum in one order
    L, nbits = config.L, config.n_sites
    ring = config.boundary is Boundary.PERIODIC
    cells = sorted({c % L for c in range(op.cell - 2, op.cell + 3) if ring or 0 <= c < L})
    bits = [bit_index(c, e) for c in cells for e in Eps]
    combos = itertools.chain.from_iterable(itertools.combinations(bits, n) for n in range(4))
    words = [sum(1 << b for b in combo) for combo in combos]
    seam = 1 | 1 << (nbits - 1)
    crossing = ring and bit_index(op.cell, op.eps) in (0, nbits - 1)
    # the engine drops a branch of modulus <= PRUNE_THRESHOLD, so the sum skips such a c
    terms = [
        (c, LadderOp(op.kind, cell, Eps(eps)))
        for (cell, eps), c in np.ndenumerate(image)
        if abs(c) > PRUNE_THRESHOLD
    ]
    diff: dict[tuple[int, int], complex] = {}
    for i, w in enumerate(words):
        # sigma(w), times (-1)^N(w) for a seam-crossing op, on the ring only
        odd = ring and ((w & seam).bit_count() + crossing * w.bit_count()) % 2
        lhs = engine_step(apply_ladder(FockState(config, {w: -1.0 if odd else 1.0}), op), bosonic)
        for w2, a in lhs.amplitudes.items():
            diff[(i, w2)] = a
        evolved = engine_step(FockState(config, {w: 1.0}), bosonic)
        for c, ladder in terms:
            for w2, a in apply_ladder(evolved, ladder).amplitudes.items():
                diff[(i, w2)] = diff.get((i, w2), 0.0) + -c * a
    return float(np.linalg.norm(np.array([diff[key] for key in sorted(diff)], dtype=complex)))
