"""Position-space fermionic ladder operators on the occupation lattice.

The sign of a ladder operator acting on a basis word is (-1)^m with m the
number of occupied sites strictly preceding the target in canonical order,
i.e. a masked popcount of the lower bits. Ladders act on whole arrays of
words at once, and the Heisenberg fit steps all of its states in one pass
of the array engine.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .evolution import step_keys
from .lattice import (
    Boundary,
    Eps,
    LatticeConfig,
    PRUNE_THRESHOLD,
    _bit_parity,
    bit_index,
    word_dtype,
)


class OpKind(enum.Enum):
    CREATE = "create"
    ANNIHILATE = "annihilate"


@dataclass(frozen=True)
class LadderOp:
    kind: OpKind
    cell: int
    eps: Eps


def _ladder_arrays(config: LatticeConfig, op: LadderOp, words: np.ndarray, amps: np.ndarray):
    """op applied to each basis word of an array, with its amplitude.

    Returns the image words op keeps, their amplitudes and their positions
    in words. Bits above the 2L word bits pass through untouched. A sign is
    the parity of the bits below op's site.
    """
    if not 0 <= op.cell < config.L:
        raise ValueError(f"cell {op.cell} outside lattice")
    b = bit_index(op.cell, op.eps)
    t = words.dtype.type
    bit = t(1 << b)
    # op keeps a word if it creates on an empty site or annihilates a full one
    pos = np.flatnonzero(((words & bit) != 0) != (op.kind is OpKind.CREATE))
    w = words[pos]
    a = amps[pos]
    # + 0.0 turns -0.0 into 0.0, as accumulating onto a 0.0 start does
    a = np.where(_bit_parity(w & t((1 << b) - 1)), -a, a) + 0.0
    keep = np.abs(a) > PRUNE_THRESHOLD
    return w[keep] ^ bit, a[keep], pos[keep]


def _bulk_span_words(config: LatticeConfig, center: int, max_n: int) -> list[int]:
    # all words with <= max_n particles on cells within distance 2 of center
    cells = [c for c in range(center - 2, center + 3) if 0 <= c < config.L]
    bits = [bit_index(c, e) for c in cells for e in (Eps.MINUS, Eps.PLUS)]
    words = [0]
    for n in range(1, max_n + 1):
        for combo in itertools.combinations(bits, n):
            w = 0
            for b in combo:
                w |= 1 << b
            words.append(w)
    return words


def bulk_cells(config: LatticeConfig) -> range:
    """Cells whose Heisenberg image heisenberg_image can fit.

    The spanning words reach two cells out, so an open chain needs that
    much room. On the ring the fit must also keep every spanning word off
    the seam, where wrap-around reordering makes the image parity-dependent.
    """
    margin = 2 if config.boundary is Boundary.OPEN else 3
    return range(margin, config.L - margin)


def heisenberg_image(
    config: LatticeConfig, op: LadderOp, bosonic: bool = False
) -> tuple[list[tuple[complex, LadderOp]], float]:
    """Numerically fit U op U^dag as a combination of nearest-cell ladders.

    Applies both sides of the conjugation identity to a spanning set of
    few-particle basis states near the target cell and solves the resulting
    least-squares problem. Returns the fit's (coeff, ladder) terms and its
    residual, the norm of what no linear combination reproduces: near zero
    when the image is linear, as the -1 gate phases make it, and far from
    zero when it is not, as under the bosonic phases.
    """
    cells = bulk_cells(config)
    if op.cell not in cells:
        edge = "boundary" if config.boundary is Boundary.OPEN else "seam"
        raise ValueError(f"bulk cell required: distance >= {cells.start} from the {edge}")

    candidates = [
        LadderOp(op.kind, (op.cell + d) % config.L, e)
        for d in (-1, 1)
        for e in (Eps.MINUS, Eps.PLUS)
    ]
    # one engine pass: for the i-th spanning word w, op|w> is state 2i and
    # |w> is state 2i+1, and a key holds its state above the 2L word bits
    nbits = config.n_sites
    span = _bulk_span_words(config, op.cell, max_n=3)
    t = word_dtype(nbits + (2 * len(span) - 1).bit_length()).type
    odd = t(1 << nbits)
    words = np.array(span, dtype=t) | (np.arange(len(span), dtype=t) << t(nbits + 1))
    ones = np.ones(len(span), dtype=complex)
    op_words, op_amps, _ = _ladder_arrays(config, op, words, ones)
    keys = np.concatenate([op_words, words | odd])
    order = np.argsort(keys)
    amps = np.concatenate([op_amps, ones])[order]
    keys, amps = step_keys(config, keys[order], amps, bosonic)

    # a row is a key of state 2i; it stands for (i, word)
    evolved = (keys & odd) != 0
    lhs, lhs_amps = keys[~evolved], amps[~evolved]
    cols = [_ladder_arrays(config, c, keys[evolved] ^ odd, amps[evolved])[:2] for c in candidates]
    # rows in (state, word) order, so the fit never depends on input order
    rows = np.sort(np.concatenate([lhs, *(k for k, _ in cols)]))
    rows = rows[np.append(True, rows[1:] != rows[:-1])]
    A = np.zeros((len(rows), len(candidates)), dtype=complex)
    for ci, (k, a) in enumerate(cols):
        A[np.searchsorted(rows, k), ci] = a
    y = np.zeros(len(rows), dtype=complex)
    y[np.searchsorted(rows, lhs)] = lhs_amps
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    terms = [(complex(c), cand) for c, cand in zip(coeffs, candidates) if abs(c) > 1e-12]
    return terms, float(np.linalg.norm(A @ coeffs - y))
