"""Position-space fermionic ladder operators on the occupation lattice.

The sign of a ladder operator acting on a basis word is (-1)^m with m the
number of occupied sites strictly preceding the target in canonical order,
i.e. a masked popcount of the lower bits. Ladders act on whole arrays of
words at once. The Heisenberg check holds the engine against a closed-form
image of a ladder, one walk step from its site, and steps all of its
states in one pass of the array engine.
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


def _span_words(config: LatticeConfig, center: int) -> list[int]:
    # all words with <= 3 particles on cells within distance 2 of center,
    # clipped at the open chain's edges and taken mod L on the ring
    L, ring = config.L, config.boundary is Boundary.PERIODIC
    cells = sorted({c % L for c in range(center - 2, center + 3) if ring or 0 <= c < L})
    bits = [bit_index(c, e) for c in cells for e in (Eps.MINUS, Eps.PLUS)]
    combos = itertools.chain.from_iterable(itertools.combinations(bits, n) for n in range(4))
    return [sum(1 << b for b in combo) for combo in combos]


def heisenberg_image(
    config: LatticeConfig, op: LadderOp, image: np.ndarray, bosonic: bool = False
) -> float:
    """How far the engine's U op U^dag is from the image sum_t image[t] op_t.

    image is an (L, 2) array on the walk's layout, and op_t is the ladder
    of op's kind at site t. For a creator, image is the walk's column for
    op's site (one walk step from it); for an annihilator, its conjugate.
    For each spanning word w (at most 3 particles on cells within 2 of
    op's), applies both sides of

        U op|w> = sigma(w) sum_t image[t] op_t U|w>

    in one engine pass, and returns the norm of their difference over all
    the words. It is near zero when the step is the free-fermion step the
    image describes, and far from zero under the bosonic phases. On the
    open chain sigma = 1. On the ring the seam's Jordan-Wigner string makes
    the image parity-dependent: sigma(w) = (-1)^(w_0 + w_{2L-1}), read from
    the seam-crossing sites before the step, times (-1)^N(w) when op's own
    site crosses the seam (bit 0 or 2L-1), N(w) the particle number.
    Every spanning word enters with modulus 1 and the engine drops a branch
    of modulus <= PRUNE_THRESHOLD, so the sum skips each such image[t].
    """
    nbits = config.n_sites
    span = _span_words(config, op.cell)
    twist = [0] * len(span)
    if config.boundary is Boundary.PERIODIC:
        seam = 1 | 1 << (nbits - 1)
        crossing = bit_index(op.cell, op.eps) in (0, nbits - 1)
        twist = [((w & seam).bit_count() + crossing * w.bit_count()) & 1 for w in span]
    # one engine pass: for the i-th spanning word w, +-op|w> is state 2i and
    # |w> is state 2i+1, and a key holds its state above the 2L word bits
    t = word_dtype(nbits + (2 * len(span) - 1).bit_length()).type
    odd = t(1 << nbits)
    words = np.array(span, dtype=t) | (np.arange(len(span), dtype=t) << t(nbits + 1))
    ones = np.ones(len(span), dtype=complex)
    op_words, op_amps, _ = _ladder_arrays(config, op, words, np.where(twist, -ones, ones))
    keys = np.concatenate([op_words, words | odd])
    order = np.argsort(keys)
    amps = np.concatenate([op_amps, ones])[order]
    keys, amps = step_keys(config, keys[order], amps, bosonic)

    # the difference, keyed by (i, word), summed in site order after the left side
    evolved = (keys & odd) != 0
    parts = [(keys[~evolved], amps[~evolved])]
    for site in np.flatnonzero(np.abs(image) > PRUNE_THRESHOLD).tolist():
        ladder = LadderOp(op.kind, site // 2, Eps(site % 2))
        k, a, _ = _ladder_arrays(config, ladder, keys[evolved] ^ odd, amps[evolved])
        parts.append((k, -image.flat[site] * a))
    rows, at = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    diff = np.zeros(len(rows), dtype=complex)
    np.add.at(diff, at, np.concatenate([a for _, a in parts]))
    return float(np.linalg.norm(diff))
