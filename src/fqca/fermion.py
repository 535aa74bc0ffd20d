"""Position-space fermionic ladder operators on the occupation lattice.

The sign of a ladder operator acting on a basis word is (-1)^m with m the
number of occupied sites strictly preceding the target in canonical order,
i.e. a masked popcount of the lower bits.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .evolution import step_all
from .lattice import (
    Boundary,
    Eps,
    FockState,
    LatticeConfig,
    OutOfRangeError,
    bit_index,
    vacuum,
)


class OpKind(enum.Enum):
    CREATE = "create"
    ANNIHILATE = "annihilate"


class DimensionTooLargeError(Exception):
    pass


class NotLinearError(Exception):
    """Heisenberg image is not a linear combination of ladder operators."""

    def __init__(self, residual: float):
        super().__init__(
            f"conjugated operator is not a ladder combination (residual {residual:.3e})"
        )
        self.residual = residual


@dataclass(frozen=True)
class LadderOp:
    kind: OpKind
    cell: int
    eps: Eps

    def dagger(self) -> "LadderOp":
        other = OpKind.ANNIHILATE if self.kind is OpKind.CREATE else OpKind.CREATE
        return LadderOp(other, self.cell, self.eps)


@dataclass
class OpCombination:
    """Linear combination sum_i coeff_i * op_i, all ops of the same kind."""

    terms: list[tuple[complex, LadderOp]]

    def apply(self, state: FockState) -> FockState:
        out = FockState(state.config, {})
        for coeff, op in self.terms:
            out = out.add(apply_ladder(state, op).scaled(coeff))
        return out


def _jw_sign(word: int, bit: int) -> int:
    return -1 if (word & ((1 << bit) - 1)).bit_count() & 1 else 1


def apply_ladder(state: FockState, op: LadderOp) -> FockState:
    if not 0 <= op.cell < state.config.L:
        raise OutOfRangeError(f"cell {op.cell} outside lattice")
    b = bit_index(op.cell, op.eps)
    out: dict = {}
    create = op.kind is OpKind.CREATE
    for w, a in state.amplitudes.items():
        occupied = bool((w >> b) & 1)
        if create == occupied:
            continue  # double occupation / annihilating an empty site
        w2 = w | (1 << b) if create else w & ~(1 << b)
        out[w2] = out.get(w2, 0.0) + a * _jw_sign(w, b)
    return FockState(state.config, out).prune()


def build_state(config: LatticeConfig, ops: list[LadderOp]) -> FockState:
    """Apply creation operators right-to-left to the vacuum."""
    if any(op.kind is not OpKind.CREATE for op in ops):
        raise ValueError("build_state takes creation operators only")
    state = vacuum(config)
    for op in reversed(ops):
        state = apply_ladder(state, op)
    return state


def _dense_ladder(config: LatticeConfig, op: LadderOp, words: list[int]) -> np.ndarray:
    index = {w: i for i, w in enumerate(words)}
    mat = np.zeros((len(words), len(words)), dtype=complex)
    for w in words:
        img = apply_ladder(FockState(config, {w: 1.0}), op)
        for w2, a in img.amplitudes.items():
            mat[index[w2], index[w]] = a
    return mat


def anticommutator(
    config: LatticeConfig, op1: LadderOp, op2: LadderOp, sector_max_n: int
) -> np.ndarray:
    """Matrix of {op1, op2} on the Fock space truncated at n <= sector_max_n.

    Built on the full occupation space (so no truncation artifacts leak in)
    and then restricted.
    """
    if 2 * config.L > 12:
        raise DimensionTooLargeError("anticommutator needs L <= 6")
    words = list(range(1 << (2 * config.L)))
    m1 = _dense_ladder(config, op1, words)
    m2 = _dense_ladder(config, op2, words)
    anti = m1 @ m2 + m2 @ m1
    keep = [i for i, w in enumerate(words) if w.bit_count() <= sector_max_n]
    return anti[np.ix_(keep, keep)]


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
    config: LatticeConfig,
    op: LadderOp,
    bosonic: bool = False,
    residual_tol: float = 1e-10,
) -> OpCombination:
    """Numerically fit U op U^dag as a combination of nearest-cell ladders.

    Applies both sides of the conjugation identity to a spanning set of
    few-particle basis states near the target cell and solves the resulting
    least-squares problem. Raises NotLinearError when no linear combination
    reproduces the evolution (the residual test that makes the -1 gate
    phases necessary).
    """
    cells = bulk_cells(config)
    if op.cell not in cells:
        edge = "boundary" if config.boundary is Boundary.OPEN else "seam"
        raise OutOfRangeError(f"bulk cell required: distance >= {cells.start} from the {edge}")

    candidates = [
        LadderOp(op.kind, (op.cell + d) % config.L, e)
        for d in (-1, 1)
        for e in (Eps.MINUS, Eps.PLUS)
    ]
    # one engine batch: op|w> and |w> for each spanning word w, in turn
    words = _bulk_span_words(config, op.cell, max_n=3)
    pairs = ((apply_ladder(psi, op), psi) for psi in (FockState(config, {w: 1.0}) for w in words))
    images = step_all(itertools.chain.from_iterable(pairs), bosonic=bosonic)

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
    if residual > residual_tol:
        raise NotLinearError(residual)
    terms = [
        (complex(c), cand)
        for c, cand in zip(coeffs, candidates)
        if abs(c) > 1e-12
    ]
    return OpCombination(terms)
