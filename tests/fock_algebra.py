"""Fock-space algebra that only the tests use: ladders on dict states,
ladder chains from the vacuum, overlaps, pruning, normalization and JSON,
sums of states and dense ladders.

No experiment applies a ladder to a dict state, chains creators from the
vacuum, takes an overlap, prunes, normalizes, adds or writes dict states, or
builds a ladder on the whole 2^(2L)-word occupation space, so these live
here. The ladders take their entries from `fermion._ladder_arrays`, so the
sign checks and the anticommutation checks exercise the ladder the package
runs.
"""

import numpy as np

from fqca.fermion import LadderOp, OpKind, _ladder_arrays
from fqca.lattice import PRUNE_THRESHOLD, FockState, LatticeConfig, word_dtype


def vacuum(config: LatticeConfig) -> FockState:
    return FockState(config, {0: 1.0 + 0.0j})


def apply_ladder(state: FockState, op: LadderOp) -> FockState:
    amps = state.amplitudes
    words = np.fromiter(amps, word_dtype(state.config.n_sites), len(amps))
    values = np.fromiter(amps.values(), complex, len(amps))
    out, a, _ = _ladder_arrays(state.config, op, words, values)
    return FockState(state.config, dict(zip(out.tolist(), a.tolist())))


def build_state(config: LatticeConfig, ops: list[LadderOp]) -> FockState:
    """Apply creation operators right-to-left to the vacuum."""
    if any(op.kind is not OpKind.CREATE for op in ops):
        raise ValueError("build_state takes creation operators only")
    state = vacuum(config)
    for op in reversed(ops):
        state = apply_ladder(state, op)
    return state


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b> over shared basis words, summed in ascending word order."""
    shared = sorted(a.amplitudes.keys() & b.amplitudes.keys())
    return sum(a.amplitudes[w].conjugate() * b.amplitudes[w] for w in shared)


def prune(state: FockState) -> FockState:
    """The state without its amplitudes of modulus <= PRUNE_THRESHOLD."""
    return FockState(
        state.config,
        {w: a for w, a in state.amplitudes.items() if abs(a) > PRUNE_THRESHOLD},
    )


def normalized(state: FockState) -> FockState:
    n = state.norm()
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return FockState(state.config, {w: a / n for w, a in state.amplitudes.items()})


def to_json_obj(state: FockState) -> dict:
    n = state.config.n_sites
    entries = [
        {
            "bits": format(w, f"0{n}b")[::-1],  # site (0,-) printed first
            "re": a.real,
            "im": a.imag,
        }
        for w, a in sorted(state.amplitudes.items())
    ]
    return {"L": state.config.L, "amplitudes": entries}


def combination(config: LatticeConfig, terms) -> FockState:
    """sum_i coeff_i |state_i> over (coeff, state) terms, pruned."""
    out: dict = {}
    for coeff, state in terms:
        for w, a in state.amplitudes.items():
            out[w] = out.get(w, 0.0) + coeff * a
    return prune(FockState(config, out))


def apply_combination(terms, state: FockState) -> FockState:
    """sum_i coeff_i op_i|state> over (coeff, ladder) terms, such as a Heisenberg image."""
    return combination(state.config, [(c, apply_ladder(state, op)) for c, op in terms])


def distance(a: FockState, b: FockState) -> float:
    """The norm of |a> - |b>."""
    return combination(a.config, [(1.0, a), (-1.0, b)]).norm()


def dense_ladder(config: LatticeConfig, op: LadderOp) -> np.ndarray:
    """Matrix of op on the full occupation space, indexed by word."""
    words = np.arange(1 << config.n_sites, dtype=word_dtype(config.n_sites))
    out, amps, cols = _ladder_arrays(config, op, words, np.ones(len(words), dtype=complex))
    mat = np.zeros((len(words), len(words)), dtype=complex)
    mat[out, cols] = amps
    return mat


def anticommutator(
    config: LatticeConfig, op1: LadderOp, op2: LadderOp, sector_max_n: int
) -> np.ndarray:
    """Matrix of {op1, op2} on the Fock space truncated at n <= sector_max_n.

    Built on the full occupation space (so no truncation artifacts leak in)
    and then restricted.
    """
    m1 = dense_ladder(config, op1)
    m2 = dense_ladder(config, op2)
    anti = m1 @ m2 + m2 @ m1
    keep = [w for w in range(len(anti)) if w.bit_count() <= sector_max_n]
    return anti[np.ix_(keep, keep)]
