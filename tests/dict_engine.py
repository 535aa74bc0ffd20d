"""Reference step engine: one Python dict rebuilt per two-site gate.

This is the engine fqca used before its array engine, kept only as a test
oracle. It defines the automaton's amplitudes gate by gate, pruning after
every gate, so the array engine is checked against it with ==. It steps
with the bosonic phases on request. fqca's own step and evolve run the
fermionic phases only, so the tests step the array engine through
engine_step, which runs either.
"""

from fqca.evolution import _run, _step_layers, coin_matrix, evolve, shift_matrix
from fqca.lattice import Boundary, FockState, PRUNE_THRESHOLD


def apply_pair_gate(amps: dict, p1: int, p2: int, gate) -> dict:
    out: dict = {}
    for w, a in amps.items():
        b1 = (w >> p1) & 1
        b2 = (w >> p2) & 1
        col = 2 * b1 + b2
        base = w & ~(1 << p1) & ~(1 << p2)
        for row in range(4):
            g = gate[row, col]
            if g == 0:
                continue
            w2 = base
            if row & 2:
                w2 |= 1 << p1
            if row & 1:
                w2 |= 1 << p2
            out[w2] = out.get(w2, 0.0) + a * g
    return {w: a for w, a in out.items() if abs(a) > PRUNE_THRESHOLD}


def apply_coin(state: FockState, bosonic: bool = False) -> FockState:
    cfg = state.config
    gate = coin_matrix(cfg.theta, bosonic)
    amps = state.amplitudes
    for j in range(cfg.L):
        amps = apply_pair_gate(amps, 2 * j, 2 * j + 1, gate)
    return FockState(cfg, amps)


def apply_shift(state: FockState, bosonic: bool = False) -> FockState:
    cfg = state.config
    gate = shift_matrix(bosonic)
    npairs = cfg.L if cfg.boundary is Boundary.PERIODIC else cfg.L - 1
    amps = state.amplitudes
    for j in range(npairs):
        amps = apply_pair_gate(amps, 2 * j + 1, (2 * j + 2) % (2 * cfg.L), gate)
    return FockState(cfg, amps)


def step(state: FockState, bosonic: bool = False) -> FockState:
    return apply_coin(apply_shift(state, bosonic), bosonic)


def engine_step(state: FockState, bosonic: bool = False, nsteps: int = 1) -> FockState:
    """nsteps steps of the array engine: fqca's evolve, or its layers with the bosonic phases."""
    if bosonic:
        return _run(state, _step_layers(state.config, True) * nsteps)
    return evolve(state, nsteps)
