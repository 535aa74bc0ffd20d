"""Dense single-particle quantum walk, the oracle for the one-particle sector.

Implemented on its own data layout (an (L, 2) spinor array, column 0 = R,
column 1 = L) with no shared evolution code, so agreement with the automaton
is evidence rather than tautology. The identification used project-wide is
Plus <-> R and Minus <-> L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import step as qca_step
from .lattice import Boundary, Eps, LatticeConfig, basis_state

R, L_ = 0, 1  # spinor component indices


@dataclass
class WalkState:
    config: LatticeConfig
    spinors: np.ndarray  # shape (L, 2) complex

    @classmethod
    def localized(cls, config: LatticeConfig, cell: int, eps: Eps) -> "WalkState":
        psi = np.zeros((config.L, 2), dtype=complex)
        psi[cell, R if eps is Eps.PLUS else L_] = 1.0
        return cls(config, psi)


def walk_step(state: WalkState) -> WalkState:
    """Shift R right / L left, then rotate the coin by theta.

    Under the open boundary the edge components that cannot move stay put on
    their own sublattice side, which is exactly how the automaton's uncoupled
    seam sites behave.
    """
    cfg = state.config
    psi = state.spinors
    n = cfg.L
    # chi_minus collects what sits on a cell's Minus side after the shift,
    # chi_plus its Plus side.
    chi_minus = np.empty(n, dtype=complex)
    chi_plus = np.empty(n, dtype=complex)
    chi_minus[1:] = psi[:-1, R]
    chi_plus[:-1] = psi[1:, L_]
    if cfg.boundary is Boundary.PERIODIC:
        chi_minus[0] = psi[n - 1, R]
        chi_plus[n - 1] = psi[0, L_]
    else:
        # + 0j turns -0.0 parts into 0.0, as adding onto a zero start does
        chi_plus[n - 1] = psi[n - 1, R] + 0j   # right edge: R stays, on the Plus side
        chi_minus[0] = psi[0, L_] + 0j         # left edge: L stays, on the Minus side
    c, s = np.cos(cfg.theta), np.sin(cfg.theta)
    out = np.empty_like(psi)
    out[:, R] = c * chi_minus - s * chi_plus
    out[:, L_] = s * chi_minus + c * chi_plus
    return WalkState(cfg, out)


def _qca_one_particle_spinors(state) -> np.ndarray:
    """Project a one-particle FockState onto the walk's (L, 2) layout."""
    words = state.words.tolist()
    # a word's one set bit, or -1 for a word with any other number of them
    bits = np.array([w.bit_length() - 1 if w.bit_count() == 1 else -1 for w in words], np.intp)
    if (bits < 0).any():
        raise ValueError("state is not in the one-particle sector")
    psi = np.zeros((state.config.L, 2), dtype=complex)
    # bit 2j + 1 is (cell j, Plus) and bit 2j is (cell j, Minus)
    psi[bits >> 1, np.where(bits & 1, R, L_)] = state.amps
    return psi


def compare_one_particle(
    config: LatticeConfig, init: tuple[int, Eps], nsteps: int
) -> float:
    """Max amplitude deviation between walk and automaton over nsteps."""
    cell, eps = init
    walk = WalkState.localized(config, cell, Eps(eps))
    qca = basis_state(config, [(cell, Eps(eps))])
    diff = np.empty((nsteps, config.L, 2), dtype=complex)
    for t in range(nsteps):
        walk = walk_step(walk)
        qca = qca_step(qca)
        diff[t] = walk.spinors - _qca_one_particle_spinors(qca)
    return float(np.abs(diff).max(initial=0.0))


def wavepacket_trace(
    config: LatticeConfig, init: tuple[int, Eps], nsteps: int
) -> list[tuple[int, int, float]]:
    """(step, cell, prob) rows for a localized start, for light-cone plots."""
    state = WalkState.localized(config, init[0], Eps(init[1]))
    spinors = np.empty((nsteps + 1, config.L, 2), dtype=complex)
    spinors[0] = state.spinors
    for t in range(1, nsteps + 1):
        state = walk_step(state)
        spinors[t] = state.spinors
    # each cell's |R|^2 + |L|^2, for every step in one pass
    probs = np.sum(np.abs(spinors) ** 2, axis=2).tolist()
    return [(t, cell, p) for t, row in enumerate(probs) for cell, p in enumerate(row)]
