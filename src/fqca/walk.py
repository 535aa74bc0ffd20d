"""Dense single-particle quantum walk, the oracle for the one-particle sector.

Implemented on its own data layout (an (L, 2) spinor array, column 0 = R,
column 1 = L) with no shared evolution code, so agreement with the automaton
is evidence rather than tautology. The identification used project-wide is
Plus <-> R and Minus <-> L.
"""

from __future__ import annotations

import numpy as np

from .evolution import step as qca_step
from .lattice import Boundary, Eps, LatticeConfig, basis_state

R, L_ = 0, 1  # spinor component indices


def localized(config: LatticeConfig, cell: int, eps: Eps) -> np.ndarray:
    """The spinors of one particle at (cell, eps)."""
    psi = np.zeros((config.L, 2), dtype=complex)
    psi[cell, R if eps is Eps.PLUS else L_] = 1.0
    return psi


def walk_step(config: LatticeConfig, psi: np.ndarray) -> np.ndarray:
    """Shift R right / L left, then rotate the coin by theta.

    Under the open boundary the edge components that cannot move stay put on
    their own sublattice side, which is exactly how the automaton's uncoupled
    seam sites behave.
    """
    n = config.L
    # chi_minus collects what sits on a cell's Minus side after the shift,
    # chi_plus its Plus side.
    chi_minus = np.empty(n, dtype=complex)
    chi_plus = np.empty(n, dtype=complex)
    chi_minus[1:] = psi[:-1, R]
    chi_plus[:-1] = psi[1:, L_]
    if config.boundary is Boundary.PERIODIC:
        chi_minus[0] = psi[n - 1, R]
        chi_plus[n - 1] = psi[0, L_]
    else:
        # + 0j turns -0.0 parts into 0.0, as adding onto a zero start does
        chi_plus[n - 1] = psi[n - 1, R] + 0j   # right edge: R stays, on the Plus side
        chi_minus[0] = psi[0, L_] + 0j         # left edge: L stays, on the Minus side
    c, s = np.cos(config.theta), np.sin(config.theta)
    out = np.empty_like(psi)
    out[:, R] = c * chi_minus - s * chi_plus
    out[:, L_] = s * chi_minus + c * chi_plus
    return out


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
    psi = localized(config, cell, Eps(eps))
    qca = basis_state(config, [(cell, Eps(eps))])
    diff = np.empty((nsteps, config.L, 2), dtype=complex)
    for t in range(nsteps):
        psi = walk_step(config, psi)
        qca = qca_step(qca)
        diff[t] = psi - _qca_one_particle_spinors(qca)
    return float(np.abs(diff).max(initial=0.0))


def wavepacket_trace(
    config: LatticeConfig, init: tuple[int, Eps], nsteps: int
) -> np.ndarray:
    """Each cell's |R|^2 + |L|^2 at steps 0..nsteps from a localized start, (nsteps + 1, L)."""
    spinors = np.empty((nsteps + 1, config.L, 2), dtype=complex)
    spinors[0] = localized(config, init[0], Eps(init[1]))
    for t in range(1, nsteps + 1):
        spinors[t] = walk_step(config, spinors[t - 1])
    return np.sum(np.abs(spinors) ** 2, axis=2)
