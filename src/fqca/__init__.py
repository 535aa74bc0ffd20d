"""Exact simulator of a one-dimensional fermionic quantum cellular automaton.

The automaton evolves occupation states on a ring or open chain of L cells,
each with two internal sites, by one shift-then-coin unitary per time step.
Modules cover the basis words and the sparse `FockState` that the public
`step` and `evolve` take and return (`lattice`), the gate evolution on sorted
word arrays (`evolution`), fermionic ladder operators and the closed-form
Heisenberg check (`fermion`), momentum modes, dispersion and the Dirac sea (`spectral`), an
independent one-particle quantum-walk oracle (`walk`), and a mechanized
obstruction to extending the local sign rules to two dimensions (`nogo`).
`cli` exposes the experiment runner installed as the `fqca` command.
"""

from .lattice import Boundary, Eps, FockState, LatticeConfig, basis_state
from .evolution import evolve, step

__version__ = "1.0.0"

__all__ = [
    "Boundary",
    "Eps",
    "FockState",
    "LatticeConfig",
    "basis_state",
    "evolve",
    "step",
    "__version__",
]
