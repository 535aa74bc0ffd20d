"""Finite-lattice Fock space: basis-state encoding and sparse state vectors.

Sites are indexed by (cell, eps) with eps in {Minus, Plus}. A basis state is a
2L-bit integer word: bit 2j holds the occupation of (cell j, Minus), bit 2j+1
holds (cell j, Plus). Ascending bit index is the canonical site order (cell
ascending, Minus before Plus at equal cell), which is also the order used for
fermionic signs.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np


PRUNE_THRESHOLD = 1e-14

# Python ints are unbounded, so the word width is a sanity cap rather than a
# hardware limit; 64 cells covers every supported workload.
MIN_CELLS, MAX_CELLS = 2, 64


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    OPEN = "open"


class Eps(enum.IntEnum):
    MINUS = 0
    PLUS = 1


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice size and physical discretization parameters."""

    L: int
    dx: float = 1.0
    dt: float = 1.0
    theta: float = 0.0
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.L < MIN_CELLS:
            raise ValueError(f"L must be >= {MIN_CELLS}, got {self.L}")
        if self.L > MAX_CELLS:
            raise ValueError(f"L must be <= {MAX_CELLS}, got {self.L}")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")

    @property
    def n_sites(self) -> int:
        return 2 * self.L

    @property
    def c(self) -> float:
        """Lattice speed of light dx/dt."""
        return self.dx / self.dt

    @property
    def mass(self) -> float:
        """Particle mass theta*dt/dx^2 (hbar = 1)."""
        return self.theta * self.dt / self.dx**2

    def distance(self, a: int, b: int) -> int:
        """Cells between cells a and b, the short way round on the ring."""
        d = abs(a - b)
        return min(d, self.L - d) if self.boundary is Boundary.PERIODIC else d


def bit_index(cell: int, eps: Eps) -> int:
    return 2 * cell + int(eps)


def word_dtype(nbits: int) -> np.dtype:
    """Array dtype for nbits-bit words: uint64, or Python ints past 64 bits.

    Both support the same shifts, masks, comparisons and sorting, so array
    code written once runs on either.
    """
    return np.dtype(np.uint64) if nbits <= 64 else np.dtype(object)


def _bit_count(words: np.ndarray) -> np.ndarray:
    """The number of set bits of each word (uint8 for uint64 words, else intp).

    uint64 words take np.bitwise_count. Python-int (object) words take
    int.bit_count in one pass, which is faster on them than bitwise_count.
    """
    if words.dtype == object:
        return np.array([w.bit_count() for w in words.tolist()], dtype=np.intp)
    return np.bitwise_count(words)


def _bit_parity(words: np.ndarray) -> np.ndarray:
    """Whether each word has an odd number of set bits."""
    return (_bit_count(words) & 1).astype(bool)


def basis_from_particles(config: LatticeConfig, particles) -> int:
    """Pack an unordered list of (cell, eps) sites into a basis word.

    Raises ValueError on a repeated site or a cell outside [0, L).
    """
    word = 0
    for cell, eps in particles:
        if not 0 <= cell < config.L:
            raise ValueError(f"cell {cell} outside [0, {config.L})")
        b = bit_index(cell, Eps(eps))
        if word & (1 << b):
            raise ValueError(f"site (cell={cell}, eps={Eps(eps).name}) repeated")
        word |= 1 << b
    return word


class FockState:
    """A sparse state: sorted basis words and their complex amplitudes.

    words holds unique basis words in ascending order, in the word_dtype of
    the config's 2L bits, and amps the amplitude of each. Built from a
    mapping of word to amplitude, a state keeps every entry, zeros and
    amplitudes at or below PRUNE_THRESHOLD included; the engine prunes as
    it steps. Both arrays are read-only and functions that act on a state
    return a new one, so states may be shared freely across threads.
    """

    def __init__(self, config: LatticeConfig, amplitudes: Mapping[int, complex]):
        words = np.fromiter(amplitudes, word_dtype(config.n_sites), len(amplitudes))
        amps = np.fromiter(amplitudes.values(), complex, len(amplitudes))
        order = words.argsort()
        self._hold(config, words[order], amps[order])

    @classmethod
    def from_sorted(cls, config: LatticeConfig, words: np.ndarray, amps: np.ndarray) -> "FockState":
        """The state on words, which must be sorted and unique; holds both arrays as they are."""
        state = cls.__new__(cls)
        state._hold(config, words, amps)
        return state

    def _hold(self, config: LatticeConfig, words: np.ndarray, amps: np.ndarray) -> None:
        words.flags.writeable = amps.flags.writeable = False
        self.config, self.words, self.amps = config, words, amps

    @cached_property
    def amplitudes(self) -> dict[int, complex]:
        """The state as a dict from word to amplitude, in ascending word order.

        Built on first read and kept; callers must not change it.
        """
        return dict(zip(self.words.tolist(), self.amps.tolist()))

    def norm(self) -> float:
        # Python's abs, summed in ascending word order, where np.abs can
        # differ in the last bit; over the dict, whose Python complexes a
        # caller that also reads it then builds only once
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))


def basis_state(config: LatticeConfig, particles) -> FockState:
    return FockState(config, {basis_from_particles(config, particles): 1.0 + 0.0j})
