"""The sector_evolve reference: an independent array engine.

Runs in its own interpreter, so that its gate tables never count towards the
peak RSS of the process that runs fqca. Prints the 4-probe sketch of the
reference final state as JSON pairs [re, im].

Usage: python3 perfbench/reference.py <seed>
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as w  # noqa: E402


def _gates(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Shift and coin 4x4 gates in the local basis index 2*b1 + b2.

    Written out from the automaton's definition rather than imported, so
    agreement with fqca is evidence: the shift swaps a lone occupation
    between the pair; the coin sends a lone p1 (Minus) occupation to
    cos|Plus> + sin|Minus> and a lone p2 (Plus) one to cos|Minus> - sin|Plus>;
    both put -1 on the doubly occupied pair.
    """
    c, s = math.cos(theta), math.sin(theta)
    shift = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], complex)
    coin = np.array([[1, 0, 0, 0], [0, -s, c, 0], [0, c, s, 0], [0, 0, 0, -1]], complex)
    return shift, coin


def reference_evolve(
    words: np.ndarray, amps: np.ndarray, L: int, theta: float, nsteps: int
) -> np.ndarray:
    """Ring evolution as one gather per gate over a sorted word array."""
    shift, coin = _gates(theta)
    layers = [(shift, [(2 * j + 1, (2 * j + 2) % (2 * L)) for j in range(L)]),
              (coin, [(2 * j, 2 * j + 1) for j in range(L)])]
    tables = []
    for gate, pairs in layers:
        for p1, p2 in pairs:
            local = 2 * ((words >> p1) & 1) + ((words >> p2) & 1)
            # only a singly occupied pair has a partner word inside the sector
            mixed = (local == 1) | (local == 2)
            partner = np.searchsorted(words, words ^ ((1 << p1) | (1 << p2)))
            tables.append(
                (gate[local, local], gate[local, 3 - local] * mixed, np.where(mixed, partner, 0))
            )
    for _ in range(nsteps):
        for diag, off, partner in tables:
            amps = diag * amps + off * amps[partner]
    return amps


def main() -> None:
    words, amps, probes = w.sector_inputs(int(sys.argv[1]))
    final = reference_evolve(words, amps, w.SECTOR_L, w.SECTOR_THETA, w.SECTOR_STEPS)
    sketch = probes.conj() @ final
    print(json.dumps([[float(z.real), float(z.imag)] for z in sketch]))


if __name__ == "__main__":
    main()
