"""Reference sector spectrum: the dense dim x dim step unitary of one sector.

This is how fqca solved sector spectra before it built one translation
block at a time, kept only as a test oracle. Column j of the matrix is the
step image of the j-th sector word, so `spectral.block_eigenphases` is
checked against its eigenphases.
"""

import numpy as np

from fqca.evolution import step_all
from fqca.lattice import FockState
from fqca.spectral import _sector


def sector_unitary(config, n: int) -> tuple[np.ndarray, list[int]]:
    words = _sector(config.n_sites, n)[0]
    index = {w: i for i, w in enumerate(words)}
    U = np.zeros((len(words), len(words)), dtype=complex)
    for j, out in enumerate(step_all(FockState(config, {w: 1.0}) for w in words)):
        for w, a in out.amplitudes.items():
            U[index[w], j] = a
    return U, words


def eigenphases(config, n: int) -> np.ndarray:
    return np.sort(np.angle(np.linalg.eigvals(sector_unitary(config, n)[0])))
