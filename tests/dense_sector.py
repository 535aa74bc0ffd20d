"""Reference sector spectrum: the dense dim x dim step unitary of one sector.

This is how fqca solved sector spectra before it built one translation
block at a time, kept only as a test oracle. Column j of the matrix is the
step image of the j-th sector word, so `spectral.block_eigenphases` is
checked against its eigenphases. The whole sector is stepped in one
`step_keys` pass, word j as state j.
"""

import numpy as np

from fqca.evolution import step_keys
from fqca.lattice import word_dtype
from fqca.spectral import _sector


def sector_unitary(config, n: int) -> tuple[np.ndarray, list[int]]:
    words = _sector(config.n_sites, n)[0].tolist()
    nbits, dim = config.n_sites, len(words)
    t = word_dtype(nbits + (dim - 1).bit_length()).type
    sector = np.array(words, dtype=t)
    keys = sector | (np.arange(dim, dtype=t) << t(nbits))
    keys, amps = step_keys(config, keys, np.ones(dim, dtype=complex))
    rows = np.searchsorted(sector, keys & t((1 << nbits) - 1))
    U = np.zeros((dim, dim), dtype=complex)
    U[rows, (keys >> t(nbits)).astype(np.int64)] = amps
    return U, words


def eigenphases(config, n: int) -> np.ndarray:
    return np.sort(np.angle(np.linalg.eigvals(sector_unitary(config, n)[0])))
