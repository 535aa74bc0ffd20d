"""Reference Dirac sea: one FockState dict per Slater state.

This is how fqca built and stepped the Dirac sea before the sea ran on word
arrays, kept only as a test oracle. Each state enumerates its sector and
builds its orbitals again, zips the determinants into a dict, prunes and
normalizes it, steps it with `step` and takes <psi|U|psi> with
`inner_product`; the sea is written with `to_json_obj` and `dump_json`.
"""

import math

import numpy as np

from fock_algebra import inner_product, normalized, prune, to_json_obj
from fqca.cli import dump_json
from fqca.evolution import step
from fqca.lattice import FockState, LatticeConfig
from fqca.spectral import (
    Band,
    SeaExcitation,
    _require_periodic,
    _sector,
    mode_orbital,
    momentum_grid,
    parity_offset,
    step_matrix,
)


def slater_state(config: LatticeConfig, orbitals: list[np.ndarray]) -> FockState:
    words, sites = _sector(config.n_sites, len(orbitals))
    amps = np.linalg.det(np.array(orbitals[::-1]).T[sites])
    return normalized(prune(FockState(config, dict(zip(words.tolist(), amps.tolist())))))


def mode_sea(
    config: LatticeConfig,
    offset: float,
    skip_minus: float | None = None,
    extra_plus: float | None = None,
) -> FockState:
    orbitals = []
    for k in sorted(momentum_grid(config, offset)):
        if skip_minus is not None and abs(k - skip_minus) < 1e-12:
            continue
        orbitals.append(mode_orbital(config, k, Band.MINUS, offset))
    if extra_plus is not None:
        orbitals.append(mode_orbital(config, extra_plus, Band.PLUS, offset))
    return slater_state(config, orbitals)


def build_dirac_sea(config: LatticeConfig) -> FockState:
    _require_periodic(config)
    if config.L > 8:
        raise ValueError("build_dirac_sea needs L <= 8")
    return mode_sea(config, parity_offset(config, config.L))


def eigenphase_of(state: FockState) -> tuple[float, float]:
    ov = inner_product(state, step(state))
    return abs(ov), float(np.angle(ov))


def dirac_sea_excitations(config: LatticeConfig):
    """(sea, (modulus, phase), excitations, excited states), states in the order built."""
    sea = build_dirac_sea(config)
    modulus, sea_phase = eigenphase_of(sea)
    other = parity_offset(config, config.L + 1)
    excitations, states = [], []
    for k in sorted(momentum_grid(config, other)):
        phi = step_matrix(config, k).phi
        for kind, kw in (("add_plus", {"extra_plus": k}), ("remove_minus", {"skip_minus": k})):
            st = mode_sea(config, other, **kw)
            mod, ph = eigenphase_of(st)
            gap = ((sea_phase - ph) % (2 * math.pi)) / config.dt
            excitations.append(SeaExcitation(kind, float(k), gap, phi, mod))
            states.append(st)
    return sea, (modulus, sea_phase), excitations, states


def sea_json(sea: FockState) -> str:
    """The text of sea_state.json."""
    return dump_json(to_json_obj(sea))
