"""Reference Dirac sea: one FockState dict per state.

The Dirac sea on dict states, kept only as a test oracle for the array
path in `spectral.dirac_sea_excitations`. The sea enumerates its sector and builds
its orbitals again, and zips the determinants into a dict. Each excitation
is one ladder on the shared state S, the excitation grid's filled Minus
band (its determinants in a dict), taken word by word: the ladder's site
terms, each signed by the occupied sites below it, summed in ascending site
order as `spectral.dirac_sea_excitations` sums them. Every state is pruned
and normalized, stepped with `step`, and <psi|U|psi> is taken with
`inner_product`; the sea is written with `to_json_obj` and `dump_json`.
The determinant comparison of the excitations lives in
`test_spectral.test_ladder_excitations_equal_slater_states`.
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


def minus_band(config: LatticeConfig, offset: float) -> list[np.ndarray]:
    """The Minus orbitals of the offset grid, in ascending k (creation order)."""
    grid = sorted(momentum_grid(config, offset))
    return [mode_orbital(config, k, Band.MINUS, offset) for k in grid]


def determinants(config: LatticeConfig, orbitals: list[np.ndarray]) -> dict:
    """word -> det[c_{m_{n+1-j}}(s_i)], the unnormalized Slater state of orbitals."""
    words, sites = _sector(config.n_sites, len(orbitals))
    amps = np.linalg.det(np.array(orbitals[::-1]).T[sites])
    return dict(zip(words.tolist(), amps.tolist()))


def build_dirac_sea(config: LatticeConfig) -> FockState:
    _require_periodic(config)
    if config.L > 8:
        raise ValueError("build_dirac_sea needs L <= 8")
    sea = determinants(config, minus_band(config, parity_offset(config, config.L)))
    return normalized(prune(FockState(config, sea)))


def eigenphase_of(state: FockState) -> tuple[float, float]:
    ov = inner_product(state, step(state))
    return abs(ov), float(np.angle(ov))


def ladder_state(
    config: LatticeConfig, shared: dict, coef: list[complex], n: int
) -> FockState:
    """sum_s coef[s] a^dag_s S on n = |S| + 1 particles, or sum_s coef[s] a_s S on |S| - 1."""
    create = n > next(iter(shared)).bit_count()
    words, _ = _sector(config.n_sites, n)
    amps = {}
    for w in words.tolist():
        acc = None
        for s in range(config.n_sites):
            bit = 1 << s
            if bool(w & bit) != create:
                continue
            partner = shared[w ^ bit]
            if (w & (bit - 1)).bit_count() % 2:
                partner = -partner
            term = coef[s] * partner
            acc = term if acc is None else acc + term
        amps[w] = acc
    return normalized(prune(FockState(config, amps)))


def dirac_sea_excitations(config: LatticeConfig):
    """(sea, (modulus, phase), excitations, excited states), states in the order built."""
    sea = build_dirac_sea(config)
    modulus, sea_phase = eigenphase_of(sea)
    other = parity_offset(config, config.L + 1)
    grid = sorted(momentum_grid(config, other))
    minus = minus_band(config, other)
    shared = determinants(config, minus)
    excitations, states = [], []
    for i, k in enumerate(grid):
        phi = step_matrix(config, k).phi
        annihilator = [c.conjugate() for c in minus[i].tolist()]
        if (config.L - 1 - i) % 2:
            annihilator = [-c for c in annihilator]
        creator = mode_orbital(config, k, Band.PLUS, other).tolist()
        for kind, coef, n in (
            ("add_plus", creator, config.L + 1), ("remove_minus", annihilator, config.L - 1)
        ):
            st = ladder_state(config, shared, coef, n)
            mod, ph = eigenphase_of(st)
            gap = ((sea_phase - ph) % (2 * math.pi)) / config.dt
            excitations.append(SeaExcitation(kind, float(k), gap, phi, mod))
            states.append(st)
    return sea, (modulus, sea_phase), excitations, states


def sea_json(sea: FockState) -> str:
    """The text of sea_state.json."""
    return dump_json(to_json_obj(sea))
