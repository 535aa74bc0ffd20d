"""Dense quantum walk oracle and its agreement with the automaton."""

import math

import numpy as np
import pytest

from fqca.lattice import Boundary, Eps, FockState, LatticeConfig
from fqca.spectral import SIGMA2, SIGMA3, step_matrix
from fqca.walk import (
    R,
    L_,
    WalkState,
    _qca_one_particle_spinors,
    compare_one_particle,
    walk_step,
    wavepacket_trace,
)


def walk_momentum_step(config: LatticeConfig, k: float) -> np.ndarray:
    """exp(-i theta sigma_2) diag(exp(+i k dx), exp(-i k dx)) in the R/L basis."""
    theta, kdx = config.theta, k * config.dx
    c, s = np.cos(theta), np.sin(theta)
    coin = np.array([[c, -s], [s, c]], dtype=complex)
    return coin @ np.diag([np.exp(1j * kdx), np.exp(-1j * kdx)])


def dirac_generator(config: LatticeConfig, k: float) -> np.ndarray:
    """Continuum generator i(k c sigma_3 - m c^2 sigma_2), hbar = 1."""
    c, m = config.c, config.mass
    return 1j * (k * c * SIGMA3 - m * c * c * SIGMA2)


def roll_walk_step(state: WalkState) -> np.ndarray:
    """walk_step's spinors as np.roll into zeroed arrays computed them."""
    cfg, psi, n = state.config, state.spinors, state.config.L
    chi_minus = np.zeros(n, dtype=complex)
    chi_plus = np.zeros(n, dtype=complex)
    if cfg.boundary is Boundary.PERIODIC:
        chi_minus[:] = np.roll(psi[:, R], 1)
        chi_plus[:] = np.roll(psi[:, L_], -1)
    else:
        chi_minus[1:] = psi[:-1, R]
        chi_plus[:-1] = psi[1:, L_]
        chi_plus[n - 1] += psi[n - 1, R]
        chi_minus[0] += psi[0, L_]
    c, s = np.cos(cfg.theta), np.sin(cfg.theta)
    out = np.empty_like(psi)
    out[:, R] = c * chi_minus - s * chi_plus
    out[:, L_] = s * chi_minus + c * chi_plus
    return out


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.OPEN])
@pytest.mark.parametrize("L", [2, 3, 8, 9, 64])
@pytest.mark.parametrize("theta", [0.0, 0.3, -1.1])
def test_walk_step_equals_roll_formulation(boundary, L, theta):
    cfg = LatticeConfig(L=L, theta=theta, boundary=boundary)
    rng = np.random.default_rng(L)
    normal = rng.normal(size=(L, 2)) + 1j * rng.normal(size=(L, 2))
    # zeros of random sign, which only a byte comparison tells apart
    zeros = np.empty((L, 2), dtype=complex)
    zeros.real = np.copysign(0.0, rng.normal(size=(L, 2)))
    zeros.imag = np.copysign(0.0, rng.normal(size=(L, 2)))
    for psi in (normal, zeros):
        state = WalkState(cfg, psi)
        for _ in range(3):
            new, old = walk_step(state).spinors, roll_walk_step(state)
            assert np.array_equal(new, old)
            assert new.tobytes() == old.tobytes()
            state = WalkState(cfg, new)


def test_spinors_reject_states_outside_the_one_particle_sector():
    cfg = LatticeConfig(L=4)
    for amps in ({0: 1.0}, {0b11: 1.0}, {0b100: 0.6, 0b1010: 0.8}):
        with pytest.raises(ValueError, match="one-particle sector"):
            _qca_one_particle_spinors(FockState(cfg, amps))
    psi = _qca_one_particle_spinors(FockState(cfg, {0b1: 0.6, 1 << 7: 0.8j}))
    assert psi[0, L_] == 0.6 and psi[3, R] == 0.8j
    assert np.count_nonzero(psi) == 2


def test_localized_and_norm():
    cfg = LatticeConfig(L=8, theta=0.2)
    w = WalkState.localized(cfg, 3, Eps.PLUS)
    assert np.linalg.norm(w.spinors) == pytest.approx(1.0)
    assert w.probabilities()[3] == pytest.approx(1.0)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.OPEN])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.1])
def test_walk_step_unitary(boundary, theta):
    cfg = LatticeConfig(L=10, theta=theta, boundary=boundary)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
    psi /= np.linalg.norm(psi)
    out = walk_step(WalkState(cfg, psi))
    assert np.linalg.norm(out.spinors) == pytest.approx(1.0, abs=1e-13)


def test_ballistic_transport_at_theta_zero():
    cfg = LatticeConfig(L=16, theta=0.0)
    w = WalkState.localized(cfg, 4, Eps.PLUS)
    for _ in range(5):
        w = walk_step(w)
    assert w.probabilities()[9] == pytest.approx(1.0)


def test_momentum_step_eigenphases():
    cfg = LatticeConfig(L=8, theta=0.5)
    for k in (0.0, 0.4, -1.2):
        W = walk_momentum_step(cfg, k)
        phases = np.sort(np.angle(np.linalg.eigvals(W)))
        phi = step_matrix(cfg, k).phi
        assert np.allclose(phases, [-phi, phi], atol=1e-12)


def test_momentum_step_conjugate_of_mode_matrix():
    # the walk acts on wavefunction components, the mode matrix on operator
    # coefficients; the two conventions are complex conjugates
    cfg = LatticeConfig(L=8, theta=0.3)
    k = 0.7
    assert np.allclose(
        walk_momentum_step(cfg, k), step_matrix(cfg, k).matrix.conj(), atol=1e-14
    )


def test_dirac_generator_limit():
    cfg = LatticeConfig(L=8, theta=0.01)
    k = 0.01
    W = walk_momentum_step(cfg, k)
    G = dirac_generator(cfg, k)
    assert np.allclose(G, 1j * (k * SIGMA3 - 0.01 * SIGMA2), atol=1e-15)
    dev = np.linalg.norm((W - np.eye(2)) / cfg.dt - G, 2)
    assert dev < 5 * max(0.01, k) ** 2


@pytest.mark.parametrize("theta", [0.0, 0.1, 0.7])
def test_walk_matches_automaton(theta):
    cfg = LatticeConfig(L=16, theta=theta)
    assert compare_one_particle(cfg, (8, Eps.PLUS), 20) < 1e-12


def test_walk_matches_automaton_open_boundary():
    cfg = LatticeConfig(L=10, theta=0.4, boundary=Boundary.OPEN)
    assert compare_one_particle(cfg, (1, Eps.MINUS), 15) < 1e-12


def test_wavepacket_trace_shape_and_norm():
    cfg = LatticeConfig(L=8, theta=0.3)
    rows = wavepacket_trace(cfg, (4, Eps.PLUS), 3)
    assert len(rows) == 4 * 8
    for t in range(4):
        total = sum(p for (tt, _, p) in rows if tt == t)
        assert total == pytest.approx(1.0, abs=1e-12)
