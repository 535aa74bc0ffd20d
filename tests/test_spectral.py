"""Momentum modes, dispersion, the closed-form parity grid and the Dirac sea."""

import itertools
import math

import numpy as np
import pytest

import dense_sector
import sea_reference
from fock_algebra import apply_combination, normalized, vacuum
from fqca import cli, spectral
from fqca.fermion import LadderOp, OpKind
from fqca.lattice import Boundary, Eps, LatticeConfig
from fqca.spectral import (
    Band,
    SIGMA2,
    SIGMA3,
    block_eigenphases,
    build_dirac_sea,
    circular_multiset_distance,
    dirac_sea_excitations,
    dispersion_rows,
    eigenphase_of,
    energy,
    expected_nparticle_phases,
    mode_orbital,
    momentum_grid,
    n_particle_eigenphases,
    parity_offset,
    phi_convergence_slope,
    slater_state,
    step_matrix,
)


def test_momentum_grid_basics():
    cfg = LatticeConfig(L=4)
    grid = momentum_grid(cfg)
    assert len(grid) == 4
    assert np.allclose(sorted(grid * cfg.dx), [-math.pi / 2, 0.0, math.pi / 2, math.pi])
    half = momentum_grid(cfg, offset=0.5)
    assert len(half) == 4
    assert all(-math.pi < k * cfg.dx <= math.pi for k in half)


@pytest.mark.parametrize("dx", [1.0, 0.5, 0.25, 0.1, 0.3, 2.0])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_momentum_grid_equals_the_loop(dx, offset):
    # the array expression does the loop's float operations in its order, so
    # every bit agrees; the grid runs over n with -pi < k dx <= pi
    for L in range(2, 65):
        cfg = LatticeConfig(L=L, dx=dx)
        lo, hi = math.floor(-L / 2 - offset) + 1, math.floor(L / 2 - offset)
        want = [2 * math.pi * (n + offset) / (L * dx) for n in range(lo, hi + 1)]
        got = momentum_grid(cfg, offset)
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


def test_step_matrix_unitary_and_phase():
    cfg = LatticeConfig(L=8, theta=0.37)
    for k in momentum_grid(cfg):
        mode = step_matrix(cfg, k)
        M = mode.matrix
        assert np.allclose(M.conj().T @ M, np.eye(2), atol=1e-14)
        expected = math.acos(
            max(-1.0, min(1.0, math.cos(cfg.theta) * math.cos(k * cfg.dx)))
        )
        assert mode.phi == pytest.approx(expected)
        if math.sin(mode.phi) >= 1e-12:
            assert np.allclose(M @ mode.vplus, np.exp(-1j * mode.phi) * mode.vplus)
            assert np.allclose(M @ mode.vminus, np.exp(1j * mode.phi) * mode.vminus)


def test_mode_orbital_guards():
    cfg = LatticeConfig(L=4, theta=0.2)
    with pytest.raises(ValueError, match="k=0.1 not on the offset-0.0 momentum grid"):
        mode_orbital(cfg, 0.1, Band.PLUS)
    open_cfg = LatticeConfig(L=4, theta=0.2, boundary=Boundary.OPEN)
    with pytest.raises(ValueError, match="momentum modes need the periodic boundary"):
        mode_orbital(open_cfg, 0.0, Band.PLUS)


def test_b_mode_is_one_particle_eigenstate():
    cfg = LatticeConfig(L=6, theta=0.4)
    for k in momentum_grid(cfg):
        for band, sign in ((Band.PLUS, -1.0), (Band.MINUS, 1.0)):
            mod, ph, norm = eigenphase_of(cfg, *slater_state(cfg, [mode_orbital(cfg, k, band)]))
            phi = step_matrix(cfg, k).phi
            assert mod == pytest.approx(1.0, abs=1e-12)
            assert norm == pytest.approx(1.0, abs=1e-12)
            want = (sign * phi + math.pi) % (2 * math.pi) - math.pi
            diff = abs(ph - want) % (2 * math.pi)
            assert min(diff, 2 * math.pi - diff) < 1e-12


def test_b_mode_discrete_normalization():
    cfg = LatticeConfig(L=5, theta=0.3)
    k = momentum_grid(cfg)[2]
    orbital = mode_orbital(cfg, k, Band.PLUS)
    assert np.vdot(orbital, orbital) == pytest.approx(cfg.L, abs=1e-12)


def test_b_modes_coincide_with_momentum_modes_at_theta_zero():
    cfg = LatticeConfig(L=4, theta=0.0)
    k = momentum_grid(cfg)[1]
    orbital = mode_orbital(cfg, k, Band.PLUS).reshape(cfg.L, 2)
    # sin(theta)=0 leaves M diagonal, so the band mode is a pure eps mode
    occupied_eps = np.flatnonzero(np.any(orbital != 0, axis=0))
    assert len(occupied_eps) == 1


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_energy_and_dispersion(theta):
    cfg = LatticeConfig(L=8, theta=theta)
    for k in momentum_grid(cfg):
        e = energy(cfg, k)
        assert e.e_plus >= 0.0
    rows = dispersion_rows(cfg)
    assert len(rows) == cfg.L
    k, kdx, phi, e_lat, e_dir, err = rows[0]
    assert err == pytest.approx(abs(e_lat - e_dir))


def test_dispersion_builds_each_mode_matrix_once(monkeypatch):
    # one mode-algebra call for the whole grid, with the bits of one call per k
    cfg = LatticeConfig(L=32, theta=0.3)
    build = spectral.mode_algebra
    calls = []
    monkeypatch.setattr(spectral, "mode_algebra", lambda t, kdx: calls.append(kdx) or build(t, kdx))
    phis = [row[2] for row in dispersion_rows(cfg)]
    assert len(calls) == 1 and calls[0].shape == (cfg.L,)
    assert phis == [build(cfg.theta, k * cfg.dx).phi for k in momentum_grid(cfg)]


def test_phi_example_value():
    # phi at theta=0.1, k dx=0.2 equals arccos(cos 0.1 cos 0.2), and the
    # relativistic approximation is good to cubic order
    cfg = LatticeConfig(L=8, theta=0.1)
    phi = step_matrix(cfg, 0.2 / cfg.dx).phi
    assert phi == pytest.approx(math.acos(math.cos(0.1) * math.cos(0.2)))
    assert abs(phi - math.sqrt(0.1**2 + 0.2**2)) < max(0.1, 0.2) ** 3


def test_convergence_slope_cubic():
    assert phi_convergence_slope() >= 2.9


def test_convergence_slope_reads_the_mode_algebra(monkeypatch):
    # a second-order error in the mode algebra's phi must pull the slope to about 2
    exact = spectral.mode_algebra

    def second_order(theta, kdx):
        mode = exact(theta, kdx)
        mode.phi = mode.phi + 0.1 * np.asarray(kdx) ** 2
        return mode

    monkeypatch.setattr(spectral, "mode_algebra", second_order)
    assert phi_convergence_slope() < 2.9


def test_effective_hamiltonian_exponentiates_to_step():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(-1.3, 1.3)
        k = rng.uniform(-math.pi, math.pi)
        cfg = LatticeConfig(L=4, theta=theta)
        H = step_matrix(cfg, k).hamiltonian(cfg.dt)
        assert np.allclose(H, H.conj().T, atol=1e-13)
        w, v = np.linalg.eigh(H)
        expH = v @ np.diag(np.exp(-1j * w * cfg.dt)) @ v.conj().T
        worst = max(worst, float(np.max(np.abs(expH - step_matrix(cfg, k).matrix))))
    assert worst <= 1e-12


def test_effective_hamiltonian_special_points():
    # k=0, small theta: pure mass term
    cfg = LatticeConfig(L=4, theta=0.05)
    assert np.allclose(step_matrix(cfg, 0.0).hamiltonian(cfg.dt), 0.05 * SIGMA2, atol=1e-12)
    # theta=0: pure kinetic term
    cfg0 = LatticeConfig(L=4, theta=0.0)
    k = 0.3
    assert np.allclose(step_matrix(cfg0, k).hamiltonian(cfg0.dt), k * SIGMA3, atol=1e-12)


def test_one_particle_eigenphases_match_dispersion():
    cfg = LatticeConfig(L=32, theta=0.4)
    phases = n_particle_eigenphases(cfg, 1)
    expected = []
    for k in momentum_grid(cfg):
        phi = step_matrix(cfg, k).phi
        expected.extend([phi, -phi])
    dev = circular_multiset_distance(phases, np.array(expected))
    assert dev <= 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.2, -0.9, 1.1])
@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_closed_form_parity_grid(L, theta):
    # the seam rule's grid reproduces each sector's spectrum
    cfg = LatticeConfig(L=L, theta=theta)
    for n in range(1, 5):
        actual = n_particle_eigenphases(cfg, n)
        offset = parity_offset(cfg, n)
        predicted = expected_nparticle_phases(cfg, n, offset)
        assert circular_multiset_distance(actual, predicted) <= 1e-10
        # at odd L the two grids are mirror images with equal even-n spectra;
        # at theta = 0 pure translation gives both grids the L=6, n=4 spectrum
        if L % 2 == 0 and n % 2 == 0 and (theta != 0.0 or n == 2):
            other = expected_nparticle_phases(cfg, n, 0.5 - offset)
            assert circular_multiset_distance(actual, other) > 1e-6


def _mode_sums_by_block(cfg, n):
    """expected_nparticle_phases split by block m: sum k dx = 2 pi m / L (mod 2 pi)."""
    modes = [(k, s) for k in momentum_grid(cfg, parity_offset(cfg, n)) for s in (+1, -1)]
    blocks = [[] for _ in range(cfg.L)]
    for combo in itertools.combinations(modes, n):
        m = round(sum(k for k, _ in combo) * cfg.dx * cfg.L / (2 * math.pi)) % cfg.L
        blocks[m].append(-sum(s * step_matrix(cfg, k).phi for k, s in combo))
    return blocks


@pytest.mark.parametrize(
    "L, n, theta",
    [(4, 2, 0.3), (5, 2, 0.4), (6, 2, 0.37), (6, 3, 0.37), (6, 4, 0.2), (8, 3, 0.3)],
)
def test_each_block_is_free_fermion_mode_sums(L, n, theta):
    cfg = LatticeConfig(L=L, theta=theta)
    blocks = block_eigenphases(cfg, n)
    for got, want in zip(blocks, _mode_sums_by_block(cfg, n), strict=True):
        assert circular_multiset_distance(got, np.array(want)) <= 1e-12
    if (L, n) == (6, 4):
        assert [len(b) for b in blocks] == [85, 80, 85, 80, 85, 80]


def test_mode_is_translation_eigenstate():
    # R moves cell j to j+1 (bit s to s+2, no signs): R b^dag_k R^-1 = exp(i k dx) b^dag_k
    cfg = LatticeConfig(L=5, theta=0.4)
    mask = (1 << cfg.n_sites) - 1
    for k in momentum_grid(cfg):
        words, amps = slater_state(cfg, [mode_orbital(cfg, k, Band.PLUS)])
        st = dict(zip(words.tolist(), amps.tolist()))
        moved = {((w << 2) | (w >> (cfg.n_sites - 2))) & mask: a for w, a in st.items()}
        want = {w: np.exp(1j * k * cfg.dx) * a for w, a in st.items()}
        assert max(abs(moved[w] - want[w]) for w in want) <= 1e-12


# every sector up to L = 6; at L = 40 the 80-bit words are object arrays
@pytest.mark.parametrize("L, n_max", [(2, 4), (3, 6), (4, 8), (5, 10), (6, 12), (40, 1)])
def test_blocks_match_dense_sector(L, n_max):
    cfg = LatticeConfig(L=L, theta=0.37)
    for n in range(n_max + 1):
        got = n_particle_eigenphases(cfg, n)
        assert circular_multiset_distance(got, dense_sector.eigenphases(cfg, n)) <= 1e-12


def test_dense_cap_checked_before_enumerating(monkeypatch):
    def enumerate_sector(*args):
        raise AssertionError("enumerated a sector above the dense cap")

    monkeypatch.setattr(spectral, "_sector", enumerate_sector)
    with pytest.raises(ValueError, match="exceeds the dense cap 2000"):
        n_particle_eigenphases(LatticeConfig(L=16, theta=0.3), 16)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expected_phases_bit_identical_to_per_combination_phi(n):
    cfg = LatticeConfig(L=8, theta=0.3)
    offset = parity_offset(cfg, n)
    modes = [(k, s) for k in momentum_grid(cfg, offset) for s in (+1, -1)]
    want = []
    for combo in itertools.combinations(modes, n):
        total = -sum(s * step_matrix(cfg, k).phi for k, s in combo)
        want.append((total + math.pi) % (2 * math.pi) - math.pi)
    assert expected_nparticle_phases(cfg, n, offset).tolist() == sorted(want)


def test_parity_offset_odd_is_zero():
    cfg = LatticeConfig(L=6, theta=0.4)
    assert parity_offset(cfg, 1) == 0.0
    assert parity_offset(cfg, 3) == 0.0
    assert parity_offset(cfg, 6) == parity_offset(cfg, 2)


def test_vacuum_sector_trivial():
    cfg = LatticeConfig(L=4, theta=0.3)
    assert n_particle_eigenphases(cfg, 0).tolist() == [0.0]


def test_dirac_sea_eigenstate_and_gaps():
    cfg = LatticeConfig(L=6, theta=0.4)
    sea = dirac_sea_excitations(cfg)
    modulus, phase, norm = eigenphase_of(cfg, sea.words, sea.amps)
    assert (modulus, phase) == (sea.modulus, sea.phase)
    assert abs(sea.modulus - 1.0) <= 1e-10
    assert abs(norm - 1.0) <= sea.norm_err <= 1e-12
    assert len(sea.excitations) == 2 * cfg.L
    for e in sea.excitations:
        assert abs(e.eigen_modulus - 1.0) <= 1e-10
        assert e.gap > 0.0
        assert abs(e.gap - e.phi / cfg.dt) <= 1e-10


def test_dirac_sea_builds_each_sector_and_orbital_once(monkeypatch):
    cfg = LatticeConfig(L=6, theta=0.4)
    calls = {"_sector": 0, "mode_orbital": 0, "step_keys": 0}

    def counted(name):
        real = getattr(spectral, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(spectral, name, counted(name))
    dirac_sea_excitations(cfg)
    # three sectors (L - 1, L, L + 1 particles), one orbital call per grid and
    # band (the sea's Minus, the excitation grid's Minus and Plus), and each
    # of 2L + 1 states stepped once
    assert calls == {"_sector": 3, "mode_orbital": 3, "step_keys": 2 * cfg.L + 1}
    # nothing is kept between calls
    dirac_sea_excitations(cfg)
    assert calls == {"_sector": 6, "mode_orbital": 6, "step_keys": 4 * cfg.L + 2}


def _sea_modes(cfg, offset, skip_minus=None, extra_plus=None):
    """(k, band) of each orbital of a sea state, in creation order."""
    modes = [
        (k, Band.MINUS)
        for k in sorted(momentum_grid(cfg, offset))
        if skip_minus is None or abs(k - skip_minus) >= 1e-12
    ]
    if extra_plus is not None:
        modes.append((extra_plus, Band.PLUS))
    return modes


def _ladder_chain(cfg, offset, modes):
    """The Slater state of modes by the ladder algebra: each b^dag applied to
    the state as a sum of position creators, starting from the vacuum."""
    state = vacuum(cfg)
    for k, band in modes:
        c = mode_orbital(cfg, k, band, offset)
        creators = [(c[s], LadderOp(OpKind.CREATE, s // 2, Eps(s % 2))) for s in range(cfg.n_sites)]
        state = apply_combination(creators, state)
    return normalized(state)


def _assert_same_amplitudes(words, amps, b):
    a = dict(zip(words.tolist(), amps.tolist()))
    shared = a.keys() | b.amplitudes.keys()
    assert max(abs(a.get(w, 0.0) - b.amplitudes.get(w, 0.0)) for w in shared) <= 1e-12


@pytest.mark.parametrize("theta", [0.4, -0.9])
@pytest.mark.parametrize("L", [2, 4, 6])
def test_slater_states_match_ladder_chain(L, theta):
    # amplitude by amplitude, global phase included: every dirac_sea check
    # is blind to the sign a wrong creation order would put on the sea
    cfg = LatticeConfig(L=L, theta=theta)
    cases = [(parity_offset(cfg, L), {})]
    other = parity_offset(cfg, L + 1)
    for k in momentum_grid(cfg, other):
        cases += [(other, {"extra_plus": k}), (other, {"skip_minus": k})]
    for offset, kw in cases:
        modes = _sea_modes(cfg, offset, **kw)
        orbitals = [mode_orbital(cfg, k, band, offset) for k, band in modes]
        _assert_same_amplitudes(*slater_state(cfg, orbitals), _ladder_chain(cfg, offset, modes))


def test_slater_sea_matches_ladder_chain_at_L8():
    cfg = LatticeConfig(L=8, theta=0.3)
    offset = parity_offset(cfg, 8)
    chain = _ladder_chain(cfg, offset, _sea_modes(cfg, offset))
    _assert_same_amplitudes(*build_dirac_sea(cfg), chain)


def test_sea_has_L_particles():
    cfg = LatticeConfig(L=4, theta=0.3)
    words, amps = build_dirac_sea(cfg)
    assert all(w.bit_count() == cfg.L for w in words.tolist())
    assert words.tolist() == sorted(words.tolist())
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def _bits(values) -> list[int]:
    """Each complex value's two float64 bit patterns, so signed zeros count."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("theta", [0.3, 0.4, -0.9, 1.1])
@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_sea_equals_dict_reference(tmp_path, monkeypatch, L, theta):
    # the array path makes the dict path's states, phases and file bit for bit
    cfg = LatticeConfig(L=L, theta=theta)
    stepped = []
    real = spectral.eigenphase_of
    monkeypatch.setattr(
        spectral, "eigenphase_of", lambda c, w, a: stepped.append((w, a)) or real(c, w, a)
    )
    sea = dirac_sea_excitations(cfg)
    ref_sea, ref_eigen, ref_excitations, ref_states = sea_reference.dirac_sea_excitations(cfg)
    assert (sea.modulus, sea.phase) == ref_eigen
    assert sea.excitations == ref_excitations
    assert _bits([e.gap for e in sea.excitations]) == _bits([e.gap for e in ref_excitations])
    assert len(stepped) == 1 + len(ref_states)
    assert stepped[0][0] is sea.words
    for (words, amps), ref in zip(stepped, [ref_sea, *ref_states], strict=True):
        assert words.tolist() == list(ref.amplitudes)
        assert _bits(amps) == _bits(list(ref.amplitudes.values()))
    # the run writes the sea built above, not one built again
    monkeypatch.setattr(spectral, "dirac_sea_excitations", lambda c: sea)
    cli.run_dirac_sea(cfg, {}, None, tmp_path)
    assert (tmp_path / "sea_state.json").read_text() == sea_reference.sea_json(ref_sea)


@pytest.mark.parametrize("theta", [0.4, -0.9])
@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_ladder_excitations_equal_slater_states(monkeypatch, L, theta):
    # each excitation is one ladder on a shared state; it must be the Slater
    # state of its own orbitals, amplitude by amplitude over both states'
    # words, global phase included
    cfg = LatticeConfig(L=L, theta=theta)
    stepped = []
    real = spectral.eigenphase_of
    monkeypatch.setattr(
        spectral, "eigenphase_of", lambda c, w, a: stepped.append((w, a)) or real(c, w, a)
    )
    dirac_sea_excitations(cfg)
    other = parity_offset(cfg, L + 1)
    grid = momentum_grid(cfg, other)
    minus = list(mode_orbital(cfg, grid, Band.MINUS, other))
    plus = mode_orbital(cfg, grid, Band.PLUS, other)
    orbitals = []
    for i in range(L):
        orbitals += [minus + [plus[i]], minus[:i] + minus[i + 1:]]
    for (words, amps), orbs in zip(stepped[1:], orbitals, strict=True):
        a = dict(zip(words.tolist(), amps.tolist()))
        b = dict(zip(*(x.tolist() for x in slater_state(cfg, orbs))))
        assert max(abs(a.get(w, 0.0) - b.get(w, 0.0)) for w in a.keys() | b.keys()) <= 1e-12


def test_circular_multiset_distance():
    a = np.array([math.pi - 1e-12, 0.0])
    b = np.array([-math.pi, 0.0])
    assert circular_multiset_distance(a, b) < 1e-11
    with pytest.raises(ValueError):
        circular_multiset_distance(np.array([0.0]), np.array([0.0, 1.0]))
