"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single pass/fail line with the measured quantity so the
whole battery reads as a checklist under `pytest -v`.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fock_algebra import anticommutator, build_state, inner_product, vacuum
from fqca.evolution import step
from fqca.fermion import LadderOp, OpKind, heisenberg_image
from fqca.lattice import Boundary, Eps, FockState, LatticeConfig
from fqca import nogo, spectral, walk
from fqca.cli import load_config, run_experiment

REPO_ROOT = Path(__file__).resolve().parents[1]


def report(num: int, description: str, passed: bool, measured: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] acceptance {num:02d} — {description}: {measured}")
    assert passed, f"acceptance criterion {num} failed: {measured}"


def test_01_unitarity_and_vacuum():
    cfg = LatticeConfig(L=8, theta=0.6)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        words = rng.integers(0, 1 << 16, size=12)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        state = FockState(cfg, {int(w): complex(a) for w, a in zip(words, amps)})
        ratio = step(state).norm() / state.norm()
        worst = max(worst, abs(ratio - 1.0))
    out = step(vacuum(cfg))
    vacuum_fixed = out.amplitudes == {0: 1.0 + 0.0j}
    report(
        1,
        "unitarity on 200 random states and exact vacuum invariance",
        worst <= 1e-12 and vacuum_fixed,
        f"max |ratio-1| = {worst:.3e}, vacuum fixed = {vacuum_fixed}",
    )


def test_02_walk_oracle_equivalence():
    worst = 0.0
    for theta in (0.0, 0.1, 0.7):
        cfg = LatticeConfig(L=64, theta=theta)
        worst = max(worst, walk.compare_one_particle(cfg, (32, Eps.PLUS), 100))
    report(
        2,
        "automaton equals independent walk, L=64, 100 steps, 3 angles",
        worst < 1e-12,
        f"max amplitude deviation = {worst:.3e}",
    )


def test_03_two_particle_worked_examples():
    theta = 0.3
    cfg = LatticeConfig(L=8, theta=theta)
    c, s = math.cos(theta), math.sin(theta)
    x = 3
    final = step(
        build_state(
            cfg,
            [
                LadderOp(OpKind.CREATE, x, Eps.PLUS),
                LadderOp(OpKind.CREATE, x + 1, Eps.MINUS),
            ],
        )
    )
    expected = [
        ([(x, Eps.MINUS), (x + 1, Eps.PLUS)], -c * c),
        ([(x, Eps.MINUS), (x + 1, Eps.MINUS)], -c * s),
        ([(x, Eps.PLUS), (x + 1, Eps.PLUS)], c * s),
        ([(x, Eps.PLUS), (x + 1, Eps.MINUS)], s * s),
    ]
    worst = 0.0
    for sites, coeff in expected:
        probe = build_state(cfg, [LadderOp(OpKind.CREATE, cc, e) for cc, e in sites])
        worst = max(worst, abs(inner_product(probe, final) - coeff))
    meeting = step(
        build_state(
            cfg,
            [
                LadderOp(OpKind.CREATE, x - 1, Eps.PLUS),
                LadderOp(OpKind.CREATE, x + 1, Eps.MINUS),
            ],
        )
    )
    probe = build_state(
        cfg,
        [LadderOp(OpKind.CREATE, x, Eps.MINUS), LadderOp(OpKind.CREATE, x, Eps.PLUS)],
    )
    worst = max(worst, abs(inner_product(probe, meeting) - (-1.0)))
    report(
        3,
        "counter-mover coefficients and the -1 crossing phase at theta=0.3",
        worst <= 1e-14,
        f"max coefficient deviation = {worst:.3e}",
    )


def test_04_anticommutators_exhaustive():
    cfg = LatticeConfig(L=3, theta=0.3)
    sites = [(c, e) for c in range(3) for e in (Eps.MINUS, Eps.PLUS)]
    eye = np.eye(1 << 6)
    worst = 0.0
    for c1, e1 in sites:
        for c2, e2 in sites:
            a1 = LadderOp(OpKind.ANNIHILATE, c1, e1)
            c2op = LadderOp(OpKind.CREATE, c2, e2)
            mixed = anticommutator(cfg, a1, c2op, sector_max_n=6)
            target = eye if (c1, e1) == (c2, e2) else 0.0
            worst = max(worst, float(np.max(np.abs(mixed - target))))
            c1op = LadderOp(OpKind.CREATE, c1, e1)
            both = anticommutator(cfg, c1op, c2op, sector_max_n=6)
            worst = max(worst, float(np.max(np.abs(both))))
    report(
        4,
        "all anticommutator pairs equal 0 or identity at L=3",
        worst <= 1e-13,
        f"max entry deviation = {worst:.3e}",
    )


def test_05_heisenberg_images_and_bosonic_control():
    # the hand-written (cos, +-sin) table is the image: a third witness beside
    # the engine, which the residual holds to it, and the walk
    worst, walk_dev = 0.0, 0.0
    for theta in (0.1, 0.3):
        cfg = LatticeConfig(L=8, theta=theta, boundary=Boundary.OPEN)
        c, s = math.cos(theta), math.sin(theta)
        images = {eps: np.zeros((cfg.L, 2), dtype=complex) for eps in Eps}
        images[Eps.PLUS][5] = s, c  # (minus, plus)
        images[Eps.MINUS][3] = c, -s
        for eps, image in images.items():
            worst = max(worst, heisenberg_image(cfg, LadderOp(OpKind.CREATE, 4, eps), image))
            column = walk.walk_step(cfg, walk.localized(cfg, 4, eps))
            walk_dev = max(walk_dev, float(np.abs(column - image).max()))
    # the loop ends on the shipped lattice, theta = 0.3
    plus = LadderOp(OpKind.CREATE, 4, Eps.PLUS)
    residual = heisenberg_image(cfg, plus, images[Eps.PLUS], bosonic=True)
    report(
        5,
        "conjugated ladder images (cos, +/-sin) and bosonic control",
        worst <= 1e-12 and walk_dev <= 1e-15 and residual > 1e-3,
        f"image residual = {worst:.3e}, walk deviation = {walk_dev:.3e},"
        f" bosonic residual = {residual:.3e}",
    )


def test_06_dispersion():
    cfg = LatticeConfig(L=32, theta=0.4)
    phases = spectral.n_particle_eigenphases(cfg, 1)
    expected = []
    for k in spectral.momentum_grid(cfg):
        phi = math.acos(math.cos(cfg.theta) * math.cos(k * cfg.dx))
        expected.extend([phi, -phi])
    dev = spectral.circular_multiset_distance(phases, np.array(expected))
    slope = spectral.phi_convergence_slope()
    report(
        6,
        "one-particle eigenphases match +/-arccos(cos theta cos k dx); cubic fit",
        dev <= 1e-10 and slope >= 2.9,
        f"eigenphase deviation = {dev:.3e}, log-log slope = {slope:.3f}",
    )


def test_07_effective_hamiltonian():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        theta = float(rng.uniform(-1.3, 1.3))
        k = float(rng.uniform(-math.pi, math.pi))
        cfg = LatticeConfig(L=4, theta=theta)
        H = spectral.step_matrix(cfg, k).hamiltonian(cfg.dt)
        w, v = np.linalg.eigh(H)
        expH = v @ np.diag(np.exp(-1j * w * cfg.dt)) @ v.conj().T
        worst = max(
            worst, float(np.max(np.abs(expH - spectral.step_matrix(cfg, k).matrix)))
        )
    eps = 0.05
    cfg = LatticeConfig(L=4, theta=eps)
    e = spectral.energy(cfg, eps / cfg.dx)
    energy_dev = abs(e.e_plus - e.dirac)
    report(
        7,
        "exp(-iH dt) = step matrix; relativistic energy to cubic order",
        worst <= 1e-12 and energy_dev <= 0.2 * eps**3 / cfg.dt,
        f"max exp deviation = {worst:.3e}, energy deviation = {energy_dev:.3e}"
        f" (bound {0.2 * eps ** 3:.3e})",
    )


def test_08_two_particle_spectrum_calibrated():
    cfg = LatticeConfig(L=4, theta=0.3)
    offset = spectral.parity_offset(cfg, 2)
    dev = spectral.circular_multiset_distance(
        spectral.n_particle_eigenphases(cfg, 2),
        spectral.expected_nparticle_phases(cfg, 2, offset),
    )
    free = LatticeConfig(L=4, theta=0.0)
    free_offset = spectral.parity_offset(free, 2)
    free_dev = spectral.circular_multiset_distance(
        spectral.n_particle_eigenphases(free, 2),
        spectral.expected_nparticle_phases(free, 2, free_offset),
    )
    report(
        8,
        "two-particle eigenphases equal pair sums on the seam-twisted grid"
        " (and at theta=0)",
        dev <= 1e-10 and free_dev <= 1e-10 and offset == free_offset,
        f"deviation = {dev:.3e}, free-translation deviation = {free_dev:.3e},"
        f" offset = {offset}",
    )


def test_09_dirac_sea():
    cfg = LatticeConfig(L=6, theta=0.4)
    sea = spectral.dirac_sea_excitations(cfg)
    modulus, excitations = sea.modulus, sea.excitations
    gap_dev = max(abs(e.gap - e.phi / cfg.dt) for e in excitations)
    min_gap = min(e.gap for e in excitations)
    report(
        9,
        "filled sea is a step eigenstate; all 2L gaps positive and equal phi/dt",
        abs(modulus - 1.0) <= 1e-10
        and len(excitations) == 2 * cfg.L
        and min_gap > 0.0
        and gap_dev <= 1e-10,
        f"|overlap|-1 = {abs(modulus - 1.0):.3e}, max gap deviation = {gap_dev:.3e},"
        f" min gap = {min_gap:.3f}",
    )


def test_10_nogo_witness():
    spec = nogo.full_spec(2)
    bounds = nogo.LatticeBounds(15, 15)
    triple = nogo.find_witness_triple(spec, bounds, min_distance=3)
    found = triple is not None
    invariants = found and triple.violations(spec, bounds, 3) == 0
    degenerate = nogo.find_witness_triple(spec, nogo.LatticeBounds(15, 1), min_distance=3)
    report(
        10,
        "witness triple on 15x15 at distance 3; none on a height-1 lattice",
        found and invariants and degenerate is None,
        f"found = {found}, invariants verified = {invariants},"
        f" degenerate lattice witness = {degenerate}",
    )


def test_11_nogo_csp():
    one_d = nogo.sign_csp(dimension=1, radius=1, spec=nogo.CHAIN_SPEC, lattice_size=6)

    def crosses(key):
        a, b = key
        before = (a[1], a[0], a[2]) < (b[1], b[0], b[2])
        after = (a[4], a[3], a[5]) < (b[4], b[3], b[5])
        return before != after

    rule_ok = one_d.sat and all(
        val == (-1 if crosses(key) else 1) for key, val in one_d.assignment.items()
    )
    two_d = nogo.sign_csp(dimension=2, radius=1, spec=nogo.full_spec(2), lattice_size=5)
    trivial = nogo.sign_csp(
        dimension=2, radius=1, spec=nogo.trivial_spec(2), lattice_size=5
    )
    report(
        11,
        "1D phase rule is -1 on crossings; 2D UNSAT with certificate; trivial SAT",
        rule_ok and not two_d.sat and bool(two_d.violated) and trivial.sat,
        f"1D sat = {one_d.sat} (rule ok = {rule_ok}), 2D sat = {two_d.sat}"
        f" with {len(two_d.violated)} certificate entries, trivial sat = {trivial.sat}",
    )


def test_12_shipped_configs_deterministic(tmp_path):
    configs = sorted((REPO_ROOT / "experiments").glob("*.json"))
    assert len(configs) == 14
    all_ok = True
    for cfgfile in configs:
        raw = load_config(cfgfile)
        out1 = tmp_path / cfgfile.stem / "a"
        out2 = tmp_path / cfgfile.stem / "b"
        ok1 = run_experiment(raw, str(out1), quiet=True) == 0
        ok2 = run_experiment(raw, str(out2), quiet=True) == 0
        identical = all(
            (out1 / f.name).read_bytes() == (out2 / f.name).read_bytes()
            for f in sorted(out1.iterdir())
        ) and sorted(f.name for f in out1.iterdir()) == sorted(
            f.name for f in out2.iterdir()
        )
        all_ok = all_ok and ok1 and ok2 and identical
    report(
        12,
        "all fourteen shipped configs pass and re-run byte-identically",
        all_ok,
        f"{len(configs)} configs checked",
    )
