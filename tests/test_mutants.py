"""Known-bad engines must fail a shipped manifest.

Each mutant rewrites one line of one function in src/fqca, compiles the
rewritten source into the function's module and binds it there, so every
caller that looks the name up at call time (all of the engine does) runs
the mutant; a mutated experiment runner is also bound in `cli.RUNNERS`.
The configs it names, shipped or benchmark, run in process through
`cli.run_experiment` and must each write a manifest with "ok": false and
return 1, not raise. The step layers are cached per config, so
the cache is cleared before and after every mutant.

A witness search whose breadth-first search admits sites near s2 passes
the shipped `nogo_witness` config: on 15 x 15 at min_distance 3 the first
path it finds stays far from s2 anyway. On 8 x 8 at min_distance 2
(`nogo_witness_close`) its path cuts past s2.

A CSP whose flip test is reversed still answers UNSAT in 2D, since far
pairs that keep their order are then its violations; only the
certificate's re-check (`certificate_verified`) sees that their images do
not swap. The same re-check sees a source separation taken as the
Manhattan sum: the certificate then reports sums that are not the
sources' Chebyshev distance.

The coin's orbit layout (evolution._orbit_plan) runs only on coin inputs
above evolution.ORBIT_CUTOFF keys. Of the shipped and benchmark configs
only `dirac_sea` (780-888 keys at L = 6) reaches it, so its mutant names
that config alone.

Each step layer keeps the plans of its last two input supports
(evolution._layer_plan), and the wavepackets' walk comparisons, one `step`
call per step, reuse them once the packet fills its support: each layer's
input support then returns every second step. So the two known-bad reuse
rules fail both wavepacket configs, at some of their coin angles: reuse
on a mere length match, and search rounds that clear the plan's own
lone-pair mask, which leave a reused plan with no pair to mix.

A pruning that writes 1 where it should write 0 leaves every overlap check
passing, since `eigenphase_of` sums <psi|U psi> over psi's own words only;
only `dirac_sea`'s stepped norm (`steps_keep_norm`) sees it. The open
chain's last shift pair is checked only by `wavepacket_open`, whose packet
reaches both edges.

Every shipped config but `dirac_limit_units` has dx = dt = 1, where the
mode algebra's k dx and H's 1 / dt leave a number as it is: H multiplied by
dt, or k divided by dx, passes them all (test_unit_mutants_pass_at_unit_spacing).
At dx = 0.5 and dt = 0.25, `dirac_limit_units` sees the first in
exp(-i H dt) = M and the second in the energy deviation.

A walk whose coin turns the other way is as unitary as the right one, so
only the checks that hold the automaton against it see it: the wavepackets'
walk comparisons, and `heisenberg_check`, whose image of a creator is one
walk step from the creator's site.

The ring's seam twist in `fermion.heisenberg_image` has two halves. The
sign sigma(w) of the seam-crossing sites' occupations is seen only by a
cell whose spanning words reach the seam, and the column sign (-1)^N(w)
only at a site that crosses it: (0, Minus), bit 0, or (L - 1, Plus), bit
2L - 1. On the L = 6 ring, `heisenberg_check_ring` (cell 0) sees sigma and
the column sign at bit 0, and `heisenberg_check_ring_last` (cell 5) sees
sigma and the column sign at bit 2L - 1, so a crossing test that misses
the top bit fails the second alone. The open chain of `heisenberg_check`
has no seam.

A wavepacket runner that reads "plus" as Minus runs the other packet,
which its walk comparisons follow just as closely; only `first_step_cell`,
whose direction comes from the param itself, sees it.

Left out, as an equivalent mutant: `_ladder_arrays` taking the parity of
the bits above the target instead of below. For a creator on an empty site
the parity above equals the parity below times (-1)^N(w), with N(w) the
particle number of the word. The step conserves N, so both sides of the
Heisenberg residual pick up the same sign and every manifest passes.
"""

import __future__

import inspect
import json
from pathlib import Path

import pytest

from fqca import cli, evolution, fermion, nogo, spectral, walk

REPO = Path(__file__).resolve().parents[1]
CONFIGS = {p.stem: p for p in sorted(REPO.glob("experiments/*.json"))}
CONFIGS.update((p.stem, p) for p in sorted(REPO.glob("perfbench/configs/*.json")))

ENGINE_FAILS = ("dirac_sea", "heisenberg_check", "heisenberg_check_ring", "two_particle_scatter")

# name -> (module, function, line as written, mutated line, configs that must fail)
MUTANTS = {
    "coin_11_phase_plus_one": (
        evolution, "coin_matrix",
        "phase = 1.0 if bosonic else -1.0", "phase = 1.0",
        ENGINE_FAILS,
    ),
    "shift_11_phase_plus_one": (
        evolution, "shift_matrix",
        "phase = 1.0 if bosonic else -1.0", "phase = 1.0",
        ENGINE_FAILS,
    ),
    "coin_theta_negated": (
        evolution, "coin_matrix",
        "c, s = np.cos(theta), np.sin(theta)", "c, s = np.cos(theta), np.sin(-theta)",
        ENGINE_FAILS + ("wavepacket",),
    ),
    "two_steps_per_step": (
        evolution, "_step_layers",
        "return _shift_layer(cfg, bosonic), _coin_layer(cfg, bosonic)",
        "return (_shift_layer(cfg, bosonic), _coin_layer(cfg, bosonic)) * 2",
        ENGINE_FAILS + ("dispersion_sweep", "wavepacket"),
    ),
    "ring_seam_pair_left_out": (
        evolution, "_shift_layer",
        "npairs = cfg.L if cfg.boundary is Boundary.PERIODIC else cfg.L - 1",
        "npairs = cfg.L - 1",
        ("dirac_sea", "dispersion_sweep", "heisenberg_check_ring", "wavepacket"),
    ),
    # a plan reused for other keys of the same number
    "plan_reused_on_length_match": (
        evolution, "_layer_plan",
        "if keys.dtype == seen.dtype and np.array_equal(keys, seen):", "if len(keys) == len(seen):",
        ("wavepacket", "wavepacket_open"),
    ),
    # search rounds that clear the plan's own lone-pair mask, so a reused plan mixes no pair
    "search_rounds_clear_the_plans_mask": (
        evolution, "_plan",
        "v, x.copy(), d, o)", "v, x, d, o)",
        ("wavepacket", "wavepacket_open"),
    ),
    "orbit_round_diag_swapped": (
        evolution, "_orbit_plan",
        "_pruned(d[2] * lo + o[2] * hi), _pruned(d[1] * hi + o[1] * lo)",
        "_pruned(d[1] * lo + o[2] * hi), _pruned(d[2] * hi + o[1] * lo)",
        ("dirac_sea",),
    ),
    "pruned_to_one": (
        evolution, "_pruned",
        "amps[np.abs(amps) <= PRUNE_THRESHOLD] = 0", "amps[np.abs(amps) <= PRUNE_THRESHOLD] = 1",
        ("dirac_sea",),
    ),
    "open_chain_last_pair_left_out": (
        evolution, "_shift_layer",
        "npairs = cfg.L if cfg.boundary is Boundary.PERIODIC else cfg.L - 1",
        "npairs = cfg.L if cfg.boundary is Boundary.PERIODIC else cfg.L - 2",
        ("wavepacket_open",),
    ),
    "csp_flip_reversed": (
        nogo, "sign_csp",
        "flip = k1 > k2", "flip = k1 < k2",
        ("nogo_csp", "nogo_csp_1d_9", "nogo_csp_2d_7x7"),
    ),
    "csp_separation_manhattan": (
        nogo, "sign_csp",
        "separation = np.maximum(*np.abs(src[:, p1] - src[:, p2]))",
        "separation = np.add(*np.abs(src[:, p1] - src[:, p2]))",
        ("nogo_csp", "nogo_csp_2d_7x7"),
    ),
    "hamiltonian_times_dt": (
        spectral, "ModeMatrix",
        "np.asarray(self.phi / dt)", "np.asarray(self.phi * dt)",
        ("dirac_limit_units",),
    ),
    "k_over_dx": (
        spectral, "step_matrix",
        "np.asarray(k) * config.dx", "np.asarray(k) / config.dx",
        ("dirac_limit_units",),
    ),
    "walk_coin_theta_negated": (
        walk, "walk_step",
        "c, s = np.cos(config.theta), np.sin(config.theta)",
        "c, s = np.cos(config.theta), np.sin(-config.theta)",
        ("wavepacket", "wavepacket_open", "heisenberg_check", "heisenberg_check_ring"),
    ),
    # each half of the ring's seam twist dropped alone
    "heisenberg_seam_sigma_dropped": (
        fermion, "heisenberg_image",
        "(w & seam).bit_count() + crossing", "crossing",
        ("heisenberg_check_ring", "heisenberg_check_ring_last"),
    ),
    "heisenberg_seam_column_sign_dropped": (
        fermion, "heisenberg_image",
        "crossing = bit_index(op.cell, op.eps) in (0, nbits - 1)", "crossing = False",
        ("heisenberg_check_ring", "heisenberg_check_ring_last"),
    ),
    # the column sign's top seam bit, 2L - 1, missed
    "heisenberg_seam_top_bit_missed": (
        fermion, "heisenberg_image",
        "crossing = bit_index(op.cell, op.eps) in (0, nbits - 1)",
        "crossing = bit_index(op.cell, op.eps) in (0, nbits + 1)",
        ("heisenberg_check_ring_last",),
    ),
    "wavepacket_eps_misread": (
        cli, "run_wavepacket",
        'eps = Eps.PLUS if params["eps"] == "plus" else Eps.MINUS',
        'eps = Eps.PLUS if params["eps"] != "plus" else Eps.MINUS',
        ("wavepacket", "wavepacket_open"),
    ),
    "head_on_expected_plus_one": (
        cli, "run_two_particle_scatter",
        '"crossing_phase_minus_one", meeting, [(x, m), (x, p)], -1.0)',
        '"crossing_phase_minus_one", meeting, [(x, m), (x, p)], 1.0)',
        ("two_particle_scatter",),
    ),
    # the head-on probe reads the pair's stepped state, whose two particles sit on two cells
    "head_on_read_from_pair": (
        cli, "run_two_particle_scatter",
        '"crossing_phase_minus_one", meeting,', '"crossing_phase_minus_one", pair,',
        ("two_particle_scatter",),
    ),
    "witness_path_near_s2": (
        nogo, "find_witness_triple",
        "if t not in prev and chebyshev(t, s2) >= min_distance:", "if t not in prev:",
        ("nogo_witness_close",),
    ),
}


def mutate(monkeypatch, module, name: str, line: str, mutated: str) -> None:
    """Bind module.name to its source with line replaced by mutated."""
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(line) == 1, f"{module.__name__}.{name} no longer holds {line!r}"
    code = compile(
        source.replace(line, mutated), inspect.getsourcefile(module), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = dict(vars(module))
    exec(code, namespace)
    monkeypatch.setattr(module, name, namespace[name])
    # run_experiment finds a runner in cli.RUNNERS, which holds the function itself
    for experiment, runner in cli.RUNNERS.items():
        if runner is original:
            monkeypatch.setitem(cli.RUNNERS, experiment, namespace[name])


def run(name: str, outdir: Path) -> tuple[int, dict]:
    rc = cli.run_experiment(cli.load_config(CONFIGS[name]), str(outdir), quiet=True)
    return rc, json.loads((outdir / "manifest.json").read_text())


@pytest.fixture
def fresh_layers():
    evolution._step_layers.cache_clear()
    yield
    evolution._step_layers.cache_clear()


def test_unmutated_configs_pass(tmp_path, fresh_layers):
    named = sorted({c for *_, configs in MUTANTS.values() for c in configs})
    for name in named:
        rc, manifest = run(name, tmp_path / name)
        assert rc == 0 and manifest["ok"] is True, name


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_fails_its_configs(tmp_path, fresh_layers, monkeypatch, mutant):
    # fresh_layers comes first, so it clears the cache after monkeypatch undoes the mutant
    module, name, line, mutated, configs = MUTANTS[mutant]
    mutate(monkeypatch, module, name, line, mutated)
    for config in configs:
        rc, manifest = run(config, tmp_path / config)
        failed = [c["name"] for c in manifest["checks"] if not c["passed"]]
        assert rc == 1 and manifest["ok"] is False and failed, config


@pytest.mark.parametrize("mutant", ["hamiltonian_times_dt", "k_over_dx"])
def test_unit_mutants_pass_at_unit_spacing(tmp_path, fresh_layers, monkeypatch, mutant):
    module, name, line, mutated, _ = MUTANTS[mutant]
    mutate(monkeypatch, module, name, line, mutated)
    for config in ("dirac_limit", "dispersion_sweep"):
        rc, manifest = run(config, tmp_path / config)
        assert rc == 0 and manifest["ok"] is True, config
