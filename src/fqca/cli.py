"""Experiment runner: JSON config in, CSV/JSON products plus a manifest out.

Commands: `run <config.json>`, `validate <config.json>`, `list-experiments`.
A config is read as JSON bytes (UTF-8, or UTF-16/32 by JSON's own detection,
never the locale's codec) and checked against the bounds tables TOP, LATTICE
and PARAMS. A config that cannot be read or is rejected raises OSError or
ValueError from `load_config`, which `main` prints as one `error:` line naming
the file, with exit status 2.
Every output file is deterministic for a fixed config and seed: the json
module and `str` write it, so each float is its shortest round-trip text, JSON
keys are sorted, and the only RNG in play is seeded from the config.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import operator
import reprlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fermion, nogo, spectral, walk
from .evolution import coin_matrix, shift_matrix, step
from .fermion import LadderOp, OpKind
from .lattice import (
    Boundary,
    Eps,
    FockState,
    MAX_CELLS,
    MIN_CELLS,
    LatticeConfig,
    basis_from_particles,
    basis_state,
)


# Every key a config's top level, its lattice block or an experiment's params
# may set, as key -> (kind, default, low, high). A kind is int, float (any
# finite number, stored as a float), list (a list of numbers, kept as written),
# str, dict (a JSON object), or a tuple of the allowed strings. A default of
# ... marks a required key; a default of None also admits null. A number,
# given or default, lies in [low, high], as does each entry of a list, which
# holds 1 to MAX_ENTRIES of them; a string or object row has no range. A
# callable default or bound is worked out from the lattice config.
# dx and dt lie in UNITS and |theta| <= pi, so every quantity a run forms from
# them (the mass theta dt / dx^2 and its square, the grid 2 pi n / (L dx),
# phi / dt) stays a finite float
UNITS = (1e-100, 1e100)
LATTICE = {
    "L": (int, ..., MIN_CELLS, MAX_CELLS),
    "dx": (float, 1.0, *UNITS),
    "dt": (float, 1.0, *UNITS),
    "theta": (float, 0.0, -math.pi, math.pi),
    "boundary": (tuple(b.value for b in Boundary), "periodic", None, None),
}
# nogo footprint name -> its builder, which takes the internal-state count
SPECS = {"full": nogo.full_spec, "trivial": nogo.trivial_spec}


def _edge(cfg: LatticeConfig) -> int:
    """Cells two_particle_scatter keeps clear of each edge: it uses cell-1..cell+1."""
    return 1 if cfg.boundary is Boundary.OPEN else 0


PARAMS = {
    "dispersion_sweep": {},
    "wavepacket": {
        "cell": (int, lambda cfg: cfg.L // 2, 0, lambda cfg: cfg.L - 1),
        "eps": (("plus", "minus"), "plus", None, None),
        "nsteps": (int, lambda cfg: cfg.L // 2, 1, 1000),
        "compare_thetas": (list, lambda cfg: [cfg.theta], *LATTICE["theta"][2:]),
    },
    "two_particle_scatter": {
        "cell": (int, lambda cfg: cfg.L // 2 - 1, _edge, lambda cfg: cfg.L - 1 - _edge(cfg)),
    },
    "dirac_limit": {
        "nsamples": (int, 100, 1, 100_000),
        # theta = k dx = eps is a long wavelength, at most 1; below about 4e-8
        # the bound 0.2 eps^3 / dt on its energy falls under the rounding of phi
        "eps": (float, 0.05, 1e-6, 1.0),
    },
    "heisenberg_check": {
        "cell": (int, lambda cfg: cfg.L // 2, 0, lambda cfg: cfg.L - 1),
    },
    "dirac_sea": {},
    "nogo_witness": {
        "lattice_size": (int, 15, 1, nogo.MAX_WITNESS_SIDE),
        "min_distance": (int, 3, 1, nogo.MAX_WITNESS_SIDE),
        "height": (int, None, 1, nogo.MAX_WITNESS_SIDE),
        "spec": (tuple(SPECS), "full", None, None),
        "num_eps": (int, 2, 1, nogo.MAX_EPS),
    },
    "nogo_csp": {
        "dimension": (int, 2, min(nogo.MAX_CSP_SIDE), max(nogo.MAX_CSP_SIDE)),
        "radius": (int, 1, 0, nogo.MAX_RADIUS),
        "lattice_size": (int, 5, nogo.MIN_CSP_SIDE, max(nogo.MAX_CSP_SIDE.values())),
        "spec": (tuple(SPECS), "full", None, None),
    },
}
EXPERIMENTS = tuple(PARAMS)
TOP = {
    "experiment": (EXPERIMENTS, ..., None, None),
    "lattice": (dict, ..., None, None),
    "params": (dict, {}, None, None),
    "output_dir": (str, ..., None, None),
    "seed": (int, ..., 0, math.inf),
}
# the most entries a list param holds: each compare_thetas entry is one more
# walk comparison of nsteps steps
MAX_ENTRIES = 8
# smallest excitation phase dirac_sea accepts, and its gaps_positive tolerance
MIN_GAP = 1e-12


# ---------------------------------------------------------------------------
# deterministic serialization


def dump_json(obj) -> str:
    """obj as JSON text: sorted keys, each float as its shortest round-trip repr."""
    return json.dumps(obj, sort_keys=True) + "\n"


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows as CSV, each field as its str (a float's shortest round-trip repr).

    Each row has one field per header column; any other width raises TypeError.
    """
    fmt = ",".join(["%s"] * len(header))
    lines = [",".join(header)]
    lines += (fmt % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config handling


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def load_config(path: str | Path) -> dict:
    """The config at path, checked against TOP, LATTICE and PARAMS; raises
    OSError if it cannot be read and ValueError if it is not a valid config."""
    try:
        raw = json.loads(Path(path).read_bytes())
    except RecursionError as e:
        raise ValueError("JSON nested too deeply") from e
    _require(isinstance(raw, dict), "top level must be an object")
    raw.setdefault("params", {})
    _resolve(TOP, raw, "", None)
    lat = _resolve(LATTICE, raw["lattice"], "lattice: ", None)
    cfg = LatticeConfig(**{**lat, "boundary": Boundary(lat["boundary"])})
    experiment = raw["experiment"]
    params = _resolve(PARAMS[experiment], raw["params"], f"{experiment}: ", cfg)
    raw["_config"], raw["_params"] = cfg, params
    if experiment in ("dispersion_sweep", "dirac_sea"):
        _require(cfg.boundary is Boundary.PERIODIC, f"{experiment} needs the periodic boundary")
    if experiment == "dirac_sea":
        # at odd L the sea's grid mirrors its excitations', so gaps miss phi/dt
        _require(cfg.L % 2 == 0, "dirac_sea needs an even L")
        cap = spectral.MAX_SEA_CELLS
        _require(cfg.L <= cap, f"dirac_sea needs L <= {cap}, got L={cfg.L}")
        # phi = arccos|cos theta| is smallest at k = 0 and pi/dx, on the excitation grid
        phi = spectral.step_matrix(cfg, np.array([0.0, math.pi / cfg.dx])).phi.min()
        _require(phi > MIN_GAP, f"dirac_sea is massless at theta={cfg.theta}: phi {phi:.3g}")
    if experiment == "nogo_csp":
        if params["dimension"] == 1:
            _require("spec" not in raw["params"], "nogo_csp takes no spec at dimension 1")
        nogo.check_csp_size(params["dimension"], params["radius"], params["lattice_size"])
    if experiment == "nogo_witness":
        nogo.check_witness_size(params["lattice_size"], params["min_distance"], params["height"])
    return raw


_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    list: "a list of numbers",
    str: "a string",
    dict: "an object",
}


def _is_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if isinstance(value, bool):
        return False
    if kind is list:
        return isinstance(value, list) and all(_is_kind(v, float) for v in value)
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _resolve(table: dict, given: dict, where: str, cfg: LatticeConfig | None) -> dict:
    """Check each key of `given` against `table`, fill in the defaults, and
    check that each number lies in its row's range. Each message starts with
    the prefix `where`, and shows a given key or value cut to a few entries
    and characters by reprlib, however large or deeply nested it is."""
    short = reprlib.repr
    for key in given:
        _require(key in table, f"{where}unknown key {short(key)}; accepted: {sorted(table)}")
    out = {}
    for key, (kind, default, low, high) in table.items():
        at = f"{where}{key}"
        if key in given:
            value = given[key]
            _require(
                _is_kind(value, kind) or (value is None and default is None),
                f"{at} must be {_KIND_NAMES.get(kind) or f'one of {kind}'}, got {short(value)}",
            )
            value = float(value) if kind is float else value
        else:
            _require(default is not ..., f"{where}missing field {key!r}")
            value = default(cfg) if callable(default) else default
        if low is not None and value is not None:
            low, high = (b(cfg) if callable(b) else b for b in (low, high))
            if low > high:  # only a row bounded by the lattice, so with a cfg, can be empty
                lattice = f"L={cfg.L} ({cfg.boundary.value})"
                raise ValueError(f"{where}the lattice {lattice} is too small for any {key}")
            entries = value if kind is list else [value]
            n = len(entries)
            _require(n <= MAX_ENTRIES, f"{at} holds at most {MAX_ENTRIES} entries, got {n}")
            _require(n > 0, f"{at} needs at least one entry")
            for v in entries:
                _require(low <= v <= high, f"{at} must lie in [{low!r}, {high!r}], got {short(v)}")
            # equal entries (0, 0.0 and -0.0 too) would repeat one run under one check name
            _require(len(set(entries)) == n, f"{at} repeats an entry: {short(value)}")
        out[key] = value
    return out


def config_hash(raw: dict) -> str:
    clean = {k: v for k, v in raw.items() if not k.startswith("_")}
    return hashlib.sha256(
        json.dumps(clean, sort_keys=True).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# experiments: each returns (rows_written, checks); checks are dicts with
# name / passed / measured / tolerance


# a check passes when its measurement is at most, at least or equal to its tolerance
_PASSES = {"max": operator.le, "min": operator.ge, "eq": operator.eq}


def _check(name: str, measured: float, tol: float, direction: str = "max") -> dict:
    return {
        "name": name,
        "passed": bool(_PASSES[direction](measured, tol)),
        "measured": float(measured),
        "tolerance": float(tol),
        "direction": direction,
    }


def run_dispersion_sweep(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    rows = spectral.dispersion_rows(cfg)
    write_csv(
        outdir / "dispersion.csv",
        ["k", "kdx", "phi", "E_lattice", "E_dirac", "abs_err"],
        rows,
    )
    phases = spectral.n_particle_eigenphases(cfg, 1)
    expected = spectral.expected_nparticle_phases(cfg, 1, spectral.parity_offset(cfg, 1))
    dev = spectral.circular_multiset_distance(phases, expected)
    slope = spectral.phi_convergence_slope()
    checks = [
        _check("one_particle_eigenphases", dev, 1e-10),
        _check("dispersion_convergence_slope", slope, 2.9, "min"),
    ]
    extras = {
        "max_abs_err": max(r[5] for r in rows),
        "convergence_slope": slope,
    }
    return extras, checks


def run_wavepacket(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    cell, nsteps = params["cell"], params["nsteps"]
    eps = Eps.PLUS if params["eps"] == "plus" else Eps.MINUS
    probs = walk.wavepacket_trace(cfg, (cell, eps), nsteps)
    write_csv(
        outdir / "wavepacket.csv", ["step", "cell", "prob"],
        ((t, c, p) for t, row in enumerate(probs.tolist()) for c, p in enumerate(row)),
    )
    norm_dev = np.abs(probs.sum(axis=1) - 1.0).max()
    # a cell more than t cells from the start lies outside step t's light cone
    dist = np.array([cfg.distance(c, cell) for c in range(cfg.L)])
    leak = probs[dist > np.arange(nsteps + 1)[:, None]].sum()
    # one step moves the whole packet one cell the way its label points, read
    # from the param itself; at an open chain's edge it stays on its cell
    target = cell + {"plus": 1, "minus": -1}[params["eps"]]
    target = target % cfg.L if cfg.boundary is Boundary.PERIODIC else min(max(target, 0), cfg.L - 1)
    checks = [
        _check("norm_conservation", norm_dev, 1e-12),
        _check("light_cone_leak", leak, 1e-12),
        _check("first_step_cell", 1.0 - probs[1, target], 1e-12),
    ]
    # cross-validate the dense walk against the automaton's one-particle
    # sector at each requested coin angle
    for theta in params["compare_thetas"]:
        dev = walk.compare_one_particle(replace(cfg, theta=theta), (cell, eps), nsteps)
        checks.append(_check(f"walk_vs_automaton_theta_{theta}", dev, 1e-12))
    return {"nsteps": nsteps}, checks


def _light_cone_leak(cfg: LatticeConfig, sites, final: FockState) -> float:
    """Probability of final on words that occupy a cell more than one cell
    from every cell of sites, where one step started: outside its light cone."""
    start = {c % cfg.L for c, _ in sites}
    cone = sum(3 << 2 * j for j in range(cfg.L) if min(cfg.distance(j, c) for c in start) <= 1)
    return sum(abs(a) ** 2 for w, a in final.amplitudes.items() if w & ~cone)


def run_two_particle_scatter(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    x = params["cell"]
    c, s = math.cos(cfg.theta), math.sin(cfg.theta)
    # a basis word is its creators applied in canonical site order, which
    # carry no sign, so a pair across the ring's seam keeps the bulk's convention
    left, right = (x - 1) % cfg.L, (x + 1) % cfg.L
    m, p = Eps.MINUS, Eps.PLUS
    # the pair, two counter-movers meeting head-on at cell x from distance
    # one, and a lone particle, each stepped once
    starts = [[(x, p), (right, m)], [(left, p), (right, m)], [(x, p)]]
    stepped = [step(basis_state(cfg, sites)) for sites in starts]
    pair, meeting = stepped[:2]
    # row, check, the stepped state read, the particles of the word read and
    # its expected amplitude; the crossed head-on pair picks up a bare -1,
    # independent of theta
    probes = [
        ("counter_swapped", "coefficient_counter_swapped", pair, [(x, m), (right, p)], -c * c),
        ("both_left", "coefficient_both_left", pair, [(x, m), (right, m)], -c * s),
        ("both_right", "coefficient_both_right", pair, [(x, p), (right, p)], c * s),
        ("counter_restored", "coefficient_counter_restored", pair, [(x, p), (right, m)], s * s),
        ("head_on_meeting", "crossing_phase_minus_one", meeting, [(x, m), (x, p)], -1.0),
    ]
    rows = []
    checks = []
    for name, check, state, sites, expected in probes:
        amp = state.amplitudes.get(basis_from_particles(cfg, sites), 0.0)
        rows.append((name, float(amp.real), float(amp.imag), float(expected)))
        checks.append(_check(check, abs(amp - expected), 1e-14))
    gates = (coin_matrix(cfg.theta), shift_matrix())
    unitarity = max(np.max(np.abs(g.conj().T @ g - np.eye(4))) for g in gates)
    checks.append(_check("gates_unitary", unitarity, 1e-14))
    # the pairs' cones hold every two-cell move, a lone particle's do not
    leak = sum(_light_cone_leak(cfg, sites, state) for sites, state in zip(starts, stepped))
    checks.append(_check("light_cone_leak", leak, 0.0))
    write_csv(
        outdir / "scatter.csv", ["branch", "re", "im", "expected"], rows
    )
    return {"cell": x, "theta": cfg.theta}, checks


def run_dirac_limit(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    nsamples, eps = params["nsamples"], params["eps"]
    # row i holds sample i's theta, then its k: one pair after another
    theta, k = rng.uniform(
        [-1.2, -math.pi / cfg.dx], [1.2, math.pi / cfg.dx], size=(nsamples, 2)
    ).T
    mode = spectral.mode_algebra(theta, k * cfg.dx)
    w, v = np.linalg.eigh(mode.hamiltonian(cfg.dt))
    expH = (v * np.exp(-1j * w * cfg.dt)[:, None, :]) @ v.conj().swapaxes(1, 2)
    dev = np.max(np.abs(expH - mode.matrix), axis=(1, 2))
    write_csv(
        outdir / "dirac_limit.csv", ["theta", "k", "exp_dev"],
        zip(theta.tolist(), k.tolist(), dev.tolist()),
    )
    checks = [_check("exp_of_hamiltonian_matches_step", dev.max(), 1e-12)]
    # energy deviation from the relativistic dispersion at theta = k dx = eps;
    # third order in eps, hence the cubic tolerance
    small = replace(cfg, theta=eps)
    k_small = eps / cfg.dx
    e = spectral.energy(small, k_small)
    checks.append(
        _check("dirac_energy_deviation", abs(e.e_plus - e.dirac), 0.2 * eps**3 / cfg.dt)
    )
    return {"nsamples": nsamples, "eps": eps}, checks


def run_heisenberg_check(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    cell = params["cell"]
    # U a^dag U^dag moves a^dag as the walk moves a particle from the same site
    columns = {
        eps: walk.walk_step(cfg, walk.localized(cfg, cell, eps)) for eps in (Eps.PLUS, Eps.MINUS)
    }
    rows = []
    checks = []
    for eps, column in columns.items():
        residual = fermion.heisenberg_image(cfg, LadderOp(OpKind.CREATE, cell, eps), column)
        checks.append(_check(f"image_residual_{eps.name.lower()}", residual, 1e-12))
        # the column's nonzero coefficients; its flat index is the target's bit index
        rows += (
            (eps.name.lower(), site // 2, Eps(site % 2).name.lower(), coeff.real, coeff.imag)
            for site, coeff in enumerate(column.reshape(-1).tolist())
            if coeff
        )
    write_csv(
        outdir / "heisenberg.csv",
        ["source_eps", "target_cell", "target_eps", "re", "im"],
        rows,
    )
    # negative control: with the doubly-occupied phases flipped to +1 the
    # conjugated operator stops being a linear ladder combination
    plus = LadderOp(OpKind.CREATE, cell, Eps.PLUS)
    residual = fermion.heisenberg_image(cfg, plus, columns[Eps.PLUS], bosonic=True)
    checks.append(_check("bosonic_control_residual", residual, 1e-3, "min"))
    return {"cell": cell, "theta": cfg.theta}, checks


def run_dirac_sea(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    sea = spectral.dirac_sea_excitations(cfg)
    excitations = sea.excitations
    rows = [
        (e.kind, e.k, e.phi, e.gap, e.eigen_modulus, abs(e.gap * cfg.dt - e.phi))
        for e in excitations
    ]
    write_csv(
        outdir / "dirac_sea.csv",
        ["kind", "k", "phi", "gap", "eigen_modulus", "abs_err"],
        rows,
    )
    bits = f"0{cfg.n_sites}b"  # a word's bits with site (0,-) printed first
    amplitudes = [
        {"bits": format(w, bits)[::-1], "im": a.imag, "re": a.real}
        for w, a in zip(sea.words.tolist(), sea.amps.tolist())
    ]
    (outdir / "sea_state.json").write_text(dump_json({"L": cfg.L, "amplitudes": amplitudes}))
    checks = [
        _check("sea_is_eigenstate", abs(sea.modulus - 1.0), 1e-10),
        _check(
            "excitations_are_eigenstates",
            max(abs(e.eigen_modulus - 1.0) for e in excitations),
            1e-10,
        ),
        _check("gaps_match_phi", max(r[5] for r in rows), 1e-10),
        _check("gaps_positive", min(e.gap for e in excitations) * cfg.dt, MIN_GAP, "min"),
        _check("steps_keep_norm", sea.norm_err, 1e-12),
    ]
    return {"sea_phase": sea.phase, "n_excitations": len(excitations)}, checks


def run_nogo_witness(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    lattice_size, min_distance = params["lattice_size"], params["min_distance"]
    height = params["height"]
    spec = SPECS[params["spec"]](params["num_eps"])
    bounds = nogo.LatticeBounds(lattice_size, lattice_size if height is None else height)
    triple = nogo.find_witness_triple(spec, bounds, min_distance)
    obj = {"type": "witness", "sites": None}
    violations = 0
    if triple:
        obj = {**triple.to_json_obj(), "min_distance": min_distance}
        violations = triple.violations(spec, bounds, min_distance)
    (outdir / "witness.json").write_text(dump_json(obj))
    checks = [
        # only a height-1 lattice has no path around s2
        _check("witness_found_matches_expectation", triple is not None, height != 1, "eq"),
        _check("witness_path_valid", violations, 0),
    ]
    return {
        "lattice_size": lattice_size,
        "min_distance": min_distance,
        "found": triple is not None,
    }, checks


def _certificate_faults(
    entries: list[dict], dimension: int, radius: int, spec: nogo.FootprintSpec, size: int
) -> int:
    """How many UNSAT certificate entries fail a re-check from their own fields.

    An entry holds when its sources and its images are each more than radius
    apart, its separation is the sources' distance, each image is one move
    from its source on the size-wide lattice (height 1 in 1D), and the
    images reverse the sources' (j, i, eps) order. A move is a step to a
    label that spec's table allows for that displacement. The distance and
    the moves are worked out here, not by nogo's own helpers.
    """
    height = 1 if dimension == 1 else size
    dist = lambda a, b: max(abs(a["i"] - b["i"]), abs(a["j"] - b["j"]))
    order = lambda s: (s["j"], s["i"], s["eps"])

    def moves(s, t) -> bool:
        labels = spec.corner_targets(s["eps"], (t["i"] - s["i"], t["j"] - s["j"]))
        return t["eps"] in labels and 0 <= t["i"] < size and 0 <= t["j"] < height

    def holds(entry: dict) -> bool:
        (a, b), (ta, tb) = entry["pair"], entry["images"]
        return (
            dist(a, b) > radius
            and dist(ta, tb) > radius
            and entry["separation"] == dist(a, b)
            and moves(a, ta)
            and moves(b, tb)
            and (order(a) < order(b)) != (order(ta) < order(tb))
        )

    return sum(not holds(e) for e in entries)


def run_nogo_csp(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    dimension, radius, size = params["dimension"], params["radius"], params["lattice_size"]
    spec = SPECS[params["spec"]](2) if dimension == 2 else nogo.CHAIN_SPEC
    result = nogo.sign_csp(dimension, radius, spec, size)
    obj = result.to_json_obj()
    (outdir / "csp.json").write_text(dump_json(obj))
    want = nogo.csp_satisfiable(dimension, radius, size, params["spec"] == "trivial")
    checks = [_check("satisfiability_matches_expectation", result.sat, want, "eq")]
    if not result.sat:
        faults = _certificate_faults(obj["violated_constraints"], dimension, radius, spec, size)
        checks.append(_check("certificate_verified", faults, 0))
    return {
        "dimension": dimension,
        "radius": radius,
        "sat": result.sat,
        "constraints": result.num_constraints,
    }, checks


RUNNERS = {
    "dispersion_sweep": run_dispersion_sweep,
    "wavepacket": run_wavepacket,
    "two_particle_scatter": run_two_particle_scatter,
    "dirac_limit": run_dirac_limit,
    "heisenberg_check": run_heisenberg_check,
    "dirac_sea": run_dirac_sea,
    "nogo_witness": run_nogo_witness,
    "nogo_csp": run_nogo_csp,
}


def run_experiment(raw: dict, output_dir: str | None = None, quiet: bool = False) -> int:
    cfg: LatticeConfig = raw["_config"]
    outdir = Path(output_dir or raw["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(raw["seed"])
    extras, checks = RUNNERS[raw["experiment"]](cfg, raw["_params"], rng, outdir)
    ok = all(c["passed"] for c in checks)
    manifest = {
        "config_sha256": config_hash(raw),
        "experiment": raw["experiment"],
        "seed": raw["seed"],
        "lattice": {**dataclasses.asdict(cfg), "boundary": cfg.boundary.value},
        "parameters": extras,
        "checks": checks,
        "ok": ok,
    }
    (outdir / "manifest.json").write_text(dump_json(manifest))
    if not quiet:
        for c in checks:
            print(
                f"[{'PASS' if c['passed'] else 'FAIL'}] {raw['experiment']}."
                f"{c['name']}: measured {c['measured']!r}"
                f" vs {c['direction']} {c['tolerance']!r}"
            )
        print(f"wrote {outdir / 'manifest.json'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fqca",
        description="Fermionic quantum cellular automaton experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--quiet", action="store_true")
    p_val = sub.add_parser("validate", help="parse and bounds-check a config")
    p_val.add_argument("config")
    sub.add_parser("list-experiments", help="print known experiment names")
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0
    try:
        raw = load_config(args.config)
    except (OSError, ValueError) as e:
        print(f"error: {args.config}: {getattr(e, 'strerror', None) or e}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: {args.config} ({raw['experiment']})")
        return 0
    try:
        return run_experiment(raw, args.output_dir, args.quiet)
    # a name the file system's encoding cannot hold fails as UnicodeEncodeError
    except (OSError, UnicodeEncodeError) as e:
        outdir = args.output_dir or raw["output_dir"]
        print(f"error: cannot write {outdir}: {getattr(e, 'strerror', None) or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
