"""Experiment runner: JSON config in, CSV/JSON products plus a manifest out.

Commands: `run <config.json>`, `validate <config.json>`, `list-experiments`.
Every output file is deterministic for a fixed config and seed: floats are
printed with 17 significant digits, JSON keys are sorted, and the only RNG in
play is seeded from the config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import nogo, spectral, walk
from .evolution import coin_matrix, shift_matrix, step
from .fermion import LadderOp, OpKind, bulk_cells, heisenberg_image
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


class ParseError(Exception):
    """Malformed or out-of-bounds experiment configuration."""


# Every key a lattice block or an experiment's params may set, as
# key -> (kind, default, low, high). A kind is int, float (any finite number,
# stored as a float), list (a list of numbers, kept as written), or a tuple of
# the allowed strings. A default of ... marks a required key; a default of None
# also admits null. A number, given or default, lies in [low, high], as does
# each entry of a list; a string row has no range. A callable default or bound
# is worked out from the lattice config.
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
        "nsteps": (int, lambda cfg: cfg.L // 2, 0, 1000),
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
        "cell": (
            int,
            lambda cfg: cfg.L // 2,
            lambda cfg: bulk_cells(cfg).start,
            lambda cfg: bulk_cells(cfg).stop - 1,
        ),
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
# the most entries a list param holds: each compare_thetas entry is one more
# walk comparison of nsteps steps
MAX_ENTRIES = 8
# smallest excitation phase dirac_sea accepts, and its gaps_positive tolerance
MIN_GAP = 1e-12


# ---------------------------------------------------------------------------
# deterministic serialization


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def _jsonable(obj):
    """obj as JSON text with sorted keys and floats at 17 significant digits."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jsonable(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return (
            "{"
            + ", ".join(f"{json.dumps(str(k))}: {_jsonable(v)}" for k, v in items)
            + "}"
        )
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj) -> str:
    return _jsonable(obj) + "\n"


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows as CSV: a float as %.17g (as fmt does), anything else as str."""
    lines = [",".join(header)]
    formats = {}  # column types of a row -> its %-format
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        f = formats.get(kinds)
        if f is None:
            f = formats[kinds] = ",".join("%.17g" if issubclass(k, float) else "%s" for k in kinds)
        lines.append(f % row)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config handling


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def load_config(path: str | Path) -> dict:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as e:
        raise ParseError(f"cannot read config {p}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: invalid JSON at line {e.lineno}: {e.msg}") from e
    _require(isinstance(raw, dict), f"{p}: top level must be an object")
    for fieldname in ("experiment", "lattice", "output_dir", "seed"):
        _require(fieldname in raw, f"{p}: missing required field '{fieldname}'")
    _require(
        raw["experiment"] in EXPERIMENTS,
        f"{p}: unknown experiment {raw['experiment']!r}; see list-experiments",
    )
    _require(
        _is_kind(raw["seed"], int) and raw["seed"] >= 0,
        f"{p}: seed must be a non-negative integer",
    )
    _require(isinstance(raw["output_dir"], str), f"{p}: output_dir must be a string")
    raw.setdefault("params", {})
    for block in ("lattice", "params"):
        _require(isinstance(raw[block], dict), f"{p}: {block} must be an object")
    lat = _resolve(LATTICE, raw["lattice"], f"{p}: lattice", None)
    cfg = LatticeConfig(**{**lat, "boundary": Boundary(lat["boundary"])})
    experiment = raw["experiment"]
    params = _resolve(PARAMS[experiment], raw["params"], f"{p}: {experiment}", cfg)
    raw["_config"], raw["_params"] = cfg, params
    if experiment in ("dispersion_sweep", "dirac_sea"):
        _require(
            cfg.boundary is Boundary.PERIODIC,
            f"{p}: {experiment} needs the periodic boundary",
        )
    if experiment == "dirac_sea":
        # at odd L the sea's grid mirrors its excitations', so gaps miss phi/dt
        _require(cfg.L % 2 == 0, f"{p}: dirac_sea needs an even L")
        cap = spectral.MAX_SEA_CELLS
        _require(cfg.L <= cap, f"{p}: dirac_sea needs L <= {cap}, got L={cfg.L}")
        # phi = arccos|cos theta| is smallest at k = 0 and pi/dx, on the excitation grid
        phi = spectral.step_matrix(cfg, np.array([0.0, math.pi / cfg.dx])).phi.min()
        _require(phi > MIN_GAP, f"{p}: dirac_sea is massless at theta={cfg.theta}: phi {phi:.3g}")
    if experiment == "nogo_csp" and params["dimension"] == 1:
        _require("spec" not in raw["params"], f"{p}: nogo_csp takes no spec at dimension 1")
    try:
        if experiment == "nogo_csp":
            nogo.check_csp_size(params["dimension"], params["radius"], params["lattice_size"])
        if experiment == "nogo_witness":
            nogo.check_witness_size(
                params["lattice_size"], params["min_distance"], params["height"]
            )
    except ValueError as e:
        raise ParseError(f"{p}: {e}") from e
    return raw


def _footprint(params: dict, num_eps: int) -> nogo.FootprintSpec:
    """The nogo footprint that params["spec"] names, with num_eps internal states."""
    return SPECS[params["spec"]](num_eps)


_KIND_NAMES = {int: "an integer", float: "a number", list: "a list of numbers"}


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
    check that each number lies in its row's range."""
    for key in given:
        _require(key in table, f"{where}: unknown key {key!r}; accepted: {sorted(table)}")
    out = {}
    for key, (kind, default, low, high) in table.items():
        at = f"{where}: {key}"
        if key in given:
            value = given[key]
            _require(
                _is_kind(value, kind) or (value is None and default is None),
                f"{at} must be {_KIND_NAMES.get(kind) or f'one of {kind}'}, got {value!r}",
            )
            value = float(value) if kind is float else value
        else:
            _require(default is not ..., f"{where}: missing field {key!r}")
            value = default(cfg) if callable(default) else default
        if low is not None and value is not None:
            low, high = (b(cfg) if callable(b) else b for b in (low, high))
            if low > high:  # only a row bounded by the lattice, so with a cfg, can be empty
                lattice = f"L={cfg.L} ({cfg.boundary.value})"
                raise ParseError(f"{where}: the lattice {lattice} is too small for any {key}")
            entries = value if kind is list else [value]
            n = len(entries)
            _require(n <= MAX_ENTRIES, f"{at} holds at most {MAX_ENTRIES} entries, got {n}")
            for v in entries:
                _require(low <= v <= high, f"{at} must lie in [{low!r}, {high!r}], got {v!r}")
            # equal entries (0, 0.0 and -0.0 too) would repeat one run under one check name
            _require(len(set(entries)) == n, f"{at} repeats an entry: {value!r}")
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
    checks = [
        _check("norm_conservation", norm_dev, 1e-12),
        _check("light_cone_leak", leak, 1e-12),
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
    pair = [(x, Eps.PLUS), (right, Eps.MINUS)]
    final = step(basis_state(cfg, pair))
    probes = [
        ("counter_swapped", [(x, Eps.MINUS), (right, Eps.PLUS)], -c * c),
        ("both_left", [(x, Eps.MINUS), (right, Eps.MINUS)], -c * s),
        ("both_right", [(x, Eps.PLUS), (right, Eps.PLUS)], c * s),
        ("counter_restored", [(x, Eps.PLUS), (right, Eps.MINUS)], s * s),
    ]
    rows = []
    checks = []
    for name, sites, expected in probes:
        amp = final.amplitudes.get(basis_from_particles(cfg, sites), 0.0)
        rows.append((name, float(amp.real), float(amp.imag), float(expected)))
        checks.append(_check(f"coefficient_{name}", abs(amp - expected), 1e-14))
    # two counter-movers meeting head-on at cell x from distance one: the
    # crossed pair picks up a bare -1, independent of theta
    meet = [(left, Eps.PLUS), (right, Eps.MINUS)]
    meeting = step(basis_state(cfg, meet))
    amp = meeting.amplitudes.get(basis_from_particles(cfg, [(x, Eps.MINUS), (x, Eps.PLUS)]), 0.0)
    rows.append(("head_on_meeting", float(amp.real), float(amp.imag), -1.0))
    checks.append(_check("crossing_phase_minus_one", abs(amp - (-1.0)), 1e-14))
    gates = (coin_matrix(cfg.theta), shift_matrix())
    unitarity = max(np.max(np.abs(g.conj().T @ g - np.eye(4))) for g in gates)
    checks.append(_check("gates_unitary", unitarity, 1e-14))
    # the pairs' cones hold every two-cell move, a lone particle's do not
    lone = [(x, Eps.PLUS)]
    leak = (
        _light_cone_leak(cfg, pair, final)
        + _light_cone_leak(cfg, meet, meeting)
        + _light_cone_leak(cfg, lone, step(basis_state(cfg, lone)))
    )
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
    small = LatticeConfig(cfg.L, cfg.dx, cfg.dt, eps, cfg.boundary)
    k_small = eps / cfg.dx
    e = spectral.energy(small, k_small)
    checks.append(
        _check("dirac_energy_deviation", abs(e.e_plus - e.dirac), 0.2 * eps**3 / cfg.dt)
    )
    return {"nsamples": nsamples, "eps": eps}, checks


def run_heisenberg_check(cfg: LatticeConfig, params: dict, rng, outdir: Path):
    cell = params["cell"]
    rows = []
    checks = []
    fits = np.zeros((2, cfg.L, 2), dtype=complex)  # each image's coefficients, on the walk's layout
    residuals = []
    for fit, eps in zip(fits, (Eps.PLUS, Eps.MINUS)):
        terms, residual = heisenberg_image(cfg, LadderOp(OpKind.CREATE, cell, eps))
        residuals.append(residual)
        for coeff, op in sorted(terms, key=lambda term: (term[1].cell, term[1].eps)):
            fit[op.cell, walk.R if op.eps is Eps.PLUS else walk.L_] = coeff
            rows.append((eps.name.lower(), op.cell, op.eps.name.lower(), coeff.real, coeff.imag))
        # U a^dag U^dag moves a^dag as the walk moves a particle from the same site
        want = walk.walk_step(cfg, walk.localized(cfg, cell, eps))
        dev = np.abs(fit - want).max()
        checks.append(_check(f"image_coefficients_{eps.name.lower()}", dev, 1e-12))
    # the images c^p keep the anticommutators: G_pq = sum_s conj(c^p_s) c^q_s is I
    coeffs = fits.reshape(2, -1)
    gram = coeffs.conj() @ coeffs.T
    checks.append(_check("image_anticommutators", np.max(np.abs(gram - np.eye(2))), 1e-12))
    checks.append(_check("image_linear", max(residuals), 1e-10))
    write_csv(
        outdir / "heisenberg.csv",
        ["source_eps", "target_cell", "target_eps", "re", "im"],
        rows,
    )
    # negative control: with the doubly-occupied phases flipped to +1 the
    # conjugated operator stops being a linear ladder combination
    _, residual = heisenberg_image(cfg, LadderOp(OpKind.CREATE, cell, Eps.PLUS), bosonic=True)
    checks.append(_check("bosonic_control_residual", residual, 1e-3, "min"))
    return {"cell": cell, "theta": cfg.theta}, checks


def _state_json(cfg: LatticeConfig, words: np.ndarray, amps: np.ndarray) -> str:
    """dump_json of a state's {"L", "amplitudes"} object, one format pass per amplitude.

    Each entry gives the word's "bits" with site (0,-) printed first and
    its amplitude's "re" and "im", in ascending word order.
    """
    bits = f"0{cfg.n_sites}b"
    entries = ", ".join(
        '{"bits": "%s", "im": %s, "re": %s}' % (format(w, bits)[::-1], fmt(a.imag), fmt(a.real))
        for w, a in zip(words.tolist(), amps.tolist())
    )
    return '{"L": %d, "amplitudes": [%s]}\n' % (cfg.L, entries)


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
    (outdir / "sea_state.json").write_text(_state_json(cfg, sea.words, sea.amps))
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
    spec = _footprint(params, params["num_eps"])
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
    entries: list[dict], radius: int, size: int, spec: nogo.FootprintSpec | None
) -> int:
    """How many UNSAT certificate entries fail a re-check from their own fields.

    An entry holds when its sources and its images are each more than radius
    apart, its separation is the sources' distance, each image is one move
    from its source on the size-wide lattice, and the images reverse the
    sources' (j, i, eps) order. A move is a diagonal step to a label that
    spec allows at that corner, or with spec None (1D) a step right for
    label 1 and left for label 0, to either label. The distance and the
    moves are worked out here, not by nogo's own helpers.
    """
    height = 1 if spec is None else size
    dist = lambda a, b: max(abs(a["i"] - b["i"]), abs(a["j"] - b["j"]))
    order = lambda s: (s["j"], s["i"], s["eps"])

    def moves(s, t) -> bool:
        di, dj = t["i"] - s["i"], t["j"] - s["j"]
        if spec is not None:
            labels = spec.corner_targets(s["eps"], (di, dj)) if abs(di) == abs(dj) == 1 else ()
        else:
            labels = (0, 1) if (di, dj) == (1 if s["eps"] else -1, 0) else ()
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
    spec = None
    if dimension == 2:
        spec = _footprint(params, 2)
    result = nogo.sign_csp(dimension, radius, spec, size)
    obj = result.to_json_obj()
    (outdir / "csp.json").write_text(dump_json(obj))
    want = nogo.csp_satisfiable(dimension, radius, size, params["spec"] == "trivial")
    checks = [_check("satisfiability_matches_expectation", result.sat, want, "eq")]
    if not result.sat:
        faults = _certificate_faults(obj["violated_constraints"], radius, size, spec)
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
        "lattice": {
            "L": cfg.L,
            "dx": cfg.dx,
            "dt": cfg.dt,
            "theta": cfg.theta,
            "boundary": cfg.boundary.value,
        },
        "parameters": extras,
        "checks": checks,
        "ok": ok,
    }
    (outdir / "manifest.json").write_text(dump_json(manifest))
    if not quiet:
        for c in checks:
            print(
                f"[{'PASS' if c['passed'] else 'FAIL'}] {raw['experiment']}."
                f"{c['name']}: measured {fmt(c['measured'])}"
                f" vs {c['direction']} {fmt(c['tolerance'])}"
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
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: {args.config} ({raw['experiment']})")
        return 0
    try:
        return run_experiment(raw, args.output_dir, args.quiet)
    except OSError as e:
        outdir = args.output_dir or raw["output_dir"]
        print(f"error: cannot write {outdir}: {e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
