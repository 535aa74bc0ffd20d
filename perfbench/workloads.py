"""The four benchmark workloads and the checks that decide whether each
operation in them succeeded.

An operation is one shipped-config run through `fqca.cli.run_experiment` or
one group of library calls. Every call into fqca goes through a module
attribute looked up at call time (`cli.run_experiment`, `fqca.evolve`, ...),
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fqca
from fqca import cli, spectral

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SHIPPED = ROOT / "experiments"
DERIVED = BENCH_DIR / "configs"

# sector_evolve: the full L=8, n=8 ring sector (dim 12870) at theta=0.3
SECTOR_L, SECTOR_N, SECTOR_THETA, SECTOR_STEPS = 8, 8, 0.3, 8
SKETCH_PROBES = 4
NORM_TOL = 1e-10
SKETCH_TOL = 1e-9
# spectra: the dense n-particle eigensolve, checked against the mode sums
EIG_L, EIG_N, EIG_THETA, EIG_TOL = 8, 3, 0.3, 1e-10

SKETCH_RECORD = BENCH_DIR / "sector_sketch_seed_commit.json"


@dataclass
class OpResult:
    name: str
    ok: bool
    detail: str = ""


def _failure(name: str, exc: BaseException) -> OpResult:
    text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return OpResult(name, False, f"raised {text}")


# ---------------------------------------------------------------------------
# shipped-config operations


def source_digest() -> str:
    """Hash of everything that decides a config run's products."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "fqca").glob("*.py"))
    files += sorted(SHIPPED.glob("*.json")) + sorted(DERIVED.glob("*.json"))
    for p in files:
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Product digests from the first run of the same code, per op.

    Bytes are compared only between runs of one source tree: across commits
    floats may move within their tolerances.
    """

    def __init__(self, path: Path, code: str):
        self.path = path
        try:
            self.all = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.all = {}
        self.known = self.all.setdefault(code, {})

    def check(self, key: str, digest: str) -> bool:
        return self.known.setdefault(key, digest) == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        tmp.replace(self.path)


def _products_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(outdir.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def load_configs(paths: list[Path]) -> list[tuple[str, dict]]:
    """Configs run as shipped, their own seeds included."""
    return [(p.stem, cli.load_config(p)) for p in paths]


def run_config(name: str, raw: dict, outroot: Path, store: DigestStore) -> OpResult:
    outdir = outroot / name
    try:
        rc = cli.run_experiment(raw, str(outdir), True)
        manifest = json.loads((outdir / "manifest.json").read_text())
        digest = _products_digest(outdir)
    except Exception as e:  # an op that raises is a failed op, not a crash
        return _failure(name, e)
    if rc != 0 or not manifest.get("ok"):
        bad = [c["name"] for c in manifest.get("checks", []) if not c["passed"]]
        return OpResult(name, False, f"manifest not ok: {bad}")
    if not store.check(name, digest):
        return OpResult(name, False, "products differ from the first run")
    return OpResult(name, True)


# ---------------------------------------------------------------------------
# sector_evolve: an independent array engine (reference.py) is the reference


def sector_words(L: int, n: int) -> np.ndarray:
    words = []
    for bits in itertools.combinations(range(2 * L), n):
        words.append(sum(1 << b for b in bits))
    return np.array(sorted(words), dtype=np.int64)


def reference_sketch(seed: int) -> np.ndarray:
    """The array engine's sketch, computed in a child interpreter."""
    r = subprocess.run([sys.executable, str(BENCH_DIR / "reference.py"), str(seed)],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise RuntimeError(f"reference engine failed:\n{r.stderr}")
    return np.array([complex(re, im) for re, im in json.loads(r.stdout)])


def _sketch_record(seed: int) -> np.ndarray | None:
    try:
        rec = json.loads(SKETCH_RECORD.read_text())["sketch"]
    except (OSError, KeyError, json.JSONDecodeError):
        return None
    if str(seed) not in rec:
        return None
    return np.array([complex(re, im) for re, im in rec[str(seed)]])


def sector_inputs(seed: int):
    """The seeded random normalised state and the sketch probe vectors."""
    words = sector_words(SECTOR_L, SECTOR_N)
    state_rng, probe_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    amps = state_rng.normal(size=len(words)) + 1j * state_rng.normal(size=len(words))
    amps /= np.linalg.norm(amps)
    probes = probe_rng.normal(size=(SKETCH_PROBES, len(words))) + 1j * probe_rng.normal(
        size=(SKETCH_PROBES, len(words))
    )
    return words, amps, probes


def sector_sketch(final: "fqca.FockState", words: np.ndarray, probes: np.ndarray) -> np.ndarray:
    vec = np.array([final.amplitudes.get(w, 0.0) for w in words.tolist()], dtype=complex)
    return probes.conj() @ vec


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Context:
    """Inputs made at set-up, plus the benchmark's own expected values."""

    seed: int
    configs: list = field(default_factory=list)
    state: object = None
    words: np.ndarray | None = None
    probes: np.ndarray | None = None
    expected: list = field(default_factory=list)  # reference sketches


class Workload:
    name = ""
    configs: tuple[Path, ...] = ()

    def setup(self, seed: int) -> Context:
        return Context(seed, load_configs(list(self.configs)))

    def expect(self, ctx: Context) -> None:
        """Compute benchmark-side references; not timed."""

    def run(self, ctx: Context, outroot: Path, store: DigestStore) -> list[OpResult]:
        return [run_config(name, raw, outroot, store) for name, raw in ctx.configs]


class Wavepacket(Workload):
    name = "wavepacket"
    configs = (SHIPPED / "wavepacket.json",)


class SectorEvolve(Workload):
    name = "sector_evolve"

    def setup(self, seed: int) -> Context:
        cfg = fqca.LatticeConfig(L=SECTOR_L, theta=SECTOR_THETA, boundary=fqca.Boundary.PERIODIC)
        words, amps, probes = sector_inputs(seed)
        state = fqca.FockState(cfg, dict(zip(words.tolist(), amps.tolist())))
        return Context(seed, state=state, words=words, probes=probes)

    def expect(self, ctx: Context) -> None:
        ctx.expected = [("array engine", reference_sketch(ctx.seed))]
        recorded = _sketch_record(ctx.seed)
        if recorded is not None:
            ctx.expected.append(("seed-commit record", recorded))

    def run(self, ctx: Context, outroot: Path, store: DigestStore) -> list[OpResult]:
        name = "evolve_L8_n8"
        try:
            final = fqca.evolve(ctx.state, SECTOR_STEPS)
            drift = abs(final.norm() - 1.0)
            wrong_n = sum(1 for w in final.amplitudes if w.bit_count() != SECTOR_N)
            sketch = sector_sketch(final, ctx.words, ctx.probes)
        except Exception as e:
            return [_failure(name, e)]
        problems = []
        if drift > NORM_TOL:
            problems.append(f"norm drift {drift:.3e}")
        if wrong_n:
            problems.append(f"{wrong_n} support words without {SECTOR_N} bits")
        for label, want in ctx.expected:
            dev = float(np.max(np.abs(sketch - want)))
            if dev > SKETCH_TOL:
                problems.append(f"sketch differs from {label} by {dev:.3e}")
        return [OpResult(name, not problems, "; ".join(problems))]


class Spectra(Workload):
    name = "spectra"
    configs = tuple(
        SHIPPED / f"{n}.json"
        for n in ("dirac_sea", "heisenberg_check", "dispersion_sweep", "dirac_limit",
                  "two_particle_scatter")
    )

    def run(self, ctx: Context, outroot: Path, store: DigestStore) -> list[OpResult]:
        results = super().run(ctx, outroot, store)
        name = f"eigenphases_L{EIG_L}_n{EIG_N}"
        try:
            cfg = fqca.LatticeConfig(L=EIG_L, theta=EIG_THETA, boundary=fqca.Boundary.PERIODIC)
            actual = spectral.n_particle_eigenphases(cfg, EIG_N)
            offset = spectral.parity_offset(cfg, EIG_N)
            want = spectral.expected_nparticle_phases(cfg, EIG_N, offset)
            dev = spectral.circular_multiset_distance(actual, want)
        except Exception as e:
            return results + [_failure(name, e)]
        results.append(OpResult(name, dev <= EIG_TOL, f"deviation {dev:.3e}"))
        return results


class Nogo(Workload):
    name = "nogo"
    configs = (
        SHIPPED / "nogo_witness.json",
        DERIVED / "nogo_witness_height1.json",
        DERIVED / "nogo_csp_1d_9.json",
        DERIVED / "nogo_csp_2d_7x7.json",
    )


WORKLOADS = {w.name: w for w in (Wavepacket(), SectorEvolve(), Spectra(), Nogo())}
