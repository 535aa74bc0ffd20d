"""fqca benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all four

Run from anywhere inside a source checkout; fqca is imported from its `src/`.
With --trace 0 the last stdout line is a JSON object holding run_s, setup_s
and peak_rss_mb. With --trace 1 it holds the per-layer metrics of a traced
run, whose exact counts are self-tested. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

from speed import SpeedTimer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("wavepacket", "sector_evolve", "spectra", "nogo")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_PROBES = 7
MIN_PASSES = 3  # untraced passes per --trace 0 run
MIN_TRACED = 2  # traced passes per --trace 1 run, so exact counts can be compared
WAVEPACKET_COUNTS = {"evolution.step.calls": 300, "walk.walk_step.calls": 400}

STATE_DIR = ROOT / ".perfbench_state"  # product digests, per source tree
TMP_DIR = ROOT / ".perfbench_tmp"  # run_experiment outputs, removed after each pass
RESULTS_DIR = ROOT / ".perfbench_results"  # one record per run, with its environment


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_fqca() -> None:
    if not (SRC / "fqca" / "__init__.py").is_file() or not (ROOT / "experiments").is_dir():
        die(f"no fqca source tree (src/fqca, experiments/) under {ROOT}")
    sys.path.insert(0, str(SRC))
    import fqca

    if Path(fqca.__file__).resolve().parent != (SRC / "fqca").resolve():
        die(f"imported fqca from {fqca.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np

    import fqca
    from workloads import source_digest

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
            commit = r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fqca": fqca.__version__,
        "git_commit": commit,
        "fqca_source_sha256": source_digest(),
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "seed": seed,
        "default_seed": DEFAULT_SEED,
    }


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(normalized, wall) seconds of one cold set-up in a fresh interpreter."""
    r = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
                       cwd=ROOT, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{r.stderr}")
    normalized, wall = map(float, r.stdout.split()[-2:])
    return normalized, wall


class Runner:
    """Runs checked passes of one workload; every pass starts with cold caches."""

    def __init__(self, name: str, seed: int):
        from tracer import MODULES
        from workloads import WORKLOADS, DigestStore, source_digest

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.store = DigestStore(STATE_DIR / "digests.json", source_digest())
        # lru caches a fresh `fqca run` would start without, such as the
        # parity-offset calibration
        self.caches = [
            obj for m in MODULES
            for obj in vars(importlib.import_module(f"fqca.{m}")).values()
            if callable(getattr(obj, "cache_clear", None))
        ]
        self.ops = []
        self.ctx = self.workload.setup(seed)
        self.workload.expect(self.ctx)

    def one_pass(self, ctx=None, probe_speed: bool = False) -> SpeedTimer:
        for c in self.caches:
            c.cache_clear()
        TMP_DIR.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=TMP_DIR))
        try:
            with SpeedTimer(probe_speed) as timer:
                results = self.workload.run(ctx or self.ctx, out, self.store)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.ops.extend(results)
        return timer

    def traced_pass(self, tracer) -> tuple[float, dict]:
        tracer.reset()
        tracer.install()
        try:
            t0 = perf_counter()
            ctx = self.workload.setup(self.seed)
            ctx.expected = self.ctx.expected
            elapsed = self.one_pass(ctx).wall_s
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        return elapsed, tracer.layer_metrics(wall)

    def self_test(self, samples: list[dict]):
        from tracer import EXACT_COUNTS
        from workloads import OpResult

        problems = [f"{k} varies: {[s[k] for s in samples]}" for k in EXACT_COUNTS
                    if len({s[k] for s in samples}) != 1]
        if self.workload.name == "wavepacket":
            problems += [f"{k} is {samples[0][k]}, expected {v}"
                         for k, v in WAVEPACKET_COUNTS.items() if samples[0][k] != v]
        self.ops.append(OpResult("trace_self_test", not problems, "; ".join(problems)))


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    t_start = perf_counter()
    deadline = t_start + seconds
    record: dict = {}
    if not trace:
        setup = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
        record.update(setup_s_samples=[s for s, _ in setup],
                      setup_wall_s_samples=[w for _, w in setup])
    runner = Runner(name, seed)

    if not trace:
        walls, times = [], []
        while len(times) < MIN_PASSES or perf_counter() + statistics.median(walls) <= deadline:
            timer = runner.one_pass(probe_speed=True)
            walls.append(timer.wall_s)
            times.append(timer.normalized_s())
        record.update(run_s_samples=times, run_wall_s_samples=walls,
                      run_wall_s=statistics.median(walls),
                      setup_wall_s=statistics.median(w for _, w in setup))
        metrics = {
            "run_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracer import Tracer, per_layer_metrics

        tracer = Tracer()
        untraced, traced, samples = [], [], []
        # alternate so both kinds see the same machine conditions
        while len(traced) < MIN_TRACED or perf_counter() + untraced[-1] + traced[-1] <= deadline:
            untraced.append(runner.one_pass().wall_s)
            elapsed, sample = runner.traced_pass(tracer)
            traced.append(elapsed)
            samples.append(sample)
        runner.self_test(samples)
        record.update(untraced_run_s_samples=untraced, traced_run_s_samples=traced)
        values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        values["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
        metrics = {k: (int(values[k]) if unit in ("count", "bytes") else values[k], unit)
                   for k, unit in per_layer_metrics()}
    runner.store.save()

    failed = [op for op in runner.ops if not op.ok]
    for op in failed:
        print(f"perfbench: {name}: {op.name} failed: {op.detail}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def summary(name: str, result: dict, record: dict) -> str:
    m = result["metrics"]
    frac = f"fail_frac {result['failed'] / result['attempted']:.4g} ratio " \
           f"({result['failed']}/{result['attempted']} operations)"
    if "run_s" not in m:
        return (f"{name}: traced {len(record['traced_run_s_samples'])} passes, "
                f"trace.overhead {m['trace.overhead']['value']:.3f}, "
                f"trace.untraced_s {m['trace.untraced_s']['value']:.4f} s, {frac}")
    return (f"{name}: run_s {m['run_s']['value']:.4f} s (median of "
            f"{len(record['run_s_samples'])}; raw wall {record['run_wall_s']:.4f} s), "
            f"setup_s {m['setup_s']['value']:.4f} s (median of "
            f"{len(record['setup_s_samples'])}; raw wall {record['setup_wall_s']:.4f} s), "
            f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB, {frac}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        r = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           capture_output=True, text=True, timeout=900)
        sys.stderr.write(r.stderr)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            die(f"workload {name} exited with {r.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all four, each in its own process, if omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_fqca()
    if args.workload is None:
        return run_all(args)
    env = environment(args.seed)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"{time.time_ns() % 10**9:09d}"
    (RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": args.seconds, "env": env,
                    **record, "result": result}, indent=1)
    )
    print(f"# env {json.dumps(env)}")
    print(f"# {summary(args.workload, result, record)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
