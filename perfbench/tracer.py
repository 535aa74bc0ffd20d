"""Spans around fqca's public functions, installed from outside the package.

`Tracer.install` wraps every public function and public method defined in
the traced modules and rebinds the wrapper at every binding site it can
find: module globals of every fqca module (so `spectral.step`, `cli.step`
and the function-local `from .evolution import step` all resolve to the
wrapper), the `fqca` package namespace, module-level dicts such as
`cli.RUNNERS`, and class attributes. `uninstall` restores every original.

Each span records calls, total time and self time (total minus the time
covered by child spans). Instrumentation cost, including the hooks that
measure state sizes, falls in no function's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("lattice", "evolution", "fermion", "spectral", "walk", "nogo", "cli")

# Leaf helpers called hundreds of thousands of times per nogo pass (sorting
# keys, distance and bounds tests). A wrapper would multiply nogo's traced
# time several-fold, so their cost stays in their caller's self time.
UNWRAPPED = frozenset(
    {
        "nogo.Site2D.order_key",
        "nogo.canonical_order",
        "nogo.chebyshev",
        "nogo.LatticeBounds.contains",
        "nogo.FootprintSpec.corner_targets",
    }
)

# must repeat exactly between traced passes of the same inputs
EXACT_COUNTS = (
    "evolution.step.calls",
    "evolution.amps_in",
    "fermion.apply_ladder.calls",
    "nogo.sign_csp.constraints",
    "cli.bytes_written",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of each per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _sq_norm(state) -> float:
    return sum(abs(a) ** 2 for a in state.amplitudes.values())


class Tracer:
    def __init__(self):
        self.modules = {m: importlib.import_module(f"fqca.{m}") for m in MODULES}
        self._patches: list[tuple[object, str, object]] = []
        # wrappers and hooks hold these objects, so reset() clears them in place
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counters = defaultdict(float)
        self._stack: list[float] = []  # time covered by children, per open span
        self.reset()

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self._stack.clear()
        self.worst_check_ratio = 0.0
        self.covered_s = 0.0  # time inside top-level spans

    # -- hooks: (before(args, kwargs) -> token, after(token, args, kwargs, result))

    def _hooks(self) -> dict:
        c = self.counters
        open_boundary = self.modules["lattice"].Boundary.OPEN

        def step_before(args, kwargs):
            state = _arg(args, kwargs, 0, "state")
            c["evolution.amps_in"] += len(state.amplitudes)
            return _sq_norm(state)

        def step_after(norm_in, args, kwargs, result):
            c["evolution.norm_lost"] += norm_in - _sq_norm(result)

        def layer_before(shift: bool):
            def before(args, kwargs):
                state = _arg(args, kwargs, 0, "state")
                cfg = state.config
                gates = cfg.L - 1 if shift and cfg.boundary is open_boundary else cfg.L
                c["evolution.gate_amps"] += gates * len(state.amplitudes)
            return before

        def ladder_before(args, kwargs):
            c["fermion.apply_ladder.amps_in"] += len(_arg(args, kwargs, 0, "state").amplitudes)

        def unitary_after(_, args, kwargs, result):
            c["spectral.sector_unitary.dim"] += len(result[1])

        def csp_after(_, args, kwargs, result):
            c["nogo.sign_csp.constraints"] += result.num_constraints

        def path_after(_, args, kwargs, result):
            c["nogo.connected_path.found"] += result is not None

        def run_after(_, args, kwargs, result):
            outdir = Path(_arg(args, kwargs, 1, "output_dir"))
            c["cli.bytes_written"] += sum(p.stat().st_size for p in outdir.iterdir())
            for chk in json.loads((outdir / "manifest.json").read_text())["checks"]:
                m, tol = chk["measured"], chk["tolerance"]
                if chk["direction"] == "max" and tol > 0:
                    ratio = m / tol
                elif chk["direction"] == "min" and m > 0:
                    ratio = tol / m
                else:  # equality checks have no ratio
                    continue
                self.worst_check_ratio = max(self.worst_check_ratio, ratio)

        return {
            "evolution.step": (step_before, step_after),
            "evolution.apply_shift": (layer_before(True), None),
            "evolution.apply_coin": (layer_before(False), None),
            "fermion.apply_ladder": (ladder_before, None),
            "spectral.sector_unitary": (None, unitary_after),
            "nogo.sign_csp": (None, csp_after),
            "nogo.connected_path": (None, path_after),
            "cli.run_experiment": (None, run_after),
        }

    def _wrap(self, name: str, fn, hooks):
        before, after = hooks.get(name, (None, None))
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            token = before(args, kwargs) if before else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += t1 - t0
                st[2] += t1 - t0 - child
            if after:
                after(token, args, kwargs, result)
            span = perf_counter() - t_enter
            if stack:
                stack[-1] += span
            else:
                self.covered_s += span
            return result

        return wrapper

    # -- install / uninstall

    def _targets(self):
        """(qualified name, owner, attribute, function) for each public callable."""
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{attr}", mod, attr, obj
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{short}.{attr}.{meth}", obj, meth, fn

    def install(self) -> None:
        hooks = self._hooks()
        wrapped = {}
        for qual, owner, attr, fn in self._targets():
            if qual in UNWRAPPED:
                continue
            wrapped[id(fn)] = self._wrap(qual, fn, hooks)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped[id(fn)])
        namespaces = list(self.modules.values()) + [importlib.import_module("fqca")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._patch(obj, key, wrapped[id(val)])

    def _patch(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- metrics

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics for one traced pass, except trace.overhead.

        wall_s spans the whole traced interval, set-up and pass.
        """
        st, c = self.stats, self.counters
        shift_coin_s = st["evolution.apply_shift"][1] + st["evolution.apply_coin"][1]
        path_calls = st["nogo.connected_path"][0]
        derived = {
            "evolution.gate_amps_per_s": c["evolution.gate_amps"] / shift_coin_s if shift_coin_s else 0.0,
            "nogo.connected_path.hit_ratio": c["nogo.connected_path.found"] / path_calls if path_calls else 0.0,
            "cli.checks.worst_ratio": self.worst_check_ratio,
            "trace.untraced_s": wall_s - self.covered_s,
        }
        out = {}
        for name, unit in per_layer_metrics():
            if name == "trace.overhead":
                continue
            func, _, stat = name.rpartition(".")
            if name in derived:
                value = derived[name]
            elif stat == "calls":
                value = st[func][0]
            elif stat == "self_s":
                value = st[func][2]
            else:
                value = c[name]
            out[name] = int(value) if unit in ("count", "bytes") else float(value)
        return out
