"""Every function in src/fqca is one that `fqca run` reaches.

Runs every shipped config, plus a trivial-spec nogo_csp (the satisfiable 2D
branch no shipped config takes), through `cli.main` under `sys.settrace`,
and asserts that every module function, method and property getter defined
in a `src/fqca` module was called. A function that only tests call belongs
in `tests/`.
"""

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path

import fqca
from fqca import cli

SRC = Path(fqca.__file__).resolve().parent
REPO = SRC.parents[1]

# qualified name -> why `fqca run` need not reach it
ALLOWED = {
    "lattice.FockState.norm": (
        "the benchmark's sector_evolve workload checks its evolved state's "
        "norm with it; the Dirac sea normalizes on word arrays"
    ),
}


def defined_functions() -> dict:
    """Code object -> qualified name of every function written in src/fqca."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"fqca.{path.stem}")
        members = list(vars(module).items())
        for cname, cls in list(members):
            if inspect.isclass(cls):
                members += [(f"{cname}.{name}", obj) for name, obj in vars(cls).items()]
        for name, obj in members:
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, functools.cached_property):
                obj = obj.func
            obj = inspect.unwrap(obj)  # the function under an lru_cache
            # dataclass-made methods and imported names live in other files
            if inspect.isfunction(obj) and obj.__code__.co_filename == str(path):
                out[obj.__code__] = f"{path.stem}.{name}"
    return out


def clear_caches() -> None:
    """Empty every lru_cache in src/fqca, as a fresh `fqca run` starts.

    Otherwise a cache that earlier tests warmed hides the functions it calls.
    """
    for path in SRC.glob("*.py"):
        for obj in vars(importlib.import_module(f"fqca.{path.stem}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_run_reaches_every_function(tmp_path):
    trivial = tmp_path / "nogo_csp_trivial.json"
    trivial.write_text(json.dumps({
        "experiment": "nogo_csp",
        "lattice": {"L": 2},
        "params": {"dimension": 2, "radius": 1, "lattice_size": 3, "spec": "trivial"},
        "output_dir": str(tmp_path / "unused"),
        "seed": 0,
    }))
    configs = sorted(REPO.glob("experiments/*.json")) + [trivial]
    called = set()

    def tracer(frame, event, arg):
        called.add(frame.f_code)

    clear_caches()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        codes = [
            cli.main(["run", str(p), "--quiet", "--output-dir", str(tmp_path / p.stem)])
            for p in configs
        ]
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(configs)

    defined = defined_functions()
    missed = sorted(name for code, name in defined.items() if code not in called)
    unreached = [name for name in missed if name not in ALLOWED]
    assert not unreached, f"fqca run calls none of these {len(unreached)}: {unreached}"
    # an allowed name that fqca run reaches, or that is gone, leaves the list
    assert missed == sorted(ALLOWED)
