"""One in-process pass of each benchmark workload, every operation checked.

The benchmark in perfbench/ calls fqca by name: `cli.run_experiment`,
`fqca.evolve`, `spectral.n_particle_eigenphases` and the rest. A change to
a name or a signature it calls fails here, in the test suite, instead of
only as a failed benchmark run. Nothing under perfbench/ is written: the
product digests and outputs go to the test's temporary directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass_is_ok(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(1)
    workload.expect(ctx)
    store = workloads.DigestStore(tmp_path / "digests.json", workloads.source_digest())
    results = workload.run(ctx, tmp_path / "out", store)
    assert results
    assert [(r.name, r.detail) for r in results if not r.ok] == []
