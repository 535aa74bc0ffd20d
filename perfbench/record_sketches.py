"""Record fqca's sector_evolve sketches for a range of seeds.

The sector_evolve check compares a random-projection sketch of the final
state with the independent array engine in reference.py and, for the seeds
recorded here, with the values fqca itself produced when the benchmark was
defined. Re-run only to extend the seed range, never to absorb a change.

Usage: python3 perfbench/record_sketches.py <first_seed> <last_seed>
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fqca  # noqa: E402
import workloads as w  # noqa: E402


def main() -> None:
    first, last = map(int, sys.argv[1:3])
    record = {
        "fqca_version": fqca.__version__,
        "git_commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=w.ROOT,
                                     capture_output=True, text=True).stdout.strip(),
        "sector": {"L": w.SECTOR_L, "n": w.SECTOR_N, "theta": w.SECTOR_THETA,
                   "nsteps": w.SECTOR_STEPS},
        "sketch": {},
    }
    if w.SKETCH_RECORD.exists():
        record = json.loads(w.SKETCH_RECORD.read_text())
    for seed in range(first, last + 1):
        ctx = w.WORKLOADS["sector_evolve"].setup(seed)
        final = fqca.evolve(ctx.state, w.SECTOR_STEPS)
        sketch = w.sector_sketch(final, ctx.words, ctx.probes)
        record["sketch"][str(seed)] = [[float(z.real), float(z.imag)] for z in sketch]
    w.SKETCH_RECORD.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
