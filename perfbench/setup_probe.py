"""Time one cold set-up in a fresh interpreter.

Set-up is what a user pays before the first result: importing numpy and
fqca, loading the workload's configs and making its input state. Prints the
time normalized to reference machine speed (see speed.py), then wall time,
both in seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

from speed import SpeedTimer

with SpeedTimer() as timer:
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import numpy  # noqa: F401
    import fqca  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(timer.normalized_s(), timer.wall_s)
