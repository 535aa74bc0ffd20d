"""Machine-speed sampling, so timings on a shared host are comparable.

On a small shared virtual machine the same pure-Python work can run 30-40%
slower for seconds at a time while neighbours are busy, so raw wall-time
medians of a 25-second run spread by 14-36% from one run to the next. While a
`SpeedTimer` block runs, SIGALRM interrupts it every INTERVAL_S (first after
1 ms) to time a fixed dict-and-complex loop of the same kind as fqca's hot
loops. `normalized_s` takes each stretch of work between two probes, rescales
it by the median time of the probes within SMOOTH of it to the speed at which
one probe takes REF_PROBE_S, and sums: the result is the block's time without
the probes, in seconds on a machine of that reference speed. The probes add
about 3% to wall time, none of it counted.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
PROBE_ITERS = 2000
# probes on either side of a stretch of work whose median sets its speed
# (about 0.5 s each way): short enough to follow a slow spell that starts or
# ends inside a pass, long enough to average out single noisy probes
SMOOTH = 25
# one probe's time, uncontended, on the host the baseline was measured on
# (2-vCPU Xeon at 2.0 GHz, Python 3.11); normalized times are in seconds there
REF_PROBE_S = 0.0005


class SpeedTimer:
    """Times a block; with probe=True also samples machine speed during it."""

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.samples: list[float] = []
        self.starts: list[float] = []
        self.wall_s = 0.0

    def _probe(self, signum, frame) -> None:
        t0 = perf_counter()
        d: dict = {}
        for i in range(PROBE_ITERS):
            k = i & 1023
            d[k] = d.get(k, 0.0) + (i * 0.5 + 1j)
        self.samples.append(perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedTimer":
        self._t0 = perf_counter()
        if self.probe:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, 0.001, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = perf_counter() - self._t0

    def normalized_s(self) -> float:
        """The block's time without the probes, in reference-speed seconds."""
        d = self.samples
        work_from = [self._t0] + [t + x for t, x in zip(self.starts, d)]
        work_to = self.starts + [self._t0 + self.wall_s]
        total = 0.0
        for i, (a, b) in enumerate(zip(work_from, work_to)):
            j = min(i, len(d) - 1)
            total += (b - a) / statistics.median(d[max(0, j - SMOOTH): j + SMOOTH + 1])
        return total * REF_PROBE_S
