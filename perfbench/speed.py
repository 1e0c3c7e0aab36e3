"""How fast the host runs Python while a command runs.

The benchmark shares a few cores of a host whose speed drifts by a quarter or
more over minutes and swings by up to 3x within a second, so a raw wall time
mixes the program's cost with the host's state.  The speed is sampled with a
fixed loop of integer arithmetic and lookups in a 64-entry dict that uses only
the standard library, never touches zipstrata, allocates no container (so it
does not advance the garbage collector's counters) and fits in a few cache
lines (so the program's memory use barely changes what it costs after an
interruption).  No change to the program can change the loop's own cost.

``Sampler`` times the loop every ``INTERVAL_S`` of CPU time (SIGPROF) while a
command runs; ``probe`` times it a few times between commands.  A command's
time at reference speed is its wall time, less the time spent in samples,
times the mean of ``REF_S / sample`` over the samples taken during it and in
the gaps on either side: the time it would take on a host that runs the loop
in ``REF_S`` seconds.  Sampling adds about 2% to a command's wall time; in a
traced run that share falls inside the spans.
"""
from __future__ import annotations

import signal
import statistics
import time

# The loop's time on the reference host, chosen close to its median on the
# 2-core 2.1 GHz Xeon the benchmark was written on, so that times read as
# seconds there.
REF_S = 0.00043
STEPS = 4000
INTERVAL_S = 0.02
_TABLE = {i: (i * 37 + 11) % 64 for i in range(64)}


def _loop():
    x, table = 1, _TABLE
    for _ in range(STEPS):
        x = table[(x * 5 + 3) & 63] + (x & 7)
    return x


def sample():
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def probe(reps):
    """Time the loop ``reps`` times in a row; returns the list of seconds."""
    return [sample() for _ in range(reps)]


def factor(samples):
    """Reference seconds per wall second over the samples' span of time."""
    return statistics.fmean(REF_S / s for s in samples)


class Sampler:
    """Samples the loop on SIGPROF into ``samples`` between start and stop."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._on_prof)

    def _on_prof(self, signum, frame):
        self.samples.append(sample())

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
