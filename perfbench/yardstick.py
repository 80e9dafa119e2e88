"""Speed yardstick of the host, sampled while the ops run.

The host's speed drifts by a quarter and more within a minute, and by up to
2x between its CPUs at the same moment, as other tenants load the shared
cores and caches.  A timer interrupts this process every EVERY_S seconds to
time one fixed SIZE x SIZE fraction-free elimination, the kind of work
bvbfv's `_echelon` does.  run.py pins
the process to one CPU, subtracts the samples' own time from the ops, and
scales each op's time by REF_S over the median sample taken during it (and
the nearest ones before and after), so that drift cancels between runs.
"""

import bisect
import gc
import random
import signal
import statistics
import time
from math import gcd

EVERY_S = 0.25
SIZE = 20
# Times are scaled to a host on which one sample takes this long (about its
# median on a lightly loaded 2-vCPU Xeon VM at 2.0 GHz).
REF_S = 0.0025


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of integer dict rows with
    content removal, as bvbfv's `_echelon` does it, on a copy."""
    rows = [dict(r) for r in rows]
    used = set()
    for col in range(SIZE):
        piv = next((i for i, r in enumerate(rows) if i not in used and r.get(col)), None)
        if piv is None:
            continue
        used.add(piv)
        prow, pv = rows[piv], rows[piv][col]
        for i, r in enumerate(rows):
            if i == piv or not r.get(col):
                continue
            rv = r[col]
            new = {j: v * pv for j, v in r.items()}
            for j, v in prow.items():
                x = new.get(j, 0) - rv * v
                if x:
                    new[j] = x
                else:
                    new.pop(j, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            rows[i] = {j: v // g for j, v in new.items()} if g > 1 else new


class Yardstick:
    def __init__(self):
        rng = random.Random(0)
        self._rows = [{j: rng.randrange(-9, 10) for j in range(SIZE)} for _ in range(SIZE)]
        self.times = []      # end of each sample
        self.samples = []    # seconds of each sample
        self.paused = 0.0    # wall seconds spent in samples
        self.paused_cpu = 0.0

    def sample(self, *_):
        # With the collector off, a sample never scans the program's heap,
        # so its time does not grow with what the program keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            _eliminate(self._rows)
        finally:
            if enabled:
                gc.enable()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)
        self.paused += t1 - t0
        self.paused_cpu += time.process_time() - c0

    def scale(self, t0, t1):
        """REF_S over the median sample taken between t0 and t1, counting
        the last one before t0 and the first one after t1."""
        i = max(bisect.bisect_left(self.times, t0) - 1, 0)
        j = min(bisect.bisect_right(self.times, t1) + 1, len(self.times))
        return REF_S / statistics.median(self.samples[i:j])

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
