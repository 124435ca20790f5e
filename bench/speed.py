"""Speed-corrected wall clock for a shared machine.

The benchmark was built on a 2-vCPU virtual machine (Intel Xeon, 2.0 GHz
nominal) whose CPU speed changes under it: a fixed pure-Python loop ran at
one of two speeds about 1.45x apart, in stretches from one second to about
a minute, on either vCPU. A grid pass of the same code on the same inputs
took 8.3 to 11.7 s in one process, and the plain wall time of ten runs
of it spread by 0.14 to 0.27 of their median, whatever the run length.

`SpeedClock` measures that speed while the program runs. A timer signal
interrupts the main thread every PERIOD_S and times a fixed Python loop
(the probe) on the thread's CPU clock, so waiting for the GIL or for
the vCPU does not count. `elapsed(t0, t1)` is the wall time between t0 and
t1 without the probes, each stretch between two probes scaled by
REFERENCE_S over the local probe time (the median of three probes). It
reads seconds of this machine at its faster speed. Over nine or ten
passes in one process, the corrected pass time varied with a coefficient
of variation of 0.023, against 0.112 (grid_tiers) and 0.066
(explain_rows) for the wall clock. The raw wall time is kept beside it.
A change that makes the program do less work shortens the stretches and
leaves the probe alone, so it moves `elapsed` as it moves the wall clock.

Python runs signal handlers in the main thread between bytecodes, so a
long call into C delays a probe, and the stretch around it takes the speed
of the probes beside it.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter, thread_time

PERIOD_S = 0.05
PROBE_LOOPS = 600
# Probe time on the machine above at its faster speed (lower decile of
# 51,290 probes over two minutes; the median was 0.000233 s). It only sets
# the scale of `elapsed`.
REFERENCE_S = 0.000143


def probe() -> list:
    """Dictionary, string and sort work. Of the loops tried (integer
    arithmetic, small NumPy calls, random reads from an 8 MB array and this
    one), this one tracked the workloads' own speed best."""
    d: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        d[i % 97] = d.get(i % 97, 0) + len(str(i))
    return sorted(d.items())


class SpeedClock:
    def __init__(self):
        self.starts: list[float] = []    # perf_counter when a probe began
        self.ends: list[float] = []      # ... and when it ended
        self.probe_s: list[float] = []   # its thread CPU time

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t, c = perf_counter(), thread_time()
        probe()
        self.probe_s.append(thread_time() - c)
        self.starts.append(t)
        self.ends.append(perf_counter())

    def _local(self) -> list[float]:
        d = self.probe_s
        return [statistics.median(d[max(0, k - 1):k + 2]) for k in range(len(d))]

    def elapsed(self, t0: float, t1: float) -> float:
        """Speed-corrected seconds between perf_counter readings t0 and t1
        of this process (or of its parent: the clock is system-wide)."""
        if not self.starts:
            return t1 - t0
        local = self._local()
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        speed = local[max(i - 1, 0)]
        edge, total = t0, 0.0
        for k in range(i, j):
            total += (self.starts[k] - edge) / speed
            edge, speed = min(self.ends[k], t1), local[k]
        total += max(t1 - edge, 0.0) / speed
        return total * REFERENCE_S

    def summary(self) -> dict:
        """Probe statistics for the provenance line."""
        d = sorted(self.probe_s)
        if not d:
            return {"probes": 0}
        return {"probes": len(d),
                "probe_ms_p10": round(d[len(d) // 10] * 1e3, 4),
                "probe_ms_p50": round(d[len(d) // 2] * 1e3, 4),
                "probe_ms_p90": round(d[len(d) * 9 // 10] * 1e3, 4)}
