"""Host speed: keep the benchmark on its fastest CPU and scale its times
to a fixed host speed.

On the shared host this benchmark was built on, each CPU slows down by
up to 1.8x for seconds at a time, and for minutes when a neighbour is
busy (another tenant competes for the same core); the guest sees no
steal time and no load.  Two steps take that out of the figures:

- `Pinner.pin()` times a short pure-Python loop on every CPU the
  process may use and pins the process to the fastest.  Children
  started afterwards inherit the pinning.
- `Pinner.timed()` runs a call on that CPU between two timings of a
  probe (`Pinner.scale()` does the second half for a caller that times
  its own interval).  The call's wall time is scaled by the probe's
  reference time over the mean of the two: it reads as it would on a
  host where the probe takes its reference time.  The program under
  test never runs the probe, so a faster program still reads faster.

There are two probes.  In-process jobs use the loop (LOOP_REF_NS).
Timings of whole child processes (`combinlab` calls, set-up starts) use
the start of a bare interpreter, `python -I -S -c pass` (START_REF_NS):
process start slows with the host in ways the loop does not show (it
tracked `combinlab` calls with a correlation of 0.83 against the loop's
0.71), and it runs no code of the program either.

The job itself still runs on one CPU, in one thread.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# The probes' times on the 2-CPU host the benchmark was built on, in a
# quiet period.  Reported times are scaled to them.
LOOP_REF_NS = 150_000
START_REF_NS = 12_000_000

_KEYS = [(i * 7919) % 1009 for i in range(256)]


def _loop_once_ns() -> int:
    """Binary insertion of 256 keys: interpreter-bound like the lab."""
    t0 = time.perf_counter_ns()
    run: list[int] = []
    for x in _KEYS:
        lo, hi = 0, len(run)
        while lo < hi:
            mid = (lo + hi) // 2
            if x < run[mid]:
                hi = mid
            else:
                lo = mid + 1
        run.insert(lo, x)
    return time.perf_counter_ns() - t0


def loop_ns() -> int:
    """The loop probe on the current CPU now (least of 3, about 0.5 ms)."""
    return min(_loop_once_ns() for _ in range(3))


def start_ns() -> int:
    """The start probe: wall time of a bare interpreter (about 12 ms)."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter_ns() - t0


class Pinner:
    def __init__(self, start: bool = False):
        """`start`: scale by the start probe instead of the loop."""
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probe, self.ref_ns = (start_ns, START_REF_NS) if start else (loop_ns, LOOP_REF_NS)
        self.hosts: list[float] = []  # the probe times that scale() divided by

    def pin(self) -> int:
        """Pin to the CPU whose loop is fastest; return the probe's time
        on it."""
        if len(self.cpus) > 1:
            fastest, cpu = min((self._loop_on(cpu), cpu) for cpu in self.cpus)
            os.sched_setaffinity(0, {cpu})
            if self.probe is loop_ns:
                return fastest
        return self.probe()

    @staticmethod
    def _loop_on(cpu: int) -> int:
        os.sched_setaffinity(0, {cpu})
        return loop_ns()

    def scale(self, wall_ns: int, before_ns: int) -> float:
        """`wall_ns`, timed after pin() returned `before_ns`, scaled to the
        probe's reference time by the mean of that probe and one taken now."""
        host = (before_ns + self.probe()) / 2
        self.hosts.append(host)
        return wall_ns * self.ref_ns / host

    def timed(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) on the fastest CPU; return (result, wall ns, ns
        scaled to the probe's reference time).  If fn raises, so does this."""
        before = self.pin()
        t0 = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        wall = time.perf_counter_ns() - t0
        return result, wall, self.scale(wall, before)

    def release(self) -> None:
        """Allow every CPU again, for children that pin themselves."""
        os.sched_setaffinity(0, set(self.cpus))
