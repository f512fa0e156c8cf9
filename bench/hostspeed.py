"""Host speed: a fixed reference loop that scales timings to one speed.

On the shared 2-core VM this benchmark was sized on, the CPU runs for a
minute or so at a time in a fast or a slow mode.  Consecutive 20 s runs of
unchanged code read 5.2-5.6 and then 6.5-7.2 ops/s on ``gfp``, so raw wall
times of one program differ by up to a third between two sets of runs.
The benchmark therefore runs :func:`probe`, a fixed pure-Python loop that
never calls hopfprod, after every half second of op time, and scales
each stretch of op time by ``REFERENCE_S`` over the loop's time around it.
A change to hopfprod leaves the loop alone, so it moves the scaled figures
as it moves wall time; a change of host speed moves both and cancels out.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.02  # the probe's time at the speed every figure is scaled to
PROBE_EVERY_S = 0.5  # op time between two probes in the timed phase


def probe() -> float:
    """Seconds taken now by a fixed loop of the kind hopfprod spends its
    time in.  It has two parts: many small sparse updates with Fraction and
    int values on a small dict (the nine conditions, convolutions), then
    rows of Fractions summed into a dict of a few thousand keys and sorted
    (composing and comparing larger maps).  Over 24 rounds of ``gfp`` the
    two parts together cut the round-to-round spread of ops_per_s from
    0.15 to 0.08 and of op_p50_ms from 0.20 to 0.11."""
    start = time.perf_counter()
    small: dict = {}
    third = Fraction(1, 3)
    for i in range(1500):
        k = (i * 7919) % 211
        x = small.get(k, 0) + (third if i % 3 else i % 7)
        if x == 0:
            small.pop(k, None)
        else:
            small[k] = x
        small.setdefault((k, i % 13), 0)
    sorted(small.items(), key=lambda kv: str(kv[0]))
    rows = [{(i * 31 + j) % 4099: Fraction(j, 7) for j in range(40)}
            for i in range(120)]
    total: dict = {}
    for row in rows:
        for k, v in row.items():
            x = total.get(k, 0) + v
            if x == 0:
                total.pop(k, None)
            else:
                total[k] = x
    sorted(total.items())
    return time.perf_counter() - start


class SpeedLog:
    """Probes taken between stretches of timed work.

    ``every`` is the op time, in seconds, between two probes; 0 probes after
    every piece of work.  The probe time is outside every timing.
    """

    def __init__(self, every: float):
        self.every = every
        self.probes = [probe()]
        self.marks = [0]  # index of the first piece of work of each stretch
        self._pending = 0.0

    def after(self, done: int, seconds: float):
        """Note that piece ``done - 1`` took ``seconds``; probe when a
        stretch is full."""
        self._pending += seconds
        if self._pending >= self.every:
            self.probes.append(probe())
            self.marks.append(done)
            self._pending = 0.0

    def scale(self, times: list[float]) -> list[float]:
        """The times scaled to the reference speed.  Each stretch uses the
        median of the (up to eight) probes around it, about two seconds of
        op time on either side: the fast and slow modes last far longer."""
        if self.marks[-1] != len(times):
            self.probes.append(probe())
            self.marks.append(len(times))
        out = []
        for j in range(len(self.marks) - 1):
            near = self.probes[max(0, j - 3): j + 5]
            factor = REFERENCE_S / statistics.median(near)
            out += [t * factor for t in times[self.marks[j]: self.marks[j + 1]]]
        return out
