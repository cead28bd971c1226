"""Pacing: timing calls on a shared host whose speed changes by the second.

Other tenants of the host slow every call by tens of percent.  The slowdown
comes in regimes that last about a second and then switch, and CPU time
grows with wall time, so it is not time spent waiting.  Runs made minutes
apart differ by a third, and no amount of work inside one run averages
that away.  So every timed call is paced by a probe: a fixed kernel that
uses no coprisk code, run before and after the call (and, inside a Monte
Carlo cell or a bootstrap, after every fit).  A call's reference time is

    wall time x REF_S / (median probe time within W of the call),

with W = max(MIN_WINDOW_S, the call's wall time) on either side: what the
call would take with the machine at the speed at which the probe takes
REF_S.  A short call is paced by the regime it ran in; a long one by the
probes of the regimes around it.  A change to coprisk moves the reference
time; the neighbours mostly do not.

The neighbours slow small-array work and large-array work by different
amounts, so there are two probes, each like the fits it paces: "small" for
fits at n = 2000 and "large" for fits at n = 100000.

A CLI subprocess spends most of its time starting an interpreter and
importing numpy and scipy, whose speed the in-process probe does not
follow.  So it is also paced by a spawn probe, a fresh interpreter that
imports numpy and scipy.special, run right before it.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

clock = time.perf_counter
REF_SPAWN_S = 0.45
BURST = 5  # probe calls before and after a paced call
MIN_WINDOW_S = 0.5


def small_probe():
    """Like a fit at n = 2000: many small numpy calls on arrays of 2000
    (cumulative sums, sorted lookups, gathers, a least-squares solve) from a
    Python loop."""
    rng = np.random.default_rng(20220513)
    x, y, a = np.sort(rng.random(2000)), rng.random(2000), rng.random((2000, 3))

    def run():
        for _ in range(30):
            c = np.cumsum(y)
            z = c[np.searchsorted(x, y) - 1]
            np.linalg.lstsq(a, z, rcond=None)
            float(np.exp(-z).sum())
    return run


def large_probe():
    """Like a fit at n = 100000: a long moving-average convolution (the
    presmoother) and 100000 unsorted lookups and gathers in 50000 sorted
    times (the row gathers)."""
    rng = np.random.default_rng(20220513)
    values, window = rng.random(20_000), np.ones(400) / 400
    times, rows = np.sort(rng.random(50_000)), rng.random(100_000)

    def run():
        np.convolve(values, window, mode="valid")
        float(times[np.searchsorted(times, rows) - 1].sum())
    return run


# probe kind: (kernel factory, REF_S: about its time on a 2-core Xeon VM)
PROBES = {"small": (small_probe, 0.01), "large": (large_probe, 0.02)}


class Pacer:
    """Runs the probes, keeps the timeline and turns wall times into
    reference times."""

    def __init__(self, cwd: Path, kind: str):
        self.cwd = cwd
        factory, self.ref_s = PROBES[kind]
        self._kernel = factory()
        # (what, start, wall time) of every probe and every paced call
        self.timeline: list[tuple[str, float, float]] = []
        self._burst_mark = -1

    def mark(self, what: str, start: float, wall: float) -> None:
        self.timeline.append((what, start, wall))

    def probe(self) -> None:
        t = clock()
        self._kernel()
        self.mark("probe", t, clock() - t)

    def burst(self) -> None:
        """BURST probe calls, unless a burst was the last thing timed: back
        to back paced calls share the burst between them."""
        if self._burst_mark != len(self.timeline):
            for _ in range(BURST):
                self.probe()
            self._burst_mark = len(self.timeline)

    def spawn(self) -> None:
        """A fresh interpreter importing numpy and scipy.special."""
        t = clock()
        subprocess.run([sys.executable, "-c", "import numpy, scipy.special"],
                       cwd=self.cwd, check=True, timeout=170)
        self.mark("spawn", t, clock() - t)

    def call(self, what: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) between two bursts, marked as `what`."""
        self.burst()
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.mark(what, t, clock() - t)
            self.burst()

    # -- reference times ----------------------------------------------------

    def _of(self, kind: str) -> tuple[list[float], list[float]]:
        rows = [(t, w) for what, t, w in self.timeline if what == kind]
        return [t for t, _ in rows], [w for _, w in rows]

    def walls(self, what: str) -> list[float]:
        """Wall times of the calls marked `what`, less probe time inside them."""
        starts, walls = self._of("probe")
        out = []
        for t, w in zip(*self._of(what)):
            lo, hi = bisect.bisect_left(starts, t), bisect.bisect_left(starts, t + w)
            out.append(w - sum(walls[lo:hi]))
        return out

    def speed(self, kind: str, start: float, wall: float) -> float:
        """Median time of the `kind` probes that overlap W on either side of
        a call, or of the nearest one if none does."""
        starts, walls = self._of(kind)
        ends = [t + w for t, w in zip(starts, walls)]
        w = max(MIN_WINDOW_S, wall)
        lo = bisect.bisect_left(ends, start - w)
        hi = bisect.bisect_right(starts, start + wall + w)
        if lo < hi:
            return statistics.median(walls[lo:hi])
        gap = [max(start - e, t - start - wall) for t, e in zip(starts, ends)]
        return walls[gap.index(min(gap))]

    def reference(self, what: str) -> list[tuple[float, float]]:
        """(wall time, reference time) of every call marked `what`."""
        starts, _ = self._of(what)
        return [(w, w * self.ref_s / self.speed("probe", t, w))
                for t, w in zip(starts, self.walls(what))]

    def cli_reference(self, what: str) -> tuple[list[tuple[float, float]], float]:
        """(wall time, reference time) of every CLI call marked `what`, and
        the start-up share s: the median spawn probe over the median call.
        A call's start-up is paced by the spawn probe and the rest (coprisk's
        import, CSV parsing, the fit, JSON output) by the in-process probe:
        reference = wall x (s x REF_SPAWN_S / spawn + (1 - s) x REF_S / probe)."""
        starts, walls = self._of(what)
        share = min(1.0, statistics.median(self._of("spawn")[1]) / statistics.median(walls))
        refs = [
            (w, w * (share * REF_SPAWN_S / self.speed("spawn", t, w)
                     + (1 - share) * self.ref_s / self.speed("probe", t, w)))
            for t, w in zip(starts, walls)
        ]
        return refs, share
