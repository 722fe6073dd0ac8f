"""Drift correction: timings scaled to a fixed machine speed.

On a 2-CPU virtual machine whose cores are shared with other work, speed
drifts by up to 2x over minutes: a fixed Python loop and an
``lz.code_length`` call slow down and speed up together.  So the process
that times the calls also times a fixed reference loop ("a mark") between
calls, and a call timed over ``[t0, t1]`` is scaled by ``REF_S / r``, where
``r`` is the median of the marks from the last one before ``t0`` to the
first one after ``t1``.  Timed back to back for 120 s, the spread (IQR over
median of 10-s windows) was 0.127 for the call, 0.115 for the loop and 0.037
for their ratio.

Marks are never taken while rngcal code runs: the two CPUs slow each other
down (the loop takes 1.8x as long while another process computes), so a
loop timed alongside a call would measure the call's own load.

A corrected time reads in seconds at the speed where the loop takes
``REF_S``, which is about the machine's median speed.  The correction
depends only on the machine's state, never on the program under test.
``result.json`` keeps the raw times next to the corrected ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REF_S = 0.022       # the loop's time at the reference speed
LOOP_STEPS = 250_000
PASSES = 5
MARK_EVERY_S = 1.0  # calls shorter than this share marks


def reference_s() -> float:
    """Median time of ``PASSES`` runs of the fixed loop."""
    times = []
    for _ in range(PASSES):
        t0 = perf_counter()
        s = 0
        for i in range(LOOP_STEPS):
            s = (s + i * 7) & 0xFFFF
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Marks:
    """Reference times, each taken between calls, and the factors they give.

    Take a mark with ``mark_if_due()`` before and after each call, and with
    ``mark()`` once after the last call, so that every call lies between two
    marks.  Times are ``perf_counter()`` values, which on Linux are
    system-wide, so marks taken in one process can correct calls timed in
    it and be sent to another as ``to_json()``.
    """

    def __init__(self, times: list[float] | None = None, ref_s: list[float] | None = None):
        self.times = times or []   # when each mark started, ascending
        self.ref_s = ref_s or []

    def mark(self) -> None:
        self.times.append(perf_counter())
        self.ref_s.append(reference_s())

    def mark_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= MARK_EVERY_S:
            self.mark()

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor for a call timed over ``[t0, t1]``."""
        i = bisect.bisect_right(self.times, t0) - 1
        j = bisect.bisect_left(self.times, t1)
        if i < 0 or j == len(self.times):
            raise ValueError(f"no marks on both sides of the call at {t0:.3f}..{t1:.3f}")
        return REF_S / statistics.median(self.ref_s[i:j + 1])

    def to_json(self) -> dict:
        return {"times": self.times, "ref_s": self.ref_s}

    def summary(self) -> dict:
        return {"marks": len(self.ref_s), "ref_s_min": min(self.ref_s),
                "ref_s_median": statistics.median(self.ref_s), "ref_s_max": max(self.ref_s)}
