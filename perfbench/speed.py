"""How fast this machine runs Python right now, from a fixed reference probe.

The benchmark shares a host with other machines, and the host's speed drifts:
the same requests ran up to 1.7 times slower for minutes at a time, and every
timing metric of a run drifted with them.  A short pure-Python probe that
calls no designforge code (integer arithmetic, sorting, set and dict
building, string joining and hashing of tuples) slows down with them.  It is
timed between requests, outside the timed intervals, at most once every
``INTERVAL_S``.  Timing metrics are scaled by
``NOMINAL_S / median probe time``, so they read as on a machine whose probe
takes ``NOMINAL_S``.  A change to designforge does not change the probe, so
it moves a scaled metric by the same share as the raw one.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_S = 0.003  # the probe time that the scaled metrics refer to
INTERVAL_S = 0.2  # at most one probe per this much wall time


def _work() -> int:
    xs = [(i * 7919) % 10007 for i in range(3000)]
    by_residue: dict[int, list[int]] = {}
    for r, x in sorted((x % 97, x) for x in xs):
        by_residue.setdefault(r, []).append(x)
    odd = {x for x in xs if x & 1}
    text = ",".join(str(x) for x in xs[:500])
    mixed = 0
    for k in range(0, 3000, 3):
        mixed ^= hash((k, xs[k])) & 0xFFFF
    return sum(map(len, by_residue.values())) + len(odd) + len(text) + mixed


def probe() -> float:
    """Seconds for one run of the reference work, with the cyclic collector off.

    A collection started by the probe's own allocations would scan the
    program's heap, and tie the probe's time to what the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Probe samples and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.due = 0.0

    def tick(self) -> None:
        """Take a probe if INTERVAL_S has passed since the last; call between requests."""
        if time.perf_counter() >= self.due:
            self.samples.append(probe())
            self.due = time.perf_counter() + INTERVAL_S

    def sample(self, n: int) -> Gauge:
        """Take n probes now, back to back."""
        self.samples += [probe() for _ in range(n)]
        return self

    @property
    def scale(self) -> float:
        """Multiply a time by this, or divide a rate by it, to get it at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
