"""Host-speed probe: report op times at a reference host speed.

A shared host's speed drifts by tens of percent over seconds (on the
2-vCPU calibration host the probe's median moved between 0.4 and 1.2 ms
within minutes), so raw wall times of identical runs spread by 20-40%.
A fixed ~0.5 ms slice of pure-Python work (:func:`probe`) runs untimed
right before every op and after the last (a workload with long ops runs
several).  Each op time is multiplied by ``(PROBE_REF_S / p) **
exponent``, where ``p`` is the median of the probes run in the two gaps
before the op and the two after it; at ``p == PROBE_REF_S`` this leaves
the op time as measured, so the result reads as milliseconds on a host
where the probe takes ``PROBE_REF_S``.  The median keeps one slow probe
from moving an op's scale.

The probe never calls the program, and it runs with the cyclic garbage
collector off, so a collection of the program's heap is never charged
to it: a program that allocates more, or keeps a bigger heap, does not
slow the probe and so cannot read as faster.  (With the collector on,
collections added about 8% to the probe's mean time between ops of
``session_events``, ``fabric_churn`` and ``broker_fanout``, concentrated
in the few probes a collection fell into.)

The probe mixes a tight dict-and-str loop with object, dict, struct,
heap, bit-twiddling and scattered-memory work: no one kind alone tracked
every workload's drift.  It runs between every two ops, not on a timer,
so that each op finds the caches in the same state.

The exponent is the workload's sensitivity to host speed: the slope of
log op time against log probe time as the host's speed drifts.  The
probe is cache-resident interpreter work, and when the host ran fast it
sped up more than workloads with large heaps did, so scaling them fully
(exponent 1) made them read slower on a fast host.  Each workload sets
its own (``Workload.speed_exponent``): 0.85 for ``session_events``, 0.8
for ``fabric_churn`` and 0.7 for ``broker_fanout`` were fitted over 70
or more runs per workload (20 for the broker); nine interleaved runs per
workload with this probe, over probe times of 0.56-1.15 ms, again gave
0.72 for the broker.  ``session_images`` uses 0.85: over 16 processes
with per-op probe records, exponent 1 left the p90 of scaled op times
spread by 0.11 across processes and 0.85 by 0.07, while the median's
spread rose from 0.05 to 0.08; pooled over a run's three processes the
median stays steady.

Set-up times are scaled the same way, at the median of the process's
probes, with their own exponent (``Workload.setup_exponent``): part of
set-up is interpreter work the probe tracks, part is loading (file
reads, page faults, dynamic linking) that it does not.  Over about 48
processes per workload (probe times 0.41-1.17 ms), the exponent that
gave the least spread of scaled set-up time was 0.9 for
``session_images`` (whose set-up runs two EZW warm-up ops), 0.8 for
``session_events``, 0.7 for ``fabric_churn`` and 0.5 for
``broker_fanout``; raw, those set-up times spread by 22-49%
(interquartile range over median), scaled by 6-16%.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import struct
import time

__all__ = ["PROBE_REF_S", "probe", "Speed"]

#: probe time at reference speed: its typical time between ops on the
#: 2-vCPU x86-64 host (CPython 3.11) the benchmark was calibrated on,
#: when that host ran fast
PROBE_REF_S = 0.5e-3


class _Obj:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b
        self.c = None

    def f(self, x: int) -> int:
        return self.a + x if self.b else x


_rng = random.Random(5)
_TABLE = {f"k{i}": i for i in range(5000)}
_KEYS = [f"k{_rng.randrange(5000)}" for _ in range(200)]
#: 1 MiB to read from at scattered offsets; bytes, so that it adds 1 MiB
#: to the process's resident memory and no per-item objects
_WIDE = _rng.randbytes(1 << 20)
_SCATTER = [_rng.randrange(len(_WIDE)) for _ in range(400)]


def probe() -> float:
    """Seconds one fixed slice of interpreter work takes right now,
    with the cyclic garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if was_enabled:
            gc.enable()


def _work() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for i in range(1000):
        k = i & 63
        counts[k] = counts.get(k, 0) + len(str(i))
    total = sum(o.f(3) for o in [_Obj(i, i & 1) for i in range(100)])
    for key in _KEYS:
        total += _TABLE.get(key, 0)
    named = {f"x{i}": str(i) for i in range(100)}
    packed = bytearray()
    for i in range(100):
        packed += struct.pack(">HI", i, i * 7)
    heap: list = []
    for i in range(80):
        heapq.heappush(heap, ((i * 7919) % 211, i))
    while heap:
        heapq.heappop(heap)
    bits = 0
    for i in range(1000):
        bits = (bits << 1 | (i & 1)) & 0xFFFF
    for j in _SCATTER:
        total += _WIDE[j]
    if total < 0 or len(named) + len(packed) + bits < 0:  # keep the work observable
        raise AssertionError
    return time.perf_counter() - start


class Speed:
    """A sequence of probe times and the scale they give to a workload
    whose sensitivity to host speed is ``exponent``."""

    def __init__(self, exponent: float = 1.0) -> None:
        self.durations: list[float] = []
        self.exponent = exponent

    def burst(self, n: int) -> None:
        self.durations.extend(probe() for _ in range(n))

    def scale(self) -> float:
        """The scale at the median of every probe."""
        return (PROBE_REF_S / statistics.median(self.durations)) ** self.exponent

    def setup_scale(self, exponent: float) -> float:
        """The scale of set-up times, whose sensitivity to host speed is
        ``exponent``, at the median of every probe."""
        return (PROBE_REF_S / statistics.median(self.durations)) ** exponent

    def scale_between(self, k: int, per_gap: int = 1) -> float:
        """The scale at the median probe time of the two gaps before op
        ``k`` and the two after it, when ``per_gap`` probes run in each
        gap between two ops (gap ``k`` right before op ``k``)."""
        near = self.durations[max(k - 1, 0) * per_gap:(k + 3) * per_gap]
        return (PROBE_REF_S / statistics.median(near)) ** self.exponent
