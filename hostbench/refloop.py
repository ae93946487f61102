"""A fixed reference loop that measures how fast the host runs Python now.

The host this benchmark runs on drifts: the same pure-Python loop has
been seen to slow by 1.7x for phases of 7 to 40 seconds.  The benchmark
interleaves this loop with its timed operations, reports its time per
round as ``host.ref_ms``, and can scale op times by it (see
``OpTimer.normalised`` in harness.py), so a slow host is not read as a
slow program.

The loop imports no repository code, so no change to the program can
move it.  It has two parts, because interference on a shared host slows
arithmetic and object-heavy code by different amounts and the simulator
does both:

* ``arith``: an integer arithmetic loop;
* ``lru``: a small set-associative LRU cache of slotted objects kept in
  ``OrderedDict`` sets, probed by a fixed address stream — the kind of
  work the simulator's caches and buffers do.

Each part's time is divided by its nominal time, and a sample's *factor*
is the mean of the two ratios: 1.0 on a host running at nominal speed.
"""

from __future__ import annotations

import gc
import time
from collections import OrderedDict

#: Iterations of the arithmetic part.
ARITH_ITERS = 10_000
#: Sets and ways of the LRU part, and probes per pass.
LRU_SETS = 256
LRU_WAYS = 4
LRU_PROBES = 2000
#: Nominal seconds of each part on the host the benchmark was tuned on
#: (warm, collector off); only their ratio to the live time matters.
ARITH_NOMINAL_S = 0.00080
LRU_NOMINAL_S = 0.0020


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


class _LRUCache:
    def __init__(self) -> None:
        self.sets = [OrderedDict() for _ in range(LRU_SETS)]
        self.hits = 0

    def access(self, addr: int, write: bool) -> _Line:
        entries = self.sets[addr % LRU_SETS]
        tag = addr // LRU_SETS
        line = entries.get(tag)
        if line is not None:
            entries.move_to_end(tag)
            self.hits += 1
        else:
            if len(entries) >= LRU_WAYS:
                entries.popitem(last=False)
            line = entries[tag] = _Line(tag)
        if write:
            line.dirty = True
        return line


def _arith() -> int:
    total = 0
    for i in range(ARITH_ITERS):
        total += i * i % 7
    return total


class ReferenceLoop:
    """The fixed loop and the samples taken of it."""

    def __init__(self) -> None:
        self._cache = _LRUCache()
        self._addrs = [
            ((i * 2654435761) >> 5) % (LRU_SETS * LRU_WAYS * 4)
            for i in range(LRU_PROBES)
        ]
        #: (arith seconds, lru seconds) per sample.
        self.samples: list[tuple[float, float]] = []

    def _lru(self) -> None:
        access = self._cache.access
        for i, addr in enumerate(self._addrs):
            access(addr, i & 3 == 0)

    def sample(self) -> float:
        """Time both parts once, keep the sample, return its factor.

        The LRU part runs once untimed first, so the timed pass finds its
        objects in the caches whatever the op before it evicted; and the
        collector is off, because a collection scans the whole heap.
        Either would make the sample time the program, not the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _arith()
            arith_s = time.perf_counter() - start
            self._lru()
            start = time.perf_counter()
            self._lru()
            lru_s = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append((arith_s, lru_s))
        return factor((arith_s, lru_s))


def factor(sample: tuple[float, float]) -> float:
    """How much slower than nominal the host ran one sample."""
    arith_s, lru_s = sample
    return 0.5 * (arith_s / ARITH_NOMINAL_S + lru_s / LRU_NOMINAL_S)


def sample_ms(sample: tuple[float, float]) -> float:
    """A sample's time in milliseconds (both parts, timed passes only)."""
    return (sample[0] + sample[1]) * 1000.0
