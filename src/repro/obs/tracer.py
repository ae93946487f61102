"""Span-based tracing over the shared Stats multiset.

A :class:`Tracer` watches one :class:`~repro.sim.stats.Stats` object and
attributes every counter delta to the innermost open span:

    with tracer.span("kernel.detach", pd=pd_id, seg=seg_id):
        ...  # every Stats increment lands in this span

Spans nest; a span's *inclusive* delta is everything counted between its
enter and exit, and its *exclusive* delta is the inclusive delta minus
its children's.  Because attribution works purely by snapshot
arithmetic, the sum of children's inclusive deltas plus the parent's
exclusive delta reproduces the parent's inclusive delta exactly — no
event is ever double-counted or lost.

The tracer also maintains a *cycle clock*: the
:func:`~repro.core.costs.cycles_for` total of every event seen so far,
read at span boundaries.  Span start/duration timestamps are therefore
in simulated weighted cycles, which is what the Chrome-trace exporter
uses as its time axis.  A boundary costs O(priced counters): the clock
is one C-level weighted sum over the names that carry a cycle weight
(11 to 14 in a serve run), never a scan of every counter; a name created
since the last boundary is classified once, through the memoized
:meth:`~repro.core.costs.CycleCosts.weight_for`.

Only a span that is recorded into the forest (``roots``) snapshots the
whole counter dict, for its delta.  A tracer built with
``forest=False`` — serve mode, which only wants per-span latencies —
builds no :class:`Span` at all: each exit hands ``(name, cycles)`` to
the ``metrics`` sink, and the per-reference ``mem.access`` wrapper is
two clock reads and that one call (see ``MemorySystem.attach_tracer``).
Both kinds of tracer feed the sink the same sequence.

Hot-path spans (the per-reference ``mem.access`` span) pass
``sample=True`` and are recorded 1-in-N (``sample_every``); sampled-out
occurrences cost one RNG draw and fold into the enclosing span's
exclusive delta, so totals stay conserved.  Sampling is deterministic
under a fixed ``seed``.

A *disabled* tracer is the shared :data:`NULL_TRACER` singleton whose
``span()`` returns one reusable no-op context manager; instrumented code
that is not being traced pays a single attribute load and method call.
The memory systems go further and bypass even that (see
``MemorySystem.attach_tracer``), so tier-1 benchmarks see near-zero
overhead when tracing is off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from operator import mul
from typing import Any, Iterator

from repro.core.costs import CycleCosts, DEFAULT_COSTS
from repro.sim.stats import Stats


# --------------------------------------------------------------------- #
# The disabled fast path


class _NullSpan:
    """The reusable no-op context manager of a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing; ``span()`` is a near-free no-op."""

    active = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def finish(self) -> list["Span"]:
        return []


#: The shared disabled tracer every component starts with.
NULL_TRACER = NullTracer()


# --------------------------------------------------------------------- #
# Recorded spans


@dataclass
class Span:
    """One completed (or still-open) traced region."""

    name: str
    attrs: dict[str, Any]
    #: Cycle-clock value when the span opened (the Chrome-trace ``ts``).
    start_cycles: int
    #: Nesting depth at open (0 = top level).
    depth: int
    #: Inclusive weighted cycles (children included); set at exit.
    cycles: int = 0
    #: Inclusive counter delta (children included); set at exit.
    delta: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def exclusive_cycles(self) -> int:
        """Cycles attributed to this span alone (children subtracted)."""
        return self.cycles - sum(child.cycles for child in self.children)

    def exclusive_delta(self) -> dict[str, int]:
        """Counter delta attributed to this span alone."""
        own = dict(self.delta)
        for child in self.children:
            for name, count in child.delta.items():
                remaining = own.get(name, 0) - count
                if remaining:
                    own[name] = remaining
                else:
                    own.pop(name, None)
        return own

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


# --------------------------------------------------------------------- #
# The live tracer


class _SpanHandle:
    """Context manager for one span of a tracer that keeps no forest.

    It builds no :class:`Span`: at exit it hands ``(name, cycles)`` to
    the tracer's metrics sink, and keeps nothing once the span closes.
    """

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._start = self._tracer.tick()
        return None

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        cycles = tracer.tick() - self._start
        if tracer.metrics is not None:
            tracer.metrics.observe_span(self._name, cycles)
        return False


class _RecordedSpanHandle:
    """Context manager for one span recorded into the tracer's forest."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_enter_counts")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        self._enter_counts = dict(tracer._counts)
        self._span = Span(
            name=self._name,
            attrs=self._attrs,
            start_cycles=tracer.tick(),
            depth=len(tracer._stack),
        )
        tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        clock = tracer.tick()
        counts = dict(tracer._counts)
        span = self._span
        popped = tracer._stack.pop()
        assert popped is span, "span exit out of order"
        if tracer.debug:
            Stats(counts).assert_monotonic(Stats(self._enter_counts))
        enter = self._enter_counts
        span.delta = {
            name: count - enter.get(name, 0)
            for name, count in counts.items()
            if count != enter.get(name, 0)
        }
        span.cycles = clock - span.start_cycles
        if tracer._stack:
            tracer._stack[-1].children.append(span)
        else:
            tracer.roots.append(span)
        if tracer.metrics is not None:
            tracer.metrics.observe_span(span.name, span.cycles)
        return False


class Tracer:
    """Records nested spans against one Stats object.

    Args:
        stats: The counter sink shared by the kernel and hardware.
        costs: Cycle weights for the span cycle clock (defaults to the
            table every report uses, so profiler totals line up with
            :func:`~repro.core.costs.cycles_for` exactly).
        sample_every: Record 1-in-N of the spans opened with
            ``sample=True`` (1 = record all).
        seed: Seed for the sampling RNG — fixed seed, fixed decisions.
        metrics: Optional sink (:class:`~repro.obs.metrics.Metrics` or
            :class:`~repro.obs.live.LiveCollector`) whose
            ``observe_span(name, cycles)`` is called at every recorded
            span exit, in exit order.
        debug: Assert counter monotonicity at every span exit of the
            forest.
        forest: Keep the span forest (``roots``).  A long-running
            server passes False: its spans then only feed ``metrics``,
            and no :class:`Span`, attribute dict or counter delta is
            built or kept.
    """

    active = True

    def __init__(
        self,
        stats: Stats,
        *,
        costs: CycleCosts = DEFAULT_COSTS,
        sample_every: int = 1,
        seed: int = 0,
        metrics: "Any | None" = None,
        debug: bool = False,
        forest: bool = True,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.stats = stats
        self.costs = costs
        self.sample_every = sample_every
        self.metrics = metrics
        self.debug = debug
        self.forest = forest
        self.roots: list[Span] = []
        #: Spans opened with ``sample=True`` that were not recorded.
        self.sampled_out = 0
        self._rng = random.Random(seed)
        self._stack: list[Span] = []
        self._handle = _RecordedSpanHandle if forest else _SpanHandle
        self._counts = stats.counts_view()
        self._read = self._counts.__getitem__
        #: The priced counter names seen so far, and their weights.
        self._names: list[str] = []
        self._prices: list[int] = []
        #: How many counter names (priced or not) have been classified.
        self._known = 0
        self._clears = stats.clears
        self._reprice()
        #: The priced total that reads as clock 0.
        self._base = sum(map(mul, map(self._read, self._names), self._prices))
        self._clock = 0

    # -- clock ---------------------------------------------------------- #

    def tick(self) -> int:
        """Read the cycle clock at a span boundary.

        The clock is the weighted total of the priced counters, one
        C-level weighted sum over their names; the unpriced counters are
        never read.  Counter names are only ever added
        (apart from :meth:`Stats.clear`), so a change in the number of
        names means new ones to classify.
        """
        if len(self._counts) != self._known or self.stats.clears != self._clears:
            self._reprice()
        self._clock = clock = (
            sum(map(mul, map(self._read, self._names), self._prices)) - self._base
        )
        return clock

    def _reprice(self) -> None:
        """Classify the counter names created since the last boundary.

        A counter store keeps insertion order, so the new names are its
        tail.  After a :meth:`Stats.clear` the vanished names are
        ignored: the clock keeps its value and the counters that exist
        now count on from zero, so it never runs backwards.
        """
        if self.stats.clears != self._clears:
            self._clears = self.stats.clears
            self._names, self._prices, self._known = [], [], 0
            self._base = -self._clock
        weight_for = self.costs.weight_for
        for name in islice(self._counts, self._known, None):
            weight = weight_for(name)
            if weight:
                self._names.append(name)
                self._prices.append(weight)
        self._known = len(self._counts)

    @property
    def clock_cycles(self) -> int:
        """The cycle clock as of the last span boundary."""
        return self._clock

    # -- spans ---------------------------------------------------------- #

    def span(self, name: str, *, sample: bool = False, **attrs: Any):
        """Open a span; use as ``with tracer.span("kernel.attach", ...):``.

        With ``sample=True`` the span is subject to 1-in-N sampling and
        may return the shared no-op handle instead; its events then fold
        into the enclosing span.
        """
        if sample and self.sample_every > 1:
            if self._rng.randrange(self.sample_every):
                self.sampled_out += 1
                return _NULL_SPAN
        return self._handle(self, name, attrs)

    def finish(self) -> list[Span]:
        """Close the books: returns the completed top-level spans.

        Open spans are an instrumentation bug; finishing with a
        non-empty stack raises so the bug cannot hide.
        """
        if self._stack:
            names = " > ".join(span.name for span in self._stack)
            raise RuntimeError(f"tracer finished with open spans: {names}")
        return self.roots

    def all_spans(self) -> Iterator[Span]:
        """Every recorded span, preorder."""
        for root in self.roots:
            yield from root.walk()
