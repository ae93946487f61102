"""The untraced run: rounds, op and set-up timing, and the estimators.

A run repeats *rounds* — a fixed unit of the workload's work — until its
time is up.  Every op in a round is timed on the host, and so is every
*set-up*: the time from a workload start (:meth:`OpTimer.begin`) to the
first op after it, which the workload marks on its own path.  The fixed
reference loop (:mod:`refloop`) runs between ops every ``REF_EVERY_S``
seconds.  Each round's simulated outputs are hashed into a digest that
must be the same on every round.

Estimators are medians, never best-of: on a drifting host best-of
spreads more between windows than the median does.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from refloop import ReferenceLoop, factor, sample_ms

#: Percentiles the tail estimator may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
#: Ops that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Host seconds between two samples of the reference loop.
REF_EVERY_S = 0.2
#: A run measures at least this many rounds, even past its time; a
#: traced run at least ``MIN_TRACED_ROUNDS`` traced rounds.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s", "refs_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB",
}

#: End-to-end times reported normalised by the reference loop (each op
#: or set-up divided by the host factor around it, see
#: ``OpTimer.normalised``); the raw figures stay in the result file.
#: Over three sets of ten runs per workload, normalising lowered the
#: widest spread between runs of each of these sixteen figures (README.md,
#: "Steadiness").
NORMALISED = frozenset({"setup_s", "refs_per_s", "op_p50_ms", "op_tail_ms"})

def tail_rank(n: int) -> tuple[float, int]:
    """(percentile, 0-based rank) of the tail estimate among n sorted ops.

    The highest percentile in ``TAIL_LADDER`` whose nearest-rank index
    leaves at least ``TAIL_BEYOND`` ops beyond it; with too few ops for
    any, the maximum (percentile 100).
    """
    if n < 1:
        raise ValueError("no ops")
    best = (100.0, n - 1)
    for pct in TAIL_LADDER:
        # Exact arithmetic: 99.9 / 100 * 10_000 is 9990.000000000002
        # in floating point, which would shift the rank by one.
        rank = max(0, math.ceil(Fraction(str(pct)) * n / 100) - 1)
        if n - 1 - rank >= TAIL_BEYOND:
            best = (pct, rank)
    return best


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail estimate; see :func:`tail_rank`."""
    ordered = sorted(values)
    pct, rank = tail_rank(len(ordered))
    return pct, ordered[rank]


def digest(outputs: object) -> str:
    """A short stable hash of simulated outputs (JSON-able values)."""
    text = json.dumps(outputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpTimer:
    """Times ops and set-ups, and interleaves samples of the reference loop."""

    def __init__(self, ref: ReferenceLoop | None) -> None:
        self.ref = ref
        self.op_s: list[float] = []
        #: For each op, the index of the last reference sample before it.
        self.ref_index: list[int] = []
        #: Each set-up's seconds, and the index of the last reference
        #: sample before its start.
        self.setup_s: list[float] = []
        self.setup_ref_index: list[int] = []
        self._begun: float | None = None
        self._last_ref = time.perf_counter()
        #: Index of the first op of each group after the first (see
        #: :meth:`new_group`).
        self.group_starts: list[int] = []

    def new_group(self) -> None:
        """Start a new group of ops: the tail is taken per group."""
        if self.op_s:
            self.group_starts.append(len(self.op_s))

    def begin(self) -> None:
        """A workload start: from now to the next op (or :meth:`ready`)
        is one set-up."""
        self._begun = time.perf_counter()

    def ready(self) -> None:
        """End the open set-up, if any.  (The reference loop samples only
        after ops, so none falls inside a set-up.)"""
        if self._begun is not None:
            self.setup_s.append(time.perf_counter() - self._begun)
            self._begun = None
            if self.ref is not None:
                self.setup_ref_index.append(len(self.ref.samples) - 1)

    def call(self, fn: Callable, *args, **kwargs):
        ref = self.ref
        self.ready()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.op_s.append(end - start)
            if ref is not None:
                self.ref_index.append(len(ref.samples) - 1)
                if end - self._last_ref >= REF_EVERY_S:
                    ref.sample()
                    self._last_ref = time.perf_counter()

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(fn, *args, **kwargs)

        return timed

    def normalised(self, times: list[float], indices: list[int]) -> list[float]:
        """Times scaled to a host running at nominal speed: each is
        divided by the median factor (:func:`refloop.factor`) of the two
        reference samples before it and the two after (fewer at the end
        of a round, which has no samples yet after them).  One sample
        alone is noisy enough to widen the tail of the scaled times;
        four span under a second, well inside the host's slow and fast
        phases."""
        factors = [factor(sample) for sample in self.ref.samples]
        return [
            seconds / statistics.median(factors[max(0, index - 1): index + 3])
            for seconds, index in zip(times, indices)
        ]


@dataclass
class RoundResult:
    """What a workload's round reports back to the harness."""

    #: JSON-able simulated outputs; hashed into the round's digest.
    outputs: object
    #: Simulated references made by the round's timed ops.
    refs: int
    #: One line per failed output check (each counts as a failed op).
    failures: list[str] = field(default_factory=list)
    #: Lines printed beside the figures that are not failures (cluster:
    #: its unrecoverable cases).  Part of the outputs, so the same on
    #: every round.
    notes: list[str] = field(default_factory=list)


@dataclass
class RoundStats:
    digest: str
    refs: int
    op_s: list[float]
    op_norm_s: list[float]
    setup_s: list[float]
    setup_norm_s: list[float]
    ref_s: list[tuple[float, float]]
    failures: list[str]
    group_starts: list[int] = field(default_factory=list)
    ref_index: list[int] = field(default_factory=list)
    setup_ref_index: list[int] = field(default_factory=list)


def group_tail(values: list[float], starts: list[int]) -> tuple[float, float]:
    """(percentile, median over groups of each group's tail value)."""
    bounds = [0, *starts, len(values)]
    tails = [tail(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    return tails[0][0], statistics.median(value for _, value in tails)


def round_figures(stats: RoundStats) -> dict[str, float]:
    """Per-round raw and normalised figures.  The run reports the median
    over rounds of each, except ``refs_per_s``, which it pools.

    The tail is taken per round (per group of a round, where a workload
    groups its ops), never over ops pooled across rounds: rounds repeat
    the same ops, so pooled, the ten ops beyond the tail would be
    copies of one op.
    """
    pct, tail_s = group_tail(stats.op_s, stats.group_starts)
    _, tail_norm_s = group_tail(stats.op_norm_s, stats.group_starts)
    return {
        "refs_per_s": stats.refs / sum(stats.op_s),
        "refs_per_s_norm": stats.refs / sum(stats.op_norm_s),
        "op_p50_ms": statistics.median(stats.op_s) * 1000.0,
        "op_p50_ms_norm": statistics.median(stats.op_norm_s) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "op_tail_ms_norm": tail_norm_s * 1000.0,
        "tail_percentile": pct,
        "host_ref_ms": statistics.median(map(sample_ms, stats.ref_s)),
    }


def run_timed(workload, seconds: float) -> dict:
    """Time rounds until ``seconds`` pass; medians of the figures.

    ``refs_per_s`` is the run's references over its ops' total time;
    ``op_p50_ms`` and ``op_tail_ms`` are medians over rounds of each
    round's figure; ``setup_s`` is the median of every set-up in the run.  Each end-to-end
    time is reported normalised by the reference loop (``NORMALISED``);
    the raw figures are kept beside them.
    """
    ref = ReferenceLoop()
    rounds: list[RoundStats] = []
    notes: list[str] = []
    errors = 0
    deadline = time.perf_counter() + seconds
    while len(rounds) + errors < MIN_ROUNDS or time.perf_counter() < deadline:
        # Collect the last round's garbage now, not inside this round's
        # set-up or ops.
        gc.collect()
        first_sample = len(ref.samples)
        ref.sample()
        timer = OpTimer(ref)
        try:
            out = workload.round(timer)
        except Exception:  # an op raised: report it, count it, go on
            traceback.print_exc()
            errors += 1
            continue
        notes = out.notes
        rounds.append(RoundStats(
            digest=digest(out.outputs),
            refs=out.refs,
            op_s=timer.op_s,
            op_norm_s=timer.normalised(timer.op_s, timer.ref_index),
            setup_s=timer.setup_s,
            setup_norm_s=timer.normalised(timer.setup_s, timer.setup_ref_index),
            ref_s=ref.samples[first_sample:],
            failures=out.failures,
            group_starts=timer.group_starts,
            ref_index=timer.ref_index,
            setup_ref_index=timer.setup_ref_index,
        ))
    if not rounds:
        raise RuntimeError("every round raised: no figures to report")
    setup_s = [s for r in rounds for s in r.setup_s]
    if not setup_s:
        raise RuntimeError(f"{workload.name} marked no set-up")
    failures = [line for r in rounds for line in r.failures]
    final_check = getattr(workload, "final_check", None)
    if final_check is not None:
        failures += final_check()
    digests = Counter(r.digest for r in rounds)
    if len(digests) > 1:
        failures.append(f"round digests differ: {dict(digests)}")
    per_round = [round_figures(r) for r in rounds]
    raw = {
        name: statistics.median(fig[name] for fig in per_round)
        for name in per_round[0]
    }
    # Pooled, not a median of per-round rates: it is the metric's
    # definition, and in two sets of ten runs per workload it spread
    # less between runs on every workload (README.md, "Steadiness").
    refs = sum(r.refs for r in rounds)
    raw["refs_per_s"] = refs / sum(s for r in rounds for s in r.op_s)
    raw["refs_per_s_norm"] = refs / sum(s for r in rounds for s in r.op_norm_s)
    raw["setup_s"] = statistics.median(setup_s)
    raw["setup_s_norm"] = statistics.median(
        s for r in rounds for s in r.setup_norm_s
    )
    metrics = {
        name: raw[name + "_norm" if name in NORMALISED else name]
        for name in END_TO_END if name != "peak_rss_mb"
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "mode": "timed",
        "normalised": sorted(NORMALISED),
        "attempted": sum(len(r.op_s) for r in rounds) + errors,
        "failed": errors + len(failures),
        "failures": failures,
        "notes": notes,
        "digest": rounds[0].digest,
        "rounds": len(rounds),
        "setups": len(setup_s),
        "tail_percentile": raw["tail_percentile"],
        "ops_per_group": statistics.median(
            len(r.op_s) / (len(r.group_starts) + 1) for r in rounds
        ),
        "metrics": metrics,
        "raw": raw,
        "round_figures": per_round,
        # The raw material of every figure above: each round's op and
        # set-up times with the index of the reference sample before
        # each, and every (arith, lru) reference sample.
        "round_ops": [
            {"op_s": r.op_s, "ref_index": r.ref_index,
             "group_starts": r.group_starts, "refs": r.refs,
             "setup_s": r.setup_s, "setup_ref_index": r.setup_ref_index}
            for r in rounds
        ],
        "ref_samples_s": ref.samples,
    }
