"""META — Simulator throughput: references per second, per model.

Not a paper claim, but the practical question for users of this
reproduction ("simulator easy though slow on large traces"): how fast
does each memory system replay a reference stream?  Three measurements:

* the classic 5k-ref replay per model (pytest-benchmark timing);
* the three replay rungs — full walk, per-hit recipe, fused-run — on a
  cache-resident working set, the replay hot path (ARCHITECTURE.md §9),
  which also double-checks that all modes produce byte-identical
  counters;
* a 100k-ref sharded scaling sweep over ``Machine.run_sharded`` with
  ``jobs`` in {1, 2, 4}, asserting the merged stats are identical for
  every jobs value.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.rights import Rights
from repro.os.kernel import MODELS, Kernel
from repro.sim.machine import Machine
from repro.workloads.tracegen import RefPattern, TraceGenerator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from check_bench_regression import (  # noqa: E402
    THROUGHPUT_PAGES as HOT_PAGES,
    THROUGHPUT_REFS as HOT_REFS,
    measure_throughput,
)

REFS = 5_000
SCALE_REFS = 100_000
SCALE_SHARDS = 4
SCALE_JOBS = (1, 2, 4)


def build(model: str, *, pages: int = 32, fast: bool = True):
    kernel = Kernel(model)
    machine = Machine(kernel, fast_path=fast)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", pages)
    kernel.attach(domain, segment, Rights.RW)
    gen = TraceGenerator(99, kernel.params)
    refs = list(gen.refs(domain.pd_id, segment, REFS, RefPattern()))
    return machine, domain, refs


def _shard_machine(model: str, pages: int) -> Machine:
    """Module-level (picklable) factory for ``run_sharded`` workers."""
    kernel = Kernel(model)
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", pages)
    kernel.attach(domain, segment, Rights.RW)
    return machine


@pytest.mark.parametrize("model", MODELS)
def test_replay_throughput(benchmark, model):
    machine, domain, refs = build(model)

    def replay():
        machine.run(refs)

    benchmark.pedantic(replay, rounds=3, iterations=1)
    stats = machine.stats
    assert stats["refs"] >= 3 * REFS


def test_report_throughput(benchmark):
    """The three replay rungs on the hot working set, per model.

    Measured by the regression guard's own estimator
    (``tools/check_bench_regression.py --throughput``): each rung
    replays on a warmed machine, so the recipe and fused rungs report
    their steady state (memo warm, runs compiled) rather than the
    warmup, and the figures are medians over interleaved rounds.
    """
    results = benchmark.pedantic(measure_throughput, rounds=1, iterations=1)
    rows = [
        [
            model,
            f"{cell['full_refs_per_sec'] / 1000:.0f}k refs/s",
            f"{cell['recipe_refs_per_sec'] / 1000:.0f}k refs/s",
            f"{cell['fused_refs_per_sec'] / 1000:.0f}k refs/s",
            f"{cell['fused_speedup']:.2f}x",
        ]
        for model, cell in results.items()
    ]
    benchout.record(
        "Simulator throughput (hot replay: full vs recipe vs fused)",
        format_table(
            ["model", "full path", "recipe path", "fused path", "speedup"], rows,
            title="Wall-clock replay speed per memory system "
            f"({HOT_REFS} refs, {HOT_PAGES}-page working set, median of "
            "interleaved rounds; counters byte-identical in all modes)",
        ),
    )
    assert len(rows) == 3


def test_scaling_100k_jobs_sweep(benchmark):
    """100k refs across shards: run_sharded merges deterministically."""
    model = "plb"
    kernel = Kernel(model)
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", HOT_PAGES)
    kernel.attach(domain, segment, Rights.RW)
    trace = list(
        TraceGenerator(99, kernel.params).refs(
            domain.pd_id, segment, SCALE_REFS, RefPattern()
        )
    )
    chunk = len(trace) // SCALE_SHARDS
    shards = [trace[i : i + chunk] for i in range(0, len(trace), chunk)]
    factory = functools.partial(_shard_machine, model, HOT_PAGES)

    def sweep():
        rows = []
        merged_by_jobs = {}
        for jobs in SCALE_JOBS:
            start = time.perf_counter()
            merged = machine.run_sharded(shards, jobs=jobs, factory=factory)
            elapsed = time.perf_counter() - start
            merged_by_jobs[jobs] = merged.as_dict()
            rows.append([jobs, f"{SCALE_REFS / elapsed / 1000:.0f}k refs/s"])
        return rows, merged_by_jobs

    rows, merged_by_jobs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    first = merged_by_jobs[SCALE_JOBS[0]]
    for jobs in SCALE_JOBS[1:]:
        assert merged_by_jobs[jobs] == first, f"jobs={jobs} diverged"
    assert first["refs"] == SCALE_REFS
    benchout.record(
        "Sharded replay scaling (100k refs, 4 shards)",
        format_table(
            ["jobs", "throughput"], rows,
            title=f"Machine.run_sharded on {model}: {SCALE_REFS} refs in "
            f"{SCALE_SHARDS} shards (merged stats identical for every "
            "jobs value)",
        ),
    )
