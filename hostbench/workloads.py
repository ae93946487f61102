"""The four workloads, each a closed loop with one caller.

Every workload drives the simulator only through public entry points,
in this process, and is seeded from the command line.  A *round* is a
fixed amount of work, the same on every round, so its simulated outputs
hash to the same digest every time; an *op* is the unit timed on the
host.

Each workload marks its own *workload starts* on the path its entry
point takes (:meth:`OpTimer.begin`); the time from one to the next op is
a set-up (``setup_s``).  Replay's round starts by building its machines
and recording and warming its traces; serve starts a model each time
``run_serve`` builds a ``ModelServer``; a cluster sweep starts a model
with the fault-free baseline case from which it picks its fault steps.
Table 1's ops each build their own kernel, so its set-up runs inside
the op: from the op's start until its first ``Kernel`` is built.

Why each workload exists (which layers only it exercises) is recorded
in README.md.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from harness import OpTimer, RoundResult
from spans import Patcher

from repro.os.kernel import MODELS

#: The pinned Table 1 quick-run cycles the table1 workload must match.
TABLE1_BASELINE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "baselines" / "table1_cycles.json"
)


class Replay:
    """``Machine.run`` replaying a hot trace on each model; op = one pass."""

    name = "replay"
    #: References per trace: one fused pass takes a few milliseconds.
    REFS = 50_000
    #: Pages in the RW segment: 256 lines, resident in the 512-line cache.
    PAGES = 2
    #: Passes per model per round: about as long as the round's set-up,
    #: and 204 ops, so a round's tail is its 95th percentile.
    PASSES = 68
    #: Untimed passes in set-up: the first warms the recipe memo, the
    #: second compiles the fused runs, so timed passes are steady.
    WARM_PASSES = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: The last round's (model, machine, trace) per model.
        self.state: list = []

    def _build(self, model: str, *, fast_path: bool = True):
        """A machine with one domain attached RW to a fresh segment.

        Built the same way every time, so a trace recorded against one
        build replays on another.
        """
        from repro.core.rights import Rights
        from repro.os.kernel import Kernel
        from repro.sim.machine import Machine

        kernel = Kernel(model)
        machine = Machine(kernel, fast_path=fast_path)
        domain = kernel.create_domain("bench")
        segment = kernel.create_segment("bench-data", self.PAGES)
        kernel.attach(domain, segment, Rights.RW)
        return kernel, machine, domain, segment

    def _prepare(self):
        """Build, record and warm each model's machine: the set-up."""
        from repro.workloads.tracegen import RefPattern, TraceGenerator

        state = []
        for model in MODELS:
            kernel, machine, domain, segment = self._build(model)
            trace = list(
                TraceGenerator(self.seed, kernel.params).refs(
                    domain.pd_id, segment, self.REFS, RefPattern()
                )
            )
            for _ in range(self.WARM_PASSES):
                machine.run(trace)
            state.append((model, machine, trace))
        return state

    def round(self, timer: OpTimer) -> RoundResult:
        timer.begin()
        state = self.state = self._prepare()
        outputs: dict[str, dict] = {}
        failures = []
        refs = 0
        for _ in range(self.PASSES):
            for model, machine, trace in state:
                delta = timer.call(machine.run, trace).as_dict()
                refs += delta["refs"]
                first = outputs.setdefault(model, delta)
                if delta != first:
                    failures.append(f"replay {model}: pass counters changed")
        return RoundResult(outputs, refs, failures)

    def final_check(self) -> list[str]:
        """Fast-path counters must equal a ``fast_path=False`` replay.

        Fresh machines replay the trace as many times as set-up warms
        it (enough for the memo to record and the fused runs to
        compile); the last pass of that is the steady pass every timed
        pass must repeat.
        """
        failures = []
        for model, measured, trace in self.state:
            finals = []
            for fast in (True, False):
                kernel, machine, _, _ = self._build(model, fast_path=fast)
                for _ in range(self.WARM_PASSES - 1):
                    machine.run(trace)
                last = machine.run(trace).as_dict()
                finals.append((kernel.stats.as_dict(), last))
            (fast_total, fast_pass), (slow_total, slow_pass) = finals
            if fast_total != slow_total:
                failures.append(f"replay {model}: fast-path counters differ from full walk")
            steady = measured.run(trace).as_dict()
            if steady != slow_pass:
                failures.append(f"replay {model}: measured pass differs from full walk")
        return failures


class Serve:
    """``run_serve``: all models, 2 CPUs, mixed chaos; op = one request."""

    name = "serve"
    #: Virtual milliseconds each ``run_serve`` serves per model: about
    #: 290 requests over the three models (never fewer than 200), so its
    #: tail is its 95th percentile.
    DURATION_MS = 400
    #: ``run_serve`` calls per round, each with its own seed derived
    #: from the run's; the tail is the median of their tails.  The tail
    #: is set by the ``gc`` requests, whose count per schedule is
    #: Poisson: over 40 seeds one schedule's tail varied by 21%.
    SERVES = 6
    CPUS = 2
    PLAN = "mixed"

    def __init__(self, seed: int) -> None:
        from repro.serve.driver import ServeConfig

        self.configs = [
            ServeConfig(
                duration_ms=self.DURATION_MS, seed=seed * self.SERVES + k,
                models=tuple(MODELS), cpus=self.CPUS, plan=self.PLAN,
            )
            for k in range(self.SERVES)
        ]

    def round(self, timer: OpTimer) -> RoundResult:
        from repro.serve import driver

        init = driver.ModelServer.__init__

        def starting_init(server, *args, **kwargs):
            timer.begin()
            init(server, *args, **kwargs)

        results = []
        patcher = Patcher()
        patcher.set(driver.ModelServer, "__init__", starting_init)
        patcher.set(driver.ModelServer, "handle", timer.wrap(driver.ModelServer.handle))
        try:
            for config in self.configs:
                timer.new_group()
                results.append(driver.run_serve(config))
        finally:
            patcher.undo()
        outputs = []
        failures = []
        refs = 0
        for config, result in zip(self.configs, results):
            stats = {model: delta.as_dict() for model, delta in result.stats.items()}
            outputs.append({
                "summaries": result.summaries,
                "stats": stats,
                "unrecovered": result.unrecovered,
                "snapshots": result.snapshots,
            })
            failures += [
                f"serve {model} seed {config.seed}: {count} unrecovered requests"
                for model, count in result.unrecovered.items() if count
            ]
            refs += sum(counts.get("refs", 0) for counts in stats.values())
        return RoundResult(outputs, refs, failures)


class Cluster:
    """``run_cluster_sweep`` at 4 nodes x 4 CPUs; op = one fault case.

    A round is the full sweep: a fault at every protocol step, of both
    kinds, on every model.  Each model's fault-free baseline case, which
    counts the messages the fault steps are picked from, is the sweep's
    set-up for that model and is not an op.
    """

    name = "cluster"
    NODES = 4
    CPUS = 4
    PAGES = 4
    ACCESSES = 32
    KINDS = ("node_crash", "partition")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, timer: OpTimer) -> RoundResult:
        from repro.cluster import chaos

        built = []
        refs = 0
        build = chaos.ClusterDSM
        run_case = chaos.run_cluster_case

        def recording_cluster(*args, **kwargs):
            cluster = build(*args, **kwargs)
            built.append(cluster)
            return cluster

        def timed_case(*args, **kwargs):
            nonlocal refs
            if kwargs.get("plan") is None:
                # The model's fault-free baseline: set-up, not an op.
                timer.begin()
                result = run_case(*args, **kwargs)
            else:
                result = timer.call(run_case, *args, **kwargs)
                # Read the counters directly: merged_stats() is a traced
                # layer, and the benchmark's own reads must not show in it.
                for cluster in built:
                    for node in cluster.nodes.values():
                        refs += sum(ctx.stats["refs"] for ctx in node.kernel.cpus)
            built.clear()
            return result

        patcher = Patcher()
        patcher.set(chaos, "ClusterDSM", recording_cluster)
        patcher.set(chaos, "run_cluster_case", timed_case)
        try:
            sweep = chaos.run_cluster_sweep(
                tuple(MODELS), seed=self.seed, nodes=self.NODES,
                pages=self.PAGES, accesses=self.ACCESSES, kinds=self.KINDS,
                n_cpus=self.CPUS,
            )
        finally:
            patcher.undo()
        outputs = {"sweep": sweep.dump(), "recovery_cycles": sweep.recovery_cycles}
        failures = [
            f"cluster {case.model} seed {case.seed}: diverged ({case.detail})"
            for case in sweep.diverged
        ]
        notes = [
            f"cluster: {sweep.unrecoverable} of {sweep.cases} cases unrecoverable"
            " (reported, not failures)"
        ]
        return RoundResult(outputs, refs, failures, notes)


class Table1:
    """Every Table 1 quick-run cell and the DSM rows; op = one model."""

    name = "table1"
    #: Each op runs this many times per round, in seeded random order:
    #: 27 ops a round would leave only the median with ten ops beyond.
    REPEATS = 4

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.baseline = json.loads(TABLE1_BASELINE.read_text())["cycles"]
        self.op_list = self.ops()

    def ops(self):
        from repro.analysis.summary import QUICK_RUNS
        from repro.analysis.table1 import run_dsm

        def dsm(models):
            return run_dsm(models=models)

        cells = list(QUICK_RUNS) + [("DSM", dsm)]
        return [(cell, runner, model) for cell, runner in cells for model in MODELS]

    def round(self, timer: OpTimer) -> RoundResult:
        from repro.os.kernel import Kernel

        init = Kernel.__init__

        def ready_init(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            timer.ready()

        def op(runner, model):
            timer.begin()
            return runner((model,))

        order = self.op_list * self.REPEATS
        self.rng.shuffle(order)
        outputs: dict[str, dict] = {}
        failures = []
        refs = 0
        patcher = Patcher()
        patcher.set(Kernel, "__init__", ready_init)
        try:
            for cell, runner, model in order:
                result = timer.call(op, runner, model)
                stats = result.stats_by_model[model]
                cycles = result.cycles()[model]
                refs += stats["refs"]
                entry = {"cycles": cycles, "stats": stats.as_dict()}
                if outputs.setdefault(f"{cell}/{model}", entry) != entry:
                    failures.append(f"table1 {cell}/{model}: output changed between repeats")
                pinned = self.baseline.get(cell, {}).get(model)
                if cell != "DSM" and cycles != pinned:
                    failures.append(f"table1 {cell}/{model}: {cycles} cycles, baseline {pinned}")
        finally:
            patcher.undo()
        return RoundResult(outputs, refs, failures)


WORKLOADS = {cls.name: cls for cls in (Replay, Serve, Cluster, Table1)}
