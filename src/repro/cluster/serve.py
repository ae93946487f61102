"""Serving one address space from a fault-injected cluster.

The open-loop serve driver (:mod:`repro.serve.driver`) normally runs
one kernel per model.  With ``--cluster-nodes N`` it runs a
:class:`ClusterServer` instead: the same virtual-time arrival schedule,
SLO snapshots and JSONL stream, but each request is a burst of shared-
page accesses spread across the live nodes of a
:class:`~repro.cluster.dsm.ClusterDSM`, and the armed fault plan
strikes the *interconnect* (node crashes, partitions, message loss)
rather than one kernel's caches.

What this measures — the headline robustness numbers:

* **recovery_time_us** — the live collector pairs each
  ``faults.injected`` (the moment the injector killed a node / cut a
  link) with the next ``faults.recovered`` (retry succeeded, partition
  rerouted, or declare-dead + handoff completed), in virtual time.
* **sustained refs/sec under fault** — the request stream never stops
  while recovery runs, so the summary's sustained rates show what the
  cluster kept serving through the failures.

Request service time folds in the interconnect's virtual clock: cycles
spent waiting out timeouts and retries during a request are charged to
that request, which is how a node death shows up as a latency spike in
the p99/p999 sketches before the handoff brings service time back down.
"""

from __future__ import annotations

import random

from repro.cluster.dsm import ClusterDSM
from repro.cluster.faults import ClusterInjector
from repro.core.costs import cycles_for
from repro.core.rights import AccessType
from repro.faults.errors import ClusterUnavailableError, HardwareFault
from repro.faults.plan import FaultPlan
from repro.obs.live import LiveCollector
from repro.obs.tracer import Tracer
from repro.os.kernel import SegmentationViolation

#: Default arrival rate for the single ``cluster`` workload class.
CLUSTER_RATE_PER_SEC = 80.0

#: Estimated interconnect messages per request, for sizing the fault
#: plan's event indices to the expected message stream.
MESSAGES_PER_REQUEST = 12


class ClusterRequestSource:
    """One request = a burst of shared-page touches across live nodes.

    Individual access failures inside a burst are absorbed (the
    protocol already counted and recovered them); the request as a
    whole fails only when *no* access got through — the cluster was
    effectively unavailable for its service window.
    """

    name = "cluster"

    def __init__(
        self, cluster: ClusterDSM, seed: str, *, burst: int = 12
    ) -> None:
        self.cluster = cluster
        self.burst = burst
        self.requests = 0
        self._rng = random.Random(f"cluster-serve:{seed}")

    def execute(self) -> int:
        cluster = self.cluster
        rng = self._rng
        issued = 0
        failed = 0
        for _ in range(self.burst):
            actors = cluster._actors()
            if not actors:
                raise ClusterUnavailableError("no live nodes to serve")
            node = actors[rng.randrange(len(actors))]
            vpn = cluster.vpns[rng.randrange(len(cluster.vpns))]
            access = (
                AccessType.WRITE if rng.random() < 0.4 else AccessType.READ
            )
            try:
                node.machine.touch(
                    node.domain, cluster.params.vaddr(vpn), access
                )
            except (SegmentationViolation, HardwareFault):
                failed += 1
                continue
            issued += 1
        self.requests += 1
        if issued == 0:
            raise ClusterUnavailableError(
                f"all {failed} accesses in the burst failed"
            )
        return issued

    def recover(self) -> None:
        """Give the failure detector and scrubber a chance to catch up."""
        for _ in range(2):
            self.cluster.tick()
        self.cluster.reconcile()


class ClusterServer:
    """Drop-in for :class:`~repro.serve.driver.ModelServer`, cluster-wide.

    Implements the same driver-facing surface (``handle``,
    ``scrub_tick``, ``finish``, ``run_delta``, ``current_counters``,
    ``collector``, ``unrecovered``) over an N-node cluster instead of a
    single kernel.
    """

    def __init__(self, model: str, config) -> None:
        self.model = model
        self.config = config
        self.cluster = ClusterDSM(
            model,
            nodes=config.cluster_nodes,
            pages=config.cluster_pages,
            seed=config.seed,
            n_cpus=config.cpus,
            auto_rejoin=True,
        )
        self.collector = LiveCollector(model)
        self.tracer = Tracer(
            self.cluster.stats, metrics=self.collector, forest=False
        )
        self.sources = {
            name: ClusterRequestSource(
                self.cluster, f"{config.seed}:{name}"
            )
            for name in sorted(config.rates)
        }
        self.injector: ClusterInjector | None = None
        if config.plan and config.plan != "none":
            plan = FaultPlan.generate(
                config.plan,
                config.seed,
                n_ops=config.expected_requests() * MESSAGES_PER_REQUEST,
            )
            self.injector = ClusterInjector(plan)
            self.injector.arm(self.cluster)
        self.busy_until_us = 0
        self.op_index = 0
        self.unrecovered = 0
        self._baseline = self.cluster.merged_stats()
        self.collector.seed_counters(self._baseline.as_dict())

    # -------------------------------------------------------------- #

    def current_counters(self) -> dict[str, int]:
        return self.cluster.merged_stats().as_dict()

    def handle(self, t_us: int, klass: str) -> None:
        """Serve one arrival; interconnect waits bill to the request."""
        source = self.sources[klass]
        self.op_index += 1
        start_us = max(t_us, self.busy_until_us)
        before = self.cluster.merged_stats()
        clock_before = self.cluster.net.clock
        refs = self._execute(source, klass, t_us, start_us)
        after = self.cluster.merged_stats()
        # Weighted hardware events across every node, plus the raw
        # interconnect time this request spent on wires and timeouts.
        cycles = cycles_for(after.delta(before)) + (
            self.cluster.net.clock - clock_before
        )
        service_us = max(1, -(-cycles // self.config.cycles_per_us))
        self.busy_until_us = start_us + service_us
        if refs is not None:
            self.collector.observe_request(klass, cycles, refs)
        self.collector.poll(self.busy_until_us, after.as_dict())

    def _execute(
        self, source, klass: str, t_us: int, start_us: int
    ) -> int | None:
        try:
            with self.tracer.span(f"serve.{klass}", t_us=t_us):
                return source.execute()
        except (SegmentationViolation, HardwareFault):
            source.recover()
            self.collector.observe_retry(klass, start_us)
        try:
            with self.tracer.span(f"serve.{klass}", t_us=t_us, retry=1):
                return source.execute()
        except (SegmentationViolation, HardwareFault) as exc:
            source.recover()
            self.collector.observe_failure(klass, start_us, type(exc).__name__)
            self.unrecovered += 1
            return None

    def scrub_tick(self) -> None:
        """The periodic maintenance pulse: heartbeats, flush, rejoin."""
        self.cluster.tick()

    def summary_extras(self) -> dict[str, object]:
        """Cluster-only summary fields merged into the SLO summary.

        ``recovery_time_us`` in the base summary pairs injection and
        recovery at *poll* granularity, which for the cluster is often
        the same request (recovery runs synchronously inside the
        failing RPC) and reads as zero.  The protocol itself measures
        each declare-dead episode on the interconnect's virtual clock;
        these are the honest recovery-time percentiles.
        """
        episodes = sorted(self.cluster.recovery_cycles)

        def pct(q: float) -> int:
            if not episodes:
                return 0
            rank = min(len(episodes) - 1, int(q * len(episodes)))
            return episodes[rank]

        us = self.config.cycles_per_us
        return {
            "cluster_recovery": {
                "episodes": len(episodes),
                "cycles": {
                    "min": episodes[0] if episodes else 0,
                    "max": episodes[-1] if episodes else 0,
                    "p50": pct(0.50),
                    "p99": pct(0.99),
                },
                "us": {
                    "min": -(-episodes[0] // us) if episodes else 0,
                    "max": -(-episodes[-1] // us) if episodes else 0,
                    "p50": -(-pct(0.50) // us),
                    "p99": -(-pct(0.99) // us),
                },
            },
            "cluster_nodes": self.config.cluster_nodes,
        }

    def finish(self) -> None:
        if self.injector is not None:
            self.injector.disarm()

    def run_delta(self):
        return self.cluster.merged_stats().delta(self._baseline)
