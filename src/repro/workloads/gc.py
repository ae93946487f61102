"""Concurrent garbage collection via VM protection (Table 1, rows 3-4).

The Appel-Ellis-Li collector runs concurrently with the mutator by
protecting unscanned to-space pages: the mutator faults on first touch,
the collector scans the page (forwarding objects out of from-space) and
then opens it to the mutator.  Per Table 1, a *flip* performs:

* domain-page model — "Inspect each entry in the PLB, marking those for
  from-space as no access for the application"; the new to-space's
  entries fault in page at a time.
* page-group model — "Remove the page-group identifier of from-space
  from the page-group cache for the application domain.  Add separate
  to-space identifiers to the page-group cache for the application and
  the collector."  Scanning a page moves it from the unscanned group
  (collector-only) to the scanned group (application too).

The workload measures, per collection: traps taken, PLB/TLB/group-cache
operations, and the scan faults, for whichever model the kernel runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mmu import ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel
from repro.os.segment import VirtualSegment
from repro.sim.machine import Machine
from repro.sim.stats import Stats
from repro.workloads.tracegen import RefPattern, TraceGenerator


@dataclass
class GCConfig:
    """Parameters of the concurrent-GC workload."""

    heap_pages: int = 64
    collections: int = 4
    mutator_refs_per_cycle: int = 2_000
    #: Fraction of from-space pages the collector reads while scanning
    #: (live data being forwarded).
    survivor_fraction: float = 0.5
    write_fraction: float = 0.4
    seed: int = 42


@dataclass
class GCReport:
    """What one run measured."""

    collections: int = 0
    pages_scanned: int = 0
    scan_faults: int = 0
    stats: Stats = field(default_factory=Stats)


class ConcurrentGC:
    """An Appel-Ellis-Li concurrent collector over a SASOS kernel."""

    def __init__(self, kernel: Kernel, config: GCConfig | None = None) -> None:
        self.kernel = kernel
        self.machine = Machine(kernel)
        self.config = config or GCConfig()
        self.gen = TraceGenerator(self.config.seed, kernel.params)

        self.mutator: ProtectionDomain = kernel.create_domain("mutator")
        self.collector: ProtectionDomain = kernel.create_domain("collector")
        #: The current allocation arena (to-space).
        self.to_space: VirtualSegment = kernel.create_segment(
            "to-space-0", self.config.heap_pages
        )
        self.from_space: VirtualSegment | None = None
        self._scanned: set[int] = set()
        self._cycle = 0
        # Initially the whole arena is open to the mutator.
        kernel.attach(self.mutator, self.to_space, Rights.RW)
        kernel.attach(self.collector, self.to_space, Rights.RW)
        self._scanned.update(self.to_space.vpns())
        #: Page-group model: the scanned group of the current cycle.
        self._scanned_group: int | None = None
        kernel.add_protection_handler(self._on_fault)
        self.report = GCReport()

    # ------------------------------------------------------------------ #
    # The flip (Table 1 "Flip Spaces")

    def flip(self) -> None:
        """Retire to-space as from-space and open a fresh to-space."""
        with self.kernel.tracer.span("gc.flip", cycle=self._cycle + 1):
            self._flip()

    def _flip(self) -> None:
        kernel = self.kernel
        self._cycle += 1
        old_from = self.from_space
        self.from_space = self.to_space
        self.to_space = kernel.create_segment(
            f"to-space-{self._cycle}", self.config.heap_pages
        )
        self._scanned = set()

        if kernel.model == "pagegroup":
            # Revoke from-space from the application; the collector keeps
            # it for forwarding.  The new to-space starts collector-only
            # (its creation group is "unscanned"); scanned pages move to
            # a fresh scanned group both domains hold.
            kernel.set_segment_rights(self.mutator, self.from_space, Rights.NONE)
            if self._scanned_group is not None:
                # Pages scanned last cycle live in the retired scanned
                # group — now part of from-space, so the application
                # loses that group too (the collector keeps it for
                # forwarding).
                kernel.revoke_group(self.mutator, self._scanned_group)
            kernel.attach(self.collector, self.to_space, Rights.RW)
            kernel.attach(self.mutator, self.to_space, Rights.NONE)
            self._scanned_group = kernel.create_page_group()
            kernel.grant_group(self.collector, self._scanned_group)
            kernel.grant_group(self.mutator, self._scanned_group)
        else:
            # Domain-page models: sweep the application's from-space
            # rights to none; to-space pages start inaccessible to the
            # application and are opened page-at-a-time by the scan.
            kernel.set_segment_rights(self.mutator, self.from_space, Rights.NONE)
            kernel.attach(self.collector, self.to_space, Rights.RW)
            kernel.attach(self.mutator, self.to_space, Rights.NONE)

        if old_from is not None:
            # The previous from-space is garbage; detach everyone.
            kernel.detach(self.mutator, old_from)
            kernel.detach(self.collector, old_from)
        self.report.collections += 1

    # ------------------------------------------------------------------ #
    # Scanning (Table 1 "Access unscanned to space")

    def _on_fault(self, fault: ProtectionFault) -> bool:
        if fault.pd_id != self.mutator.pd_id:
            return False
        vpn = self.kernel.params.vpn(fault.vaddr)
        if not self.to_space.contains(vpn) or vpn in self._scanned:
            return False
        self.report.scan_faults += 1
        self._scan_page(vpn)
        return True

    def _scan_page(self, vpn: int) -> None:
        """Garbage-collect one page, then open it to the application."""
        with self.kernel.tracer.span("gc.scan_page", vpn=vpn):
            self._scan_page_body(vpn)

    def _scan_page_body(self, vpn: int) -> None:
        kernel = self.kernel
        params = kernel.params
        # The collector reads the faulted page and forwards live objects
        # out of from-space (reads over a sample of from-space pages).
        line = params.cache_line_bytes
        for offset in range(0, params.page_size, line * 4):
            self.machine.read(self.collector, params.vaddr(vpn, offset))
        if self.from_space is not None:
            survivors = int(self.config.survivor_fraction * 4) or 1
            for src in self.gen.pick_pages(self.from_space, survivors):
                self.machine.read(self.collector, params.vaddr(src))
                self.machine.write(self.collector, params.vaddr(vpn, line))

        if kernel.model == "pagegroup":
            assert self._scanned_group is not None
            kernel.move_pages_to_group((vpn,), self._scanned_group, rights=Rights.RW)
        else:
            kernel.set_pages_rights(self.mutator, (vpn,), Rights.RW)
        self._scanned.add(vpn)
        self.report.pages_scanned += 1

    # ------------------------------------------------------------------ #
    # The mutator

    def mutate(self) -> None:
        """Run one cycle's worth of application references."""
        pattern = RefPattern(write_fraction=self.config.write_fraction)
        refs = self.gen.refs(
            self.mutator.pd_id,
            self.to_space,
            self.config.mutator_refs_per_cycle,
            pattern,
        )
        with self.kernel.tracer.span("gc.mutate", cycle=self._cycle):
            for ref in refs:
                self.machine.touch(self.mutator, ref.vaddr, ref.access)

    # ------------------------------------------------------------------ #

    def run(self) -> GCReport:
        """Run the configured number of collection cycles."""
        before = self.kernel.stats.snapshot()
        for _ in range(self.config.collections):
            self.flip()
            self.mutate()
        self.report.stats = self.kernel.stats.delta(before)
        return self.report
