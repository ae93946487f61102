"""Concurrent checkpointing (Table 1, rows 11-12).

The Li-Naughton-Plank scheme: to checkpoint a segment without stopping
the application, the checkpoint server makes the segment read-only for
the client.  Writes fault; the server checkpoints the faulted page to
disk first (copy-on-write to stable storage) and then restores the
client's write access to it.  A background sweep checkpoints untouched
pages at leisure.

Per Table 1:

* domain-page — *Restrict Access*: "inspect each entry in the PLB and
  mark the pages as read-only for the application"; *Checkpoint Page*:
  write to disk, mark the page read-write for the application in the PLB.
* page-group — *Restrict Access*: mark the segment's group read-only to
  the application (the PID write-disable bit) and allocate a different
  read-write group; *Checkpoint Page*: write to disk, move the page to
  the read-write group.
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
class CheckpointConfig:
    """Parameters of the concurrent-checkpoint workload."""

    segment_pages: int = 64
    checkpoints: int = 3
    refs_per_checkpoint: int = 1_500
    write_fraction: float = 0.5
    #: Background pages the server checkpoints between bursts of
    #: application references.
    background_pages_per_step: int = 2
    seed: int = 23


@dataclass
class CheckpointReport:
    checkpoints: int = 0
    pages_checkpointed: int = 0
    copy_on_write_faults: int = 0
    stats: Stats = field(default_factory=Stats)


class ConcurrentCheckpoint:
    """A concurrent checkpointer over one application segment."""

    def __init__(self, kernel: Kernel, config: CheckpointConfig | None = None) -> None:
        self.kernel = kernel
        self.machine = Machine(kernel)
        self.config = config or CheckpointConfig()
        self.gen = TraceGenerator(self.config.seed, kernel.params)
        self.app: ProtectionDomain = kernel.create_domain("app")
        self.server: ProtectionDomain = kernel.create_domain("ckpt-server")
        self.segment: VirtualSegment = kernel.create_segment(
            "data", self.config.segment_pages
        )
        kernel.attach(self.app, self.segment, Rights.RW)
        kernel.attach(self.server, self.segment, Rights.READ)
        self._pending: set[int] = set()
        #: Page-group model: the read-write group of the current epoch,
        #: plus the retired groups of earlier epochs (which must be
        #: write-disabled again when a new checkpoint starts).
        self._rw_group: int | None = None
        self._old_groups: list[int] = []
        kernel.add_protection_handler(self._on_fault)
        self.report = CheckpointReport()

    # ------------------------------------------------------------------ #
    # Restrict access (Table 1 "Restrict Access")

    def begin_checkpoint(self) -> None:
        """Make the whole segment read-only to the application."""
        with self.kernel.tracer.span(
            "ckpt.restrict_access", epoch=self.report.checkpoints + 1
        ):
            self._begin_checkpoint()

    def _begin_checkpoint(self) -> None:
        kernel = self.kernel
        self._pending = set(self.segment.vpns())
        if kernel.model == "pagegroup":
            # Write-disable the segment's group for the application and
            # allocate this epoch's read-write group (application and
            # server both hold it); checkpointed pages migrate there.
            kernel.set_segment_rights(self.app, self.segment, Rights.READ)
            if self._rw_group is not None:
                self._old_groups.append(self._rw_group)
            for group in self._old_groups:
                # Pages checkpointed in earlier epochs live in retired
                # read-write groups; write-disable those too.
                kernel.grant_group(self.app, group, write_disable=True)
            self._rw_group = kernel.create_page_group()
            kernel.grant_group(self.app, self._rw_group)
            kernel.grant_group(self.server, self._rw_group)
        else:
            # "Inspect each entry in the PLB and mark the pages as
            # read-only for the application."
            kernel.set_segment_rights(self.app, self.segment, Rights.READ)
        self.report.checkpoints += 1

    # ------------------------------------------------------------------ #
    # Checkpoint one page (Table 1 "Checkpoint Page")

    def _checkpoint_page(self, vpn: int) -> None:
        with self.kernel.tracer.span("ckpt.checkpoint_page", vpn=vpn):
            self._checkpoint_page_body(vpn)

    def _checkpoint_page_body(self, vpn: int) -> None:
        kernel = self.kernel
        pfn = kernel.translations.pfn_for(vpn)
        data = (
            kernel.memory.read_page(pfn) if pfn is not None else None
        ) or bytes(kernel.params.page_size)
        kernel.backing.write(vpn, data)
        if kernel.model == "pagegroup":
            assert self._rw_group is not None
            kernel.move_pages_to_group((vpn,), self._rw_group, rights=Rights.RW)
        else:
            kernel.set_pages_rights(self.app, (vpn,), Rights.RW)
        self._pending.discard(vpn)
        self.report.pages_checkpointed += 1

    def _on_fault(self, fault: ProtectionFault) -> bool:
        if fault.pd_id != self.app.pd_id or fault.access is not AccessType.WRITE:
            return False
        vpn = self.kernel.params.vpn(fault.vaddr)
        if vpn not in self._pending:
            return False
        self.report.copy_on_write_faults += 1
        self._checkpoint_page(vpn)
        return True

    def _background_step(self) -> None:
        """The server checkpoints a few untouched pages proactively."""
        for vpn in sorted(self._pending)[: self.config.background_pages_per_step]:
            # The server reads the page through its own domain before
            # writing it out.
            self.machine.read(self.server, self.kernel.params.vaddr(vpn))
            self._checkpoint_page(vpn)

    # ------------------------------------------------------------------ #

    def run(self) -> CheckpointReport:
        """Run the configured number of checkpoint epochs."""
        config = self.config
        before = self.kernel.stats.snapshot()
        pattern = RefPattern(write_fraction=config.write_fraction)
        for _ in range(config.checkpoints):
            self.begin_checkpoint()
            refs = list(
                self.gen.refs(
                    self.app.pd_id, self.segment, config.refs_per_checkpoint, pattern
                )
            )
            burst = max(1, len(refs) // 20)
            for start in range(0, len(refs), burst):
                for ref in refs[start : start + burst]:
                    self.machine.touch(self.app, ref.vaddr, ref.access)
                if self._pending:
                    self._background_step()
            while self._pending:
                self._background_step()
        self.report.stats = self.kernel.stats.delta(before)
        return self.report
