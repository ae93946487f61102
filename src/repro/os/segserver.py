"""User-level segment servers (Section 6's ongoing work).

The paper closes with Opal's direction: "support for user-level segment
servers which control the semantics and the protection for each
segment."  A segment server is a domain-level policy object that owns
one segment's fault handling: the kernel routes protection and page
faults on the segment's pages to its server before any global handler.

The mechanism generalizes the patterns the Table 1 workloads hand-roll
(the pager, the checkpointer, the GC's scan-on-fault):
:class:`SegmentServerRegistry` provides the dispatch, and servers
implement :class:`SegmentServer`.  :class:`AppendOnlyLogServer` is a
complete example policy: a log segment whose sealed prefix is
hardware-enforced read-only, with the write frontier advanced by the
server as appenders fault past it.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel
from repro.os.segment import VirtualSegment


class SegmentServer(Protocol):
    """A policy object owning one segment's fault semantics."""

    def on_protection_fault(self, fault: ProtectionFault) -> bool:
        """Handle a protection fault on the segment; True if resolved."""

    def on_page_fault(self, fault: PageFault) -> bool:
        """Handle a page fault on the segment; True if resolved."""


class SegmentServerRegistry:
    """Routes faults to the registered server of the faulting segment."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._servers: dict[int, SegmentServer] = {}
        kernel.add_protection_handler(self._dispatch_protection)
        kernel.add_page_fault_handler(self._dispatch_page)

    def register(self, segment: VirtualSegment, server: SegmentServer) -> None:
        """Give ``server`` authority over ``segment``'s faults."""
        if segment.seg_id in self._servers:
            raise ValueError(f"{segment.name} already has a segment server")
        self._servers[segment.seg_id] = server
        self.kernel.stats.inc("segserver.registered")

    def unregister(self, segment: VirtualSegment) -> bool:
        removed = self._servers.pop(segment.seg_id, None) is not None
        if removed:
            self.kernel.stats.inc("segserver.unregistered")
        return removed

    def server_for(self, vpn: int) -> SegmentServer | None:
        segment = self.kernel.segment_at(vpn)
        if segment is None:
            return None
        return self._servers.get(segment.seg_id)

    def _dispatch_protection(self, fault: ProtectionFault) -> bool:
        server = self.server_for(self.kernel.params.vpn(fault.vaddr))
        if server is None:
            return False
        self.kernel.stats.inc("segserver.protection_dispatch")
        return server.on_protection_fault(fault)

    def _dispatch_page(self, fault: PageFault) -> bool:
        server = self.server_for(self.kernel.params.vpn(fault.vaddr))
        if server is None:
            return False
        self.kernel.stats.inc("segserver.page_dispatch")
        return server.on_page_fault(fault)


class AppendOnlyLogServer:
    """A segment server enforcing append-only semantics with page rights.

    The log's *sealed* prefix is read-only for every writer; only the
    frontier page is writable, and only by appenders the server has
    admitted.  Writes past the frontier fault; the server advances the
    frontier (sealing the previous page) and retries.  Attempts to
    modify sealed history are refused — the hardware protection makes
    the log tamper-evident without any checks on the read/append fast
    path.
    """

    def __init__(
        self,
        kernel: Kernel,
        registry: SegmentServerRegistry,
        segment: VirtualSegment,
    ) -> None:
        self.kernel = kernel
        self.segment = segment
        self._appenders: set[int] = set()
        #: Index of the current frontier page; pages below are sealed.
        self.frontier = 0
        #: Page-group model: sealed/future pages live in the segment's
        #: group (globally read-only); the frontier page lives in a
        #: group held only by appenders — the Table 1 style contrast to
        #: the domain-page models' per-domain rights below.
        self._frontier_group: int | None = None
        if kernel.model == "pagegroup":
            self._frontier_group = kernel.create_page_group()
            for index, vpn in enumerate(segment.vpns()):
                if index == self.frontier:
                    kernel.move_pages_to_group((vpn,), self._frontier_group,
                                              rights=Rights.RW)
                else:
                    kernel.set_pages_rights_global((vpn,), Rights.READ)
        registry.register(segment, self)

    def admit(self, domain: ProtectionDomain, *, reader_only: bool = False) -> None:
        """Let a domain read the log (and append, unless reader_only)."""
        self.kernel.attach(domain, self.segment, Rights.READ)
        if reader_only:
            return
        self._appenders.add(domain.pd_id)
        if self._frontier_group is not None:
            self.kernel.grant_group(domain, self._frontier_group)
        else:
            # Domain-page models: per-domain write access on the
            # frontier page.
            self.kernel.set_pages_rights(
                domain, (self.segment.vpn_at(self.frontier),), Rights.RW
            )

    def _advance_frontier(self) -> bool:
        if self.frontier + 1 >= self.segment.n_pages:
            return False  # the log is full
        sealed_vpn = self.segment.vpn_at(self.frontier)
        self.frontier += 1
        frontier_vpn = self.segment.vpn_at(self.frontier)
        if self._frontier_group is not None:
            # Two page-to-group moves, regardless of how many appenders.
            self.kernel.move_pages_to_group((sealed_vpn,), self.segment.aid,
                                           rights=Rights.READ)
            self.kernel.move_pages_to_group((frontier_vpn,), self._frontier_group,
                                           rights=Rights.RW)
        else:
            # One pair of per-domain updates per appender.
            for pd_id in self._appenders:
                domain = self.kernel.domains[pd_id]
                self.kernel.set_pages_rights(domain, (sealed_vpn,), Rights.READ)
                self.kernel.set_pages_rights(domain, (frontier_vpn,), Rights.RW)
        self.kernel.stats.inc("segserver.log_page_sealed")
        return True

    def on_protection_fault(self, fault: ProtectionFault) -> bool:
        if fault.access is not AccessType.WRITE:
            return False
        if fault.pd_id not in self._appenders:
            return False  # not admitted as a writer: the fault stands
        vpn = self.kernel.params.vpn(fault.vaddr)
        page_index = vpn - self.segment.base_vpn
        if page_index == self.frontier + 1:
            # Appending just past the frontier: seal and advance.
            return self._advance_frontier()
        # Writing sealed history (or skipping ahead): refused.
        self.kernel.stats.inc("segserver.log_tamper_refused")
        return False

    def on_page_fault(self, fault: PageFault) -> bool:
        return False  # log pages are populated at creation
