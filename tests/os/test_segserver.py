"""Tests for user-level segment servers (§6's ongoing-work feature)."""

from __future__ import annotations

import pytest

from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import Rights
from repro.os.kernel import Kernel, SegmentationViolation
from repro.os.segserver import AppendOnlyLogServer, SegmentServerRegistry
from repro.sim.machine import Machine

MODELS = ("plb", "pagegroup", "conventional")


class _GrantingServer:
    """Test server: grants RW on the first fault, counts calls."""

    def __init__(self, kernel, segment):
        self.kernel = kernel
        self.segment = segment
        self.protection_calls = 0
        self.page_calls = 0

    def on_protection_fault(self, fault: ProtectionFault) -> bool:
        self.protection_calls += 1
        domain = self.kernel.domains[fault.pd_id]
        vpn = self.kernel.params.vpn(fault.vaddr)
        self.kernel.set_pages_rights(domain, (vpn,), Rights.RW)
        return True

    def on_page_fault(self, fault: PageFault) -> bool:
        self.page_calls += 1
        return False


class TestRegistry:
    def test_faults_routed_to_owning_server(self, plb_kernel):
        kernel = plb_kernel
        machine = Machine(kernel)
        registry = SegmentServerRegistry(kernel)
        served = kernel.create_segment("served", 4)
        other = kernel.create_segment("other", 4)
        server = _GrantingServer(kernel, served)
        registry.register(served, server)
        domain = kernel.create_domain("d")
        kernel.attach(domain, served, Rights.NONE)
        kernel.attach(domain, other, Rights.RW)
        # Fault on the served segment goes to the server.
        machine.write(domain, kernel.params.vaddr(served.base_vpn))
        assert server.protection_calls == 1
        # Accesses on other segments never touch it.
        machine.write(domain, kernel.params.vaddr(other.base_vpn))
        assert server.protection_calls == 1

    def test_unregistered_segment_falls_through(self, plb_kernel):
        kernel = plb_kernel
        machine = Machine(kernel)
        SegmentServerRegistry(kernel)
        segment = kernel.create_segment("s", 2)
        domain = kernel.create_domain("d")
        kernel.attach(domain, segment, Rights.NONE)
        with pytest.raises(SegmentationViolation):
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))

    def test_double_register_rejected(self, plb_kernel):
        kernel = plb_kernel
        registry = SegmentServerRegistry(kernel)
        segment = kernel.create_segment("s", 2)
        server = _GrantingServer(kernel, segment)
        registry.register(segment, server)
        with pytest.raises(ValueError):
            registry.register(segment, server)

    def test_unregister(self, plb_kernel):
        kernel = plb_kernel
        machine = Machine(kernel)
        registry = SegmentServerRegistry(kernel)
        segment = kernel.create_segment("s", 2)
        server = _GrantingServer(kernel, segment)
        registry.register(segment, server)
        assert registry.unregister(segment)
        assert not registry.unregister(segment)
        domain = kernel.create_domain("d")
        kernel.attach(domain, segment, Rights.NONE)
        with pytest.raises(SegmentationViolation):
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))


class TestAppendOnlyLog:
    def make(self, model="plb", pages=4):
        kernel = Kernel(model)
        machine = Machine(kernel)
        registry = SegmentServerRegistry(kernel)
        log_segment = kernel.create_segment("log", pages)
        log = AppendOnlyLogServer(kernel, registry, log_segment)
        writer = kernel.create_domain("writer")
        log.admit(writer)
        return kernel, machine, log, writer, log_segment

    @pytest.mark.parametrize("model", MODELS)
    def test_appending_advances_frontier(self, model):
        kernel, machine, log, writer, segment = self.make(model)
        # Fill page 0, then append into page 1: one fault, sealed page 0.
        machine.write(writer, kernel.params.vaddr(segment.vpn_at(0)))
        result = machine.write(writer, kernel.params.vaddr(segment.vpn_at(1)))
        assert result.protection_faults == 1
        assert log.frontier == 1
        assert kernel.stats["segserver.log_page_sealed"] == 1

    @pytest.mark.parametrize("model", MODELS)
    def test_sealed_history_immutable(self, model):
        kernel, machine, log, writer, segment = self.make(model)
        machine.write(writer, kernel.params.vaddr(segment.vpn_at(1)))  # advance
        with pytest.raises(SegmentationViolation):
            machine.write(writer, kernel.params.vaddr(segment.vpn_at(0)))
        assert kernel.stats["segserver.log_tamper_refused"] >= 1

    @pytest.mark.parametrize("model", MODELS)
    def test_history_readable(self, model):
        kernel, machine, log, writer, segment = self.make(model)
        machine.write(writer, kernel.params.vaddr(segment.vpn_at(1)))
        machine.read(writer, kernel.params.vaddr(segment.vpn_at(0)))

    def test_skipping_ahead_refused(self):
        kernel, machine, log, writer, segment = self.make()
        with pytest.raises(SegmentationViolation):
            machine.write(writer, kernel.params.vaddr(segment.vpn_at(3)))
        assert log.frontier == 0

    def test_log_full(self):
        kernel, machine, log, writer, segment = self.make(pages=2)
        machine.write(writer, kernel.params.vaddr(segment.vpn_at(1)))  # frontier 1
        with pytest.raises(SegmentationViolation):
            # No page 2 to advance into: the log is full.
            machine.write(writer, kernel.params.vaddr(segment.vpn_at(1) + 4096))

    def test_reader_cannot_append(self):
        kernel, machine, log, writer, segment = self.make()
        reader = kernel.create_domain("reader")
        log.admit(reader, reader_only=True)
        machine.read(reader, kernel.params.vaddr(segment.vpn_at(0)))
        with pytest.raises(SegmentationViolation):
            machine.write(reader, kernel.params.vaddr(segment.vpn_at(0)))

    def test_multiple_appenders_share_frontier(self):
        kernel, machine, log, writer, segment = self.make()
        second = kernel.create_domain("writer-2")
        log.admit(second)
        machine.write(writer, kernel.params.vaddr(segment.vpn_at(0)))
        machine.write(second, kernel.params.vaddr(segment.vpn_at(0)))
        # Either appender can trigger the advance; both follow it.
        machine.write(second, kernel.params.vaddr(segment.vpn_at(1)))
        assert log.frontier == 1
        machine.write(writer, kernel.params.vaddr(segment.vpn_at(1)))
