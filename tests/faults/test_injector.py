"""The fault injector: zero overhead when idle, faults where scheduled."""

from __future__ import annotations

import pytest

from repro.core.rights import Rights
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    TransientDiskError,
)
from repro.os.kernel import MODELS, Kernel, SegmentationViolation
from repro.os.pager import UserLevelPager
from repro.sim.machine import Machine


def small_run(kernel):
    """A deterministic mixed workload: references, verbs, paging."""
    pager = UserLevelPager(kernel)
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    other = kernel.create_domain("other")
    segment = kernel.create_segment("data", 6)
    kernel.attach(domain, segment, Rights.RW)
    kernel.attach(other, segment, Rights.READ)
    for vpn in segment.vpns():
        machine.write(domain, kernel.params.vaddr(vpn))
    pager.page_out(segment.base_vpn)
    pager.page_in(segment.base_vpn)
    kernel.set_pages_rights_all_domains((segment.base_vpn + 1,), Rights.READ)
    for vpn in segment.vpns():
        machine.read(other, kernel.params.vaddr(vpn))
    kernel.detach(other, segment)
    return kernel.stats


class TestZeroOverheadWhenOff:
    @pytest.mark.parametrize("model", MODELS)
    def test_armed_idle_injector_leaves_stats_byte_identical(self, model):
        baseline = small_run(Kernel(model, n_frames=32))

        kernel = Kernel(model, n_frames=32)
        injector = FaultInjector(FaultPlan(events=()))
        injector.arm(kernel)
        for index in range(64):
            injector.tick(index)
        observed = small_run(kernel)
        injector.disarm()

        assert list(observed.items()) == list(baseline.items())

    @pytest.mark.parametrize("model", MODELS)
    def test_disarm_unhooks_the_shootdown_bus(self, model):
        """Arming hooks the bus (no method wrapping); disarm restores it."""
        kernel = Kernel(model, n_frames=32)
        injector = FaultInjector(FaultPlan(events=()))
        assert kernel.bus.hook is None
        injector.arm(kernel)
        assert kernel.bus.hook is not None
        injector.disarm()
        assert kernel.bus.hook is None
        assert kernel.backing.injector is None

    def test_second_injector_cannot_steal_the_bus(self):
        kernel = Kernel("plb", n_frames=32)
        first = FaultInjector(FaultPlan(events=()))
        first.arm(kernel)
        second = FaultInjector(FaultPlan(events=()))
        with pytest.raises(RuntimeError):
            second.arm(kernel)
        first.disarm()


class TestDiskSite:
    def test_transient_write_fires_at_indexed_op(self):
        kernel = Kernel("plb")
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "transient_write", at=1),))
        )
        injector.arm(kernel)
        kernel.backing.write(0x10, b"first ok")
        with pytest.raises(TransientDiskError):
            kernel.backing.write(0x11, b"second fails")
        kernel.backing.write(0x12, b"third ok")
        assert kernel.stats["faults.injected"] == 1

    def test_transient_read_arg_spans_consecutive_reads(self):
        kernel = Kernel("plb")
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "transient_read", at=0, arg=2),))
        )
        injector.arm(kernel)
        kernel.backing.write(0x10, b"data")
        for _ in range(2):
            with pytest.raises(TransientDiskError):
                kernel.backing.read(0x10)
        assert kernel.backing.read(0x10) == b"data"

    def test_bitrot_flips_exactly_one_bit(self):
        from repro.faults.errors import CorruptPageError

        kernel = Kernel("plb")
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "bitrot", at=0),), seed=4)
        )
        injector.arm(kernel)
        kernel.backing.write(0x10, bytes(64))
        with pytest.raises(CorruptPageError):
            kernel.backing.read(0x10)
        # The stored image itself is untouched; re-reads succeed.
        assert kernel.backing.read(0x10) == bytes(64)

    def test_torn_write_caught_by_checksum_on_read(self):
        from repro.faults.errors import CorruptPageError

        kernel = Kernel("plb")
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "torn_write", at=0),))
        )
        injector.arm(kernel)
        kernel.backing.write(0x10, b"full page image")
        with pytest.raises(CorruptPageError):
            kernel.backing.read(0x10)


class TestShootdownSite:
    def test_dropped_shootdown_leaves_stale_rights_until_scrub(self):
        from repro.faults.scrub import Scrubber

        kernel = Kernel("plb")
        machine = Machine(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 2)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)  # caches RW in the PLB

        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("shootdown", "drop", at=0, arg=99),))
        )
        injector.arm(kernel)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.NONE)
        # The revocation's shootdown was swallowed: the stale PLB entry
        # still grants write.
        assert not machine.write(domain, vaddr).faulted
        repairs = Scrubber(kernel).scrub()
        assert repairs >= 1
        with pytest.raises(SegmentationViolation):
            machine.write(domain, vaddr)


class TestShootdownBatchStream:
    """Range shootdowns occupy ONE index in the injector's shootdown
    stream per target CPU — a batch is a single interception unit."""

    def staged_smp(self, n_cpus: int = 3):
        from repro.core.rights import AccessType
        from repro.sim.machine import SMPMachine

        kernel = Kernel("plb", n_frames=64, n_cpus=n_cpus)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 4)
        kernel.attach(domain, segment, Rights.RW)
        smp = SMPMachine(kernel)
        for cpu in range(n_cpus):
            for vpn in segment.vpns():
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn),
                             AccessType.WRITE)
        kernel.set_current_cpu(0)
        return kernel, domain, segment, smp

    def test_batch_counts_once_per_cpu_in_the_fault_stream(self):
        kernel, domain, segment, _smp = self.staged_smp()
        injector = FaultInjector(FaultPlan(events=()))
        injector.arm(kernel)
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        injector.disarm()
        # 1 local + 2 remote batch messages: 3 stream slots, not 12
        # per-page slots — plan indices address whole batches.
        assert injector._invalidations == 3

    def test_drop_arg_one_loses_exactly_one_cpus_batch(self):
        from repro.core.rights import AccessType

        kernel, domain, segment, smp = self.staged_smp()
        # Index 0 is the local delivery; index 1 is CPU 1's batch.
        injector = FaultInjector(FaultPlan(
            events=(FaultEvent("shootdown", "drop", at=1, arg=1),)
        ))
        injector.arm(kernel)
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        injector.disarm()
        vaddr = kernel.params.vaddr(segment.base_vpn)
        # CPU 1 lost its whole batch and still grants write; CPU 2's
        # batch (stream index 2) was delivered and revokes.
        assert not smp.touch_on(1, domain, vaddr, AccessType.WRITE).faulted
        with pytest.raises(SegmentationViolation):
            smp.touch_on(2, domain, vaddr, AccessType.WRITE)
