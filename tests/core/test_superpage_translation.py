"""Tests for multiple translation page sizes (§4.3 / Talluri et al.)."""

from __future__ import annotations

import pytest

from repro.core.rights import Rights
from repro.hardware.memory import OutOfMemoryError, PhysicalMemory
from repro.hardware.tlb import TranslationTLB
from repro.os.kernel import Kernel, KernelError
from repro.sim.machine import Machine


class TestContiguousAllocation:
    def test_frames_contiguous_and_distinct(self):
        memory = PhysicalMemory(32)
        frames = memory.allocate_contiguous(8)
        pfns = [frame.pfn for frame in frames]
        assert pfns == list(range(pfns[0], pfns[0] + 8))

    def test_alignment_honored(self):
        memory = PhysicalMemory(64)
        memory.allocate()  # disturb the free list
        frames = memory.allocate_contiguous(16, align=16)
        assert frames[0].pfn % 16 == 0

    def test_fragmentation_detected(self):
        memory = PhysicalMemory(8)
        held = [memory.allocate() for _ in range(8)]
        # Free alternating frames: max run is 1.
        for frame in held[::2]:
            memory.release(frame.pfn)
        with pytest.raises(OutOfMemoryError):
            memory.allocate_contiguous(2)

    def test_interacts_with_single_allocation(self):
        memory = PhysicalMemory(16)
        run = memory.allocate_contiguous(4)
        single = memory.allocate()
        assert single.pfn not in {frame.pfn for frame in run}

    def test_validation(self):
        memory = PhysicalMemory(8)
        with pytest.raises(ValueError):
            memory.allocate_contiguous(0)
        with pytest.raises(ValueError):
            memory.allocate_contiguous(2, align=3)


class TestMultiSizeTLB:
    def test_superpage_entry_covers_unit(self):
        tlb = TranslationTLB(8, levels=(4, 0))
        tlb.fill(0x100, 0x40, level=4)  # pages 0x100..0x10f -> 0x40..0x4f
        for offset in range(16):
            entry = tlb.lookup(0x100 + offset)
            assert entry is not None
            assert entry.pfn_for(0x100 + offset) == 0x40 + offset
        assert len(tlb) == 1
        assert tlb.lookup(0x110) is None

    def test_reach(self):
        tlb = TranslationTLB(8, levels=(4, 0))
        tlb.fill(0x100, 0x40, level=4)
        tlb.fill(0x200, 0x90, level=0)
        assert tlb.reach_pages() == 17

    def test_hit_miss_counted_once_per_lookup(self):
        tlb = TranslationTLB(8, levels=(4, 0))
        tlb.lookup(0x100)
        assert tlb.stats["tlb.miss"] == 1
        tlb.fill(0x100, 0x40, level=4)
        tlb.lookup(0x105)
        assert tlb.stats["tlb.hit"] == 1

    def test_invalidate_probes_levels(self):
        tlb = TranslationTLB(8, levels=(4, 0))
        tlb.fill(0x100, 0x40, level=4)
        assert tlb.invalidate_pages((0x107,)) == 1  # any covered page kills it
        assert tlb.lookup(0x100) is None

    def test_fill_requires_configured_level(self):
        tlb = TranslationTLB(8)
        with pytest.raises(ValueError):
            tlb.fill(0x100, 0x40, level=4)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            TranslationTLB(8, levels=())
        with pytest.raises(ValueError):
            TranslationTLB(8, levels=(-1,))


class TestKernelSuperpageTranslation:
    def make(self, tlb_levels=(4, 0)):
        kernel = Kernel("plb", system_options={"tlb_levels": tlb_levels,
                                               "tlb_entries": 8})
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("big", 16, contiguous=True)
        kernel.attach(domain, segment, Rights.RW)
        return kernel, machine, domain, segment

    def test_one_tlb_entry_for_whole_segment(self):
        kernel, machine, domain, segment = self.make()
        for vpn in segment.vpns():
            machine.write(domain, kernel.params.vaddr(vpn))
        assert kernel.stats["tlb.fill"] == 1
        assert kernel.system.tlb.reach_pages() == 16

    def test_data_lands_in_correct_frames(self):
        kernel, machine, domain, segment = self.make()
        base_pfn = kernel._contiguous[segment.seg_id]
        for index, vpn in enumerate(segment.vpns()):
            assert kernel.translations.pfn_for(vpn) == base_pfn + index

    def test_per_page_without_contiguous(self):
        kernel = Kernel("plb", system_options={"tlb_levels": (4, 0)})
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("plain", 16)
        kernel.attach(domain, segment, Rights.RW)
        for vpn in segment.vpns():
            machine.read(domain, kernel.params.vaddr(vpn))
        assert kernel.stats["tlb.fill"] == 16

    def test_unmap_demotes_to_per_page(self):
        kernel, machine, domain, segment = self.make()
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        kernel.free_pages((segment.vpn_at(3),))
        assert segment.seg_id not in kernel._contiguous
        # Remaining pages refill as per-page entries.
        machine.read(domain, kernel.params.vaddr(segment.vpn_at(5)))
        entry = kernel.system.tlb.lookup(segment.vpn_at(5))
        assert entry is not None and entry.level == 0

    def test_non_power_of_two_rejected(self):
        kernel = Kernel("plb")
        with pytest.raises(KernelError):
            kernel.create_segment("odd", 12, contiguous=True)

    def test_unsupported_level_falls_back(self):
        """A TLB without level 4 gets per-page translations."""
        kernel = Kernel("plb", system_options={"tlb_levels": (0,)})
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("big", 16, contiguous=True)
        kernel.attach(domain, segment, Rights.RW)
        for vpn in segment.vpns():
            machine.read(domain, kernel.params.vaddr(vpn))
        assert kernel.stats["tlb.fill"] == 16
