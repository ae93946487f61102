"""Kernel tests common to all three memory-system models.

These run against the parametrized ``kernel`` fixture, so every
behaviour here holds identically for the PLB, page-group and
conventional systems — the OS semantics are model-independent even
though the hardware mechanics differ.
"""

from __future__ import annotations

import pytest

from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel, KernelError, SegmentationViolation
from repro.sim.machine import Machine

from tests.conftest import make_attached_segment


class TestDomainsAndSegments:
    def test_create_domain_ids_unique(self, kernel):
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        assert a.pd_id != b.pd_id

    def test_create_segment_allocates_disjoint_ranges(self, kernel):
        s1 = kernel.create_segment("s1", 8)
        s2 = kernel.create_segment("s2", 8)
        assert s1.end_vpn <= s2.base_vpn or s2.end_vpn <= s1.base_vpn

    def test_segment_at_lookup(self, kernel):
        segment = kernel.create_segment("s", 4)
        assert kernel.segment_at(segment.base_vpn) is segment
        assert kernel.segment_at(segment.end_vpn - 1) is segment
        assert kernel.segment_at(segment.end_vpn) is None

    def test_populated_segments_are_resident(self, kernel):
        segment = kernel.create_segment("s", 4)
        for vpn in segment.vpns():
            assert kernel.translations.is_resident(vpn)

    def test_unpopulated_segments_demand_zero(self, kernel):
        segment = kernel.create_segment("s", 4, populate=False)
        domain = kernel.create_domain("d")
        kernel.attach(domain, segment, Rights.RW)
        machine = Machine(kernel)
        result = machine.write(domain, kernel.params.vaddr(segment.base_vpn))
        assert result.page_faults == 1
        assert kernel.translations.is_resident(segment.base_vpn)

    def test_double_attach_rejected(self, kernel):
        domain, segment = make_attached_segment(kernel)
        with pytest.raises(KernelError):
            kernel.attach(domain, segment, Rights.READ)

    def test_detach_unattached_rejected(self, kernel):
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 2)
        with pytest.raises(KernelError):
            kernel.detach(domain, segment)


class TestAccessSemantics:
    def test_attached_rw_can_read_write(self, kernel):
        domain, segment = make_attached_segment(kernel)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        assert not machine.read(domain, vaddr).faulted or True
        machine.write(domain, vaddr)

    def test_read_only_attachment_blocks_writes(self, kernel):
        domain, segment = make_attached_segment(kernel, rights=Rights.READ)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.read(domain, vaddr)
        with pytest.raises(SegmentationViolation):
            machine.write(domain, vaddr)

    def test_unattached_segment_inaccessible(self, kernel):
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 2)
        machine = Machine(kernel)
        with pytest.raises(SegmentationViolation):
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))

    def test_detach_revokes_access(self, kernel):
        domain, segment = make_attached_segment(kernel)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.read(domain, vaddr)
        kernel.detach(domain, segment)
        with pytest.raises(SegmentationViolation):
            machine.read(domain, vaddr)

    def test_detach_then_reattach(self, kernel):
        domain, segment = make_attached_segment(kernel)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        kernel.detach(domain, segment)
        kernel.attach(domain, segment, Rights.READ)
        machine.read(domain, vaddr)
        with pytest.raises(SegmentationViolation):
            machine.write(domain, vaddr)

    def test_isolation_between_domains(self, kernel):
        """One domain's attachment grants nothing to another."""
        domain, segment = make_attached_segment(kernel)
        other = kernel.create_domain("other")
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        with pytest.raises(SegmentationViolation):
            machine.read(other, vaddr)

    def test_outside_any_segment_faults(self, kernel):
        domain = kernel.create_domain("d")
        machine = Machine(kernel)
        with pytest.raises(SegmentationViolation):
            machine.read(domain, 0x7FFF_0000_0000)


class TestPermissionChanges:
    def test_set_page_rights_downgrades_one_domain(self, kernel):
        domain, segment = make_attached_segment(kernel)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.READ)
        machine.read(domain, vaddr)
        with pytest.raises(SegmentationViolation):
            machine.write(domain, vaddr)

    def test_set_page_rights_upgrade(self, kernel):
        domain, segment = make_attached_segment(kernel, rights=Rights.READ)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.read(domain, vaddr)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.RW)
        machine.write(domain, vaddr)

    def test_other_pages_unaffected(self, kernel):
        domain, segment = make_attached_segment(kernel)
        machine = Machine(kernel)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.NONE)
        machine.write(domain, kernel.params.vaddr(segment.base_vpn + 1))
        with pytest.raises(SegmentationViolation):
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))

    def test_set_page_rights_requires_attachment(self, kernel):
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 2)
        with pytest.raises(KernelError):
            kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.READ)

    def test_set_segment_rights_uniform(self, kernel):
        domain, segment = make_attached_segment(kernel)
        machine = Machine(kernel)
        for vpn in segment.vpns():
            machine.write(domain, kernel.params.vaddr(vpn))
        kernel.set_segment_rights(domain, segment, Rights.READ)
        for vpn in segment.vpns():
            machine.read(domain, kernel.params.vaddr(vpn))
            with pytest.raises(SegmentationViolation):
                machine.write(domain, kernel.params.vaddr(vpn))


class TestUnmap:
    def test_unmap_page_removes_translation(self, kernel):
        domain, segment = make_attached_segment(kernel)
        vpn = segment.base_vpn
        pfn = kernel.unmap_pages((vpn,))[vpn]
        assert not kernel.translations.is_resident(vpn)
        assert kernel.memory.is_allocated(pfn)  # caller still owns it

    def test_free_page_releases_frame(self, kernel):
        domain, segment = make_attached_segment(kernel)
        free_before = kernel.memory.free_frames
        kernel.free_pages((segment.base_vpn,))
        assert kernel.memory.free_frames == free_before + 1

    def test_unmap_nonresident_raises(self, kernel):
        kernel.create_segment("s", 2, populate=False)
        with pytest.raises(KernelError):
            kernel.unmap_pages((0x100,))

    def test_access_after_unmap_demand_zeroes(self, kernel):
        """An unmapped (not paged-out) page faults and gets a new frame."""
        domain, segment = make_attached_segment(kernel)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        kernel.free_pages((segment.base_vpn,))
        result = machine.read(domain, vaddr)
        assert result.page_faults >= 1
        assert kernel.translations.is_resident(segment.base_vpn)


class TestSwitching:
    def test_switch_changes_current_domain(self, kernel):
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        kernel.switch_to(a)
        assert kernel.system.current_domain == a.pd_id
        kernel.switch_to(b)
        assert kernel.system.current_domain == b.pd_id

    def test_switch_counts_kernel_trap(self, kernel):
        domain = kernel.create_domain("a")
        before = kernel.stats["kernel.trap"]
        kernel.switch_to(domain)
        assert kernel.stats["kernel.trap"] == before + 1


class TestModelValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            Kernel("bogus")

    def test_pagegroup_primitives_rejected_elsewhere(self, kernel):
        if kernel.model == "pagegroup":
            pytest.skip("primitive is valid on the page-group model")
        domain, segment = make_attached_segment(kernel)
        with pytest.raises(KernelError):
            kernel.move_pages_to_group((segment.base_vpn,), 99)
        with pytest.raises(KernelError):
            kernel.grant_group(domain, 99)
