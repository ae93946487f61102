"""Kernel rights changes must rewrite, not orphan, resident TLB state.

The stale-rights bug class: a protection verb updates the kernel tables
but leaves a hardware entry (AID-TLB tag/rights, ASID-TLB rights)
carrying the old grant.  These tests pin the in-place rewrite for the
page-group and conventional models and cross-check with the structural
invariant sweep (``repro.check.invariants``).
"""

from __future__ import annotations

import pytest

from repro.check import check_invariants
from repro.core.mmu import ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel


def touch(kernel, domain, vpn, access=AccessType.READ):
    kernel.switch_to(domain)
    return kernel.system.access(kernel.params.vaddr(vpn), access)


class TestPageGroupTLBRights:
    def make(self):
        kernel = Kernel("pagegroup")
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        segment = kernel.create_segment("s", 4)
        kernel.attach(a, segment, Rights.RW)
        kernel.attach(b, segment, Rights.RW)
        return kernel, a, b, segment

    def test_set_rights_all_rewrites_resident_entry(self):
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)  # AID-TLB entry now resident with RW
        kernel.set_pages_rights_all_domains((vpn,), Rights.READ)
        entries = dict(kernel.system.tlb.items())
        assert entries[vpn].rights == Rights.READ
        with pytest.raises(ProtectionFault):
            touch(kernel, a, vpn, AccessType.WRITE)
        assert check_invariants(kernel) == []

    def test_set_page_rights_retags_resident_entry(self):
        """The page moves to the domain's private group; the resident
        TLB entry must carry the new AID or the old group keeps access."""
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)
        kernel.set_pages_rights(a, (vpn,), Rights.READ)
        entries = dict(kernel.system.tlb.items())
        assert entries[vpn].aid == kernel.group_table.aid_of(vpn)
        assert entries[vpn].rights == Rights.READ
        # The other domain does not hold the private group.
        with pytest.raises(ProtectionFault) as exc:
            touch(kernel, b, vpn)
        assert exc.value.reason.value == "unattached"
        assert check_invariants(kernel) == []

    def test_revoked_group_rights_deny_write_after_hit(self):
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn, AccessType.WRITE)  # entry resident, RW
        kernel.set_pages_rights(a, (vpn,), Rights.READ)
        with pytest.raises(ProtectionFault) as exc:
            touch(kernel, a, vpn, AccessType.WRITE)
        assert exc.value.reason.value == "denied"


class TestConventionalTLBRights:
    def make(self):
        kernel = Kernel("conventional")
        a = kernel.create_domain("a")
        segment = kernel.create_segment("s", 4)
        kernel.attach(a, segment, Rights.RW)
        return kernel, a, segment

    def test_set_page_rights_rewrites_resident_entry(self):
        kernel, a, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)  # ASID-TLB entry resident with RW
        kernel.set_pages_rights(a, (vpn,), Rights.READ)
        entries = dict(kernel.system.tlb.items())
        assert entries[(a.pd_id, vpn)].rights == Rights.READ
        with pytest.raises(ProtectionFault):
            touch(kernel, a, vpn, AccessType.WRITE)
        assert check_invariants(kernel) == []

    def test_detach_leaves_no_replica_behind(self):
        kernel, a, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)
        kernel.detach(a, segment)
        assert not any(
            key[0] == a.pd_id and segment.base_vpn <= key[1] < segment.base_vpn + 4
            for key, _ in kernel.system.tlb.items()
        )
        assert check_invariants(kernel) == []
