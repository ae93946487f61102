"""Model-specific kernel mechanics: each model must manipulate its
hardware structures exactly as Table 1 prescribes."""

from __future__ import annotations

import pytest

from repro.core.rights import Rights
from repro.os.kernel import Kernel, KernelError
from repro.sim.machine import Machine


def attached(kernel, n_pages=8, rights=Rights.RW, name="seg"):
    domain = kernel.create_domain("d-" + name)
    segment = kernel.create_segment(name, n_pages)
    kernel.attach(domain, segment, rights)
    return domain, segment


class TestPLBModelMechanics:
    """The domain-page column of Table 1."""

    def test_attach_touches_no_hardware(self, plb_kernel):
        kernel = plb_kernel
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 8)
        before = kernel.stats.snapshot()
        kernel.attach(domain, segment, Rights.RW)
        delta = kernel.stats.delta(before)
        # Only the syscall itself: no PLB or TLB manipulation.
        assert delta.total("plb") == 0
        assert delta.total("tlb") == 0

    def test_rights_fault_in_one_page_at_a_time(self, plb_kernel):
        kernel = plb_kernel
        domain, segment = attached(kernel)
        machine = Machine(kernel)
        for index, vpn in enumerate(segment.vpns()):
            machine.read(domain, kernel.params.vaddr(vpn))
            assert kernel.stats["plb.fill"] == index + 1

    def test_detach_sweeps_plb(self, plb_kernel):
        kernel = plb_kernel
        domain, segment = attached(kernel)
        machine = Machine(kernel)
        for vpn in segment.vpns():
            machine.read(domain, kernel.params.vaddr(vpn))
        before = kernel.stats.snapshot()
        kernel.detach(domain, segment)
        delta = kernel.stats.delta(before)
        assert delta["plb.sweep_inspected"] >= 8
        assert delta["plb.sweep_removed"] == 8

    def test_set_page_rights_updates_single_entry(self, plb_kernel):
        kernel = plb_kernel
        domain, segment = attached(kernel)
        machine = Machine(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        before = kernel.stats.snapshot()
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.NONE)
        delta = kernel.stats.delta(before)
        assert delta["plb.update"] == 1
        assert delta.total("plb.sweep_inspected") == 0

    def test_set_rights_all_updates_one_entry_per_sharer(self, plb_kernel):
        """§4.1.3: entries changed = number of sharing domains."""
        kernel = plb_kernel
        domain, segment = attached(kernel)
        others = [kernel.create_domain(f"o{i}") for i in range(3)]
        machine = Machine(kernel)
        for sharer in others:
            kernel.attach(sharer, segment, Rights.RW)
        for d in [domain] + others:
            machine.read(d, kernel.params.vaddr(segment.base_vpn))
        before = kernel.stats.snapshot()
        kernel.set_pages_rights_all_domains((segment.base_vpn,), Rights.NONE)
        delta = kernel.stats.delta(before)
        assert delta["plb.sweep_updated"] == 4

    def test_unmap_requires_no_plb_maintenance(self, plb_kernel):
        """§4.1.3: 'no maintenance of the PLB is required'."""
        kernel = plb_kernel
        domain, segment = attached(kernel)
        machine = Machine(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        plb_resident = len(kernel.system.plb)
        kernel.unmap_pages((segment.base_vpn,))
        assert len(kernel.system.plb) == plb_resident  # entries drain lazily
        assert segment.base_vpn not in kernel.system.tlb

    def test_plb_replication_for_shared_pages(self, plb_kernel):
        kernel = plb_kernel
        domain, segment = attached(kernel)
        other = kernel.create_domain("other")
        kernel.attach(other, segment, Rights.READ)
        machine = Machine(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        machine.read(other, kernel.params.vaddr(segment.base_vpn))
        assert kernel.system.plb.entries_for_page(segment.base_vpn) == 2
        assert len(kernel.system.tlb) == 1  # translation not replicated


class TestPageGroupModelMechanics:
    """The page-group column of Table 1."""

    def test_attach_grants_group(self, pagegroup_kernel):
        kernel = pagegroup_kernel
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 4)
        kernel.attach(domain, segment, Rights.RW)
        assert domain.holds_group(segment.aid)

    def test_read_only_attach_sets_write_disable(self, pagegroup_kernel):
        kernel = pagegroup_kernel
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 4)
        kernel.attach(domain, segment, Rights.READ)
        entry = domain.groups[segment.aid]
        assert entry.write_disable

    def test_detach_drops_group_constant_work(self, pagegroup_kernel):
        """Detach cost is independent of pages touched (Table 1)."""
        kernel = pagegroup_kernel
        domain, segment = attached(kernel, n_pages=16)
        machine = Machine(kernel)
        for vpn in segment.vpns():
            machine.read(domain, kernel.params.vaddr(vpn))
        before = kernel.stats.snapshot()
        kernel.detach(domain, segment)
        delta = kernel.stats.delta(before)
        assert not domain.holds_group(segment.aid)
        # No per-entry sweeps anywhere.
        assert delta.total("plb") == 0
        assert delta["pgtlb.update"] == 0

    def test_set_rights_all_is_single_tlb_update(self, pagegroup_kernel):
        kernel = pagegroup_kernel
        domain, segment = attached(kernel)
        machine = Machine(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        before = kernel.stats.snapshot()
        kernel.set_pages_rights_all_domains((segment.base_vpn,), Rights.READ)
        delta = kernel.stats.delta(before)
        assert delta["pgtlb.update"] == 1

    def test_per_domain_page_rights_move_page_to_private_group(
        self, pagegroup_kernel
    ):
        """§4.1.2: per-domain changes need additional page-groups."""
        kernel = pagegroup_kernel
        domain, segment = attached(kernel)
        original_aid = kernel.group_table.aid_of(segment.base_vpn)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.RW)
        new_aid = kernel.group_table.aid_of(segment.base_vpn)
        assert new_aid != original_aid
        assert domain.holds_group(new_aid)

    def test_private_group_excludes_other_domains(self, pagegroup_kernel):
        """The global nature of page-group protection: moving a page to
        a writer's group removes other domains' access (§4.1.2)."""
        kernel = pagegroup_kernel
        domain, segment = attached(kernel)
        other = kernel.create_domain("other")
        kernel.attach(other, segment, Rights.READ)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.read(other, vaddr)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.RW)
        from repro.os.kernel import SegmentationViolation

        with pytest.raises(SegmentationViolation):
            machine.read(other, vaddr)

    def test_move_page_to_group_updates_tlb_in_place(self, pagegroup_kernel):
        kernel = pagegroup_kernel
        domain, segment = attached(kernel)
        machine = Machine(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        target = kernel.create_page_group()
        kernel.grant_group(domain, target)
        before = kernel.stats.snapshot()
        vpn = segment.base_vpn
        old = kernel.move_pages_to_group((vpn,), target, rights=Rights.RW)[vpn]
        delta = kernel.stats.delta(before)
        assert old == segment.aid
        assert delta["pgtlb.update"] == 1
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))

    def test_grant_installs_for_current_domain_only(self, pagegroup_kernel):
        kernel = pagegroup_kernel
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        kernel.switch_to(a)
        group = kernel.create_page_group()
        kernel.grant_group(b, group)  # b is not current
        assert group not in kernel.system.groups  # type: ignore[operator]
        kernel.grant_group(a, group)
        assert group in kernel.system.groups  # type: ignore[operator]

    def test_revoke_group(self, pagegroup_kernel):
        kernel = pagegroup_kernel
        domain = kernel.create_domain("d")
        kernel.switch_to(domain)
        group = kernel.create_page_group()
        kernel.grant_group(domain, group)
        kernel.revoke_group(domain, group)
        assert not domain.holds_group(group)
        assert group not in kernel.system.groups  # type: ignore[operator]

    def test_group_cache_purged_on_switch(self, pagegroup_kernel):
        kernel = pagegroup_kernel
        domain, segment = attached(kernel)
        other = kernel.create_domain("other")
        machine = Machine(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        assert len(kernel.system.groups) > 0  # type: ignore[arg-type]
        kernel.switch_to(other)
        assert len(kernel.system.groups) == 0  # type: ignore[arg-type]


class TestConventionalModelMechanics:
    """The Section 3.1 baseline's mechanics."""

    def test_attach_replicates_ptes(self, conventional_kernel):
        kernel = conventional_kernel
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 8)
        before = kernel.stats.snapshot()
        kernel.attach(domain, segment, Rights.RW)
        delta = kernel.stats.delta(before)
        assert delta["kernel.pte_replicated"] == 8
        assert kernel.linear_tables[domain.pd_id].mapped_entries == 8

    def test_sharing_duplicates_tables(self, conventional_kernel):
        kernel = conventional_kernel
        segment = kernel.create_segment("s", 8)
        domains = [kernel.create_domain(f"d{i}") for i in range(3)]
        for domain in domains:
            kernel.attach(domain, segment, Rights.RW)
        from repro.core.conventional import duplication_report

        report = duplication_report(
            {d.pd_id: kernel.linear_tables[d.pd_id] for d in domains}
        )
        assert report["duplicated_entries"] == 16

    def test_set_rights_all_touches_every_replica(self, conventional_kernel):
        kernel = conventional_kernel
        segment = kernel.create_segment("s", 4)
        domains = [kernel.create_domain(f"d{i}") for i in range(3)]
        machine = Machine(kernel)
        for domain in domains:
            kernel.attach(domain, segment, Rights.RW)
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        before = kernel.stats.snapshot()
        kernel.set_pages_rights_all_domains((segment.base_vpn,), Rights.NONE)
        delta = kernel.stats.delta(before)
        assert delta["asidtlb.update"] == 3

    def test_unmap_sweeps_all_replicas(self, conventional_kernel):
        kernel = conventional_kernel
        segment = kernel.create_segment("s", 4)
        domains = [kernel.create_domain(f"d{i}") for i in range(3)]
        machine = Machine(kernel)
        for domain in domains:
            kernel.attach(domain, segment, Rights.RW)
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        assert kernel.system.tlb.replicas(segment.base_vpn) == 3
        kernel.unmap_pages((segment.base_vpn,))
        assert kernel.system.tlb.replicas(segment.base_vpn) == 0

    def test_detach_removes_mirror_and_tlb_range(self, conventional_kernel):
        kernel = conventional_kernel
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 4)
        kernel.attach(domain, segment, Rights.RW)
        machine = Machine(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        kernel.detach(domain, segment)
        assert kernel.linear_tables[domain.pd_id].mapped_entries == 0
        assert kernel.system.tlb.lookup(domain.pd_id, segment.base_vpn) is None

    def test_late_populate_updates_mirrors(self, conventional_kernel):
        kernel = conventional_kernel
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 4, populate=False)
        kernel.attach(domain, segment, Rights.RW)
        assert kernel.linear_tables[domain.pd_id].mapped_entries == 0
        kernel.populate_page(segment.base_vpn)
        assert kernel.linear_tables[domain.pd_id].mapped_entries == 1
