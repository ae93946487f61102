"""Cross-model invariant tests (the DESIGN.md §7 list), several driven
by hypothesis over random operation sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mmu import PLBSystem, ProtectionFault, PageFault
from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel, SegmentationViolation
from repro.sim.machine import Machine

MODELS = ("plb", "pagegroup", "conventional")


class TestSASOSInvariants:
    @pytest.mark.parametrize("model", MODELS)
    def test_one_translation_per_vpn(self, model):
        """No homonyms: a VPN has at most one frame, ever."""
        kernel = Kernel(model)
        segments = [kernel.create_segment(f"s{i}", 4) for i in range(4)]
        seen: dict[int, int] = {}
        for segment in segments:
            for vpn in segment.vpns():
                pfn = kernel.translations.pfn_for(vpn)
                assert pfn is not None
                assert vpn not in seen
                seen[vpn] = pfn

    @pytest.mark.parametrize("model", MODELS)
    def test_one_vpn_per_frame(self, model):
        """No synonyms: each frame backs exactly one virtual page."""
        kernel = Kernel(model)
        for i in range(4):
            kernel.create_segment(f"s{i}", 4)
        frames: dict[int, int] = {}
        for vpn in kernel.translations.resident_vpns():
            pfn = kernel.translations.pfn_for(vpn)
            assert pfn not in frames
            frames[pfn] = vpn

    @pytest.mark.parametrize("model", MODELS)
    def test_vivt_cache_never_duplicates_physical_lines(self, model):
        """The §2.2 payoff: a SASOS VIVT cache holds each physical line
        in exactly one place."""
        kernel = Kernel(
            model,
            system_options={"detect_hazards": True}
            if model == "plb"
            else {"detect_hazards": True},
        )
        machine = Machine(kernel)
        domains = [kernel.create_domain(f"d{i}") for i in range(3)]
        segment = kernel.create_segment("shared", 8)
        for domain in domains:
            kernel.attach(domain, segment, Rights.RW)
        for repeat in range(2):
            for domain in domains:
                for vpn in segment.vpns():
                    machine.write(domain, kernel.params.vaddr(vpn, 64))
        assert kernel.stats["dcache.synonym_hazard"] == 0
        assert kernel.stats["dcache.homonym_hazard"] == 0


class TestHardwareNeverExceedsTables:
    """The hardware can never grant rights beyond the OS tables."""

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 2),  # domain index
                st.integers(0, 7),  # page index
                st.sampled_from([Rights.NONE, Rights.READ, Rights.RW]),
                st.booleans(),  # write access?
            ),
            min_size=1,
            max_size=40,
        ),
        model=st.sampled_from(MODELS),
    )
    def test_random_rights_churn(self, ops, model):
        kernel = Kernel(model)
        machine = Machine(kernel)
        domains = [kernel.create_domain(f"d{i}") for i in range(3)]
        segment = kernel.create_segment("s", 8)
        for domain in domains:
            kernel.attach(domain, segment, Rights.READ)
        current: dict[tuple[int, int], Rights] = {
            (d.pd_id, vpn): Rights.READ for d in domains for vpn in segment.vpns()
        }
        for d_idx, p_idx, rights, write in ops:
            domain = domains[d_idx]
            vpn = segment.vpn_at(p_idx)
            kernel.set_pages_rights(domain, (vpn,), rights)
            if model == "pagegroup":
                # Per-domain changes move pages between groups and so
                # change *other* domains' access; recompute from tables.
                for other in domains:
                    info = kernel.rights_for(other.pd_id, vpn)
                    aid = kernel.group_table.aid_of(vpn)
                    page_rights = kernel.group_table.rights_of(vpn)
                    holds = other.holds_group(aid)
                    entry = other.groups.get(aid)
                    effective = (
                        (page_rights.without_write()
                         if entry and entry.write_disable else page_rights)
                        if holds else Rights.NONE
                    )
                    current[(other.pd_id, vpn)] = effective
            else:
                current[(domain.pd_id, vpn)] = rights
            access = AccessType.WRITE if write else AccessType.READ
            allowed = current[(domain.pd_id, vpn)].allows(access)
            try:
                machine.touch(domain, kernel.params.vaddr(vpn), access)
                assert allowed, (
                    f"{model}: access granted but tables say "
                    f"{current[(domain.pd_id, vpn)].describe()}"
                )
            except SegmentationViolation:
                assert not allowed, (
                    f"{model}: access denied but tables say "
                    f"{current[(domain.pd_id, vpn)].describe()}"
                )


class TestConvergenceAfterChange:
    @pytest.mark.parametrize("model", MODELS)
    def test_rights_change_visible_within_one_fault(self, model):
        """DESIGN.md §7: structures converge to new rights within one
        fault at most."""
        kernel = Kernel(model)
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 2)
        kernel.attach(domain, segment, Rights.READ)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.read(domain, vaddr)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.RW)
        result = machine.write(domain, vaddr)
        assert result.protection_faults <= 1

    @pytest.mark.parametrize("model", MODELS)
    def test_downgrade_takes_effect_immediately(self, model):
        kernel = Kernel(model)
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 2)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        kernel.set_pages_rights(domain, (segment.base_vpn,), Rights.READ)
        with pytest.raises(SegmentationViolation):
            machine.write(domain, vaddr)


class TestPLBInclusion:
    @settings(max_examples=25, deadline=None)
    @given(
        touches=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 7)),
            min_size=1, max_size=50,
        )
    )
    def test_resident_plb_entries_match_protection_tables(self, touches):
        """Inclusion: every resident PLB entry equals the table rights."""
        kernel = Kernel("plb")
        machine = Machine(kernel)
        domains = [kernel.create_domain(f"d{i}") for i in range(2)]
        segment = kernel.create_segment("s", 8)
        kernel.attach(domains[0], segment, Rights.RW)
        kernel.attach(domains[1], segment, Rights.READ)
        for d_idx, p_idx in touches:
            domain = domains[d_idx]
            vpn = segment.vpn_at(p_idx)
            try:
                machine.read(domain, kernel.params.vaddr(vpn))
            except SegmentationViolation:
                pass
        system = kernel.system
        assert isinstance(system, PLBSystem)
        for key, entry in system.plb.items():
            info = kernel.rights_for(key.pd_id, key.unit)
            assert info is not None
            assert entry.rights == info.rights
