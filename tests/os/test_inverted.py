"""Tests for the inverted page table (§3.1's IBM 801 reference)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rights import Rights
from repro.os.inverted import InvertedPageTable
from repro.os.kernel import Kernel
from repro.sim.machine import Machine


class TestBasicOperations:
    def test_map_lookup_unmap(self):
        ipt = InvertedPageTable(16)
        ipt.map(0x1234, 5)
        assert ipt.pfn_for(0x1234) == 5
        assert ipt.is_resident(0x1234)
        assert ipt.unmap(0x1234) == 5
        assert ipt.pfn_for(0x1234) is None

    def test_remap_same_page_moves_frame(self):
        ipt = InvertedPageTable(16)
        ipt.map(0x10, 3)
        ipt.map(0x10, 7)
        assert ipt.pfn_for(0x10) == 7
        # Frame 3 is free for another page.
        ipt.map(0x20, 3)
        assert ipt.pfn_for(0x20) == 3

    def test_reusing_frame_evicts_old_mapping(self):
        ipt = InvertedPageTable(16)
        ipt.map(0x10, 3)
        ipt.map(0x20, 3)
        assert ipt.pfn_for(0x20) == 3
        assert ipt.pfn_for(0x10) is None

    def test_unmap_missing_returns_none(self):
        assert InvertedPageTable(4).unmap(0x99) is None

    def test_frame_bounds_checked(self):
        with pytest.raises(ValueError):
            InvertedPageTable(4).map(0x10, 4)
        with pytest.raises(ValueError):
            InvertedPageTable(0)

    def test_on_disk_state_survives_unmap(self):
        ipt = InvertedPageTable(8)
        ipt.map(0x10, 1)
        ipt.unmap(0x10)
        ipt.mark_on_disk(0x10)
        mapping = ipt.mapping(0x10)
        assert mapping is not None and mapping.on_disk and not mapping.resident
        ipt.map(0x10, 2)
        assert ipt.mapping(0x10).on_disk  # carried back in

    def test_forget(self):
        ipt = InvertedPageTable(8)
        ipt.map(0x10, 1)
        ipt.forget(0x10)
        assert not ipt.is_known(0x10)

    def test_resident_vpns(self):
        ipt = InvertedPageTable(8)
        ipt.map(0x10, 1)
        ipt.map(0x20, 2)
        ipt.unmap(0x20)
        assert ipt.resident_vpns() == [0x10]


class TestSizeIndependence:
    def test_storage_depends_on_frames_not_va(self):
        """The §3.1 point: the table is sized by physical memory."""
        small = InvertedPageTable(64)
        # Map pages scattered across the full 52-bit page space.
        for index, vpn in enumerate([0x1, 0xFFFF, 0xFFFF_FFFF, 0xF_FFFF_FFFF_FFFF]):
            small.map(vpn, index)
        assert small.table_bits() == 64 * 64 + 128 * 24

    def test_probe_lengths_reasonable(self):
        ipt = InvertedPageTable(256)
        for index in range(256):
            ipt.map(0x1000 + index * 977, index)  # scattered VPNs
        for index in range(256):
            assert ipt.pfn_for(0x1000 + index * 977) is not None
        assert ipt.mean_probe_length < 4.0


class TestKernelSubstitution:
    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_kernel_runs_on_inverted_table(self, model):
        """The IPT implements GlobalTranslationTable's interface and can
        back the kernel directly."""
        kernel = Kernel(model, n_frames=128, inverted_table=True)
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 8)
        kernel.attach(domain, segment, Rights.RW)
        for vpn in segment.vpns():
            machine.write(domain, kernel.params.vaddr(vpn))
        assert kernel.stats["ipt.lookup"] > 0
        kernel.free_pages((segment.base_vpn,))
        assert not kernel.translations.is_resident(segment.base_vpn)

    def test_paging_over_inverted_table(self):
        """The user-level pager's protocol works over the IPT."""
        from repro.os.pager import UserLevelPager

        kernel = Kernel("plb", n_frames=64, inverted_table=True)
        pager = UserLevelPager(kernel, compress=True)
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 4)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        pager.page_out(segment.base_vpn)
        machine.write(domain, vaddr)  # demand page-in over the IPT
        assert kernel.stats["pager.page_in"] == 1


class TestInvertedProperties:
    @settings(max_examples=40)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["map", "unmap"]),
                      st.integers(0, 30), st.integers(0, 15)),
            max_size=60,
        )
    )
    def test_matches_dict_model(self, ops):
        """The IPT agrees with a naive dict model under random ops."""
        ipt = InvertedPageTable(16)
        model: dict[int, int] = {}  # vpn -> pfn
        for op, vpn, pfn in ops:
            if op == "map":
                ipt.map(vpn, pfn)
                # A frame holds one page; a page has one frame.
                model = {v: f for v, f in model.items() if f != pfn and v != vpn}
                model[vpn] = pfn
            else:
                expected = model.pop(vpn, None)
                assert ipt.unmap(vpn) == expected
        for vpn in range(31):
            assert ipt.pfn_for(vpn) == model.get(vpn)
