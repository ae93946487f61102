"""Unit tests for the conventional linear-page-table space model (§3.1)."""

from __future__ import annotations

from repro.core.conventional import LinearPageTable, duplication_report
from repro.core.rights import Rights


class TestLinearPageTable:
    def test_map_lookup_unmap(self):
        table = LinearPageTable()
        table.map(10, 100, Rights.RW)
        entry = table.lookup(10)
        assert entry is not None and entry.pfn == 100
        assert table.unmap(10)
        assert table.lookup(10) is None
        assert not table.unmap(10)

    def test_set_rights(self):
        table = LinearPageTable()
        table.map(10, 100, Rights.RW)
        assert table.set_rights_many((10,), Rights.READ) == 1
        assert table.lookup(10).rights == Rights.READ
        assert table.set_rights_many((11,), Rights.READ) == 0

    def test_span_measures_sparsity_cost(self):
        """Scattered mappings make linear tables huge (§3.1)."""
        table = LinearPageTable()
        table.map(0x100, 1, Rights.RW)
        table.map(0x100000, 2, Rights.RW)
        assert table.mapped_entries == 2
        assert table.span_entries == 0x100000 - 0x100 + 1

    def test_empty_table_spans_nothing(self):
        table = LinearPageTable()
        assert table.span_entries == 0
        assert table.table_bits() == 0

    def test_table_bits_uses_default_pte_width(self):
        table = LinearPageTable()
        table.map(0, 0, Rights.RW)
        # pfn(24) + rights(3) + status(2) + valid(1) = 30 bits per PTE
        assert table.table_bits() == 30
        assert table.table_bits(pte_bits=64) == 64

    def test_contiguous_span_equals_mapped(self):
        table = LinearPageTable()
        for vpn in range(5):
            table.map(vpn, vpn, Rights.RW)
        assert table.span_entries == table.mapped_entries == 5


class TestDuplicationReport:
    def test_no_sharing_no_duplication(self):
        a = LinearPageTable()
        b = LinearPageTable()
        a.map(1, 10, Rights.RW)
        b.map(2, 11, Rights.RW)
        report = duplication_report({1: a, 2: b})
        assert report["total_entries"] == 2
        assert report["unique_pages"] == 2
        assert report["duplicated_entries"] == 0

    def test_shared_pages_duplicate(self):
        """Shared pages replicate PTEs in every domain's table (§3.1)."""
        tables = {}
        for pd in range(4):
            table = LinearPageTable()
            for vpn in range(8):
                table.map(vpn, vpn, Rights.RW)
            tables[pd] = table
        report = duplication_report(tables)
        assert report["total_entries"] == 32
        assert report["unique_pages"] == 8
        assert report["duplicated_entries"] == 24

    def test_empty(self):
        report = duplication_report({})
        assert report == {
            "total_entries": 0,
            "unique_pages": 0,
            "duplicated_entries": 0,
        }
