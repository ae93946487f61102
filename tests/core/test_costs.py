"""Tests for the bit-cost and cycle-cost models — including the paper's
quantitative hardware claims (Figure 1 widths, the ~25% entry-size
advantage, the ~10% VIVT tag overhead)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.costs import (
    CycleCosts,
    DEFAULT_COSTS,
    cache_line_bits,
    conventional_tlb_entry_bits,
    cycles_breakdown,
    cycles_for,
    entries_for_budget,
    geometric_mean,
    pagegroup_tlb_entry_bits,
    plb_entry_bits,
    plb_size_advantage,
    structure_total_bits,
    translation_tlb_entry_bits,
    vivt_overhead_ratio,
)
from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.sim.stats import Stats

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


class TestEntrySizes:
    def test_figure1_plb_entry_fields(self):
        """52 + 16 + 3 bits plus one valid bit (Figure 1)."""
        assert plb_entry_bits() == 52 + 16 + 3 + 1

    def test_translation_only_entry(self):
        # 52 VPN tag + 24 PFN + 2 status + valid
        assert translation_tlb_entry_bits() == 52 + 24 + 2 + 1

    def test_pagegroup_entry_adds_aid_and_rights(self):
        assert pagegroup_tlb_entry_bits() == 52 + 24 + 3 + 16 + 2 + 1

    def test_conventional_entry_adds_asid(self):
        assert conventional_tlb_entry_bits() == 52 + 16 + 24 + 3 + 2 + 1

    def test_paper_claim_plb_25pct_smaller(self):
        """Section 4: PLB entries about 25% smaller than page-group TLB
        entries (they carry no translation)."""
        advantage = plb_size_advantage()
        assert 0.20 <= advantage <= 0.30

    def test_set_indexing_shrinks_tags(self):
        full = plb_entry_bits(n_sets=1)
        indexed = plb_entry_bits(n_sets=16)
        assert full - indexed == 4

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            plb_entry_bits(n_sets=3)

    def test_budget_entries(self):
        entry = plb_entry_bits()
        assert entries_for_budget(entry, entry * 10) == 10
        assert entries_for_budget(entry, entry * 10 + 5) == 10

    def test_structure_total(self):
        assert structure_total_bits(72, 128) == 72 * 128

    def test_equal_silicon_buys_more_plb_entries(self):
        """The fair-comparison remark: smaller entries -> more of them."""
        budget = pagegroup_tlb_entry_bits() * 128
        assert entries_for_budget(plb_entry_bits(), budget) > 128


class TestCacheTagOverhead:
    def test_paper_claim_vivt_10pct_larger(self):
        """Section 3.2.1: 64-bit VAs, 36-bit PAs, 32-byte lines ->
        a virtually tagged cache is about 10% larger."""
        ratio = vivt_overhead_ratio(cache_bytes=16 * 1024, ways=1)
        assert 1.07 <= ratio <= 1.13

    def test_overhead_shrinks_with_smaller_va(self):
        small_va = MachineParams(va_bits=40)
        assert vivt_overhead_ratio(small_va) < vivt_overhead_ratio()

    def test_asid_tagging_costs_more(self):
        """The conventional homonym fix widens tags further (§2.2)."""
        plain = vivt_overhead_ratio()
        tagged = vivt_overhead_ratio(asid_tagged=True)
        assert tagged > plain

    def test_line_bits_components(self):
        # Direct-mapped 16K cache: 512 lines/sets; VIVT tag = 64-5-9=50.
        bits = cache_line_bits(virtually_tagged=True, n_sets=512)
        assert bits == 32 * 8 + 50 + 2

    def test_physical_tag_smaller(self):
        vivt = cache_line_bits(virtually_tagged=True, n_sets=512)
        vipt = cache_line_bits(virtually_tagged=False, n_sets=512)
        assert vivt - vipt == DEFAULT_PARAMS.va_bits - DEFAULT_PARAMS.pa_bits


class TestCycleModel:
    def test_weight_lookup_by_suffix(self):
        costs = CycleCosts()
        assert costs.weight_for("dcache.hit") == costs.cache_hit
        assert costs.weight_for("sys.dcache.hit") == costs.cache_hit
        assert costs.weight_for("unknown.counter") == 0

    def test_memoized_weight_equals_suffix_scan(self):
        """Every counter name the committed baselines know is priced the
        same by the memo, on its first lookup and on a repeat."""
        names: set[str] = set()

        def collect(node) -> None:
            if isinstance(node, dict):
                names.update(node)
                for value in node.values():
                    collect(value)
            elif isinstance(node, list):
                for value in node:
                    collect(value)

        for path in sorted(BASELINES.glob("*.json")):
            collect(json.loads(path.read_text()))

        def scan(costs: CycleCosts, name: str) -> int:
            for suffix, attr in CycleCosts.WEIGHTS.items():
                if name == suffix or name.endswith("." + suffix):
                    return getattr(costs, attr)
            return 0

        for costs in (CycleCosts(), CycleCosts(kernel_trap=7, cache_miss=3)):
            for name in sorted(names):
                expected = scan(costs, name)
                assert costs.weight_for(name) == expected, name
                assert costs.weight_for(name) == expected, name
        priced = [name for name in names if scan(DEFAULT_COSTS, name)]
        assert len(priced) >= 10, "baselines should cover the priced counters"

    def test_weight_memo_is_per_cost_table(self):
        assert DEFAULT_COSTS.weight_for("kernel.trap") == DEFAULT_COSTS.kernel_trap
        assert CycleCosts(kernel_trap=1000).weight_for("kernel.trap") == 1000
        assert CycleCosts() == DEFAULT_COSTS

    def test_cycles_for_weighted_sum(self):
        stats = Stats({"dcache.hit": 10, "kernel.trap": 2, "unpriced": 99})
        expected = 10 * DEFAULT_COSTS.cache_hit + 2 * DEFAULT_COSTS.kernel_trap
        assert cycles_for(stats) == expected

    def test_breakdown_only_nonzero(self):
        stats = Stats({"dcache.hit": 1, "unpriced": 5})
        breakdown = cycles_breakdown(stats)
        assert breakdown == {"dcache.hit": DEFAULT_COSTS.cache_hit}

    def test_custom_costs(self):
        costs = CycleCosts(kernel_trap=1000)
        stats = Stats({"kernel.trap": 1})
        assert cycles_for(stats, costs) == 1000

    @given(st.dictionaries(
        st.sampled_from(["dcache.hit", "dcache.miss", "plb.fill", "kernel.trap"]),
        st.integers(0, 500),
    ))
    def test_cycles_monotone_in_counts(self, counts):
        stats = Stats(counts)
        bigger = Stats(counts)
        bigger.inc("kernel.trap", 1)
        assert cycles_for(bigger) >= cycles_for(stats)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
