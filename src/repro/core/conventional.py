"""Conventional multiple-address-space structures (Section 3.1).

The paper's baseline is the architecture most 1992 systems shipped:
per-domain *linear page tables* (VAX, SPARC) and an ASID-tagged TLB that
combines translation with protection.  Section 3.1 levels two charges at
this organization when it hosts a single address space operating system:

1. Linear tables cannot represent a domain's *sparse* view of the global
   address space compactly — the table must span the whole referenced
   range.
2. Translations for shared pages are *duplicated* in every sharing
   domain's table (and TLB), wasting space and forcing the kernel to keep
   replicas coherent.

:class:`LinearPageTable` models one domain's table with exact space
accounting so the S3.1 benchmark can measure both charges;
the ASID-tagged TLB itself lives in :mod:`repro.hardware.tlb`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.core.rights import Rights


@dataclass
class LinearPTE:
    """One page-table entry: frame, rights and status bits."""

    pfn: int
    rights: Rights
    valid: bool = True


class LinearPageTable:
    """A per-domain linear (flat, contiguously indexed) page table.

    The table conceptually spans from the lowest to the highest mapped
    virtual page; every page in between costs a (possibly invalid) entry.
    ``span_entries`` measures that cost, versus ``mapped_entries`` for
    what an ideal sparse representation would need.
    """

    def __init__(self, params: MachineParams = DEFAULT_PARAMS) -> None:
        self.params = params
        self._entries: dict[int, LinearPTE] = {}

    def map(self, vpn: int, pfn: int, rights: Rights) -> None:
        """Install or update the entry for one page."""
        self._entries[vpn] = LinearPTE(pfn=pfn, rights=rights)

    def unmap(self, vpn: int) -> bool:
        return self._entries.pop(vpn, None) is not None

    def lookup(self, vpn: int) -> LinearPTE | None:
        return self._entries.get(vpn)

    def set_rights_many(self, vpns, rights: Rights) -> int:
        """Rewrite rights for a VPN set's mapped pages; returns entries
        changed."""
        changed = 0
        entries = self._entries
        for vpn in vpns:
            entry = entries.get(vpn)
            if entry is not None:
                entry.rights = rights
                changed += 1
        return changed

    @property
    def mapped_entries(self) -> int:
        """Pages actually mapped (what a sparse table would store)."""
        return len(self._entries)

    @property
    def span_entries(self) -> int:
        """Entries a linear table must provision: max - min + 1.

        This is the §3.1 sparsity cost: scattered mappings in a wide
        address space inflate the span enormously.
        """
        if not self._entries:
            return 0
        return max(self._entries) - min(self._entries) + 1

    def table_bits(self, pte_bits: int | None = None) -> int:
        """Storage for the full linear table at ``pte_bits`` per entry."""
        if pte_bits is None:
            pte_bits = self.params.pfn_bits + self.params.rights_bits + self.params.status_bits + 1
        return self.span_entries * pte_bits

    def mapped_vpns(self) -> set[int]:
        return set(self._entries)


def duplication_report(tables: dict[int, LinearPageTable]) -> dict[str, int]:
    """Measure cross-domain translation duplication (§3.1's second charge).

    Args:
        tables: Mapping of domain id to its page table.

    Returns a dict with:
        ``total_entries``: mapped entries summed over all domains.
        ``unique_pages``: distinct virtual pages mapped anywhere.
        ``duplicated_entries``: entries beyond the first for each page —
            the replicas a shared global table would not need.
    """
    total = 0
    pages: dict[int, int] = {}
    for table in tables.values():
        for vpn in table.mapped_vpns():
            total += 1
            pages[vpn] = pages.get(vpn, 0) + 1
    unique = len(pages)
    return {
        "total_entries": total,
        "unique_pages": unique,
        "duplicated_entries": total - unique,
    }
