#!/usr/bin/env python
"""Quickstart: a single address space shared by two protection domains.

Demonstrates the core ideas of Koldinger/Chase/Eggers (ASPLOS '92):

* one global virtual address space — a pointer means the same thing in
  every protection domain;
* protection domains with independent per-page rights over shared data;
* the three memory-system models (``plb``, ``pagegroup``,
  ``conventional``) run the same program while their hardware
  structures do very different amounts of work.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Kernel, Machine, Rights, SegmentationViolation


def demo(model: str) -> None:
    print(f"\n=== {model} memory system " + "=" * (40 - len(model)))
    kernel = Kernel(model)
    machine = Machine(kernel)

    # Two protection domains: an application and a helper service.
    app = kernel.create_domain("app")
    service = kernel.create_domain("service")

    # One shared segment in the global address space.  Its virtual
    # addresses are meaningful to both domains — pointers can be passed
    # between them freely.
    shared = kernel.create_segment("shared-heap", n_pages=8)
    kernel.attach(app, shared, Rights.RW)
    kernel.attach(service, shared, Rights.READ)

    pointer = kernel.params.vaddr(shared.base_vpn, 0x40)
    machine.write(app, pointer)  # app writes through the pointer
    machine.read(service, pointer)  # service reads the SAME pointer
    print(f"shared pointer {pointer:#x}: written by app, read by service")

    # The service holds only read rights; writes trap.
    try:
        machine.write(service, pointer)
    except SegmentationViolation:
        print("service write correctly denied (read-only attachment)")

    # Per-domain, per-page rights: revoke one page from the app only.
    kernel.set_pages_rights(app, (shared.base_vpn,), Rights.NONE)
    try:
        machine.read(app, pointer)
    except SegmentationViolation:
        print("app read correctly denied after per-page revocation")
    if model != "pagegroup":
        # On the domain-page models the service is unaffected; on the
        # page-group model the page moved to a private group (§4.1.2).
        machine.read(service, pointer)
        print("service still reads the page (per-domain rights)")

    # Domain switches: the cost signature differs per model.
    for _ in range(10):
        kernel.switch_to(app)
        kernel.switch_to(service)
    stats = kernel.stats
    print(
        f"20 domain switches: {stats['pdid.write']} PD-ID register writes, "
        f"{stats['group_reload'] + stats['pgcache.purge_removed']} group-cache ops, "
        f"{stats['asidtlb.purge_removed']} TLB entries purged"
    )
    print("hardware event summary:")
    for name in ("plb.hit", "plb.miss", "pgtlb.hit", "pgtlb.miss",
                 "asidtlb.hit", "asidtlb.miss", "dcache.hit", "dcache.miss"):
        if stats[name]:
            print(f"  {name:<14} {stats[name]}")


def main() -> None:
    for model in ("plb", "pagegroup", "conventional"):
        demo(model)


if __name__ == "__main__":
    main()
