"""Transactional virtual memory (Table 1, rows 8-10).

Following the IBM 801's transactional storage (Chang & Mergen), each
transaction runs in its own protection domain with no initial access to
the database segment.  First touches fault; the system grants a lock and
the matching access rights.  Commit releases the locks and returns the
pages to the inaccessible state.

The models differ exactly as Section 4.1.2 describes:

* domain-page — lock grant = set the read (or read-write) bit in the PLB
  entry for the transaction's domain; commit = set the entries back to
  inaccessible.  Per-domain, per-page rights are the model's native
  currency.
* page-group — read locks can be represented two ways, both implemented
  here:

  - ``lock_strategy="domain"``: all locks held by a domain live in a
    page-group private to that domain.  Cheap for many locks, but a
    read-shared page must *alternate* between lock groups as different
    domains touch it (counted as ``txn.group_alternation``).
  - ``lock_strategy="page"``: each locked page gets its own group shared
    by every read-locker.  No alternation, but a domain holding many
    locks fills the page-group cache (visible as group-cache misses and
    reloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mmu import ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel
from repro.sim.machine import Machine
from repro.sim.stats import Stats
from repro.workloads.tracegen import TraceGenerator


@dataclass
class TxnConfig:
    """Parameters of the transactional workload."""

    db_pages: int = 64
    transactions: int = 16
    touches_per_txn: int = 24
    write_fraction: float = 0.4
    #: Transactions interleaved at a time (creates shared read locks).
    concurrent: int = 2
    #: Page-group lock representation: "domain" or "page" (§4.1.2).
    lock_strategy: str = "domain"
    zipf_s: float = 0.7
    seed: int = 11


@dataclass
class _Lock:
    readers: set[int] = field(default_factory=set)
    writer: int | None = None


@dataclass
class TxnReport:
    """What one run measured."""

    commits: int = 0
    read_locks: int = 0
    write_locks: int = 0
    conflicts_skipped: int = 0
    group_alternations: int = 0
    stats: Stats = field(default_factory=Stats)


class TransactionalVM:
    """An 801-style transactional shared-memory system."""

    def __init__(self, kernel: Kernel, config: TxnConfig | None = None) -> None:
        self.kernel = kernel
        self.machine = Machine(kernel)
        self.config = config or TxnConfig()
        if self.config.lock_strategy not in ("domain", "page"):
            raise ValueError("lock_strategy must be 'domain' or 'page'")
        self.gen = TraceGenerator(self.config.seed, kernel.params)
        # The database segment: pages start globally inaccessible to
        # transactions (group rights NONE in the page-group model).
        self.db = kernel.create_segment(
            "database", self.config.db_pages, group_rights=Rights.NONE
        )
        self._locks: dict[int, _Lock] = {}
        self._active: dict[int, ProtectionDomain] = {}
        self._locked_by: dict[int, set[int]] = {}
        #: page-group model bookkeeping.
        self._domain_lock_group: dict[int, int] = {}
        self._page_lock_group: dict[int, int] = {}
        kernel.add_protection_handler(self._on_fault)
        self.report = TxnReport()

    # ------------------------------------------------------------------ #
    # Locking

    def _on_fault(self, fault: ProtectionFault) -> bool:
        if fault.pd_id not in self._active:
            return False
        vpn = self.kernel.params.vpn(fault.vaddr)
        if not self.db.contains(vpn):
            return False
        domain = self._active[fault.pd_id]
        if fault.access is AccessType.WRITE:
            granted = self._lock_write(domain, vpn)
        else:
            granted = self._lock_read(domain, vpn)
        if not granted:
            # Conflicting lock: in a real system the transaction would
            # block; the driver skips the reference instead.
            self.report.conflicts_skipped += 1
            raise _Conflict()
        return True

    def _lock_read(self, domain: ProtectionDomain, vpn: int) -> bool:
        """Table 1 "Lock (read)": shared, read-only access."""
        lock = self._locks.setdefault(vpn, _Lock())
        if lock.writer is not None and lock.writer != domain.pd_id:
            return False
        already = domain.pd_id in lock.readers or lock.writer == domain.pd_id
        lock.readers.add(domain.pd_id)
        if not already:
            self.report.read_locks += 1
            self._locked_by.setdefault(domain.pd_id, set()).add(vpn)
        self._grant(domain, vpn, Rights.READ if lock.writer != domain.pd_id else Rights.RW)
        return True

    def _lock_write(self, domain: ProtectionDomain, vpn: int) -> bool:
        """Table 1 "Lock (write)": private, read-write access."""
        lock = self._locks.setdefault(vpn, _Lock())
        others = (lock.readers - {domain.pd_id}) or (
            {lock.writer} - {None, domain.pd_id}
        )
        if others:
            return False
        if lock.writer != domain.pd_id:
            self.report.write_locks += 1
            self._locked_by.setdefault(domain.pd_id, set()).add(vpn)
        lock.writer = domain.pd_id
        lock.readers.add(domain.pd_id)
        self._grant(domain, vpn, Rights.RW)
        return True

    def _grant(self, domain: ProtectionDomain, vpn: int, rights: Rights) -> None:
        with self.kernel.tracer.span("txn.lock_grant", pd=domain.pd_id, vpn=vpn):
            self._grant_body(domain, vpn, rights)

    def _grant_body(self, domain: ProtectionDomain, vpn: int, rights: Rights) -> None:
        kernel = self.kernel
        if kernel.model != "pagegroup":
            # "Set the read bit in the PLB entry for the transaction's
            # domain" — one per-domain, per-page update.
            kernel.set_pages_rights(domain, (vpn,), rights)
            return
        if self.config.lock_strategy == "domain":
            aid = self._domain_lock_group.get(domain.pd_id)
            if aid is None:
                aid = kernel.create_page_group()
                self._domain_lock_group[domain.pd_id] = aid
                kernel.grant_group(domain, aid)
            previous = kernel.group_table.aid_of(vpn)
            if previous != aid and previous in self._domain_lock_group.values():
                # A read-shared page bouncing between domains' private
                # lock groups — the alternation §4.1.2 warns about.
                self.report.group_alternations += 1
            kernel.move_pages_to_group((vpn,), aid, rights=rights)
        else:  # per-page lock groups
            aid = self._page_lock_group.get(vpn)
            if aid is None:
                aid = kernel.create_page_group()
                self._page_lock_group[vpn] = aid
                kernel.move_pages_to_group((vpn,), aid, rights=rights)
            else:
                kernel.set_pages_rights_global((vpn,), rights)
            if not domain.holds_group(aid):
                kernel.grant_group(domain, aid)

    # ------------------------------------------------------------------ #
    # Commit (Table 1 "Commit")

    def commit(self, domain: ProtectionDomain) -> None:
        """Unlock everything and return pages to the inaccessible state."""
        with self.kernel.tracer.span("txn.commit", pd=domain.pd_id):
            self._commit(domain)

    def _commit(self, domain: ProtectionDomain) -> None:
        kernel = self.kernel
        locked = self._locked_by.pop(domain.pd_id, set())
        for vpn in locked:
            lock = self._locks.get(vpn)
            if lock is None:
                continue
            lock.readers.discard(domain.pd_id)
            if lock.writer == domain.pd_id:
                lock.writer = None
            if not lock.readers and lock.writer is None:
                del self._locks[vpn]
        if kernel.model != "pagegroup":
            # "For each locked page, look up the page in the PLB, and
            # change the access rights to inaccessible."  Rights are
            # per-domain, so only this transaction's entries change.
            for vpn in locked:
                kernel.set_pages_rights(domain, (vpn,), Rights.NONE)
        elif self.config.lock_strategy == "domain":
            # "Remove lock groups from the page-group cache and allocate
            # new groups for the next transaction's locks."
            aid = self._domain_lock_group.pop(domain.pd_id, None)
            if aid is not None:
                kernel.revoke_group(domain, aid)
        else:
            for vpn in locked:
                aid = self._page_lock_group.get(vpn)
                if aid is not None and domain.holds_group(aid):
                    kernel.revoke_group(domain, aid)
                if aid is not None and not self._locks.get(vpn):
                    # Last locker gone: page returns to the database's
                    # inaccessible group.
                    kernel.move_pages_to_group((vpn,), self.db.aid, rights=Rights.NONE)
                    del self._page_lock_group[vpn]
        self._active.pop(domain.pd_id, None)
        self.report.commits += 1

    # ------------------------------------------------------------------ #
    # The transaction driver

    def begin(self, name: str) -> ProtectionDomain:
        """Start a transaction in a fresh protection domain."""
        domain = self.kernel.create_domain(name)
        self.kernel.attach(domain, self.db, Rights.NONE)
        self._active[domain.pd_id] = domain
        return domain

    def run(self) -> TxnReport:
        """Run the configured transaction mix."""
        config = self.config
        before = self.kernel.stats.snapshot()
        completed = 0
        batch_no = 0
        while completed < config.transactions:
            batch = min(config.concurrent, config.transactions - completed)
            domains = [
                self.begin(f"txn-{batch_no}-{slot}") for slot in range(batch)
            ]
            # Interleave the batch's touches round-robin so read locks
            # overlap across concurrent transactions.
            streams = [
                self._touch_plan(slot, batch) for slot in range(batch)
            ]
            with self.kernel.tracer.span("txn.batch", batch=batch_no, size=batch):
                for step in range(config.touches_per_txn):
                    for domain, stream in zip(domains, streams):
                        vpn, access = stream[step]
                        vaddr = self.kernel.params.vaddr(vpn)
                        try:
                            self.machine.touch(domain, vaddr, access)
                        except _Conflict:
                            pass
                for domain in domains:
                    self.commit(domain)
            completed += batch
            batch_no += 1
        self.report.stats = self.kernel.stats.delta(before)
        return self.report

    def _touch_plan(self, slot: int, batch: int) -> list[tuple[int, AccessType]]:
        """Per-transaction page touches: reads anywhere, writes private.

        Writes are confined to a per-slot partition of the database so
        concurrent transactions exercise shared read locks without
        unresolvable write conflicts.
        """
        config = self.config
        region = config.db_pages // max(batch, 1)
        lo = slot * region
        hi = lo + region if slot < batch - 1 else config.db_pages
        plan: list[tuple[int, AccessType]] = []
        indexes = self.gen.page_sequence(
            config.db_pages, config.touches_per_txn, zipf_s=config.zipf_s
        )
        for index in indexes:
            if self.gen.rng.random() < config.write_fraction:
                index = lo + (index % (hi - lo))
                plan.append((self.db.vpn_at(index), AccessType.WRITE))
            else:
                plan.append((self.db.vpn_at(index), AccessType.READ))
        return plan


class _Conflict(Exception):
    """Internal: a lock request hit a conflicting holder."""
