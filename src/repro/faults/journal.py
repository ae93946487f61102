"""Intent journal: crash-consistent multi-step kernel verbs.

The kernel's Table 1 verbs (attach, detach, group moves) and the pager's
page-out/page-in are *multi-step*: they mutate the authoritative tables,
the hardware caches and the backing store in sequence.  A crash between
two steps leaves state no lazy refault can fix — the exact failure mode
the paper's "caches are soft state" story does not cover, because the
*authority* itself is mid-flight.

The journal closes that hole with standard write-ahead intent logging:

1. ``begin`` — before the verb runs, snapshot every piece of authority
   it may touch (domain attachment tables, page residency + frame data,
   group assignments, backing-store images, pager eviction records).
2. The instrumented verbs announce each mutation boundary through
   ``Kernel._verb_step``; the journal numbers them 1..N (boundary 1 is
   ``begin`` itself, boundary N is ``pre_commit``).  A test harness can
   ask for a :class:`SimulatedCrash` at any boundary.
3. ``commit`` — reached only if the verb completed; the record is
   retired and recovery becomes a no-op.
4. ``recover`` — after a crash, restore every snapshot (authoritative
   state only), then call ``Kernel.rebuild_protection_state`` to flush
   and rebuild all cached soft state from the restored authority.  The
   rebuild step is what makes recovery *simple*: because every hardware
   structure is rebuildable, the journal never needs to undo individual
   cache operations.

:class:`SimulatedCrash` subclasses ``BaseException`` deliberately: a
real crash does not execute ``except Exception`` cleanup handlers, so
in-verb rollback code (e.g. the pager's populate unwind) must not be
able to swallow it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.rights import Rights


class SimulatedCrash(BaseException):
    """The machine stopped at a mutation boundary inside a verb."""

    def __init__(self, boundary: int, label: str) -> None:
        self.boundary = boundary
        self.label = label
        super().__init__(f"simulated crash at boundary {boundary} ({label})")


@dataclass
class _PageSnapshot:
    """Authoritative per-page state at ``begin`` time."""

    vpn: int
    resident: bool
    data: bytes | None
    known: bool
    on_disk: bool
    aid: int | None
    rights: Rights | None
    disk_image: bytes | None
    evicted: Any | None


@dataclass
class JournalRecord:
    """One journaled verb: its intent, snapshots, and outcome."""

    verb: str
    vpns: tuple[int, ...]
    steps: list[str] = field(default_factory=list)
    committed: bool = False
    aborted: bool = False
    domains: dict[int, tuple] = field(default_factory=dict)
    pages: dict[int, _PageSnapshot] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "verb": self.verb,
            "vpns": [f"{vpn:#x}" for vpn in self.vpns],
            "steps": list(self.steps),
            "committed": self.committed,
            "aborted": self.aborted,
        }


class IntentJournal:
    """Write-ahead intent journal over one kernel (and optional pager)."""

    def __init__(self, kernel, pager=None) -> None:
        self.kernel = kernel
        self.pager = pager
        self.records: list[JournalRecord] = []
        self._open: JournalRecord | None = None

    # ------------------------------------------------------------------ #
    # The journaled-execution protocol

    def run(
        self,
        verb: str,
        fn: Callable[[], Any],
        vpns: Iterable[int],
        *,
        crash_at: int | None = None,
    ) -> tuple[int, Any]:
        """Run ``fn`` as a journaled verb.

        Returns ``(boundaries, result)`` where ``boundaries`` counts the
        mutation boundaries passed (use a crash-free run to enumerate
        them).  With ``crash_at=k`` a :class:`SimulatedCrash` is raised
        at the k-th boundary (1-based; 1 is ``begin``, the last is
        ``pre_commit``) and the journal record stays open for
        :meth:`recover`.
        """
        if self._open is not None:
            raise RuntimeError("a journaled verb is already open")
        record = self._begin(verb, tuple(vpns))
        boundary = 0

        def hook(label: str) -> None:
            nonlocal boundary
            boundary += 1
            record.steps.append(label)
            if crash_at is not None and boundary == crash_at:
                raise SimulatedCrash(boundary, label)

        self.kernel._verb_step_hook = hook
        try:
            hook("begin")
            result = fn()
            hook("pre_commit")
        finally:
            self.kernel._verb_step_hook = None
        self._commit(record)
        return boundary, result

    @property
    def open_record(self) -> JournalRecord | None:
        return self._open

    def _begin(self, verb: str, vpns: tuple[int, ...]) -> JournalRecord:
        kernel = self.kernel
        record = JournalRecord(verb=verb, vpns=vpns)
        for pd_id, domain in kernel.domains.items():
            record.domains[pd_id] = (
                dict(domain.attachments),
                dict(domain.page_overrides),
                {group: copy.copy(e) for group, e in domain.groups.items()},
            )
        for vpn in vpns:
            record.pages[vpn] = self._snapshot_page(vpn)
        self.records.append(record)
        self._open = record
        kernel.stats.inc("journal.begin")
        return record

    def _snapshot_page(self, vpn: int) -> _PageSnapshot:
        kernel = self.kernel
        pfn = kernel.translations.pfn_for(vpn)
        mapping = kernel.translations.mapping(vpn)
        evicted = None
        if self.pager is not None and vpn in self.pager._evicted:
            evicted = copy.copy(self.pager._evicted[vpn])
        return _PageSnapshot(
            vpn=vpn,
            resident=pfn is not None,
            data=kernel.memory.read_page(pfn) if pfn is not None else None,
            known=mapping is not None,
            on_disk=mapping.on_disk if mapping is not None else False,
            aid=kernel.group_table.aid_of(vpn),
            rights=kernel.group_table.rights_of(vpn),
            disk_image=kernel.backing.peek(vpn),
            evicted=evicted,
        )

    def _commit(self, record: JournalRecord) -> None:
        record.committed = True
        self._open = None
        self.kernel.stats.inc("journal.commit")

    # ------------------------------------------------------------------ #
    # Recovery

    def recover(self) -> bool:
        """Roll the open (crashed) verb back to its ``begin`` snapshot.

        Restores authoritative state only, then rebuilds all cached
        protection state from it.  Returns False when there is nothing
        to recover (the last verb committed).
        """
        record = self._open
        if record is None:
            return False
        kernel = self.kernel
        for pd_id, (attachments, overrides, groups) in record.domains.items():
            domain = kernel.domains.get(pd_id)
            if domain is None:
                continue
            domain.attachments.clear()
            domain.attachments.update(attachments)
            domain.page_overrides.clear()
            domain.page_overrides.update(overrides)
            domain.groups.clear()
            domain.groups.update({g: copy.copy(e) for g, e in groups.items()})
        for snap in record.pages.values():
            self._restore_page(snap)
        kernel.rebuild_protection_state()
        record.aborted = True
        self._open = None
        kernel.stats.inc("journal.recover")
        kernel.stats.inc("faults.recovered")
        return True

    def _restore_page(self, snap: _PageSnapshot) -> None:
        kernel = self.kernel
        vpn = snap.vpn
        resident_now = kernel.translations.is_resident(vpn)
        if snap.resident and not resident_now:
            frame = kernel.memory.allocate(vpn)
            kernel.translations.map(vpn, frame.pfn)
            if snap.data is not None:
                kernel.memory.write_page(frame.pfn, snap.data)
        elif not snap.resident and resident_now:
            kernel.free_pages((vpn,))
        elif snap.resident and resident_now and snap.data is not None:
            pfn = kernel.translations.pfn_for(vpn)
            if kernel.memory.read_page(pfn) != snap.data:
                kernel.memory.write_page(pfn, snap.data)
        if snap.known or kernel.translations.is_known(vpn):
            kernel.translations.mark_on_disk(vpn, snap.on_disk)
        if snap.aid is not None and snap.rights is not None:
            kernel.group_table.assign(vpn, snap.aid, snap.rights)
        else:
            kernel.group_table.forget(vpn)
        if snap.disk_image is not None:
            if kernel.backing.peek(vpn) != snap.disk_image:
                kernel.backing.write(vpn, snap.disk_image)
        else:
            kernel.backing.discard(vpn)
        if self.pager is not None:
            if snap.evicted is not None:
                self.pager._evicted[vpn] = snap.evicted
            else:
                self.pager._evicted.pop(vpn, None)
