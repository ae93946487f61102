"""Stateful model-based testing of the kernel (hypothesis rule machine).

Hypothesis drives arbitrary interleavings of the kernel API — domain and
segment creation, attach/detach, rights changes, touches, switches —
checking after every step that the hardware never disagrees with a
shadow model of the domain-page semantics, and that memory accounting
stays exact.  Run on the PLB system (the conventional system shares the
same OS-level semantics; the page-group model's divergent per-domain
semantics are covered by the oracle test).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.mmu import PLBSystem
from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel, SegmentationViolation
from repro.sim.machine import Machine

N_FRAMES = 512


class KernelMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.kernel = Kernel("plb", n_frames=N_FRAMES)
        self.machine = Machine(self.kernel)
        #: Shadow model: (pd_id, vpn) -> expected rights (None = no access).
        self.shadow: dict[tuple[int, int], Rights] = {}

    domains = Bundle("domains")
    segments = Bundle("segments")

    # ------------------------------------------------------------------ #
    # Rules

    @rule(target=domains)
    def create_domain(self):
        return self.kernel.create_domain(f"d{len(self.kernel.domains)}")

    @rule(target=segments, pages=st.integers(1, 4))
    def create_segment(self, pages):
        if self.kernel.memory.free_frames < pages:
            return None
        return self.kernel.create_segment(
            f"s{len(self.kernel.segments)}", pages
        )

    @rule(domain=domains, segment=segments,
          rights=st.sampled_from([Rights.READ, Rights.RW]))
    def attach(self, domain, segment, rights):
        if segment is None or domain.is_attached(segment.seg_id):
            return
        if segment.seg_id not in self.kernel.segments:
            return  # destroyed
        self.kernel.attach(domain, segment, rights)
        for vpn in segment.vpns():
            self.shadow[(domain.pd_id, vpn)] = rights

    @rule(domain=domains, segment=segments)
    def detach(self, domain, segment):
        if segment is None or not domain.is_attached(segment.seg_id):
            return
        if segment.seg_id not in self.kernel.segments:
            return
        self.kernel.detach(domain, segment)
        for vpn in segment.vpns():
            self.shadow.pop((domain.pd_id, vpn), None)

    @rule(domain=domains, segment=segments, page=st.integers(0, 3),
          rights=st.sampled_from([Rights.NONE, Rights.READ, Rights.RW]))
    def set_page_rights(self, domain, segment, page, rights):
        if segment is None or not domain.is_attached(segment.seg_id):
            return
        if segment.seg_id not in self.kernel.segments:
            return
        vpn = segment.vpn_at(page % segment.n_pages)
        self.kernel.set_pages_rights(domain, (vpn,), rights)
        self.shadow[(domain.pd_id, vpn)] = rights

    @rule(domain=domains, segment=segments, page=st.integers(0, 3),
          write=st.booleans())
    def touch(self, domain, segment, page, write):
        if segment is None or segment.seg_id not in self.kernel.segments:
            return
        vpn = segment.vpn_at(page % segment.n_pages)
        access = AccessType.WRITE if write else AccessType.READ
        expected = self.shadow.get((domain.pd_id, vpn), Rights.NONE)
        try:
            self.machine.touch(domain, self.kernel.params.vaddr(vpn), access)
            allowed = True
        except SegmentationViolation:
            allowed = False
        assert allowed == expected.allows(access), (
            f"domain {domain.pd_id} {access.value} page {vpn:#x}: hardware "
            f"{'allowed' if allowed else 'denied'}, shadow says "
            f"{expected.describe()}"
        )

    @rule(domain=domains)
    def switch(self, domain):
        self.kernel.switch_to(domain)

    # ------------------------------------------------------------------ #
    # Invariants (checked after every rule)

    @invariant()
    def memory_conserved(self):
        memory = self.kernel.memory
        assert memory.free_frames + memory.used_frames == N_FRAMES

    @invariant()
    def plb_never_contradicts_tables(self):
        system = self.kernel.system
        assert isinstance(system, PLBSystem)
        for key, entry in system.plb.items():
            info = self.kernel.rights_for(key.pd_id, key.unit)
            table_rights = info.rights if info is not None else None
            # A resident entry may be stale only toward *less* access
            # than the tables grant, never more — and in this machine
            # (all changes go through kernel verbs) it must be exact or
            # the domain was detached (entry swept, so unreachable).
            if table_rights is not None:
                assert entry.rights == table_rights


KernelMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestKernelStateMachine = KernelMachine.TestCase
