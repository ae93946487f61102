"""Differential testing: the kernel versus a naive reference oracle.

The oracle tracks what every domain should be able to do using plain
dictionaries and the paper's stated semantics for each model.  Random
operation sequences (attach, detach, rights changes at page and segment
granularity, switches, touches) are applied to both; any divergence in
allow/deny decisions is a bug in the hardware structures' maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel, SegmentationViolation
from repro.sim.machine import Machine

N_DOMAINS = 3
N_SEGMENTS = 2
PAGES = 4


@dataclass
class OracleState:
    """Reference semantics, per model."""

    model: str
    #: (pd, seg) -> attachment rights.
    attachments: dict[tuple[int, int], Rights] = field(default_factory=dict)
    #: domain-page models: (pd, vpn) -> override.
    overrides: dict[tuple[int, int], Rights] = field(default_factory=dict)
    #: page-group model: vpn -> (owning 'context', rights).  The context
    #: is the segment for untouched pages or the domain that last did a
    #: per-page change.
    page_ctx: dict[int, tuple[str, int, Rights]] = field(default_factory=dict)

    def attach(self, pd: int, seg: int, seg_pages: list[int], rights: Rights) -> None:
        self.attachments[(pd, seg)] = rights

    def detach(self, pd: int, seg: int, seg_pages: list[int]) -> None:
        self.attachments.pop((pd, seg), None)
        for vpn in seg_pages:
            self.overrides.pop((pd, vpn), None)

    def set_page_rights(self, pd: int, seg: int, vpn: int, rights: Rights) -> None:
        if self.model == "pagegroup":
            self.page_ctx[vpn] = ("domain", pd, rights)
        else:
            self.overrides[(pd, vpn)] = rights

    def set_segment_rights(self, pd: int, seg: int, seg_pages: list[int],
                           rights: Rights) -> None:
        self.attachments[(pd, seg)] = rights
        for vpn in seg_pages:
            self.overrides.pop((pd, vpn), None)
            if self.model == "pagegroup":
                # A whole-segment change adjusts the PID write-disable
                # bit; pages moved to private groups are unaffected.
                pass

    def allowed(self, pd: int, seg: int, vpn: int, access: AccessType) -> bool:
        attachment = self.attachments.get((pd, seg))
        if self.model == "pagegroup":
            ctx = self.page_ctx.get(vpn)
            if ctx is not None:
                kind, owner, rights = ctx
                # A page moved to a domain-private group is reachable
                # only by that domain, with the recorded rights.
                return owner == pd and rights.allows(access)
            if attachment is None or attachment == Rights.NONE:
                return False
            # Segment-group pages: RW rights field masked by the PID
            # write-disable bit from the attachment.
            effective = Rights.RW if attachment & Rights.WRITE else Rights.READ
            return effective.allows(access)
        if attachment is None:
            return False
        rights = self.overrides.get((pd, vpn), attachment)
        return rights.allows(access)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.integers(0, N_DOMAINS - 1),
                  st.integers(0, N_SEGMENTS - 1),
                  st.sampled_from([Rights.READ, Rights.RW])),
        st.tuples(st.just("detach"), st.integers(0, N_DOMAINS - 1),
                  st.integers(0, N_SEGMENTS - 1), st.none()),
        st.tuples(st.just("page_rights"), st.integers(0, N_DOMAINS - 1),
                  st.integers(0, N_SEGMENTS * PAGES - 1),
                  st.sampled_from([Rights.NONE, Rights.READ, Rights.RW])),
        st.tuples(st.just("seg_rights"), st.integers(0, N_DOMAINS - 1),
                  st.integers(0, N_SEGMENTS - 1),
                  st.sampled_from([Rights.READ, Rights.RW])),
        st.tuples(st.just("touch"), st.integers(0, N_DOMAINS - 1),
                  st.integers(0, N_SEGMENTS * PAGES - 1),
                  st.sampled_from([AccessType.READ, AccessType.WRITE])),
    ),
    min_size=1,
    max_size=50,
)


class TestKernelAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("model", ["plb", "conventional", "pagegroup"])
    @given(ops=operations)
    def test_allow_deny_matches_oracle(self, model, ops):
        kernel = Kernel(model)
        machine = Machine(kernel)
        domains = [kernel.create_domain(f"d{i}") for i in range(N_DOMAINS)]
        segments = [kernel.create_segment(f"s{i}", PAGES) for i in range(N_SEGMENTS)]
        oracle = OracleState(model=model)

        def page(global_index: int) -> tuple[int, int]:
            seg_index = global_index // PAGES
            return seg_index, segments[seg_index].vpn_at(global_index % PAGES)

        for op, d_idx, arg, extra in ops:
            domain = domains[d_idx]
            if op == "attach":
                seg = segments[arg]
                if not domain.is_attached(seg.seg_id):
                    kernel.attach(domain, seg, extra)
                    oracle.attach(domain.pd_id, arg, list(seg.vpns()), extra)
            elif op == "detach":
                seg = segments[arg]
                if domain.is_attached(seg.seg_id):
                    kernel.detach(domain, seg)
                    oracle.detach(domain.pd_id, arg, list(seg.vpns()))
            elif op == "page_rights":
                seg_index, vpn = page(arg)
                if domain.is_attached(segments[seg_index].seg_id):
                    kernel.set_pages_rights(domain, (vpn,), extra)
                    oracle.set_page_rights(domain.pd_id, seg_index, vpn, extra)
            elif op == "seg_rights":
                seg = segments[arg]
                if domain.is_attached(seg.seg_id):
                    kernel.set_segment_rights(domain, seg, extra)
                    oracle.set_segment_rights(
                        domain.pd_id, arg, list(seg.vpns()), extra
                    )
            else:  # touch
                seg_index, vpn = page(arg)
                expected = oracle.allowed(domain.pd_id, seg_index, vpn, extra)
                try:
                    machine.touch(domain, kernel.params.vaddr(vpn), extra)
                    observed = True
                except SegmentationViolation:
                    observed = False
                assert observed == expected, (
                    f"{model}: domain {domain.pd_id} {extra.value} on page "
                    f"{vpn:#x}: kernel={'allow' if observed else 'deny'}, "
                    f"oracle={'allow' if expected else 'deny'}"
                )
