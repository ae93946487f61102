"""Chaos harness: seeded fault injection checked against the gold oracle.

Where :mod:`repro.check.differ` replays one op stream through *all*
models in lockstep and compares every reference, the chaos harness
replays it through **one** kernel with a :class:`~repro.faults.plan.
FaultPlan` armed — disk errors, cache corruption, dropped shootdowns,
machine checks — and lets the recovery machinery (pager retries, the
machine-check handler, the scrubber) absorb the damage.  Mid-run
outcomes are deliberately *not* compared: an injected fault may
legitimately change an individual reference.  What must hold is the
paper's soft-state contract: after the run drains (pager emptied,
delayed shootdowns flushed, one final scrub), **every** possible
reference must classify exactly as the gold model predicts.  Any
surviving divergence is an unrecovered fault; :func:`run_chaos` then
re-runs the seed traced and returns a replayable JSON repro.

The module also hosts :func:`run_crash_recover`: for every journaled
kernel verb it first enumerates the verb's mutation boundaries with a
crash-free run, then crashes a fresh fixture at each boundary in turn,
recovers through the intent journal, and checks the authoritative state
fingerprint is byte-identical to the pre-verb snapshot.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

from repro.check import ops as opmod
from repro.check.differ import Divergence
from repro.check.gold import GoldModel
from repro.check.invariants import check_invariants
from repro.core.mmu import PageFault, ProtectionFault
from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.core.rights import AccessType, Rights
from repro.faults.errors import HardwareFault
from repro.faults.journal import IntentJournal, SimulatedCrash
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.scrub import Scrubber
from repro.os.kernel import MODELS, Kernel, KernelError, SegmentationViolation
from repro.os.pager import UserLevelPager

#: Counter prefixes surfaced in chaos reports and recovery summaries.
RECOVERY_COUNTER_PREFIXES = (
    "faults.",
    "disk.",
    "scrub.",
    "journal.",
    "pager.",
    "kernel.fault.machine_check",
    "kernel.degraded",
    "kernel.rebuild_protection",
)


def recovery_counters(stats) -> dict[str, int]:
    """The fault/recovery slice of a Stats object, as a plain dict."""
    return {
        name: count
        for name, count in stats.items()
        if name.startswith(RECOVERY_COUNTER_PREFIXES)
    }


class _DivergenceError(Exception):
    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.describe())
        self.divergence = divergence


@dataclass
class ChaosReport:
    """Outcome of one harness run."""

    divergence: Divergence | None
    ops_applied: int
    refs_checked: int

    @property
    def ok(self) -> bool:
        return self.divergence is None


class ChaosHarness:
    """One kernel + gold model + (optionally) an armed fault injector."""

    #: access, then populate / page-in / restore retries; injected faults
    #: can stack a protection restore on top of a page-in, hence > differ's 2.
    MAX_ATTEMPTS = 4

    def __init__(
        self,
        model: str,
        *,
        scenario: opmod.ScenarioSpec,
        plan: FaultPlan | None = None,
        params: MachineParams = DEFAULT_PARAMS,
        n_frames: int = 256,
        scrub_every: int = 0,
        n_cpus: int = 1,
    ) -> None:
        self.model = model
        self.params = params
        self.scenario = scenario
        self.scrub_every = scrub_every
        self.n_cpus = n_cpus
        #: Round-robin cursor distributing Touch ops over the CPUs.
        self._next_touch_cpu = 0
        self.gold = GoldModel(params=params)
        self.kernel = Kernel(
            model,
            n_frames=n_frames,
            params=params,
            system_options=scenario.system_options(model),
            n_cpus=n_cpus,
        )
        self.scrubber = Scrubber(self.kernel)
        self.injector = FaultInjector(plan) if plan is not None else None
        if self.injector is not None:
            self.injector.arm(self.kernel)
        self.pager: UserLevelPager | None = None
        self.domains: dict = {}
        self.segments: dict = {}
        self.tracer = None
        self.ops_applied = 0
        self.refs_checked = 0

    def attach_tracer(self) -> None:
        from repro.obs.tracer import Tracer

        self.tracer = Tracer(self.kernel.stats)
        self.kernel.attach_tracer(self.tracer)

    # ------------------------------------------------------------------ #
    # Driving

    def run(self, ops: list) -> ChaosReport:
        divergence = self._replay(ops)
        if divergence is None:
            divergence = self._verify(ops)
        return ChaosReport(divergence, self.ops_applied, self.refs_checked)

    def _replay(self, ops: list) -> Divergence | None:
        for index, op in enumerate(ops):
            if self.injector is not None:
                self.injector.tick(index)
            try:
                self._apply(index, op)
            except _DivergenceError as error:
                return error.divergence
            except HardwareFault as fault:
                return Divergence(
                    index, op, self.model, "unrecovered",
                    "recovered execution",
                    f"{type(fault).__name__}: {fault}",
                )
            self.ops_applied += 1
            if (
                self.injector is not None
                and self.scrub_every
                and (index + 1) % self.scrub_every == 0
            ):
                self.scrubber.scrub()
        return None

    # ------------------------------------------------------------------ #
    # Op application

    def _apply(self, index: int, op) -> None:
        if not self.gold.validates(op):
            return
        kernel = self.kernel
        if isinstance(op, opmod.Touch):
            self._apply_touch(index, op)
            return
        if isinstance(op, opmod.CreateDomain):
            domain = kernel.create_domain(op.name)
            self.domains[domain.pd_id] = domain
            gold_pd = self.gold.apply(op)
            if domain.pd_id != gold_pd:
                raise _DivergenceError(Divergence(
                    index, op, self.model, "state",
                    f"pd_id {gold_pd}", f"pd_id {domain.pd_id}",
                ))
            return
        if isinstance(op, opmod.CreateSegment):
            segment = kernel.create_segment(op.name, op.n_pages, populate=op.populate)
            self.segments[segment.seg_id] = segment
            gold_seg = self.gold.apply(op)
            if (segment.seg_id, segment.base_vpn) != (gold_seg.seg_id, gold_seg.base_vpn):
                raise _DivergenceError(Divergence(
                    index, op, self.model, "state",
                    f"segment {gold_seg.seg_id} at {gold_seg.base_vpn:#x}",
                    f"segment {segment.seg_id} at {segment.base_vpn:#x}",
                ))
            return
        try:
            if isinstance(op, opmod.Attach):
                kernel.attach(self.domains[op.pd], self.segments[op.seg], op.rights)
            elif isinstance(op, opmod.Detach):
                kernel.detach(self.domains[op.pd], self.segments[op.seg])
            elif isinstance(op, opmod.SetPageRights):
                kernel.set_pages_rights(self.domains[op.pd], (op.vpn,), op.rights)
            elif isinstance(op, opmod.SetSegmentRights):
                kernel.set_segment_rights(
                    self.domains[op.pd], self.segments[op.seg], op.rights
                )
            elif isinstance(op, opmod.SetRightsAll):
                kernel.set_pages_rights_all_domains((op.vpn,), op.rights)
            elif isinstance(op, opmod.PageOut):
                self._pager().page_out(op.vpn)
            elif isinstance(op, opmod.PageIn):
                pager = self._pager()
                if op.vpn in pager.evicted_pages:
                    pager.page_in(op.vpn)
                else:
                    kernel.populate_page(op.vpn)
            elif isinstance(op, opmod.Switch):
                kernel.switch_to(self.domains[op.pd])
            elif isinstance(op, opmod.DestroySegment):
                kernel.destroy_segment(self.segments[op.seg])
            else:
                raise TypeError(f"unknown op {op!r}")
        except (KernelError, ValueError) as error:
            # The generator only emits gold-valid verbs; a kernel (or
            # pager-protocol) rejection means kernel state drifted.
            raise _DivergenceError(Divergence(
                index, op, self.model, "state",
                "gold-valid verb accepted",
                f"{type(error).__name__}: {error}",
            )) from error
        self.gold.apply(op)

    def _pager(self) -> UserLevelPager:
        if self.pager is None:
            self.pager = UserLevelPager(self.kernel)
        return self.pager

    def _apply_touch(self, index: int, op: opmod.Touch) -> None:
        if self.n_cpus > 1:
            # Round-robin the reference stream over the CPUs; each CPU
            # tracks its own current domain, so switch only when this
            # CPU last ran someone else.
            cpu = self._next_touch_cpu
            self._next_touch_cpu = (cpu + 1) % self.n_cpus
            self.kernel.set_current_cpu(cpu)
            if self.kernel.system.current_domain != op.pd:
                self.kernel.switch_to(self.domains[op.pd])
        elif op.pd != self.gold.current_pd:
            self.kernel.switch_to(self.domains[op.pd])
        vpn = self.params.vpn(op.vaddr)
        # The outcome is NOT compared here: an injected fault may change
        # it legitimately.  The end-state sweep is the arbiter.
        self._probe(vpn, op.vaddr, op.access)
        self.refs_checked += 1
        # Canonical residency (same contract as the differ): a touch of
        # a live page leaves it resident in the gold model, so populate
        # a kernel that never translated (e.g. a PLB protection denial).
        if (
            self.gold.live_segment_at(vpn) is not None
            and not self.kernel.translations.is_resident(vpn)
            and (self.pager is None or vpn not in self.pager.evicted_pages)
        ):
            self.kernel.populate_page(vpn)
        self.gold.apply(op)

    def _probe(self, vpn: int, vaddr: int, access: AccessType):
        """One reference with the machine's full fault-delivery loop.

        Returns ``(kind, reason, paddr)`` where kind mirrors
        :class:`~repro.check.gold.Expectation` (plus ``"stuck"`` when
        the retry budget is exhausted).
        """
        kernel = self.kernel
        for _ in range(self.MAX_ATTEMPTS):
            try:
                result = kernel.system.access(vaddr, access)
                return "allowed", None, result.paddr
            except ProtectionFault as fault:
                try:
                    kernel.handle_protection_fault(fault)
                except SegmentationViolation:
                    return "prot", fault.reason.value, None
            except PageFault as fault:
                try:
                    kernel.handle_page_fault(fault)
                except SegmentationViolation:
                    return "fatal", None, None
        return "stuck", None, None

    # ------------------------------------------------------------------ #
    # End-state verification

    def _verify(self, ops: list) -> Divergence | None:
        index = len(ops)
        last = ops[-1] if ops else None
        try:
            self._drain_pager()
        except HardwareFault as fault:
            return Divergence(
                index, last, self.model, "unrecovered",
                "pager drained cleanly",
                f"{type(fault).__name__}: {fault}",
            )
        if self.injector is not None:
            self.injector.disarm()  # flushes delayed shootdowns, unhooks
            self.scrubber.scrub()   # final repair pass before the audit
        return self._sweep(index, last) or self._check_invariants(index, last)

    def _drain_pager(self) -> None:
        """Page everything back in so residency converges with gold."""
        if self.pager is None:
            return
        for vpn in sorted(self.pager.evicted_pages):
            if self.kernel.segment_at(vpn) is None:
                # Stale record for a destroyed segment's page.
                self.pager._evicted.pop(vpn, None)
                self.kernel.stats.inc("pager.stale_eviction_dropped")
                continue
            self.pager.page_in(vpn)
            if self.gold.live_segment_at(vpn) is not None:
                self.gold.resident.add(vpn)

    def _sweep(self, index: int, op) -> Divergence | None:
        """Audit every (domain, page, access) outcome against gold.

        Residency timing differs once a pager and injected faults are in
        play, so only the outcome *class* (kind + fault reason) is
        compared — not the ``page_fault`` flag.  Physical addresses are
        checked against the authoritative translation table, catching
        stale TLB translations that survived the scrub.
        """
        kernel = self.kernel
        for cpu in range(self.n_cpus):
            kernel.set_current_cpu(cpu)
            divergence = self._sweep_cpu(index, op, cpu)
            if divergence is not None:
                return divergence
        return None

    def _sweep_cpu(self, index: int, op, cpu: int) -> Divergence | None:
        kernel = self.kernel
        for pd_id in sorted(self.domains):
            kernel.switch_to(self.domains[pd_id])
            for seg in self.gold.segments.values():
                for vpn in range(seg.base_vpn, seg.end_vpn):
                    for access in (AccessType.READ, AccessType.WRITE):
                        expected = self.gold.expect(self.model, pd_id, vpn, access)
                        kind, reason, paddr = self._probe(
                            vpn, self.params.vaddr(vpn), access
                        )
                        self.refs_checked += 1
                        where = f"pd {pd_id} vpn {vpn:#x} {access.value}"
                        if self.n_cpus > 1:
                            where = f"cpu{cpu} {where}"
                        if (kind, reason) != (expected.kind, expected.reason):
                            return Divergence(
                                index, op, self.model, "outcome",
                                f"end-state {where}: {_fmt(expected.kind, expected.reason)}",
                                _fmt(kind, reason),
                            )
                        if kind == "allowed" and paddr is not None:
                            pfn = kernel.translations.pfn_for(vpn)
                            want = self.params.vaddr(pfn, 0) if pfn is not None else None
                            if want != paddr:
                                return Divergence(
                                    index, op, self.model, "paddr",
                                    f"end-state {where}: {want:#x}" if want is not None
                                    else f"end-state {where}: resident translation",
                                    f"{paddr:#x}",
                                )
        return None

    def _check_invariants(self, index: int, op) -> Divergence | None:
        problems = check_invariants(self.kernel)
        if problems:
            return Divergence(
                index, op, self.model, "invariant",
                "structural coherence", "; ".join(problems[:4]),
            )
        return None


def _fmt(kind: str, reason: str | None) -> str:
    return f"{kind}/{reason}" if reason else kind


# --------------------------------------------------------------------- #
# Top-level entry point


@dataclass
class ChaosResult:
    """One seed's chaos verdict, plus the replayable repro on failure."""

    scenario: str
    model: str
    seed: int
    plan: FaultPlan | None
    ok: bool
    ops_total: int
    refs_checked: int
    counters: dict = field(default_factory=dict)
    divergence: Divergence | None = None
    span_trail: list = field(default_factory=list)
    n_cpus: int = 1

    def dump(self) -> dict:
        """The repro as a plain JSON-able dict.

        Replay with ``python -m repro chaos <scenario> --model <model>
        --seed <seed> --plan <plan>`` — everything is derived
        deterministically from those four values.
        """
        assert self.divergence is not None
        d = self.divergence
        return {
            "scenario": self.scenario,
            "model": self.model,
            "seed": self.seed,
            "n_ops": self.ops_total,
            "n_cpus": self.n_cpus,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "divergence": {
                "op_index": d.op_index,
                "op": d.op.to_dict() if isinstance(d.op, opmod.Op) else None,
                "model": d.model,
                "kind": d.kind,
                "expected": d.expected,
                "observed": d.observed,
            },
            "counters": self.counters,
            "span_trail": self.span_trail,
        }


def _resolve_plan(plan, seed: int, n_ops: int) -> FaultPlan | None:
    if plan is None or isinstance(plan, FaultPlan):
        return plan
    return FaultPlan.generate(plan, seed, n_ops)


def _span_trail(tracer, limit: int = 25) -> list[str]:
    if tracer is None:
        return []
    flattened = []
    for root in tracer.finish():
        for span in root.walk():
            attrs = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
            flattened.append(f"{'  ' * span.depth}{span.name}({attrs})")
    return flattened[-limit:]


def run_chaos(
    scenario_name: str,
    model: str,
    seed: int,
    *,
    plan: FaultPlan | str | None = "mixed",
    n_ops: int = 120,
    scrub_every: int = 16,
    n_frames: int = 256,
    n_cpus: int = 1,
) -> ChaosResult:
    """Run one seeded chaos campaign; on divergence, re-run traced.

    With ``n_cpus > 1`` the reference stream is distributed round-robin
    over the CPUs (kernel verbs issue from whichever CPU ran last) and
    the end-state sweep audits every CPU's hardware against gold.
    """
    spec = opmod.SCENARIOS[scenario_name]
    ops = opmod.generate_ops(spec, seed, n_ops)
    fault_plan = _resolve_plan(plan, seed, n_ops)

    def factory() -> ChaosHarness:
        return ChaosHarness(
            model, scenario=spec, plan=fault_plan,
            scrub_every=scrub_every, n_frames=n_frames, n_cpus=n_cpus,
        )

    harness = factory()
    report = harness.run(ops)
    counters = recovery_counters(harness.kernel.merged_stats())
    if report.ok:
        return ChaosResult(
            scenario=scenario_name, model=model, seed=seed, plan=fault_plan,
            ok=True, ops_total=len(ops), refs_checked=report.refs_checked,
            counters=counters, n_cpus=n_cpus,
        )
    # Deterministic traced re-run: same plan, fresh injector, so the
    # repro dump carries the span trail into the divergence.
    traced = factory()
    traced.attach_tracer()
    traced_report = traced.run(ops)
    final = traced_report.divergence or report.divergence
    return ChaosResult(
        scenario=scenario_name, model=model, seed=seed, plan=fault_plan,
        ok=False, ops_total=len(ops), refs_checked=report.refs_checked,
        counters=counters, divergence=final,
        span_trail=_span_trail(traced.tracer), n_cpus=n_cpus,
    )


# --------------------------------------------------------------------- #
# Crash-recovery sweep


@dataclass
class CrashRecoverResult:
    """Every (model, verb, crash point) and what recovery restored."""

    cases: int = 0
    crash_points: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def dump(self) -> dict:
        return {
            "cases": self.cases,
            "crash_points": self.crash_points,
            "failures": list(self.failures),
        }


class _Fixture:
    """Two domains, two segments, recognizable frame data."""


def _crash_fixture(model: str) -> _Fixture:
    fx = _Fixture()
    kernel = Kernel(model, n_frames=64)
    fx.kernel = kernel
    fx.pager = UserLevelPager(kernel)
    fx.a = kernel.create_domain("app-a")
    fx.b = kernel.create_domain("app-b")
    fx.s1 = kernel.create_segment("s1", 4, populate=True)
    fx.s2 = kernel.create_segment("s2", 4, populate=True)
    kernel.attach(fx.a, fx.s1, Rights.RW)
    kernel.attach(fx.b, fx.s1, Rights.READ)
    kernel.attach(fx.a, fx.s2, Rights.READ)
    kernel.switch_to(fx.a)
    for offset, vpn in enumerate(fx.s1.vpns()):
        pfn = kernel.translations.pfn_for(vpn)
        kernel.memory.write_page(pfn, bytes([0x40 + offset]) * kernel.params.page_size)
    fx.v0 = fx.s1.base_vpn
    fx.vpns = list(fx.s1.vpns()) + list(fx.s2.vpns())
    return fx


def _prepare_page_in(fx: _Fixture):
    fx.pager.page_out(fx.v0)  # committed setup, outside the journal
    return (lambda: fx.pager.page_in(fx.v0)), [fx.v0]


def _prepare_move(fx: _Fixture):
    group = fx.kernel.create_page_group()
    fx.a.grant_group(group)
    return (
        lambda: fx.kernel.move_pages_to_group((fx.v0,), group, rights=Rights.READ)
    ), [fx.v0]


def _crash_verbs(model: str) -> list:
    """(verb, builder) pairs; builder(fx) -> (fn, journaled vpns)."""
    verbs = [
        ("attach", lambda fx: (
            (lambda: fx.kernel.attach(fx.b, fx.s2, Rights.RW)), list(fx.s2.vpns())
        )),
        ("detach", lambda fx: (
            (lambda: fx.kernel.detach(fx.a, fx.s1)), list(fx.s1.vpns())
        )),
        ("page_out", lambda fx: (
            (lambda: fx.pager.page_out(fx.v0)), [fx.v0]
        )),
        ("page_in", _prepare_page_in),
    ]
    if model == "pagegroup":
        verbs.append(("revoke_group", lambda fx: (
            (lambda: fx.kernel.revoke_group(fx.b, fx.s1.aid)), list(fx.s1.vpns())
        )))
        verbs.append(("move_page_to_group", _prepare_move))
    return verbs


def _authority_fingerprint(fx: _Fixture) -> dict:
    """Everything recovery promises to restore, keyed for diffing.

    Frame numbers are deliberately excluded: recovery may re-allocate a
    page into a different frame; what must survive is residency, data,
    and protection — not the physical placement.
    """
    kernel = fx.kernel
    pages = {}
    for vpn in fx.vpns:
        pfn = kernel.translations.pfn_for(vpn)
        mapping = kernel.translations.mapping(vpn)
        pages[vpn] = (
            pfn is not None,
            kernel.memory.read_page(pfn) if pfn is not None else None,
            mapping.on_disk if mapping is not None else None,
            kernel.group_table.aid_of(vpn),
            kernel.group_table.rights_of(vpn),
            kernel.backing.peek(vpn),
            vpn in fx.pager._evicted,
        )
    domains = {}
    for pd_id, domain in kernel.domains.items():
        domains[pd_id] = (
            dict(domain.attachments),
            dict(domain.page_overrides),
            {g: e.write_disable for g, e in sorted(domain.groups.items())},
        )
    rights = {}
    for pd_id in kernel.domains:
        for vpn in fx.vpns:
            info = kernel.rights_for(pd_id, vpn)
            rights[(pd_id, vpn)] = None if info is None else info.rights
    return {"pages": pages, "domains": domains, "rights": rights}


def _first_difference(before: dict, after: dict) -> str:
    short = reprlib.Repr()
    short.maxstring = 32
    short.maxother = 48
    for section in before:
        for key, value in before[section].items():
            got = after[section].get(key)
            if got != value:
                return f"{section}[{key}]: {short.repr(value)} -> {short.repr(got)}"
    return "structure mismatch"


def run_crash_recover(
    models: tuple[str, ...] = MODELS, *, verbs: tuple[str, ...] | None = None
) -> CrashRecoverResult:
    """Crash every journaled verb at every boundary; verify recovery."""
    result = CrashRecoverResult()
    for model in models:
        for verb, build in _crash_verbs(model):
            if verbs is not None and verb not in verbs:
                continue
            result.cases += 1
            # Crash-free run: enumerate this verb's mutation boundaries.
            fx = _crash_fixture(model)
            journal = IntentJournal(fx.kernel, fx.pager)
            fn, vpns = build(fx)
            boundaries, _ = journal.run(verb, fn, vpns)
            problems = check_invariants(fx.kernel)
            if problems:
                result.failures.append(
                    f"{model}/{verb} committed: {'; '.join(problems[:2])}"
                )
            for crash_at in range(1, boundaries + 1):
                result.crash_points += 1
                fx = _crash_fixture(model)
                journal = IntentJournal(fx.kernel, fx.pager)
                fn, vpns = build(fx)
                before = _authority_fingerprint(fx)
                try:
                    journal.run(verb, fn, vpns, crash_at=crash_at)
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: crash did not fire"
                    )
                    continue
                except SimulatedCrash:
                    pass
                if not journal.recover():
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: nothing to recover"
                    )
                    continue
                after = _authority_fingerprint(fx)
                if after != before:
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: state differs after "
                        f"recovery — {_first_difference(before, after)}"
                    )
                problems = check_invariants(fx.kernel)
                if problems:
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: {'; '.join(problems[:2])}"
                    )
    return result
