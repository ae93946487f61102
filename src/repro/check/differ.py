"""Lockstep differential harness over the three memory systems.

One op stream (:mod:`repro.check.ops`) is replayed through a kernel per
configured model *and* through the gold model.  Every ``Touch`` is run
through each kernel's full reference path (with the same bounded
fault-retry loop the machine would perform) and the observed outcome
class — allowed / protection fault with reason / fatal page fault — is
compared against :meth:`GoldModel.expect` for that model, along with the
resolved physical address when the model reports one.  Divergence stops
the run; a ddmin-style pass then shrinks the op prefix to a minimal
reproducer, which is re-run with the PR-1 span tracer attached so the
repro dump carries the hardware-level span trail leading into the
divergent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check import ops as opmod
from repro.check.gold import Expectation, GoldModel
from repro.check.invariants import check_invariants
from repro.core.mmu import PageFault, ProtectionFault
from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.os.kernel import Kernel, MODELS


@dataclass
class Divergence:
    """One model disagreeing with the gold model (or with itself)."""

    op_index: int
    op: opmod.Op
    model: str
    kind: str          # "outcome" | "paddr" | "invariant" | "state"
    expected: str
    observed: str

    def describe(self) -> str:
        return (
            f"op[{self.op_index}] {self.op}: model {self.model!r} {self.kind} "
            f"divergence — expected {self.expected}, observed {self.observed}"
        )


@dataclass
class CheckReport:
    """Outcome of one harness run."""

    divergence: Divergence | None
    ops_applied: int
    refs_checked: int

    @property
    def ok(self) -> bool:
        return self.divergence is None


class _DivergenceError(Exception):
    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.describe())
        self.divergence = divergence


class DifferentialHarness:
    """Replays one op stream through N kernels + gold in lockstep."""

    MAX_ATTEMPTS = 2  # access, populate-on-page-fault, retry once

    def __init__(
        self,
        models: tuple[str, ...] = MODELS,
        *,
        scenario: opmod.ScenarioSpec,
        params: MachineParams = DEFAULT_PARAMS,
        n_frames: int = 256,
        invariant_every: int = 16,
        n_shards: int = 1,
    ) -> None:
        self.models = tuple(models)
        self.params = params
        self.scenario = scenario
        self.invariant_every = invariant_every
        self.gold = GoldModel(params=params)
        self.kernels = {
            model: Kernel(
                model,
                n_frames=n_frames,
                params=params,
                system_options=scenario.system_options(model),
                n_shards=n_shards,
            )
            for model in self.models
        }
        self.domains: dict = {model: {} for model in self.models}
        self.segments: dict = {model: {} for model in self.models}
        self.pfns: dict = {}
        self.tracers: dict = {}
        self.ops_applied = 0
        self.refs_checked = 0

    def attach_tracers(self) -> None:
        """Trace every kernel (used when re-running a minimized repro)."""
        from repro.obs.tracer import Tracer

        for model, kernel in self.kernels.items():
            tracer = Tracer(kernel.stats)
            kernel.attach_tracer(tracer)
            self.tracers[model] = tracer

    # ------------------------------------------------------------------ #
    # Driving

    def run(self, ops: list) -> CheckReport:
        for index, op in enumerate(ops):
            try:
                self._apply(index, op)
            except _DivergenceError as error:
                return CheckReport(error.divergence, self.ops_applied, self.refs_checked)
            self.ops_applied += 1
            if self.invariant_every and (index + 1) % self.invariant_every == 0:
                divergence = self._check_invariants(index, op)
                if divergence is not None:
                    return CheckReport(divergence, self.ops_applied, self.refs_checked)
        divergence = self._check_invariants(len(ops) - 1, ops[-1] if ops else None)
        return CheckReport(divergence, self.ops_applied, self.refs_checked)

    def _check_invariants(self, index: int, op) -> Divergence | None:
        for model, kernel in self.kernels.items():
            problems = check_invariants(kernel)
            if problems:
                return Divergence(
                    op_index=index, op=op, model=model, kind="invariant",
                    expected="structural coherence",
                    observed="; ".join(problems[:4]),
                )
        return None

    # ------------------------------------------------------------------ #
    # Op application

    def _apply(self, index: int, op) -> None:
        if not self.gold.validates(op):
            return
        if isinstance(op, opmod.Touch):
            self._apply_touch(index, op)
            return
        if isinstance(op, opmod.CreateDomain):
            ids = set()
            for model, kernel in self.kernels.items():
                domain = kernel.create_domain(op.name)
                self.domains[model][domain.pd_id] = domain
                ids.add(domain.pd_id)
            gold_pd = self.gold.apply(op)
            if ids and ids != {gold_pd}:
                raise _DivergenceError(Divergence(
                    index, op, "*", "state", f"pd_id {gold_pd}", f"pd_ids {sorted(ids)}"
                ))
            return
        if isinstance(op, opmod.CreateSegment):
            created = {}
            for model, kernel in self.kernels.items():
                segment = kernel.create_segment(
                    op.name, op.n_pages, populate=op.populate
                )
                self.segments[model][segment.seg_id] = segment
                created[model] = segment
            gold_seg = self.gold.apply(op)
            for model, segment in created.items():
                if (segment.seg_id, segment.base_vpn) != (gold_seg.seg_id, gold_seg.base_vpn):
                    raise _DivergenceError(Divergence(
                        index, op, model, "state",
                        f"segment {gold_seg.seg_id} at {gold_seg.base_vpn:#x}",
                        f"segment {segment.seg_id} at {segment.base_vpn:#x}",
                    ))
            if op.populate:
                for vpn in range(gold_seg.base_vpn, gold_seg.end_vpn):
                    self._record_pfn(index, op, vpn)
            return
        if isinstance(op, opmod.Attach):
            for model, kernel in self.kernels.items():
                kernel.attach(
                    self.domains[model][op.pd], self.segments[model][op.seg], op.rights
                )
        elif isinstance(op, opmod.Detach):
            for model, kernel in self.kernels.items():
                kernel.detach(self.domains[model][op.pd], self.segments[model][op.seg])
        elif isinstance(op, opmod.SetPageRights):
            for model, kernel in self.kernels.items():
                kernel.set_pages_rights(
                    self.domains[model][op.pd], (op.vpn,), op.rights
                )
        elif isinstance(op, opmod.SetSegmentRights):
            for model, kernel in self.kernels.items():
                kernel.set_segment_rights(
                    self.domains[model][op.pd], self.segments[model][op.seg], op.rights
                )
        elif isinstance(op, opmod.SetRightsAll):
            for kernel in self.kernels.values():
                kernel.set_pages_rights_all_domains((op.vpn,), op.rights)
        elif isinstance(op, opmod.PageOut):
            for kernel in self.kernels.values():
                kernel.free_pages((op.vpn,))
            self.pfns.pop(op.vpn, None)
        elif isinstance(op, opmod.PageIn):
            for kernel in self.kernels.values():
                kernel.populate_page(op.vpn)
            self.gold.apply(op)
            self._record_pfn(index, op, op.vpn)
            return
        elif isinstance(op, opmod.Switch):
            for model, kernel in self.kernels.items():
                kernel.switch_to(self.domains[model][op.pd])
        elif isinstance(op, opmod.DestroySegment):
            seg = self.gold.segments[op.seg]
            for vpn in range(seg.base_vpn, seg.end_vpn):
                self.pfns.pop(vpn, None)
            for model, kernel in self.kernels.items():
                kernel.destroy_segment(self.segments[model][op.seg])
        else:
            raise ValueError(f"unknown op {op!r}")
        self.gold.apply(op)

    def _record_pfn(self, index: int, op, vpn: int, only: str | None = None) -> None:
        """Assert kernels put the page in the same frame, remember it.

        ``only`` restricts the check to one kernel — used mid-reference,
        when the faulting kernel has populated the page but its peers
        have not reached their own fault yet.
        """
        values = {
            model: kernel.translations.pfn_for(vpn)
            for model, kernel in self.kernels.items()
            if only is None or model == only
        }
        distinct = set(values.values())
        expected = self.pfns.get(vpn)
        if expected is not None:
            distinct.add(expected)
        if len(distinct) > 1 or None in distinct:
            raise _DivergenceError(Divergence(
                index, op, "*", "paddr",
                f"one frame for vpn {vpn:#x}",
                f"frames {values}" + (f" (recorded {expected})" if expected else ""),
            ))
        self.pfns[vpn] = distinct.pop()

    # ------------------------------------------------------------------ #
    # References

    def _apply_touch(self, index: int, op: opmod.Touch) -> None:
        if op.pd != self.gold.current_pd:
            for model, kernel in self.kernels.items():
                kernel.switch_to(self.domains[model][op.pd])
        vpn = self.params.vpn(op.vaddr)
        seg_live = self.gold.live_segment_at(vpn) is not None
        expected = {
            model: self.gold.expect(model, op.pd, vpn, op.access)
            for model in self.models
        }
        for model in self.models:
            observed, paddr = self._run_ref(index, op, model, vpn)
            want = expected[model]
            if (observed.kind, observed.reason, observed.page_fault) != (
                want.kind, want.reason, want.page_fault
            ):
                raise _DivergenceError(Divergence(
                    index, op, model, "outcome",
                    want.describe(), observed.describe(),
                ))
            if observed.kind == "allowed" and paddr is not None:
                want_paddr = self.params.vaddr(
                    self.pfns[vpn], self.params.page_offset(op.vaddr)
                )
                if paddr != want_paddr:
                    raise _DivergenceError(Divergence(
                        index, op, model, "paddr",
                        f"{want_paddr:#x}", f"{paddr:#x}",
                    ))
        # Canonical residency: any model that translates populates the
        # page on touch; bring the kernels that never translated (e.g. a
        # PLB kernel that faulted on protection) to the same state.
        if seg_live and vpn not in self.gold.resident:
            for kernel in self.kernels.values():
                if not kernel.translations.is_resident(vpn):
                    kernel.populate_page(vpn)
            self._record_pfn(index, op, vpn)
        self.gold.apply(op)
        self.refs_checked += 1

    def _run_ref(self, index: int, op: opmod.Touch, model: str, vpn: int):
        """One reference through one kernel, with the populate-retry loop."""
        kernel = self.kernels[model]
        faulted = False
        for _ in range(self.MAX_ATTEMPTS):
            try:
                result = kernel.system.access(op.vaddr, op.access)
                return Expectation("allowed", page_fault=faulted), result.paddr
            except ProtectionFault as fault:
                return Expectation("prot", fault.reason.value, page_fault=faulted), None
            except PageFault:
                if self.gold.live_segment_at(vpn) is None:
                    return Expectation("fatal", page_fault=True), None
                if faulted:
                    break
                faulted = True
                kernel.populate_page(vpn)
                self._record_pfn(index, op, vpn, only=model)
        return Expectation("stuck", page_fault=True), None


# --------------------------------------------------------------------- #
# Minimization and the top-level entry point


def minimize_ops(harness_factory, ops: list) -> list:
    """Shrink an op list while it still produces a divergence.

    One descending-chunk ddmin pass: repeatedly try dropping blocks of
    halving size, keeping any candidate that still diverges.  Each probe
    replays a fresh harness, which is cheap at fuzzing scale (hundreds
    of ops over tiny structures).
    """
    def diverges(candidate: list) -> bool:
        return not harness_factory().run(candidate).ok

    current = list(ops)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and diverges(candidate):
                current = candidate
            else:
                index += chunk
        chunk //= 2
    return current


def _span_trail(harness: DifferentialHarness, model: str, limit: int = 25) -> list[str]:
    """The tail of the model's span stream (the trail into the failure)."""
    tracer = harness.tracers.get(model)
    if tracer is None:
        return []
    flattened = []
    for root in tracer.finish():
        for span in root.walk():
            attrs = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
            flattened.append(f"{'  ' * span.depth}{span.name}({attrs})")
    return flattened[-limit:]


@dataclass
class CheckRunResult:
    """One seed's oracle verdict, plus the repro dump on failure."""

    scenario: str
    seed: int
    models: tuple
    ok: bool
    ops_total: int
    refs_checked: int
    divergence: Divergence | None = None
    minimized: list = field(default_factory=list)
    span_trail: list = field(default_factory=list)

    def dump(self) -> dict:
        """The minimized repro as a plain JSON-able dict."""
        assert self.divergence is not None
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "models": list(self.models),
            "divergence": {
                "op_index": self.divergence.op_index,
                "model": self.divergence.model,
                "kind": self.divergence.kind,
                "expected": self.divergence.expected,
                "observed": self.divergence.observed,
            },
            "ops": [op.to_dict() for op in self.minimized],
            "span_trail": self.span_trail,
        }


def run_check(
    scenario_name: str,
    seed: int,
    models: tuple[str, ...] = MODELS,
    *,
    n_ops: int = 250,
    invariant_every: int = 16,
    minimize: bool = True,
    n_shards: int = 1,
) -> CheckRunResult:
    """Generate, replay and (on divergence) minimize one seed's stream."""
    spec = opmod.SCENARIOS[scenario_name]
    ops = opmod.generate_ops(spec, seed, n_ops)

    def factory() -> DifferentialHarness:
        return DifferentialHarness(
            models, scenario=spec, invariant_every=invariant_every,
            n_shards=n_shards,
        )

    report = factory().run(ops)
    if report.ok:
        return CheckRunResult(
            scenario=scenario_name, seed=seed, models=tuple(models),
            ok=True, ops_total=len(ops), refs_checked=report.refs_checked,
        )
    minimized = ops[: report.divergence.op_index + 1]
    if minimize:
        minimized = minimize_ops(factory, minimized)
    # Re-run the minimized stream traced, to capture the span trail the
    # divergent model followed into the failure.
    traced = factory()
    traced.attach_tracers()
    traced_report = traced.run(minimized)
    final = traced_report.divergence or report.divergence
    model = final.model if final.model in traced.tracers else next(iter(models))
    return CheckRunResult(
        scenario=scenario_name, seed=seed, models=tuple(models),
        ok=False, ops_total=len(ops), refs_checked=report.refs_checked,
        divergence=final, minimized=minimized,
        span_trail=_span_trail(traced, model),
    )
