"""§4.1.3 multiprocessor consistency costs, measured on the shootdown bus.

The paper's multiprocessor argument is about *translation/protection
consistency*: when a rights change or unmap happens on one CPU, how many
remote structures must be touched before the system is coherent again?

* **PLB** — the change is made to the PLB entries naming the page; a
  rights change on a shared page costs one interprocessor message per
  remote CPU, regardless of how many domains share the page.
* **Page-group** — the shared page lives in one AID-tagged TLB entry per
  CPU, so again one message per remote CPU.
* **Conventional** — the page is replicated into every sharing domain's
  page table and cached under every sharing ASID, so a global rights
  change costs one invalidation per *sharing domain* per remote CPU.

This module stages exactly that scenario — ``n_domains`` protection
domains sharing one segment, every CPU's hardware warmed under every
domain — then measures the remote shootdown traffic
(``smp.shootdown.*`` / ``smp.tlb_shootdown.*``) that each Table 1 verb
generates, and renders the comparison as a text table.  The headline
metric is *remote invalidation messages per rights change on a shared
page*, which the paper orders PLB ≤ page-group ≤ conventional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.report import format_table
from repro.check.invariants import check_invariants
from repro.core.costs import DEFAULT_COSTS
from repro.core.rights import AccessType, Rights
from repro.os.kernel import MODELS, Kernel
from repro.sim.machine import SMPMachine

#: Verb labels, in table row order.
VERB_ALL_DOMAINS = "rights change (all domains, one page)"
VERB_ONE_DOMAIN = "rights change (one domain, one page)"
VERB_UNMAP = "unmap page"
VERB_DETACH = "detach segment (one domain)"
VERBS: tuple[str, ...] = (
    VERB_ALL_DOMAINS,
    VERB_ONE_DOMAIN,
    VERB_UNMAP,
    VERB_DETACH,
)


@dataclass(frozen=True)
class VerbCost:
    """Remote consistency traffic one verb generated.

    ``msgs`` counts interprocessor shootdown messages (IPIs); ``entries``
    counts hardware entries actually invalidated/updated on remote CPUs.
    """

    msgs: int
    entries: int

    def render(self) -> str:
        return f"{self.msgs} / {self.entries}"


@dataclass
class ConsistencyResult:
    """One model's measured remote costs for every verb."""

    model: str
    n_cpus: int
    n_domains: int
    costs: dict[str, VerbCost]

    @property
    def rights_change_msgs(self) -> int:
        """The headline: remote messages for a shared-page rights change."""
        return self.costs[VERB_ALL_DOMAINS].msgs


def _remote_delta(kernel: Kernel, before) -> VerbCost:
    delta = kernel.stats.delta(before)
    msgs = delta["smp.shootdown.msgs"] + delta["smp.tlb_shootdown.msgs"]
    entries = delta["smp.shootdown.entries"] + delta["smp.tlb_shootdown.entries"]
    return VerbCost(msgs=msgs, entries=entries)


def measure_model(
    model: str,
    *,
    n_cpus: int = 4,
    n_domains: int = 4,
    pages: int = 8,
    n_frames: int = 256,
) -> ConsistencyResult:
    """Measure one model's remote shootdown costs in the §4.1.3 scenario.

    ``n_domains`` domains share one ``pages``-page segment read-write;
    every CPU references every page under every domain, so each CPU's
    protection hardware holds whatever that model caches for the sharing
    set (D PLB entries, one AID-tagged entry, or D ASID-tagged entries
    per page).  Each verb then runs once, on CPU 0, against its own page
    so the measurements do not disturb each other.
    """
    if pages < 4:
        raise ValueError("the scenario needs at least 4 pages (one per verb)")
    kernel = Kernel(model, n_frames=n_frames, n_cpus=n_cpus)
    domains = [kernel.create_domain(f"node{i}") for i in range(n_domains)]
    shared = kernel.create_segment("shared", pages)
    for domain in domains:
        kernel.attach(domain, shared, Rights.RW)

    smp = SMPMachine(kernel)
    for cpu in range(n_cpus):
        for domain in domains:
            for vpn in shared.vpns():
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn))
    # Verbs issue from CPU 0, the paper's "processor making the change".
    kernel.set_current_cpu(0)

    costs: dict[str, VerbCost] = {}

    before = kernel.stats.snapshot()
    kernel.set_pages_rights_all_domains((shared.base_vpn,), Rights.READ)
    costs[VERB_ALL_DOMAINS] = _remote_delta(kernel, before)

    before = kernel.stats.snapshot()
    kernel.set_pages_rights(domains[1], (shared.base_vpn + 1,), Rights.READ)
    costs[VERB_ONE_DOMAIN] = _remote_delta(kernel, before)

    before = kernel.stats.snapshot()
    kernel.unmap_pages((shared.base_vpn + 2,))
    costs[VERB_UNMAP] = _remote_delta(kernel, before)

    before = kernel.stats.snapshot()
    kernel.detach(domains[-1], shared)
    costs[VERB_DETACH] = _remote_delta(kernel, before)

    return ConsistencyResult(model, n_cpus, n_domains, costs)


def measure_all(
    models: Sequence[str] = MODELS,
    *,
    n_cpus: int = 4,
    n_domains: int = 4,
    pages: int = 8,
    n_frames: int = 256,
) -> dict[str, ConsistencyResult]:
    """Measure every requested model on identical inputs."""
    return {
        model: measure_model(
            model,
            n_cpus=n_cpus,
            n_domains=n_domains,
            pages=pages,
            n_frames=n_frames,
        )
        for model in models
    }


def consistency_table(
    models: Sequence[str] = MODELS,
    *,
    n_cpus: int = 4,
    n_domains: int = 4,
    pages: int = 8,
    n_frames: int = 256,
) -> str:
    """The §4.1.3 comparison, rendered: remote msgs/entries per verb."""
    results = measure_all(
        models, n_cpus=n_cpus, n_domains=n_domains, pages=pages, n_frames=n_frames
    )
    headers = ["verb (on CPU 0)"] + [f"{m} (msgs/entries)" for m in results]
    rows = [
        [verb] + [results[model].costs[verb].render() for model in results]
        for verb in VERBS
    ]
    table = format_table(
        headers,
        rows,
        title=(
            f"§4.1.3 consistency: remote shootdown traffic "
            f"({n_cpus} CPUs, {n_domains} domains sharing one segment)"
        ),
    )
    headline = ", ".join(
        f"{model}={result.rights_change_msgs}" for model, result in results.items()
    )
    return (
        table
        + "\n\nRemote invalidation messages per shared-page rights change: "
        + headline
        + "\n(paper ordering: plb <= pagegroup <= conventional)"
    )


# --------------------------------------------------------------------- #
# Batched (range) shootdowns: the §4.1.3 costs per *verb*, not per page

#: Batched-table verb labels, in row order.
BATCH_VERB_RIGHTS = "rights change (all domains, K pages)"
BATCH_VERB_MOVE = "move K pages to a group"
BATCH_VERB_UNMAP = "unmap K pages"
BATCH_VERBS: tuple[str, ...] = (BATCH_VERB_RIGHTS, BATCH_VERB_MOVE, BATCH_VERB_UNMAP)


@dataclass(frozen=True)
class BatchedVerbCost:
    """Remote traffic one multi-page verb generated, with its cycle bill."""

    msgs: int
    entries: int
    cycles: int

    def render(self) -> str:
        return f"{self.msgs} / {self.entries} / {self.cycles}"


def _shootdown_cycles(delta) -> int:
    """Price a stats delta's shootdown traffic (IPIs + entry updates)."""
    return sum(
        count * DEFAULT_COSTS.weight_for(name)
        for name, count in delta.as_dict().items()
        if "shootdown" in name
    )


@dataclass
class BatchedResult:
    """One model's group-verb workload, measured batched and legacy.

    ``end_state_ok`` is the differential check: after both runs, the
    batched and legacy kernels must expose identical protection state
    (authority rights per domain-page, residency, group placement) and
    both must pass the structural cache-coherence invariants on every
    CPU — a batched invalidation that missed a CPU would leave a stale
    entry the invariant sweep names.
    """

    model: str
    n_cpus: int
    pages: int
    batched: dict[str, BatchedVerbCost]
    legacy: dict[str, BatchedVerbCost]
    end_state_ok: bool
    problems: list[str] = field(default_factory=list)

    @property
    def workload_msgs(self) -> tuple[int, int]:
        """(batched, legacy) total remote messages over the workload."""
        return (
            sum(cost.msgs for cost in self.batched.values()),
            sum(cost.msgs for cost in self.legacy.values()),
        )


def _stage_batched_kernel(
    model: str, *, n_cpus: int, n_domains: int, pages: int, n_frames: int, batch: bool
):
    """Build and warm one kernel for the group-verb workload."""
    kernel = Kernel(model, n_frames=n_frames, n_cpus=n_cpus)
    kernel.bus.batch = batch
    domains = [kernel.create_domain(f"node{i}") for i in range(n_domains)]
    shared = kernel.create_segment("shared", pages)
    for domain in domains:
        kernel.attach(domain, shared, Rights.RW)
    smp = SMPMachine(kernel)
    for cpu in range(n_cpus):
        for domain in domains:
            for vpn in shared.vpns():
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn))
    kernel.set_current_cpu(0)
    return kernel, domains, shared


def _run_group_verbs(kernel, domains, shared, pages: int) -> dict[str, BatchedVerbCost]:
    """The group-verb workload: three K-page verbs on disjoint thirds."""
    third = pages // 3
    vpns = list(shared.vpns())
    costs: dict[str, BatchedVerbCost] = {}

    def measure(label, fn):
        before = kernel.stats.snapshot()
        fn()
        delta = kernel.stats.delta(before)
        cost = _remote_delta(kernel, before)
        costs[label] = BatchedVerbCost(
            msgs=cost.msgs, entries=cost.entries, cycles=_shootdown_cycles(delta)
        )

    measure(
        BATCH_VERB_RIGHTS,
        lambda: kernel.set_pages_rights_all_domains(vpns[:third], Rights.READ),
    )
    if kernel.model == "pagegroup":
        group = kernel.create_page_group()
        for domain in domains:
            kernel.grant_group(domain, group)
        measure(
            BATCH_VERB_MOVE,
            lambda: kernel.move_pages_to_group(
                vpns[third : 2 * third], group, rights=Rights.READ
            ),
        )
    measure(BATCH_VERB_UNMAP, lambda: kernel.unmap_pages(vpns[2 * third :]))
    return costs


def _protection_end_state(kernel, domains, shared) -> dict:
    """The authority-level protection facts a differential compare pins."""
    state: dict = {}
    for vpn in shared.vpns():
        state[("resident", vpn)] = kernel.page_resident(vpn)
        state[("group", vpn)] = kernel.page_info(vpn)
        for domain in domains:
            info = kernel.rights_for(domain.pd_id, vpn)
            state[("rights", domain.pd_id, vpn)] = (
                None if info is None else info.rights
            )
    return state


def measure_batched(
    model: str,
    *,
    n_cpus: int = 8,
    n_domains: int = 4,
    pages: int = 24,
    n_frames: int = 512,
) -> BatchedResult:
    """Run the group-verb workload batched AND legacy on twin kernels.

    Both kernels see the identical scenario; only ``bus.batch`` differs.
    The differential check then requires identical protection end state
    and clean structural invariants on both — so the message reduction
    is demonstrably free of correctness cost.
    """
    if pages < 6:
        raise ValueError("the group-verb workload needs at least 6 pages")
    runs: dict[bool, dict[str, BatchedVerbCost]] = {}
    ends: dict[bool, dict] = {}
    problems: list[str] = []
    for batch in (True, False):
        kernel, domains, shared = _stage_batched_kernel(
            model,
            n_cpus=n_cpus,
            n_domains=n_domains,
            pages=pages,
            n_frames=n_frames,
            batch=batch,
        )
        runs[batch] = _run_group_verbs(kernel, domains, shared, pages)
        ends[batch] = _protection_end_state(kernel, domains, shared)
        label = "batched" if batch else "legacy"
        problems.extend(f"{label}: {text}" for text in check_invariants(kernel))
    if ends[True] != ends[False]:
        diff = {
            key
            for key in set(ends[True]) | set(ends[False])
            if ends[True].get(key) != ends[False].get(key)
        }
        problems.append(f"end-state divergence on {sorted(diff)[:8]}")
    return BatchedResult(
        model=model,
        n_cpus=n_cpus,
        pages=pages,
        batched=runs[True],
        legacy=runs[False],
        end_state_ok=not problems,
        problems=problems,
    )


def batched_table(
    models: Sequence[str] = MODELS,
    *,
    n_cpus: int = 8,
    n_domains: int = 4,
    pages: int = 24,
    n_frames: int = 512,
    batch: bool = True,
) -> str:
    """The batched-vs-legacy §4.1.3 comparison, rendered.

    Every row shows ``msgs / entries / cycles`` per multi-page verb for
    each model, batched against legacy, plus machine-parseable workload
    lines (the CI smoke greps them) and the differential end-state
    verdict.  ``batch`` selects which mode the headline lines report —
    both modes are always measured and verified against each other.
    """
    results = {
        model: measure_batched(
            model, n_cpus=n_cpus, n_domains=n_domains, pages=pages, n_frames=n_frames
        )
        for model in models
    }
    headers = ["verb (on CPU 0)"] + [
        f"{m} {mode}" for m in results for mode in ("batched", "legacy")
    ]
    rows = []
    for verb in BATCH_VERBS:
        row = [verb]
        for model, result in results.items():
            for costs in (result.batched, result.legacy):
                cost = costs.get(verb)
                row.append("-" if cost is None else cost.render())
        rows.append(row)
    third = pages // 3
    table = format_table(
        headers,
        rows,
        title=(
            f"§4.1.3 batched range shootdowns: msgs / entries / cycles per verb "
            f"(K={third} pages, {n_cpus} CPUs, {n_domains} domains)"
        ),
    )
    mode = "on" if batch else "off"
    lines = [table, ""]
    for model, result in results.items():
        batched_msgs, legacy_msgs = result.workload_msgs
        msgs = batched_msgs if batch else legacy_msgs
        lines.append(
            f"group-verb workload [batch={mode}] model={model}: "
            f"smp.shootdown.msgs={msgs} "
            f"(batched={batched_msgs}, legacy={legacy_msgs}, "
            f"reduction={legacy_msgs / batched_msgs:.1f}x)"
        )
    ok = all(result.end_state_ok for result in results.values())
    if ok:
        lines.append("end-state check: OK (batched == legacy, invariants clean)")
    else:
        for model, result in results.items():
            for problem in result.problems:
                lines.append(f"end-state check: FAIL [{model}] {problem}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Cluster × SMP: the N nodes × M CPUs composition matrix


@dataclass(frozen=True)
class ClusterSMPCost:
    """Cost of one K-page DSM Get-Writable at N nodes × M CPUs.

    ``wire_msgs`` counts interconnect messages (requests and replies);
    ``holders`` is how many remote nodes had to give up copies, each
    served by ONE ``invalidate_range`` wire message.  ``ipi_msgs`` /
    ``ipi_batches`` count the node-local shootdown fan-out summed over
    every node: when every IPI is a batch, each node applied its whole
    invalidation as one batched range shootdown per remote CPU — never
    as K per-page messages.
    """

    nodes: int
    cpus: int
    pages: int
    wire_msgs: int
    holders: int
    ipi_msgs: int
    ipi_batches: int

    @property
    def fanout_batched(self) -> bool:
        """True when every node-local IPI carried the whole page batch."""
        return self.ipi_msgs == self.ipi_batches

    def render(self) -> str:
        return f"{self.wire_msgs} / {self.ipi_msgs} / {self.ipi_batches}"


def measure_cluster_smp(
    model: str,
    *,
    nodes: int = 4,
    cpus: int = 4,
    pages: int = 8,
    k_pages: int = 6,
) -> ClusterSMPCost:
    """Measure a K-page DSM invalidation across the node×CPU composition.

    Every non-owner node first acquires read copies of the K pages (so
    each holds state to invalidate) and warms every CPU's protection
    hardware over them; node 0 then performs one ``get_writable_range``.
    The measured deltas answer the layered consistency question: how
    many interconnect messages, and how many node-local IPIs, did one
    multi-page rights change cost?

    ``nodes=1`` is the degenerate single-machine case: no interconnect,
    just the batched range verb on one SMP kernel (the same verb the
    DSM invalidation rides).
    """
    if k_pages > pages:
        raise ValueError(f"k_pages ({k_pages}) cannot exceed pages ({pages})")
    if nodes == 1:
        kernel = Kernel(model, n_frames=256, n_cpus=cpus, n_shards=cpus)
        smp = SMPMachine(kernel)
        domain = kernel.create_domain("app")
        shared = kernel.create_segment("shared", pages)
        kernel.attach(domain, shared, Rights.RW)
        vpns = list(shared.vpns())[:k_pages]
        for cpu in range(cpus):
            for vpn in shared.vpns():
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn))
        kernel.set_current_cpu(0)
        before = kernel.merged_stats()
        kernel.set_pages_rights(domain, vpns, Rights.READ)
        delta = kernel.merged_stats().delta(before)
        return ClusterSMPCost(
            nodes=1,
            cpus=cpus,
            pages=k_pages,
            wire_msgs=0,
            holders=0,
            ipi_msgs=delta["smp.shootdown.msgs"] + delta["smp.tlb_shootdown.msgs"],
            ipi_batches=(
                delta["smp.shootdown.batches"] + delta["smp.tlb_shootdown.batches"]
            ),
        )

    from repro.cluster.dsm import ClusterDSM

    cluster = ClusterDSM(model, nodes=nodes, pages=pages, n_cpus=cpus)
    vpns = cluster.vpns[:k_pages]
    for nid in sorted(cluster.nodes):
        if nid == 0:
            continue
        for vpn in vpns:
            cluster.get_readable(cluster.nodes[nid], vpn)
    # Warm every CPU of every holder so each CPU's protection caches
    # hold entries the invalidation must reach.
    for nid, node in sorted(cluster.nodes.items()):
        for cpu in range(node.kernel.n_cpus):
            for vpn in vpns:
                node.smp.touch_on(
                    cpu, node.domain, cluster.params.vaddr(vpn), AccessType.READ
                )
        node.kernel.set_current_cpu(0)
    before = cluster.merged_stats()
    cluster.get_writable_range(cluster.nodes[0], vpns)
    delta = cluster.merged_stats().delta(before)
    return ClusterSMPCost(
        nodes=nodes,
        cpus=cpus,
        pages=k_pages,
        wire_msgs=delta["cluster.msg.sent"],
        holders=nodes - 1,
        ipi_msgs=delta["smp.shootdown.msgs"] + delta["smp.tlb_shootdown.msgs"],
        ipi_batches=(
            delta["smp.shootdown.batches"] + delta["smp.tlb_shootdown.batches"]
        ),
    )


def cluster_smp_table(
    models: Sequence[str] = MODELS,
    *,
    nodes_axis: Sequence[int] = (1, 2, 4),
    cpus_axis: Sequence[int] = (1, 2, 4),
    pages: int = 8,
    k_pages: int = 6,
) -> str:
    """The N×M composition matrix, rendered with greppable footer lines.

    Each cell reads ``wire / IPIs / batches`` for one K-page DSM
    invalidation at that node×CPU point.  The footer states, per model,
    whether the fan-out contract held at the largest point: one
    interconnect message per holder node, and every node-local IPI a
    single batched range shootdown (``IPIs == batches``).
    """
    results: dict[str, dict[tuple[int, int], ClusterSMPCost]] = {}
    for model in models:
        cells = {}
        for n in nodes_axis:
            for m in cpus_axis:
                cells[(n, m)] = measure_cluster_smp(
                    model, nodes=n, cpus=m, pages=pages, k_pages=k_pages
                )
        results[model] = cells
    headers = ["nodes x cpus"] + list(models)
    rows = []
    for n in nodes_axis:
        for m in cpus_axis:
            rows.append(
                [f"{n} x {m}"]
                + [results[model][(n, m)].render() for model in models]
            )
    table = format_table(
        headers,
        rows,
        title=(
            f"Cluster x SMP consistency: wire msgs / node-local IPIs / "
            f"batched shootdowns per {k_pages}-page DSM invalidation"
        ),
    )
    lines = [table, ""]
    top = (max(nodes_axis), max(cpus_axis))
    for model in models:
        cost = results[model][top]
        verdict = "OK" if cost.fanout_batched else "FAIL (per-page IPIs seen)"
        lines.append(
            f"cluster-smp model={model} nodes={top[0]} cpus={top[1]}: "
            f"wire_msgs={cost.wire_msgs} holders={cost.holders} "
            f"ipi_msgs={cost.ipi_msgs} ipi_batches={cost.ipi_batches} "
            f"fanout={verdict}"
        )
    lines.append(
        "contract: 1 invalidate_range wire message per holder node; each "
        "node applies it as one batched range shootdown per remote CPU."
    )
    return "\n".join(lines)
