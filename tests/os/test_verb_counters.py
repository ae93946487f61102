"""Every Table 1 page verb, pinned counter for counter across CPUs.

``benchmarks/baselines/verb_counters.json`` holds, for each model on 1,
2 and 4 CPUs, what one fixed script of rights, group and unmap verbs
leaves behind:

* ``merged``: :meth:`Kernel.merged_stats`;
* ``per_cpu``: :func:`repro.os.smp.per_cpu_stats`;
* ``spans``: the ``(name, attrs)`` sequence of the verbs' kernel spans;
* ``returns``: what the verbs returned (previous groups, frames);
* ``touches``: how the warming references ended, by outcome.

The script issues each verb on one page and on a page batch, from the
first and from the last CPU, with every CPU's hardware warmed in
between so that each shootdown finds entries to change.  A single-page
call is a 1-page tuple: it must charge exactly what the single-page
verb charged before the two were merged.

Regenerate the baseline (only for an intended change to what a verb
charges, said so in CHANGES.md) with::

    PYTHONPATH=src python tests/os/test_verb_counters.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.rights import AccessType, Rights
from repro.obs.tracer import Tracer
from repro.os.kernel import MODELS, Kernel, SegmentationViolation
from repro.os.smp import per_cpu_stats
from repro.sim.machine import SMPMachine

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baselines"
    / "verb_counters.json"
)

CPUS = (1, 2, 4)

CASES = [f"{model}/cpus{n_cpus}" for model in MODELS for n_cpus in CPUS]


def drive(model: str, n_cpus: int) -> dict:
    """Run the verb script; returns the counters and spans it leaves."""
    kernel = Kernel(model, n_frames=128, n_cpus=n_cpus)
    tracer = Tracer(kernel.stats)
    kernel.attach_tracer(tracer)
    smp = SMPMachine(kernel)
    page = kernel.params.page_size
    last = n_cpus - 1
    doms = [kernel.create_domain(f"d{i}") for i in range(3)]
    shared = kernel.create_segment("shared", 8)
    heap = kernel.create_segment("heap", 16)
    kernel.attach(doms[0], shared, Rights.RW)
    for dom in doms[1:]:
        kernel.attach(dom, shared, Rights.READ)
    kernel.attach(doms[0], heap, Rights.RW)
    kernel.attach(doms[1], heap, Rights.READ)
    live = {shared.seg_id: shared, heap.seg_id: heap}
    touches: dict[str, int] = {"ok": 0, "faulted": 0, "killed": 0}
    returns: list[int] = []

    def warm() -> None:
        """Every CPU touches every resident page in every domain."""
        for cpu in range(n_cpus):
            for dom in doms:
                for segment in live.values():
                    if not dom.is_attached(segment.seg_id):
                        continue
                    for vpn in segment.vpns():
                        if not kernel.translations.is_resident(vpn):
                            continue
                        for access in (AccessType.READ, AccessType.WRITE):
                            try:
                                result = smp.touch_on(cpu, dom, vpn * page, access)
                            except SegmentationViolation:
                                touches["killed"] += 1
                            else:
                                touches["faulted" if result.faulted else "ok"] += 1

    def on(cpu: int, verb, *args, **kwargs):
        kernel.set_current_cpu(cpu)
        out = verb(*args, **kwargs)
        warm()
        return out

    a, h = shared.base_vpn, heap.base_vpn
    warm()
    # Per-domain rights: one page, then a batch.
    on(0, kernel.set_pages_rights, doms[1], (a + 1,), Rights.RW)
    on(last, kernel.set_pages_rights, doms[1], (a + 2,), Rights.NONE)
    on(0, kernel.set_pages_rights, doms[2], (a + 3, a + 4), Rights.NONE)
    on(last, kernel.set_pages_rights, doms[0], (h + 1, h + 2, h + 3), Rights.READ)
    # All-domains rights.
    on(0, kernel.set_pages_rights_all_domains, (a + 5,), Rights.READ)
    on(last, kernel.set_pages_rights_all_domains, (h + 4,), Rights.NONE)
    on(0, kernel.set_pages_rights_all_domains, (a + 6, a + 7), Rights.NONE)
    on(last, kernel.set_pages_rights_all_domains, (h + 5, h + 6), Rights.READ)
    if model == "pagegroup":
        group = kernel.create_page_group()
        kernel.grant_group(doms[0], group)
        olds = [
            on(0, kernel.move_pages_to_group, (h + 7,), group, rights=Rights.RW)[h + 7],
            on(last, kernel.move_pages_to_group, (h + 8,), group)[h + 8],
        ]
        moved = on(0, kernel.move_pages_to_group, (h + 9, h + 10), group,
                   rights=Rights.READ)
        returns.extend(olds + sorted(moved.values()))
        on(last, kernel.set_pages_rights_global, (h + 8,), Rights.READ)
        on(0, kernel.set_pages_rights_global, (h + 9, h + 10), Rights.RW)
    # Translation verbs.
    frames = [
        on(0, kernel.unmap_pages, (h + 11,))[h + 11],
        on(last, kernel.unmap_pages, (h + 12,), flush_cache=False)[h + 12],
    ]
    on(0, kernel.free_pages, (h + 13,))
    on(last, kernel.free_pages, (h + 14, h + 15))
    frames.extend(on(0, kernel.unmap_pages, (a + 6, a + 7)).values())
    returns.extend(frames)

    return {
        "merged": dict(sorted(kernel.merged_stats().as_dict().items())),
        "per_cpu": dict(sorted(per_cpu_stats(kernel).as_dict().items())),
        "spans": [
            [span.name, span.attrs]
            for span in tracer.all_spans()
            if span.name.startswith("kernel.")
            and not span.name.startswith("kernel.fault.")
        ],
        "returns": returns,
        "touches": touches,
    }


def capture() -> dict[str, dict]:
    return {
        f"{model}/cpus{n_cpus}": drive(model, n_cpus)
        for model in MODELS
        for n_cpus in CPUS
    }


def _pinned() -> dict:
    return json.loads(BASELINE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_verbs_charge_the_pinned_counters(case):
    model, cpus = case.split("/")
    got = json.loads(json.dumps(drive(model, int(cpus[4:]))))
    pinned = _pinned()[case]
    assert got["merged"] == pinned["merged"]
    assert got["per_cpu"] == pinned["per_cpu"]
    assert got["spans"] == pinned["spans"]
    assert got["returns"] == pinned["returns"]
    assert got["touches"] == pinned["touches"]


def test_baseline_covers_exactly_the_cases():
    assert sorted(_pinned()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    BASELINE.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {BASELINE}")
