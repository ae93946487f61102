"""The traced run: per-layer host time, measured from outside the program.

The traced run wraps public functions and methods of the simulator with
timing spans, installed by :class:`Patcher` before any kernel is built
and undone afterwards, so the program itself carries no instrumentation.
A layer's *self time* is the time its spans were open minus the time
their child spans were open; the round itself is the root span, whose
self time is reported as ``unattributed``.  The self times of every
layer plus ``unattributed`` therefore sum to the round's time exactly.

``LAYERS`` is the layer map: layer name -> the functions whose calls are
that layer's spans.  Calls of a layer are counted too.  Nothing is
wrapped that would change what the program does: in particular no
``repro.obs.Tracer`` is ever attached, because an active tracer switches
the replay memo off and would measure a different program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from typing import Callable

from harness import MIN_TRACED_ROUNDS, OpTimer, digest
from refloop import ReferenceLoop, sample_ms

#: Every plain function a class defines itself, dunders excluded.
ALL = "*"

#: Kernel entry points a workload calls to change protection state.
KERNEL_VERBS = (
    "create_domain", "create_segment", "create_page_group",
    "destroy_segment", "attach", "detach", "set_page_rights",
    "set_pages_rights", "set_rights_all_domains",
    "set_pages_rights_all_domains", "set_segment_rights", "switch_to",
    "grant_group", "revoke_group", "move_page_to_group",
    "set_page_rights_global", "move_pages_to_group",
    "set_pages_rights_global", "populate_page", "unmap_page", "free_page",
    "unmap_pages", "free_pages",
)

_SYSTEMS = ("PLBSystem", "PageGroupSystem", "ConventionalSystem")
_TLBS = ("TranslationTLB", "AIDTaggedTLB", "ASIDTaggedTLB")
_REQUESTS = (
    "RequestSource", "TxnRequests", "GcRequests", "RpcRequests",
    "CheckpointRequests",
)

#: layer -> [(module, class or None for a module function, names)].
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...] | str]]] = {
    "sim.run": [("repro.sim.machine", "Machine", ("run", "touch", "step"))],
    "core.access": [
        ("repro.core.mmu", cls, ("_access_fast",)) for cls in _SYSTEMS
    ],
    "core.recipe": [
        ("repro.core.mmu", cls, ("hot_recipe",)) for cls in _SYSTEMS
    ],
    "core.plb": [("repro.core.plb", "ProtectionLookasideBuffer", ALL)],
    "core.pgcache": [("repro.core.pagegroup", "PageGroupCache", ALL)],
    "hardware.tlb": [("repro.hardware.tlb", cls, ALL) for cls in _TLBS],
    "hardware.cache.build": [
        ("repro.hardware.cache", "DataCache", ("__init__",))
    ],
    "hardware.cache.scan": [
        ("repro.hardware.cache", "DataCache", ("resident_lines",))
    ],
    "hardware.backing": [
        ("repro.hardware.backing", "BackingStore", ALL),
        ("repro.hardware.backing", "CompressedStore", ALL),
    ],
    "check.invariants": [
        ("repro.check.invariants", None, ("check_invariants",))
    ],
    "cluster.build": [("repro.cluster.dsm", "ClusterDSM", ("__init__",))],
    "cluster.dsm": [("repro.cluster.dsm", "ClusterDSM", ALL)],
    "cluster.send": [
        ("repro.cluster.interconnect", "Interconnect", ("send",))
    ],
    "os.verb": [("repro.os.kernel", "Kernel", KERNEL_VERBS)],
    "os.fault": [(
        "repro.os.kernel", "Kernel",
        ("handle_protection_fault", "handle_page_fault",
         "handle_machine_check"),
    )],
    "os.merged_stats": [("repro.os.kernel", "Kernel", ("merged_stats",))],
    "os.pager": [("repro.os.pager", "UserLevelPager", ALL)],
    "os.shootdown": [(
        "repro.os.smp", "ShootdownBus",
        ("shootdown", "shootdown_range", "broadcast_remote"),
    )],
    "workloads.dsm": [("repro.workloads.dsm", "DSMCluster", ALL)],
    "workloads.request": [
        ("repro.workloads.openloop", cls, ("execute", "recover"))
        for cls in _REQUESTS
    ],
    "obs.span": [
        ("repro.obs.tracer", "_SpanHandle", ("__enter__", "__exit__"))
    ],
    "obs.live": [("repro.obs.live", "LiveCollector", ALL)],
    "serve.handle": [("repro.serve.driver", "ModelServer", ("handle",))],
    "faults.scrub": [("repro.faults.scrub", "Scrubber", ("scrub",))],
}


class SpanClock:
    """Self time and call count per layer, from nested spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: One child-time accumulator per open span; [0] is the root.
        self._stack: list[list[float]] = [[0.0]]

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with each call timed as a span of ``layer``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - children[0]
                stack[-1][0] += elapsed
                calls[layer] += 1

        return span

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """A generator's span is each resumption, not its lifetime: the
        consumer's loop body between two items belongs to the consumer."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self.calls[layer] += 1
            inner = fn(*args, **kwargs)
            while True:
                children = [0.0]
                stack.append(children)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[layer] += elapsed - children[0]
                    stack[-1][0] += elapsed
                yield item

        return span

    def measure(self, body: Callable[[], object]) -> tuple[object, float]:
        """Run ``body`` as the root span; returns (result, seconds).

        The root's self time is added to ``unattributed``.
        """
        if len(self._stack) != 1:
            raise RuntimeError("measure() called inside an open span")
        root = self._stack[0]
        root[0] = 0.0
        start = time.perf_counter()
        try:
            result = body()
        finally:
            elapsed = time.perf_counter() - start
            self.self_s["unattributed"] += elapsed - root[0]
        return result, elapsed


class Patcher:
    """Sets attributes and puts every one back on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, existed, old = self._undo.pop()
            if existed:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _targets(module_name: str, class_name: str | None, names) -> list:
    """``(owner, name, function)`` for every function a spec names."""
    module = importlib.import_module(module_name)
    owner = module if class_name is None else getattr(module, class_name)
    own = vars(owner)
    if names == ALL:
        names = [
            name for name, value in own.items()
            if inspect.isfunction(value) and not name.startswith("__")
        ]
    found = []
    for name in names:
        value = own.get(name)
        if value is None:
            continue  # inherited: patched where it is defined
        if not inspect.isfunction(value):
            raise TypeError(f"{module_name}.{class_name}.{name} is not a function")
        found.append((owner, name, value))
    return found


def install_layers(clock: SpanClock, patcher: Patcher) -> int:
    """Wrap every function in ``LAYERS``; returns how many were wrapped.

    A module function is also rebound in every loaded ``repro`` module
    that imported it by name, so callers that hold it as a global are
    timed too.  A function named by two layers (``ClusterDSM.__init__``
    is ``cluster.build``, its other methods ``cluster.dsm``) keeps the
    first layer that names it.
    """
    wrapped: set[tuple[int, str]] = set()
    count = 0
    for layer, specs in LAYERS.items():
        for module_name, class_name, names in specs:
            for owner, name, fn in _targets(module_name, class_name, names):
                if (id(owner), name) in wrapped:
                    continue
                wrapped.add((id(owner), name))
                span = clock.wrap(layer, fn)
                patcher.set(owner, name, span)
                count += 1
                if class_name is None:
                    for module in list(sys.modules.values()):
                        if (
                            module is not owner
                            and getattr(module, "__name__", "").startswith("repro")
                            and vars(module).get(name) is fn
                        ):
                            patcher.set(module, name, span)
    return count


def snapshot_attributes() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every class ``LAYERS`` names and
    of every loaded ``repro`` module: equal snapshots taken before
    :func:`install_layers` and after :meth:`Patcher.undo` show that
    every patched attribute was put back."""
    owners = {}
    for specs in LAYERS.values():
        for module_name, class_name, _ in specs:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            owners[f"{module_name}.{class_name}"] = owner
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            owners[name] = module
    return {
        (label, attr): id(value)
        for label, owner in owners.items()
        for attr, value in list(vars(owner).items())
    }


#: Per-layer metric -> (unit, better).  Self times and counts are means
#: per traced round.
PER_LAYER = {
    "sim.run.self_s": ("s", "lower"),
    "sim.fused_share": ("ratio", "higher"),
    "sim.full_walk_share": ("ratio", "lower"),
    "sim.epoch_flushes": ("count", "lower"),
    "core.access.calls": ("count", "lower"),
    "core.access.self_s": ("s", "lower"),
    "core.recipe.calls": ("count", "lower"),
    "core.recipe.self_s": ("s", "lower"),
    "core.plb.self_s": ("s", "lower"),
    "core.pgcache.self_s": ("s", "lower"),
    "hardware.tlb.self_s": ("s", "lower"),
    "hardware.cache.built": ("count", "lower"),
    "hardware.cache.build_s": ("s", "lower"),
    "hardware.cache.scan_s": ("s", "lower"),
    "hardware.backing.self_s": ("s", "lower"),
    "check.invariants.calls": ("count", "lower"),
    "check.invariants.self_s": ("s", "lower"),
    "cluster.build.self_s": ("s", "lower"),
    "cluster.send.calls": ("count", "lower"),
    "cluster.send.self_s": ("s", "lower"),
    "cluster.dsm.self_s": ("s", "lower"),
    "os.verb.calls": ("count", "lower"),
    "os.verb.self_s": ("s", "lower"),
    "os.fault.calls": ("count", "lower"),
    "os.fault.self_s": ("s", "lower"),
    "os.pager.calls": ("count", "lower"),
    "os.pager.self_s": ("s", "lower"),
    "os.merged_stats.calls": ("count", "lower"),
    "os.merged_stats.self_s": ("s", "lower"),
    "os.shootdown.msgs": ("count", "lower"),
    "os.shootdown.self_s": ("s", "lower"),
    "workloads.dsm.self_s": ("s", "lower"),
    "workloads.request.self_s": ("s", "lower"),
    "obs.span.calls": ("count", "lower"),
    "obs.span.self_s": ("s", "lower"),
    "obs.live.self_s": ("s", "lower"),
    "serve.handle.self_s": ("s", "lower"),
    "faults.injected": ("count", "lower"),
    "faults.recovered": ("count", "higher"),
    "faults.scrub.calls": ("count", "lower"),
    "faults.scrub.self_s": ("s", "lower"),
    "unattributed.self_s": ("s", "lower"),
    "trace.round_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "host.ref_ms": ("ms", "lower"),
}

#: Per-layer metric -> (span layer, "self_s" or "calls").
_SPAN_METRICS = {
    "hardware.cache.built": ("hardware.cache.build", "calls"),
    "hardware.cache.build_s": ("hardware.cache.build", "self_s"),
    "hardware.cache.scan_s": ("hardware.cache.scan", "self_s"),
}


class Registry:
    """Kernels, machines and clusters built while patches are installed,
    so a traced round can read the simulated counters they moved."""

    def __init__(self) -> None:
        self.kernels: list = []
        self.machines: list = []
        self.clusters: list = []
        self._start: dict[int, dict[str, int]] = {}

    def install(self, patcher) -> None:
        from repro.cluster.dsm import ClusterDSM
        from repro.os.kernel import Kernel
        from repro.sim.machine import Machine

        for cls, sink in (
            (Kernel, self.kernels), (Machine, self.machines),
            (ClusterDSM, self.clusters),
        ):
            init = cls.__init__

            def recording_init(obj, *args, _init=init, _sink=sink, **kwargs):
                _init(obj, *args, **kwargs)
                _sink.append(obj)

            patcher.set(cls, "__init__", recording_init)

    def _counters(self) -> dict[int, dict[str, int]]:
        values = {}
        for kernel in self.kernels:
            merged = kernel.merged_stats().as_dict()
            epochs = kernel.mutation_epoch + sum(
                ctx.mutation_epoch for ctx in kernel.cpus
                if ctx.cpu_id != kernel.current_cpu
            )
            values[id(kernel)] = {
                "refs": merged.get("refs", 0),
                "epochs": epochs,
                "shootdown_msgs": sum(
                    count for name, count in merged.items()
                    if name.endswith("shootdown.msgs")
                ),
                "faults.injected": merged.get("faults.injected", 0),
                "faults.recovered": merged.get("faults.recovered", 0),
            }
        for machine in self.machines:
            values[id(machine)] = {"fused_refs": machine.fused_refs}
        for cluster in self.clusters:
            counts = cluster.stats.as_dict()
            values[id(cluster)] = {
                "faults.injected": counts.get("faults.injected", 0),
                "faults.recovered": counts.get("faults.recovered", 0),
            }
        return values

    def mark(self) -> None:
        self._start = self._counters()

    def delta(self) -> Counter:
        total: Counter = Counter()
        for key, counts in self._counters().items():
            start = self._start.get(key, {})
            for name, value in counts.items():
                total[name] += value - start.get(name, 0)
        return total


def traced_round(workload) -> dict:
    """One round under spans; it builds its systems after the patches.

    An op that raises is reported and the round counted as failed; the
    patches are undone and checked either way.
    """
    before = snapshot_attributes()
    clock = SpanClock()
    patcher = Patcher()
    registry = Registry()
    out = None
    try:
        install_layers(clock, patcher)
        registry.install(patcher)
        registry.mark()
        out, elapsed = clock.measure(lambda: workload.round(OpTimer(None)))
        self_s = dict(clock.self_s)
        calls = Counter(clock.calls)
    except Exception:  # an op raised: report it, count it, go on
        traceback.print_exc()
    finally:
        patcher.undo()
    restored = snapshot_attributes() == before
    if out is None:
        return {"raised": True, "restored": restored}
    counters = registry.delta()
    refs = counters["refs"]
    figures = {}
    for name in PER_LAYER:
        layer, kind = _SPAN_METRICS.get(name, name.rsplit(".", 1))
        if kind == "self_s":
            figures[name] = self_s.get(layer, 0.0)
        elif kind == "calls":
            figures[name] = float(calls.get(layer, 0))
    figures["sim.fused_share"] = counters["fused_refs"] / refs if refs else 0.0
    figures["sim.full_walk_share"] = calls.get("core.access", 0) / refs if refs else 0.0
    figures["sim.epoch_flushes"] = float(counters["epochs"])
    figures["os.shootdown.msgs"] = float(counters["shootdown_msgs"])
    figures["faults.injected"] = float(counters["faults.injected"])
    figures["faults.recovered"] = float(counters["faults.recovered"])
    figures["trace.round_s"] = elapsed
    return {
        "raised": False,
        "digest": digest(out.outputs),
        "failures": out.failures,
        "notes": out.notes,
        "round_s": elapsed,
        "self_sum_s": sum(self_s.values()),
        "restored": restored,
        "figures": figures,
    }


def run_traced(workload, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer means per round.

    ``trace.overhead_frac`` is the median traced round time over the
    median untraced one, minus one.  A round that raises is reported and
    counted as one failed op, as in the untraced run.
    """
    ref = ReferenceLoop()
    untraced_s: list[float] = []
    digests: Counter = Counter()
    traced: list[dict] = []
    failures: list[str] = []
    notes: list[str] = []
    attempted = 0
    errors = 0
    deadline = time.perf_counter() + seconds
    while len(traced) + errors < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        ref.sample()
        timer = OpTimer(None)
        start = time.perf_counter()
        try:
            out = workload.round(timer)
        except Exception:  # an op raised: report it, count it, go on
            traceback.print_exc()
            errors += 1
            attempted += 1
        else:
            untraced_s.append(time.perf_counter() - start)
            attempted += len(timer.op_s)
            digests[digest(out.outputs)] += 1
            failures += out.failures
            notes = out.notes
        ref.sample()
        result = traced_round(workload)
        if not result["restored"]:
            failures.append("patches left an attribute changed after undo")
        if result["raised"]:
            errors += 1
            attempted += 1
            continue
        digests[result["digest"]] += 1
        failures += result["failures"]
        notes = result["notes"]
        gap = abs(result["self_sum_s"] - result["round_s"])
        if gap > 1e-6 * max(1.0, result["round_s"]):
            failures.append(f"layer self times miss the round time by {gap:.3g} s")
        traced.append(result)
    if not traced or not untraced_s:
        raise RuntimeError("every traced or every untraced round raised: no figures")
    if len(digests) > 1:
        failures.append(f"traced and untraced digests differ: {dict(digests)}")
    figures = {
        name: statistics.fmean(r["figures"][name] for r in traced)
        for name in traced[0]["figures"]
    }
    figures["trace.overhead_frac"] = (
        statistics.median(r["round_s"] for r in traced)
        / statistics.median(untraced_s) - 1.0
    )
    figures["host.ref_ms"] = statistics.median(map(sample_ms, ref.samples))
    return {
        "mode": "traced",
        "attempted": attempted,
        "failed": errors + len(failures),
        "failures": failures,
        "notes": notes,
        "digest": next(iter(digests)),
        "rounds": len(traced),
        "metrics": {name: figures[name] for name in PER_LAYER},
        "self_sum_s": [r["self_sum_s"] for r in traced],
        "round_s": [r["round_s"] for r in traced],
        "untraced_round_s": untraced_s,
    }
