"""Per-CPU hardware contexts and the kernel shootdown bus (§4.1.3).

On a multiprocessor SASOS every CPU carries its own protection hardware
— PLB, TLB, page-group holder, L1 cache — while the OS authority
(:mod:`repro.os.authority`) stays shared.  A rights change made on one
CPU must therefore reach every other CPU's cached copies: the kernel
sends *shootdown* messages (the interprocessor-interrupt + invalidate
sequence of §4.1.3), and the number of remote entries each model must
touch is exactly what the paper's consistency argument ranks — the PLB
changes one entry per page, the page-group TLB one entry per page, the
conventional TLB one entry per *sharing domain*.

Two message kinds travel the bus:

* ``protection`` — rights/holder invalidations.  These are the fault
  injector's shootdown site: an armed injector may drop or delay them
  (see :mod:`repro.faults.plan`), modelling lost or late IPIs.
* ``translation`` — unmap-driven TLB/cache invalidations.  These are
  **never** interceptable: a dropped translation shootdown would let a
  CPU read a released frame, which is a harness crash, not a modelled
  fault.

Delivery to the issuing CPU is synchronous and free (the local
invalidate is part of the verb, exactly as on one CPU); remote
deliveries are cost-accounted on the kernel stats under
``smp.shootdown.*`` / ``smp.tlb_shootdown.*`` and bump the target CPU's
mutation epoch so its replay memo (ARCHITECTURE.md §9) drops any hit
recorded against the old rights.  With one CPU the bus degenerates to
plain local calls and adds no counters — single-CPU stats stay
byte-identical to the pre-SMP simulator.
"""

from __future__ import annotations

from typing import Callable

from repro.core.mmu import MemorySystem
from repro.sim.stats import Stats

#: Message kinds.
PROTECTION = "protection"
TRANSLATION = "translation"


class CpuContext:
    """One CPU's private hardware: memory system (PLB/TLB/holder/L1),
    stats sink and mutation epoch.

    CPU 0 shares the kernel's stats object (so single-CPU runs charge
    exactly where the pre-SMP simulator did); remote CPUs get their own
    sink, merged deterministically by ``Kernel.merged_stats``.

    ``mutation_epoch`` holds the CPU's epoch *while it is not current*;
    the running CPU's live epoch lives in ``kernel.mutation_epoch`` (a
    plain attribute — the replay fast path reads it every touch) and is
    swapped in/out by ``Kernel.set_current_cpu``.
    """

    __slots__ = ("cpu_id", "system", "stats", "mutation_epoch")

    def __init__(self, cpu_id: int, system: MemorySystem, stats: Stats) -> None:
        self.cpu_id = cpu_id
        self.system = system
        self.stats = stats
        self.mutation_epoch = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuContext(cpu {self.cpu_id}, {self.system.model_name})"


class ShootdownMessage:
    """One invalidation in flight to one CPU.

    ``fire()`` applies the model-specific action against the target
    CPU's hardware and bumps that CPU's mutation epoch; it is safe to
    call late (the fault injector's ``delay`` events hold messages and
    fire them several workload ops after they were sent).
    """

    __slots__ = ("kind", "verb", "cpu", "remote", "pages", "_action", "_kernel")

    def __init__(
        self,
        kernel,
        kind: str,
        verb: str,
        cpu: int,
        action: Callable[[MemorySystem, tuple[int, ...] | None], int],
        pages: tuple[int, ...] | None,
        *,
        remote: bool,
    ) -> None:
        self.kind = kind
        self.verb = verb
        self.cpu = cpu
        self.remote = remote
        #: The VPN set the action applies to, or ``None`` for a verb
        #: whose one action names its own target (a segment, a group).
        #: The injector intercepts the message — the whole set — as one
        #: unit.
        self.pages = pages
        self._action = action
        self._kernel = kernel

    def fire(self) -> int:
        """Deliver: apply the invalidation on the target CPU."""
        kernel = self._kernel
        ctx = kernel.cpus[self.cpu]
        entries = int(self._action(ctx.system, self.pages) or 0)
        kernel.bump_epoch_for_cpu(self.cpu)
        if self.remote:
            prefix = "smp.shootdown" if self.kind == PROTECTION else "smp.tlb_shootdown"
            kernel.stats.inc(f"{prefix}.entries", entries)
        return entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"cpu {self.cpu}" + (" (remote)" if self.remote else "")
        span = f", {len(self.pages)} pages" if self.pages is not None else ""
        return f"ShootdownMessage({self.verb}, {self.kind}, {where}{span})"


class ShootdownBus:
    """Routes every Table 1 invalidation to the CPUs that must see it.

    ``hook`` is the fault injector's interception point: when set, every
    *protection* message is offered to it before delivery and a truthy
    return swallows the message (the injector either dropped it or
    queued it for delayed replay).  Translation messages bypass the hook
    unconditionally — that is the "translation invalidations are never
    wrapped" contract, now enforced structurally.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        #: Injector hook: ``fn(message) -> bool`` (True = intercepted).
        self.hook: Callable[[ShootdownMessage], bool] | None = None
        #: When True (the default), :meth:`shootdown` carries a page
        #: batch in one message per target CPU.  When False it sends the
        #: legacy one message per page — the ``--no-batch`` A/B
        #: measurement path.
        self.batch = True

    def shootdown(
        self,
        verb: str,
        pages: tuple[int, ...] | None,
        action: Callable[[MemorySystem, tuple[int, ...] | None], int],
        *,
        kind: str = PROTECTION,
        predicate: Callable[[CpuContext], bool] | None = None,
        include_local: bool = True,
    ) -> None:
        """Apply ``action`` on the issuing CPU, then send it to remote CPUs.

        ``action(system, pages) -> entries`` performs the model's
        hardware invalidation of the VPN set ``pages`` against one CPU's
        structures and returns how many entries it touched; a verb whose
        action names its own target (detach, segment rights, group
        revocation) passes ``pages=None``.  ``predicate`` restricts
        delivery to CPUs where it holds (e.g. holder drops only reach
        CPUs running the revoked domain).  ``include_local=False``
        sends to remote CPUs only (the verb did the local work itself).

        Each eligible remote CPU receives ONE message carrying the whole
        page set — a K-page verb costs one IPI, not K — and, because a
        message fires once, the target's mutation epoch bumps once.  A
        message carrying more than one page is a batch and also charges
        ``.batches`` and ``.batched_entries``; a 1-page message is a
        plain one.  With ``bus.batch`` False a K-page set goes out as K
        1-page deliveries — the ``--no-batch`` comparison path.
        """
        if not self.batch and pages is not None and len(pages) > 1:
            for vpn in pages:
                self.shootdown(
                    verb, (vpn,), action,
                    kind=kind, predicate=predicate, include_local=include_local,
                )
            return
        kernel = self.kernel
        cpus = kernel.cpus
        local_id = kernel.current_cpu
        if include_local and (predicate is None or predicate(cpus[local_id])):
            self._deliver(
                ShootdownMessage(
                    kernel, kind, verb, local_id, action, pages, remote=False
                )
            )
        if len(cpus) == 1:
            return
        stats = kernel.stats
        prefix = "smp.shootdown" if kind == PROTECTION else "smp.tlb_shootdown"
        batch = 0 if pages is None or len(pages) == 1 else len(pages)
        for ctx in cpus:
            if ctx.cpu_id == local_id:
                continue
            if predicate is not None and not predicate(ctx):
                continue
            stats.inc(f"{prefix}.msgs")
            stats.inc(f"{prefix}.verb.{verb}")
            if batch:
                stats.inc(f"{prefix}.batches")
                stats.inc(f"{prefix}.batched_entries", batch)
            self._deliver(
                ShootdownMessage(
                    kernel, kind, verb, ctx.cpu_id, action, pages, remote=True
                )
            )

    def _deliver(self, message: ShootdownMessage) -> None:
        hook = self.hook
        if hook is not None and message.kind == PROTECTION and hook(message):
            return  # intercepted: dropped, or held for delayed replay
        message.fire()


# --------------------------------------------------------------------- #
# Per-CPU counter views


def per_cpu_stats(kernel) -> Stats:
    """All CPUs' counters in one Stats, remote CPUs prefixed ``cpuN:``.

    CPU 0 shares the kernel's own stats object, so its counters keep the
    unprefixed single-CPU names; remote CPUs' private sinks are folded in
    under the same ``cpuN:`` prefix the invariant checker uses.  This is
    the per-CPU dimension live collectors expose, complementary to
    :meth:`Kernel.merged_stats` which sums all CPUs namelessly.
    """
    out = Stats()
    for ctx in kernel.cpus:
        if ctx.stats is kernel.stats:
            out.inc_many(ctx.stats.as_dict())
        else:
            out.inc_many(
                {
                    f"cpu{ctx.cpu_id}:{name}": count
                    for name, count in ctx.stats.as_dict().items()
                }
            )
    return out
