"""Compare two checkouts on the benchmark, in alternating order.

Usage::

    python3 hostbench/compare.py BASE CHANGE --pairs 10

Pair ``i`` runs every workload of BASE's BENCHMARK.json once on each
checkout with seed ``100 + i``, for that file's ``run_seconds``; even
pairs run BASE first, odd pairs CHANGE first, so a drift in host speed
does not favour one side.  Each checkout is run with its own
``hostbench/run.py`` from its own root (the benchmark code must be the
same on both sides).

For every workload and end-to-end metric it prints each side's median
and quartiles, the share of pairs CHANGE won (ties count for neither),
and a verdict:

* ``gain`` — over at least ten pairs, CHANGE won nine tenths of them
  and the medians differ by more than BASE's own quartile distance;
* ``worse`` — CHANGE's median is worse than BASE's by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved`` — BASE's own spread is wider than the bound, and not
  every CHANGE run beat every BASE run;
* ``same`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


#: A gain is claimed only over at least this many pairs.
MIN_PAIRS_FOR_GAIN = 10
#: Pair ``i`` runs with seed ``SEED_BASE + i``.
SEED_BASE = 100


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its metrics as ``{name: value}``."""
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed its checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[float, str]:
    """(share of pairs CHANGE won, verdict) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    share = wins / len(base)
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    worse_by = sign * (b_med - c_med) / b_med
    if (
        len(base) >= MIN_PAIRS_FOR_GAIN and share >= 0.9
        and abs(c_med - b_med) > b_q3 - b_q1 and sign * (c_med - b_med) > 0
    ):
        return share, "gain"
    if worse_by > bound:
        return share, "worse"
    if (b_q3 - b_q1) / b_med > bound and not (
        min(sign * c for c in change) > max(sign * b for b in base)
    ):
        return share, "unresolved"
    return share, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {side: {w: [] for w in names} for side in ("base", "change")}
    for i in range(args.pairs):
        order = [("base", args.base), ("change", args.change)]
        if i % 2:
            order.reverse()
        for workload in names:
            for side, checkout in order:
                runs[side][workload].append(
                    run_once(checkout, workload, SEED_BASE + i, seconds)
                )
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    def fmt(values: list[float]) -> str:
        return "/".join(f"{v:.4g}" for v in quartiles(values))

    header = (f"{'workload':9s} {'metric':12s} {'base q1/median/q3':>32s} "
              f"{'change q1/median/q3':>32s} {'won':>5s}  verdict")
    print(header)
    for workload in names:
        for name, meta in metrics.items():
            base = [r[name] for r in runs["base"][workload]]
            change = [r[name] for r in runs["change"][workload]]
            share, call = verdict(base, change, meta["better"], meta["bound"])
            print(f"{workload:9s} {name:12s} {fmt(base):>32s} "
                  f"{fmt(change):>32s} {share:5.0%}  {call}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
