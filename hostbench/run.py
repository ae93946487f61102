"""Run one workload of the host-time benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run, which reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result, raw seconds included, is also written to
``.hostbench_out/<workload>-seed<seed>-trace<trace>.json``.

A failed op or output check is reported as ``failed`` with
``correct: false``; the run exits 2 without a result only when the
checkout holds no simulator sources.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".hostbench_out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay", "serve", "cluster", "table1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = spans.run_traced(workload, args.seconds)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        result = harness.run_timed(workload, args.seconds)
        units = harness.END_TO_END
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"digest {result['digest']}")
    print("model unvalidated: no real-hardware reference, so no error figure")
    for name, value in result["metrics"].items():
        line = f"  {name} = {value:.6g} {units[name]}"
        if name == "op_tail_ms":
            line += (f"  (p{result['tail_percentile']:g} of {result['ops_per_group']:g}"
                     f" ops, median of {result['rounds']} rounds)")
        print(line)
    print(f"  attempted = {result['attempted']}  failed = {result['failed']}")
    for note in result["notes"]:
        print(f"  {note}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
