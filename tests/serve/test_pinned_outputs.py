"""Fixed-seed CLI outputs pinned byte for byte across versions.

``benchmarks/baselines/serve_outputs.json`` holds the sha256 of every
file and stdout these commands produce:

* ``repro serve`` over all three models on 2 CPUs under mixed chaos
  (its JSONL, Prometheus and RunReport files and its stdout);
* ``repro trace gc --model plb`` in every format at ``--sample 1`` and
  ``--sample 4`` (the output file and stdout);
* ``repro profile gc --model plb`` (stdout).

A refactor of the telemetry path must leave all of them unchanged.  The
output path a command echoes is replaced by ``<OUT>`` before hashing.

Regenerate the baseline (only for an intended output change, said so in
CHANGES.md) with::

    PYTHONPATH=src python tests/serve/test_pinned_outputs.py --update
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baselines"
    / "serve_outputs.json"
)

SERVE_ARGS = [
    "serve", "--duration", "300", "--seed", "7",
    "--models", "plb,pagegroup,conventional", "--cpus", "2",
    "--plan", "mixed",
]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(argv: list[str], out_dir: Path) -> str:
    """Run the CLI in-process; returns stdout with ``out_dir`` masked."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(argv)
    assert status == 0, f"{argv} exited {status}"
    return stdout.getvalue().replace(str(out_dir), "<OUT>")


def _serve(out_dir: Path) -> dict[str, str]:
    files = {
        "jsonl": out_dir / "serve.jsonl",
        "prom": out_dir / "serve.prom",
        "report": out_dir / "serve.json",
    }
    stdout = _run(
        SERVE_ARGS + [
            "--jsonl-out", str(files["jsonl"]),
            "--prom-out", str(files["prom"]),
            "--report-out", str(files["report"]),
        ],
        out_dir,
    )
    digests = {f"serve/{kind}": _sha(path.read_text()) for kind, path in files.items()}
    digests["serve/stdout"] = _sha(stdout)
    return digests


def _trace(out_dir: Path, fmt: str, sample: int) -> dict[str, str]:
    out = out_dir / f"trace-{fmt}-{sample}"
    stdout = _run(
        ["trace", "gc", "--model", "plb", "--format", fmt,
         "--sample", str(sample), "--out", str(out)],
        out_dir,
    )
    key = f"trace/{fmt}/sample{sample}"
    return {f"{key}/file": _sha(out.read_text()), f"{key}/stdout": _sha(stdout)}


def _profile(out_dir: Path) -> dict[str, str]:
    return {"profile/stdout": _sha(_run(["profile", "gc", "--model", "plb"], out_dir))}


CASES = {
    "serve": _serve,
    **{
        f"trace-{fmt}-{sample}": (
            lambda out_dir, fmt=fmt, sample=sample: _trace(out_dir, fmt, sample)
        )
        for fmt in ("chrome", "jsonl", "report")
        for sample in (1, 4)
    },
    "profile": _profile,
}


def capture() -> dict[str, str]:
    """Every pinned digest, freshly computed."""
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES.values():
            digests.update(case(Path(tmp)))
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_pinned_digest(case, tmp_path):
    pinned = json.loads(BASELINE.read_text())
    got = CASES[case](tmp_path)
    assert got == {key: pinned[key] for key in got}


def test_baseline_covers_exactly_the_pinned_outputs():
    pinned = json.loads(BASELINE.read_text())
    expected = {
        "serve/jsonl", "serve/prom", "serve/report", "serve/stdout",
        "profile/stdout",
    }
    for fmt in ("chrome", "jsonl", "report"):
        for sample in (1, 4):
            expected |= {
                f"trace/{fmt}/sample{sample}/file",
                f"trace/{fmt}/sample{sample}/stdout",
            }
    assert set(pinned) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_pinned_outputs.py --update")
    BASELINE.write_text(json.dumps(capture(), indent=2) + "\n")
    print(f"wrote {BASELINE}")
