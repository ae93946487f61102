"""Patch undo, and tiny runs of every workload end to end."""

from __future__ import annotations

import json

import pytest

import harness
import run
import spans
import workloads


def test_patcher_restores_set_and_added_attributes():
    class Owner:
        present = 1

    patcher = spans.Patcher()
    patcher.set(Owner, "present", 2)
    patcher.set(Owner, "added", 3)
    patcher.set(Owner, "present", 4)
    assert (Owner.present, Owner.added) == (4, 3)
    patcher.undo()
    assert Owner.present == 1
    assert not hasattr(Owner, "added")


def test_undoing_the_layer_patches_restores_every_attribute():
    from repro.os.kernel import Kernel

    before = spans.snapshot_attributes()
    original_init = Kernel.__init__
    patcher = spans.Patcher()
    wrapped = spans.install_layers(spans.SpanClock(), patcher)
    spans.Registry().install(patcher)
    try:
        assert wrapped > 50
        assert Kernel.__init__ is not original_init
        assert spans.snapshot_attributes() != before
    finally:
        patcher.undo()
    assert spans.snapshot_attributes() == before
    assert Kernel.__init__ is original_init


def test_a_module_function_is_patched_where_it_was_imported():
    from repro.check import invariants
    from repro.cluster import chaos

    original = invariants.check_invariants
    assert chaos.check_invariants is original
    patcher = spans.Patcher()
    spans.install_layers(spans.SpanClock(), patcher)
    try:
        assert chaos.check_invariants is invariants.check_invariants
        assert chaos.check_invariants is not original
    finally:
        patcher.undo()
    assert chaos.check_invariants is original


class TinyReplay(workloads.Replay):
    REFS = 3000
    PASSES = 2


class TinyServe(workloads.Serve):
    DURATION_MS = 40


class TinyCluster(workloads.Cluster):
    NODES = 3
    CPUS = 2
    ACCESSES = 4


class TinyTable1(workloads.Table1):
    REPEATS = 1

    def ops(self):
        return [op for op in super().ops() if op[0] in ("RPC", "DSM")]


@pytest.mark.parametrize(
    "make", [TinyReplay, TinyServe, TinyCluster, TinyTable1],
    ids=["replay", "serve", "cluster", "table1"],
)
def test_tiny_run_digest_is_stable_and_the_same_traced(make):
    timed = harness.run_timed(make(3), 0.0)
    assert timed["failures"] == []
    assert timed["failed"] == 0
    assert timed["rounds"] >= 3
    assert set(timed["metrics"]) == set(harness.END_TO_END)
    assert all(value > 0 for value in timed["metrics"].values())
    # One set-up per round (replay), per model of each schedule or sweep
    # (serve, cluster), per op (table1).
    per_round = {"replay": 1, "serve": 3 * workloads.Serve.SERVES, "cluster": 3,
                 "table1": timed["attempted"] // timed["rounds"]}[make.name]
    assert timed["setups"] == per_round * timed["rounds"]

    traced = spans.run_traced(make(3), 0.0)
    assert traced["failures"] == []
    assert traced["digest"] == timed["digest"]
    assert set(traced["metrics"]) == set(spans.PER_LAYER)
    for round_s, self_sum_s in zip(traced["round_s"], traced["self_sum_s"]):
        assert self_sum_s == pytest.approx(round_s, rel=1e-9, abs=1e-9)


class RaisingTable1(TinyTable1):
    def round(self, timer):
        raise RuntimeError("op failed")


def test_a_round_that_raises_counts_as_a_failed_op_traced_or_not():
    with pytest.raises(RuntimeError, match="every round raised"):
        harness.run_timed(RaisingTable1(3), 0.0)

    class RaisesWhenTraced(TinyTable1):
        def round(self, timer):
            if timer.ref is None and self.untraced_done:
                raise RuntimeError("op failed")
            self.untraced_done = True
            return super().round(timer)

    workload = RaisesWhenTraced(3)
    workload.untraced_done = False
    with pytest.raises(RuntimeError, match="every traced"):
        spans.run_traced(workload, 0.0)


def test_a_cell_off_its_baseline_counts_as_a_failed_op(tmp_path, monkeypatch):
    baseline = json.loads(workloads.TABLE1_BASELINE.read_text())
    baseline["cycles"]["RPC"]["plb"] += 1
    tampered = tmp_path / "table1_cycles.json"
    tampered.write_text(json.dumps(baseline))
    monkeypatch.setattr(workloads, "TABLE1_BASELINE", tampered)
    result = harness.run_timed(TinyTable1(3), 0.0)
    assert result["failed"] == result["rounds"]
    assert all("RPC/plb" in line for line in result["failures"])


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in spec["per_layer"]
    } == {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    assert {
        m["name"]: m["better"] for m in spec["per_layer"]
    } == {name: better for name, (_, better) in spans.PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
