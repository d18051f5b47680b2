"""Tests of the benchmark harness itself: python3 -m pytest bench"""

import json
import random
import subprocess
import sys

import pytest

import run
import tracer as tracer_mod
import workloads
from workloads import Op, WORKLOADS

sys.path.insert(0, str(run.SRC))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((run.HERE / "layers.json").read_text())


@pytest.fixture(scope="module")
def cy():
    return run.import_cyclact()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.3", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(out.splitlines()[-2])["report"]
    for key in ("seed", "commit", "python", "nproc", "cpu", "failed_frac",
                "latency_tail_percentile", "latency_samples", "slowest"):
        assert key in report


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    metrics, records = run.run_traced(WORKLOADS[name], seed=3, count=12)
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert len(records) == 12 and not any(r.failure for r in records)
    assert metrics["intlattice.hnf.calls"] > 0


def _inject_wrong(op: Op) -> Op:
    def call():
        result = op.call()
        if isinstance(result, workloads.SolveResult):
            return workloads.SolveResult(result.trace, False)
        return None

    return Op(op.kind, call, op.check, op.replay, op.bits)


def test_injected_wrong_answer_counts_as_failed(cy):
    ops = workloads.sweep_ops(cy, 1, [("odd-m", 3, 4)])
    ops[2] = _inject_wrong(ops[2])
    records = run.run_ops(ops, count=4)
    metrics, details = run.end_to_end(records, [1.0], run.DEADLINE_S)
    assert details["failed_frac"] == 0.25
    assert records[2].failure.startswith("wrong: WrongAnswer: trace replay mismatch")
    assert [f["index"] for f in run.failures(ops, records)] == [2]


def test_injected_timeout_counts_as_failed_and_lists_the_spec(cy):
    ops = workloads.sweep_ops(cy, 1, [("odd-m", 5, 3)])
    records = run.run_ops(ops, count=3, deadline=1e-4)
    assert all(r.failure == "timeout" for r in records)
    metrics, details = run.end_to_end(records, [1.0], 1e-4)
    assert details["failed_frac"] == 1.0
    listed = run.failures(ops, records)
    assert listed[0]["index"] == 0 and listed[0]["replay"]["spec"]["m"] == 5
    assert listed[0]["replay"]["sweep"] == {"branch": "odd-m", "m": 5, "seed": 1, "index": 0}


def test_out_bits_p50_is_the_median_with_failures_ranked_last():
    records = [run.Record(0, 0.01, 3, None), run.Record(1, 0.01, 5, None),
               run.Record(2, 0.01, None, "timeout"), run.Record(3, 0.01, 1, None)]
    metrics, _ = run.end_to_end(records, [1.0], run.DEADLINE_S)
    assert metrics["out_bits_p50"] == 4  # median of 1, 3, 5 and 6 for the failure


def test_errors_count_only_exceptions_that_escape_the_operation():
    t = tracer_mod.Tracer()
    t.active = True

    def raises():
        raise ValueError("inner")

    inner = t._wrap("groupring.is_unit", raises)

    def catches():
        try:
            inner()
        except ValueError:
            return "caught"

    def lets_through():
        inner()

    assert t._wrap("forms.verify", catches)() == "caught"
    assert not t.errors
    with pytest.raises(ValueError):
        t._wrap("forms.verify", lets_through)()
    assert t.errors == {("groupring.is_unit", "ValueError"): 1}
    metrics = t.metrics(timeouts=0, exhausted=0)
    assert metrics["groupring.errors"] == 1 and metrics["forms.errors"] == 0


def test_wrong_answers_in_algebra_ops_are_caught(cy):
    E = cy.groupring.GroupRingElement

    def off_by_one(x):
        return E(x.m, [x.coeffs[0] + 1] + list(x.coeffs[1:]))

    checked = 0
    for op in workloads.algebra_ops(cy, 5, 2):
        result = op.call()
        op.check(result)
        if op.kind in ("lambda_eval",) or op.kind.startswith("ring_det"):
            bad = off_by_one(result)
        elif op.kind == "normalize":
            norm, quots = result
            bad = (norm, [off_by_one(quots[0])] + quots[1:])
        else:
            continue
        with pytest.raises(workloads.WrongAnswer):
            op.check(bad)
        checked += 1
    assert checked >= 8


def _bindings(cy):
    out = {}
    for mod in [cy] + [getattr(cy, m) for m in tracer_mod.LAYERS]:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("cyclact"):
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def test_traced_run_restores_every_wrapped_name():
    cy = run.import_cyclact()
    before = _bindings(cy)
    t = tracer_mod.Tracer()
    t.install()
    assert cy.complement.solve is not before[("cyclact.complement", "solve")]
    assert cy.groupring.ZLattice.express is not before[("cyclact.groupring", "ZLattice", "express")]
    t.uninstall()
    after = _bindings(cy)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # once restored, calls record nothing
    ops = workloads.sweep_ops(cy, 2, [("even-n", 3, 2)])
    run.run_ops(ops, count=2)
    assert t.spans == []


def test_tracer_wraps_every_copied_binding():
    cy = run.import_cyclact()
    t = tracer_mod.Tracer()
    t.install()
    try:
        t.active = True
        E = cy.groupring.GroupRingElement
        cy.forms.mu_eval(
            cy.forms.QuadraticModule(3, 1, -1, cy.groupring.FormParameterKind.TILDE),
            cy.forms.RingVector([E.one(3), E.gen(3)]),
        )
        t.active = False
    finally:
        t.uninstall()
    names = [s[2] for s in t.spans]
    # mu_eval reaches param_reduce through the copy bound in forms
    assert "forms.mu_eval" in names and "groupring.param_reduce" in names
    by_id = {s[0]: s for s in t.spans}
    reduce_span = next(s for s in t.spans if s[2] == "groupring.param_reduce")
    assert by_id[reduce_span[1]][2] == "forms.mu_eval"
    mu = next(s for s in t.spans if s[2] == "forms.mu_eval")
    assert 0 <= mu[5] <= mu[4] - mu[3]


def test_sweep_inputs_match_run_sweep_and_repeat_for_a_seed(cy):
    ops = workloads.sweep_ops(cy, 7, [("odd-m", 5, 3), ("even-n", 4, 3)])
    rng = random.Random(7)
    want = [cy.complement.sample_spec(cy.complement.Branch("odd-m"), 5, rng).to_json()
            for _ in range(3)]
    assert [op.replay["spec"] for op in ops if op.replay["spec"]["m"] == 5] == want
    again = workloads.sweep_ops(cy, 7, [("odd-m", 5, 3), ("even-n", 4, 3)])
    assert [op.replay for op in ops] == [op.replay for op in again]
    assert [op.replay["spec"]["m"] for op in ops] == [5, 4, 5, 4, 5, 4]


def test_algebra_inputs_repeat_for_a_seed(cy):
    first = [op.replay for op in workloads.algebra_ops(cy, 11, 2)]
    assert first == [op.replay for op in workloads.algebra_ops(cy, 11, 2)]
    assert first != [op.replay for op in workloads.algebra_ops(cy, 12, 2)]


def test_benchmark_json_lists_workloads_and_layer_map():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] for w in BENCH["workloads"])
    e2e = {m["name"] for m in BENCH["end_to_end"]} | {"failed_frac"}
    moves = LAYERS["moves"]
    assert set(moves) == {m["name"] for m in BENCH["per_layer"]}
    for targets in moves.values():
        for target in targets:
            workload, metric = target.split()
            assert workload in WORKLOADS and metric in e2e


def test_fails_without_a_source_tree(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in run.HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
