"""Fast checks of the benchmark itself, on tiny subjects.

    PYTHONPATH=src python -m pytest benchmarks/perf

Not part of the tier-1 suite (``testpaths = tests``).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import compare
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ALL, JOBS2, EDIT = "all-5k", "all-5k-jobs2", "edit-2k"


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, lines=300, edits=min(workload.edits, 3))


def subject(workload: run.Workload):
    from repro.synth.generator import GeneratorConfig, generate_program

    return generate_program(
        GeneratorConfig(seed=1, target_lines=workload.lines, taint_period=7)
    )


def rep_spec(workload: run.Workload, **extra) -> dict:
    return {
        "source": subject(workload).source,
        "checkers": list(workload.checkers),
        "jobs": workload.jobs,
        "edits": workload.edits,
        "seed": 1,
        **extra,
    }


def test_names_and_units_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_on_a_tiny_subject(name):
    result = run.run_workload(tiny(name), seed=1, seconds=0, trace=False, subjects=2)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())
    assert result["reps"] == 2
    assert result["error_rate"] == 0
    assert result["uaf_recall"] == 1.0
    assert result["uaf_unexpected_fp"] == 0
    assert result["correct"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = run.run_workload(tiny(name), seed=1, seconds=0, trace=True, subjects=1)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["bench.unattributed_s"] >= 0
    assert result["correct"]


@pytest.mark.parametrize("name", [ALL, EDIT])
def test_traced_self_times_fit_in_the_wall(name):
    rep = run.run_child(rep_spec(tiny(name), trace=True), timeout=60)
    layers = rep["layers"]
    assert all(
        layers[metric] >= 0 for metric, unit in run.PER_LAYER.items()
        if unit == "s" and metric in layers
    )
    assert layers["own_layer_s"] >= 0
    # Layer spans also cover the speed ticks that interrupt them.
    wall = run.work_s(rep) + run.work_s(rep, "tick_s")
    assert rep["import"]["seconds"] + layers["own_layer_s"] <= wall


def test_every_session_edits_the_same_functions():
    spec = rep_spec(tiny(EDIT))
    first, second = (run.run_child(spec, timeout=60) for _ in range(2))
    edited = [edit["function"] for edit in first["edits"]]
    assert len(edited) == 3
    assert edited == [edit["function"] for edit in second["edits"]]


def test_every_operation_is_scaled_to_the_reference_speed():
    rep = run.run_child(rep_spec(tiny(ALL)), timeout=60)
    assert rep["ticks"] > 0
    for op in [rep["import"], rep["build"], *rep["checks"]]:
        assert op["seconds"] > 0 and op["ref_seconds"] > 0 and op["tick_s"] >= 0


def test_a_mismatched_digest_is_a_failed_op():
    workload = dataclasses.replace(tiny(JOBS2), checkers=(run.UAF,), jobs=1)
    truths = [subject(workload).ground_truth]
    rep = run.run_child(rep_spec(workload), timeout=60)
    rep["subject"] = 0
    assert run.score(workload, [rep, rep], truths)["failed"] == 0

    altered = json.loads(json.dumps(rep))
    altered["checks"][0]["digest"] = "0" * 16
    scored = run.score(workload, [rep, altered], truths)
    assert scored["attempted"] == 4
    assert scored["failed"] == 1


def test_every_subject_weighs_the_same_in_a_metric():
    # Subject 0 ran twice (median 2), subject 1 once (8).
    assert run.balanced_median([0, 0, 1], [1.0, 3.0, 8.0]) == 5.0
    assert run.balanced_mean([0, 0, 1], [1.0, 3.0, 8.0]) == pytest.approx(4.0)


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]


def test_a_worse_median_is_a_regression_even_when_runs_spread_wide():
    change = [v * 1.3 for v in WIDE]
    assert compare.judge(WIDE, change, "lower", 0.15)["verdict"] == "regression"
    assert compare.judge(STEADY, change, "lower", 0.15)["verdict"] == "regression"


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        (STEADY, [v * 1.05 for v in STEADY], "within bound"),
        (STEADY, [v * 0.8 for v in STEADY], "gain"),
        (WIDE, [v * 1.05 for v in WIDE], "unresolved"),
        # A noisier change does not make a steady parent unresolved.
        (STEADY, [v * 1.05 for v in WIDE], "within bound"),
    ],
)
def test_verdicts(parent, change, verdict):
    assert compare.judge(parent, change, "lower", 0.15)["verdict"] == verdict
