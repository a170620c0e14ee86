"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "pipeline-bestlr-plus": {"datasets": 2, "students": 12, "responses": 20},
    "cv-ri-long": {"datasets": 1, "students": 8, "responses": 260},
    "select-stack": {"datasets": 2, "students": 16, "responses": 20},
}


def tiny(name: str):
    return replace(WORKLOADS[name], **TINY[name])


def test_benchmark_json_matches_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    w = tiny(name)
    r = run.run_workload(w, seed=5, seconds=0, trace=False)
    assert (r.correct, r.attempted, r.failed) == (True, 2 * w.datasets, 0)
    assert set(r.metrics) == set(run._declared(trace=False))
    for d in r.provenance["datasets"]:
        assert 0.5 < d["auc_mean"] <= d["bayes_auc"]
    # An untraced run installs no wrapper, so tracing cannot leak into its numbers.
    assert {x["wrapped"] for x in r.runs} == {0}
    # Every timed run is corrected by the calibration samples around it.
    assert all(x["speed_ratio"] > 0 for x in r.runs)
    assert set(r.provenance["uncorrected"]) == {"responses_per_s", "cpu_s", "setup_s"}


def test_traced_run_reports_every_layer_metric():
    r = run.run_workload(tiny("cv-ri-long"), seed=5, seconds=0, trace=True)
    assert r.correct
    assert set(r.metrics) == set(run._declared(trace=True))
    assert [x["wrapped"] for x in r.runs] == [0, spans.target_count()]
    assert r.metrics["specialize.partition_models"] > 0
    assert r.metrics["regression.fit.calls"] > 0
    by_id = {s["id"]: s for s in r.spans}
    folds = [s for s in r.spans if s["name"] == "evaluate.run_fold"]
    assert len(folds) == 5
    # Pool threads inherit the cross_validate span as parent.
    assert {by_id[s["parent"]]["name"] for s in folds} == {"evaluate.cross_validate"}
    assert len({s["thread"] for s in folds}) == 2
    assert len({s["trace"] for s in r.spans}) == 1


def test_wrappers_restore_the_original_functions():
    from ktrace import evaluate

    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in spans.targets()]
    executor = evaluate.ThreadPoolExecutor
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with spans.installed(tracer):
            assert spans.wrapped_count() == spans.target_count()
            assert evaluate.auc([0.2, 0.9], [0.0, 1.0]) == 1.0
            1 / 0
    assert spans.wrapped_count() == 0
    assert evaluate.ThreadPoolExecutor is executor
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original
    assert [s["name"] for s in tracer.spans] == ["evaluate.auc"]


def test_self_time_subtracts_the_union_of_children():
    def span(i, parent, start, end, **attrs):
        return {"id": i, "parent": parent, "start": start, "end": end, "attrs": attrs}

    got = spans.self_times([
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),  # overlaps span 2 (another thread)
        span(4, 1, 0.0, 8.0, wait=True),  # waiting covers nothing
        span(5, 3, 3.0, 4.0),
    ])
    assert got == {1: 5.0, 2: 3.0, 3: 2.0, 5: 1.0}


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-ri-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
