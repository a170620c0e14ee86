"""Benchmark ktrace's train-eval pipeline on generated data.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload from workloads.py, or `all` to run each in turn.  A
run sets up (generate and prepare the workload's datasets, three times
with the median kept, then a warm-up), and then, in a fresh interpreter,
makes passes over the datasets until another pass would end after S
seconds, and at least two.  Every run of a dataset is checked: exit
status 0, report bytes equal to its other runs (for cv-ri-long, to a
--jobs 1 run made in set-up), and 0.5 < auc_mean <= the Bayes AUC of
the generating probabilities on the same folds.

A calibration sample (calibrate.py) is taken before and after every
timed set-up repetition and ktrace run, and each of those timings is
divided by the speed ratio of the two samples around it, so that the
end-to-end times and rates read as at the reference speed; without
this, runs minutes apart on a shared machine differ by more than any
bound a change could be held to.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported;
with --trace 1 each dataset runs untraced and then traced, and the
per-layer metrics and the tracing overhead are reported.  The last line
of standard output is one JSON object; the full record, with the spans
of the last traced run, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The run cannot report: set-up failed or the metrics do not match BENCHMARK.json."""


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    provenance: dict
    runs: list[dict]
    spans: list[dict] | None


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _run_child(job: dict, work: Path) -> dict:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"measurement did not end within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode or not result_path.exists():
        raise BenchmarkError(f"measurement process failed:\n{proc.stderr[-3000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _median_pass(runs: list[dict], value) -> float:
    """Median over passes of value(runs of that pass)."""
    by_pass: dict[int, list[dict]] = {}
    for r in runs:
        by_pass.setdefault(r["pass_index"], []).append(r)
    return statistics.median(value(rs) for rs in by_pass.values())


def run_workload(w, seed: int, seconds: float, trace: bool) -> RunResult:
    import calibrate
    import spans
    from ktrace import cli
    from workloads import bayes_auc, generate_args, prepare_args, run_commands

    work = OUT / "work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = [100 * seed + i for i in range(w.datasets)]
    raws = [work / f"d{i}" / "raw" for i in range(w.datasets)]
    preps = [work / f"d{i}" / "prep" for i in range(w.datasets)]
    run_dirs = [work / f"d{i}" / "run" for i in range(w.datasets)]
    try:
        # Set-up is repeated so its median is steady; when tracing, it is
        # traced too, for synth.generate.
        setup_tracer = spans.Tracer() if trace else None
        setup_times, calibration = [], [calibrate.sample()]
        with (spans.installed(setup_tracer) if trace else contextlib.nullcontext()), \
                contextlib.redirect_stdout(io.StringIO()):
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                for s, raw, prep in zip(seeds, raws, preps):
                    shutil.rmtree(raw.parent, ignore_errors=True)
                    if cli.main(generate_args(w, s, raw)) or cli.main(prepare_args(s, raw, prep)):
                        raise BenchmarkError(f"{w.name}: generate or prepare failed for seed {s}")
                setup_times.append(time.perf_counter() - t0)
                calibration.append(calibrate.sample())
        setup_speed = [calibrate.speed_ratio(calibration[i:i + 2]) for i in range(SETUP_REPS)]

        datasets = []
        for s, raw, prep in zip(seeds, raws, preps):
            meta = json.loads((prep / "prepare_meta.json").read_text(encoding="utf-8"))
            datasets.append({
                "seed": s,
                "students": meta["n_students"],
                "responses": meta["n_responses"],
                "csv_bytes": (raw / "events.csv").stat().st_size,
                "bayes_auc": bayes_auc(raw, prep),
            })
        if w.jobs_invariance:
            warmup = [[str(d / "jobs1"), run_commands(w, s, raw, prep, d / "jobs1", jobs="1")]
                      for s, raw, prep, d in zip(seeds, raws, preps, run_dirs)]
        else:
            warmup = [[str(run_dirs[0]), run_commands(w, seeds[0], raws[0], preps[0], run_dirs[0])]]
        child = _run_child({
            "src": str(SRC),
            "warmup": warmup,
            "datasets": [[str(d), run_commands(w, s, raw, prep, d)]
                         for s, raw, prep, d in zip(seeds, raws, preps, run_dirs)],
            "seconds": seconds,
            "min_passes": 1 if trace else MIN_PASSES,
            "trace": trace,
        }, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_commands = len(warmup[0][1])
    for r in child["warmup"]:
        if r["codes"] != [0] * n_commands or r["report_sha256"] is None:
            raise BenchmarkError(f"{w.name}: warm-up run failed, exit codes {r['codes']}\n{r['error'] or ''}")
    # Each dataset's reference report: its --jobs 1 run, else its first report.
    reference = dict(enumerate(child["warmup"]))
    runs = child["runs"]
    for r in runs:
        if r["report_sha256"] is not None:
            reference.setdefault(r["dataset"], r)
    for i, d in enumerate(datasets):
        d["report_sha256"] = reference.get(i, {}).get("report_sha256")
        d["auc_mean"] = reference.get(i, {}).get("auc_mean")
    failed = 0
    for r in runs:
        d = datasets[r["dataset"]]
        r["ok"] = (
            r["codes"] == [0] * n_commands
            and d["report_sha256"] is not None
            and r["report_sha256"] == d["report_sha256"]
            and 0.5 < d["auc_mean"] <= d["bayes_auc"]
            and r["wrapped"] == (spans.target_count() if r["trace"] else 0)
        )
        failed += not r["ok"]

    plain = [r for r in runs if not r["trace"]]
    if trace:
        traced = [r for r in runs if r["trace"]]
        layers = [p["layers"] for p in child["passes"]]
        metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
        metrics["synth.generate.s"] = sum(
            s["end"] - s["start"] for s in setup_tracer.spans if s["name"] == "synth.generate"
        ) / SETUP_REPS
        wall_plain = sum(r["wall_s"] for r in plain)
        overhead = sum(r["wall_s"] for r in traced) - wall_plain
        metrics["trace.overhead_s"] = overhead / len(traced)
        metrics["trace.overhead_ratio"] = overhead / wall_plain
    else:
        def time_metrics(corrected: bool) -> dict[str, float]:
            def ratio(r: dict) -> float:
                return r["speed_ratio"] if corrected else 1.0

            return {
                "responses_per_s": _median_pass(
                    plain,
                    lambda rs: sum(datasets[r["dataset"]]["responses"] for r in rs)
                    / sum(r["wall_s"] / ratio(r) for r in rs),
                ),
                "cpu_s": _median_pass(plain, lambda rs: statistics.fmean(r["cpu_s"] / ratio(r) for r in rs)),
                "setup_s": statistics.median(
                    t / (x if corrected else 1.0) for t, x in zip(setup_times, setup_speed)
                ) + sum(r["elapsed_s"] / ratio(r) for r in child["warmup"]),
            }

        raw_metrics = time_metrics(corrected=False)
        metrics = {
            **time_metrics(corrected=True),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
            "auc_mean": statistics.fmean(d["auc_mean"] for d in datasets if d["auc_mean"] is not None),
            "success_rate": (len(runs) - failed) / len(runs),
        }

    import numpy
    import scipy

    provenance = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "datasets": datasets,
        "passes": 1 + max(r["pass_index"] for r in runs),
        "setup_reps_s": setup_times,
        "calibration_s": calibration + child["calibration_s"],
    }
    if not trace:
        provenance["uncorrected"] = raw_metrics
    return RunResult(
        correct=failed == 0, attempted=len(runs), failed=failed, metrics=metrics,
        provenance=provenance, runs=runs, spans=child["spans"],
    )


def _with_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise BenchmarkError(f"metrics disagree with BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ktrace" / "__init__.py").is_file():
        print(f"perfbench: no ktrace source at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = _declared(bool(args.trace))

    results = {}
    try:
        for name in names:
            r = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            results[name] = (r, _with_units(r.metrics, units))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    for name, (r, metrics) in results.items():
        for key, m in metrics.items():
            print(f"{name:22s} {key:40s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"provenance": r.provenance}, sort_keys=True))
        record = {"correct": r.correct, "attempted": r.attempted, "failed": r.failed,
                  "metrics": metrics, "provenance": r.provenance, "runs": r.runs,
                  "spans": r.spans}
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    if len(results) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": m for n, (_, ms) in results.items() for k, m in ms.items()}
    print(json.dumps({
        "correct": all(r.correct for r, _ in results.values()),
        "attempted": sum(r.attempted for r, _ in results.values()),
        "failed": sum(r.failed for r, _ in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
