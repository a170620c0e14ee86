"""The measured part of a benchmark run, in a fresh interpreter.

    python3 child.py JOB.json RESULT.json

JOB.json holds
    src        directory that holds the ktrace package
    warmup     runs made first and not timed, as [run_dir, commands] pairs
    datasets   one [run_dir, commands] pair per dataset; a pass runs each once
    seconds    stop starting passes once another would end past this
    min_passes passes made whatever the time
    trace      run each dataset untraced, then again traced, in every pass

Commands run in process through `ktrace.cli.main`; wall and CPU time
cover exactly those calls.  Each run starts from an empty run_dir.  A
calibration sample (calibrate.py) is taken before the first run and
after every run, outside their timing, and each run gets the speed
ratio of the two samples around it.  A fresh interpreter per benchmark
run keeps peak RSS from carrying over.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def _one_run(run_dir: str, commands: list[list[str]], tracer) -> dict:
    from ktrace import cli

    import spans

    shutil.rmtree(run_dir, ignore_errors=True)
    Path(run_dir).mkdir(parents=True)
    scope = spans.installed(tracer) if tracer else contextlib.nullcontext()
    codes, error = [], None
    with scope:
        wrapped = spans.wrapped_count()
        t0 = time.perf_counter()
        c0 = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a crashed command is a failed run, not a failed benchmark
                    codes.append(-1)
                    error = traceback.format_exc()
                if codes[-1] != 0:
                    break
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
    report = Path(run_dir) / "report.json"
    out = {"codes": codes, "error": error, "wall_s": wall, "cpu_s": cpu, "wrapped": wrapped,
           "report_sha256": None, "auc_mean": None}
    if report.exists():
        data = report.read_bytes()
        out["report_sha256"] = hashlib.sha256(data).hexdigest()
        out["auc_mean"] = json.loads(data)["auc_mean"]
    return out


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import calibrate
    import spans

    calibration = [calibrate.sample()]
    warmup = []
    for run_dir, commands in job["warmup"]:
        t0 = time.perf_counter()
        warmup.append(_one_run(run_dir, commands, None))
        warmup[-1]["elapsed_s"] = time.perf_counter() - t0
        calibration.append(calibrate.sample())

    runs: list[dict] = []
    passes: list[dict] = []
    traces: list[list[dict]] = []
    start = time.perf_counter()
    while len(passes) < job["min_passes"] or (
        time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes)
        <= job["seconds"]
    ):
        t0 = time.perf_counter()
        traces = []
        for index, (run_dir, commands) in enumerate(job["datasets"]):
            for traced in ((False, True) if job["trace"] else (False,)):
                tracer = spans.Tracer() if traced else None
                r = _one_run(run_dir, commands, tracer)
                calibration.append(calibrate.sample())
                r.update(dataset=index, pass_index=len(passes), trace=traced)
                runs.append(r)
                if tracer:
                    traces.append(tracer.spans)
        passes.append({
            "wall_s": time.perf_counter() - t0,
            "layers": spans.layer_metrics(traces) if traces else None,
        })
    # Run i, counting warm-up runs first, lies between samples i and i + 1.
    for i, r in enumerate(warmup + runs):
        r["speed_ratio"] = calibrate.speed_ratio(calibration[i:i + 2])
    return {
        "calibration_s": calibration,
        "warmup": warmup,
        "runs": runs,
        "passes": passes,
        "spans": traces[-1] if traces else None,  # the last traced run's, for reading
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    job_path, result_path = sys.argv[1], sys.argv[2]
    result = run(json.loads(Path(job_path).read_text(encoding="utf-8")))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
