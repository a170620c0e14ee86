"""In-memory span tracing of ktrace, installed from outside the library.

A `Tracer` replaces ktrace's public functions with timing wrappers for
the duration of an `installed()` block and puts every original back on
exit.  Each wrapper records one span per call: name, start, end, thread,
parent span and a few exact counts taken from the call's arguments or
result.  Parents come from a thread-local stack; the thread pool that
`evaluate.cross_validate` uses is swapped for one that hands the
submitting span to the worker, so `run_fold` spans in pool threads get
the `cross_validate` span as parent, and the time each fold waited for
a worker is recorded as a `evaluate.fold_wait` span.

Names are wrapped where the caller looks them up: `combine` imports
`auc` from `evaluate` by name and `evaluate` imports `split_folds` from
`ingest` by name, so those names are wrapped in the importing module too.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import statistics
import threading
import time
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

ORIGINAL_ATTR = "__perfbench_original__"
# Layers whose self time a traced run reports; synth runs only in set-up.
LAYERS = ("ingest", "features", "regression", "specialize", "combine", "evaluate", "cli")
METRIC_FUNCTIONS = ("evaluate.accuracy", "evaluate.auc", "evaluate.bucket_metrics")
BASE_FIT_SPANS = ("evaluate.PlainSpec.fit_on", "specialize.PartitionedSpec.fit_on")


class Tracer:
    """Collects spans in memory; `spans` is read once the traced work ends."""

    def __init__(self) -> None:
        self.trace_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _add(self, span_id: int, name: str, start: float, end: float, parent, attrs: dict) -> None:
        span = {
            "id": span_id,
            "trace": self.trace_id,
            "name": name,
            "start": start,
            "end": end,
            "thread": threading.get_ident(),
            "parent": parent,
            "attrs": attrs,
        }
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, counts=None):
        """Return fn wrapped in a span; counts(args, kwargs, result) -> attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                self._add(span_id, name, start, end, parent, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            stack.pop()
            self._add(span_id, name, start, end, parent, counts(args, kwargs, result) if counts else {})
            return result

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    def executor_class(self) -> type:
        """A ThreadPoolExecutor whose tasks inherit the submitting span."""
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                submitted = time.perf_counter()

                def task():
                    started = time.perf_counter()
                    tracer._add(tracer._new_id(), "evaluate.fold_wait", submitted, started,
                                parent, {"wait": True})
                    worker_stack = tracer._stack()
                    worker_stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        worker_stack.pop()

                return super().submit(task)

        setattr(PropagatingExecutor, ORIGINAL_ATTR, ThreadPoolExecutor)
        return PropagatingExecutor


# ---------------------------------------------------------------------------
# What gets wrapped, and the exact counts each wrapper records

def _rows_of_dataset(args, kwargs, result) -> dict:
    return {"rows": sum(len(v) for v in result.students.values())}


def _extract_counts(args, kwargs, result) -> dict:
    return {"rows": int(result.X.shape[0]), "nnz": int(result.X.nnz)}


def _fit_counts(args, kwargs, result) -> dict:
    return {
        "rows": int(result.info["n_examples"]),
        "epochs": int(result.info["epochs"]),
        "converged": bool(result.info["converged"]),
    }


def _partition_counts(args, kwargs, result) -> dict:
    return {"models": len(result.models)}


def _base_fit_key(args, kwargs, result) -> dict:
    spec, students = args[0], args[1]
    digest = hashlib.sha256("\n".join(sorted(students)).encode()).hexdigest()[:16]
    return {"key": f"{spec.label}|{digest}"}


def _bytes_written(args, kwargs, result) -> dict:
    out_dir = Path(args[1])
    return {"bytes": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())}


def targets() -> list[tuple]:
    """(owner, attribute, span name, counts) for every wrapped name."""
    from ktrace import cli, combine, evaluate, features, ingest, regression, specialize, synth

    return [
        (cli, "main", "cli.main", None),
        (cli, "save_fitted", "cli.save_fitted", _bytes_written),
        (cli.RunManifest, "add_input", "cli.RunManifest.add_input", None),
        (cli.RunManifest, "write", "cli.RunManifest.write", None),
        (ingest, "load_events", "ingest.load_events", _rows_of_dataset),
        (ingest, "load_prepared", "ingest.load_prepared", None),
        (ingest, "read_manifest", "ingest.read_manifest", None),
        (ingest, "filter_students", "ingest.filter_students", None),
        (ingest, "derive_lag_times", "ingest.derive_lag_times", None),
        (ingest, "split_folds", "ingest.split_folds", None),
        (ingest, "write_prepared", "ingest.write_prepared", None),
        (ingest, "write_events", "ingest.write_events", None),
        (synth, "generate", "synth.generate", None),
        (features, "fit_encoders", "features.fit_encoders", None),
        (features, "build_matrix", "features.build_matrix", _extract_counts),
        (regression, "fit", "regression.fit", _fit_counts),
        (regression, "predict_proba_batch", "regression.predict_proba_batch", None),
        (regression, "save_model", "regression.save_model", None),
        (specialize, "fit_partitioned", "specialize.fit_partitioned", _partition_counts),
        (specialize, "predict_routed_batch", "specialize.predict_routed_batch", None),
        (specialize, "save_partitioned", "specialize.save_partitioned", None),
        (specialize.PartitionedSpec, "fit_on", "specialize.PartitionedSpec.fit_on", _base_fit_key),
        (combine, "select_bases", "combine.select_bases", None),
        (combine, "fit_combined", "combine.fit_combined", None),
        (combine, "predict_combined", "combine.predict_combined", None),
        (combine, "save_combined", "combine.save_combined", None),
        (combine, "auc", "evaluate.auc", None),
        (evaluate, "cross_validate", "evaluate.cross_validate", None),
        (evaluate, "run_fold", "evaluate.run_fold", None),
        (evaluate, "split_folds", "ingest.split_folds", None),
        (evaluate, "accuracy", "evaluate.accuracy", None),
        (evaluate, "auc", "evaluate.auc", None),
        (evaluate, "bucket_metrics", "evaluate.bucket_metrics", None),
        (evaluate.PlainSpec, "fit_on", "evaluate.PlainSpec.fit_on", _base_fit_key),
    ]


def wrapped_count() -> int:
    """How many traced names currently hold a wrapper (0 when untraced)."""
    from ktrace import evaluate

    n = sum(1 for owner, attr, _, _ in targets() if hasattr(getattr(owner, attr), ORIGINAL_ATTR))
    return n + hasattr(evaluate.ThreadPoolExecutor, ORIGINAL_ATTR)


def target_count() -> int:
    return len(targets()) + 1


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the block; restore each original on exit."""
    from ktrace import evaluate

    saved = []
    try:
        for owner, attr, name, counts in targets():
            saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counts))
        saved.append((evaluate, "ThreadPoolExecutor", evaluate.ThreadPoolExecutor))
        evaluate.ThreadPoolExecutor = tracer.executor_class()
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Reading a trace

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Wait spans are neither counted as work nor as covering their parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None and not s["attrs"].get("wait"):
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        if s["attrs"].get("wait"):
            continue
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(traces: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics over the spans of several traced runs.

    Times and counts are totals over the runs; rates and ratios are taken
    from those totals.
    """
    total: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    self_s: Counter = Counter()
    folds: list[float] = []
    base_fits: list[tuple[int, str]] = []
    metric_s = 0.0
    for run, spans in enumerate(traces):
        by_id = {s["id"]: s for s in spans}
        selfs = self_times(spans)

        def ancestors(s: dict):
            while s["parent"] is not None:
                s = by_id[s["parent"]]
                yield s["name"]

        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            total[name] += dur
            calls[name] += 1
            for key, value in s["attrs"].items():
                if isinstance(value, (int, float)):
                    counts[name, key] += value
            self_s[name] += selfs.get(s["id"], 0.0)
            if name == "evaluate.run_fold":
                folds.append(dur)
            if name in BASE_FIT_SPANS and any(a.startswith("combine.") for a in ancestors(s)):
                base_fits.append((run, s["attrs"]["key"]))
            if name in METRIC_FUNCTIONS and not any(a in METRIC_FUNCTIONS for a in ancestors(s)):
                metric_s += dur

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["ingest.load_events.s"] = total["ingest.load_events"]
    m["ingest.load_events.rows_per_s"] = ratio(counts["ingest.load_events", "rows"], total["ingest.load_events"])
    m["ingest.derive_lag_times.s"] = total["ingest.derive_lag_times"]
    m["ingest.write_prepared.s"] = total["ingest.write_prepared"]

    m["features.build_matrix.s"] = total["features.build_matrix"]
    m["features.build_matrix.calls"] = calls["features.build_matrix"]
    m["features.build_matrix.rows"] = counts["features.build_matrix", "rows"]
    m["features.build_matrix.nnz"] = counts["features.build_matrix", "nnz"]
    m["features.build_matrix.rows_per_s"] = ratio(m["features.build_matrix.rows"], total["features.build_matrix"])
    m["features.fit_encoders.s"] = total["features.fit_encoders"]
    m["features.fit_encoders.calls"] = calls["features.fit_encoders"]

    m["regression.fit.s"] = total["regression.fit"]
    m["regression.fit.calls"] = calls["regression.fit"]
    m["regression.fit.rows"] = counts["regression.fit", "rows"]
    m["regression.fit.epochs"] = counts["regression.fit", "epochs"]
    m["regression.fit.converged_ratio"] = ratio(counts["regression.fit", "converged"], calls["regression.fit"])
    m["regression.predict_proba_batch.s"] = total["regression.predict_proba_batch"]

    m["specialize.fit_partitioned.self_s"] = self_s["specialize.fit_partitioned"]
    m["specialize.partition_models"] = counts["specialize.fit_partitioned", "models"]
    m["specialize.predict_routed_batch.s"] = total["specialize.predict_routed_batch"]

    m["combine.select_bases.s"] = total["combine.select_bases"]
    m["combine.fit_combined.calls"] = calls["combine.fit_combined"]
    m["combine.base_fits"] = len(base_fits)
    m["combine.base_fit_reuse_ratio"] = ratio(len(set(base_fits)), len(base_fits))

    m["evaluate.cross_validate.s"] = total["evaluate.cross_validate"]
    m["evaluate.run_fold.s_p50"] = statistics.median(folds) if folds else 0.0
    m["evaluate.run_fold.s_max"] = max(folds, default=0.0)
    m["evaluate.fold_wait_s"] = total["evaluate.fold_wait"]
    m["evaluate.metrics.s"] = metric_s

    m["cli.save_fitted.s"] = total["cli.save_fitted"]
    m["cli.save_fitted.bytes"] = counts["cli.save_fitted", "bytes"]
    m["cli.run_manifest.s"] = total["cli.RunManifest.add_input"] + total["cli.RunManifest.write"]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
    return m
