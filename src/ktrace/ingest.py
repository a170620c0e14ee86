"""Event-log ingestion: canonical CSV parsing and preprocessing.

The canonical interchange format is one UTF-8 CSV per dataset with a
fixed header; converters from raw platform exports are expected to
produce this format plus a JSON manifest of capability flags (and an
optional prerequisite graph).  Preprocessing squashes multi-KC sets to
artificial single KCs, drops students with too few responses, assigns
student-level cross-validation folds, and tallies the lag times that
extraction will clamp to zero.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ktrace.core import (
    ConfigError,
    DatasetManifest,
    EventKind,
    FoldAssignment,
    InteractionEvent,
    KCGraph,
    MATERIAL_KINDS,
    OPTIONAL_FIELDS,
    ParseError,
    SchemaError,
    canonical_json,
    response_lags,
)
from ktrace.features import RowStore

CANONICAL_COLUMNS: tuple[str, ...] = (
    "student_id",
    "timestamp",
    "event_kind",
    "question_id",
    "kc_ids",
    "correct",
    *OPTIONAL_FIELDS,
)


@dataclass
class Dataset:
    """A manifest plus per-student, time-ordered event sequences."""

    manifest: DatasetManifest
    students: dict[str, list[InteractionEvent]]
    kc_graph: KCGraph | None = None
    squash_map: dict[str, tuple[str, ...]] | None = None
    quality: dict[str, int] = field(default_factory=dict)
    # keyed feature rows of these students; `replace` starts a fresh store
    feature_rows: RowStore = field(init=False, default_factory=RowStore, repr=False, compare=False)

    @property
    def n_students(self) -> int:
        return len(self.students)

    @property
    def n_responses(self) -> int:
        return sum(
            1 for evs in self.students.values() for e in evs if e.is_response()
        )

    def subset(self, student_ids: Iterable[str]) -> "Dataset":
        keep = {s: self.students[s] for s in sorted(student_ids)}
        return replace(self, students=keep)


def _parse_bool(cell: str, line: int) -> bool:
    low = cell.lower()
    if low in ("1", "true"):
        return True
    if low in ("0", "false"):
        return False
    raise ParseError(f"bad correct flag {cell!r}", line)


def _parse_cell(cell: str, typ: type, col: str, line: int):
    """A non-empty optional cell as its OPTIONAL_FIELDS type."""
    if typ is str:
        return cell
    try:
        value = typ(cell)
    except ValueError:
        value = math.nan
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"bad {'integer' if typ is int else 'number'} {cell!r} in column {col!r}", line)
    return value


def _parse_row(row: Mapping[str, str], line: int, manifest: DatasetManifest) -> InteractionEvent:
    sid = row["student_id"]
    if not sid:
        raise ParseError("empty student_id", line)
    try:
        ts = float(row["timestamp"])
    except ValueError:
        ts = math.nan
    if not math.isfinite(ts):
        raise ParseError(f"bad timestamp {row['timestamp']!r}", line)
    ts = int(math.floor(ts))
    try:
        kind = EventKind(row["event_kind"])
    except ValueError:
        raise ParseError(f"unknown event_kind {row['event_kind']!r}", line) from None

    for col, f in OPTIONAL_FIELDS.items():
        if row[col] and f.flag and not manifest.allows(f.flag):
            raise SchemaError(
                f"line {line}: column {col!r} populated but manifest "
                f"{manifest.name!r} does not declare {f.flag!r}"
            )
    material = MATERIAL_KINDS.get(kind)
    if material and not manifest.allows(material.flag):
        raise SchemaError(
            f"line {line}: event kind {kind.value!r} requires manifest flag {material.flag!r}"
        )
    if row["consumption_minutes"] and kind is EventKind.QUESTION_RESPONSE:
        raise ParseError("consumption_minutes on a question response", line)

    # positional: InteractionEvent declares its fields in CANONICAL_COLUMNS order
    event = InteractionEvent(
        sid,
        ts,
        kind,
        row["question_id"] or None,
        tuple(sorted({k for k in row["kc_ids"].split(";") if k})),
        _parse_bool(row["correct"], line) if row["correct"] else None,
        *[
            _parse_cell(cell, f.type, col, line) if (cell := row[col]) else None
            for col, f in OPTIONAL_FIELDS.items()
        ],
    )
    try:
        event.validate()
    except SchemaError as err:
        raise ParseError(str(err), line) from None
    return event


def load_events(path: str | Path, manifest: DatasetManifest) -> Dataset:
    """Parse a canonical CSV into per-student, time-sorted sequences.

    Within one student, ties on timestamp keep file order (stable sort).
    """
    path = Path(path)
    by_student: dict[str, list[InteractionEvent]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header", 1) from None
        if tuple(header) != CANONICAL_COLUMNS:
            raise ParseError(
                f"header mismatch: expected {','.join(CANONICAL_COLUMNS)}", 1
            )
        for line, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(CANONICAL_COLUMNS):
                raise ParseError(
                    f"expected {len(CANONICAL_COLUMNS)} columns, got {len(raw)}", line
                )
            row = dict(zip(CANONICAL_COLUMNS, raw))
            event = _parse_row(row, line, manifest)
            by_student.setdefault(event.student_id, []).append(event)
    students = {
        sid: sorted(events, key=lambda e: e.timestamp)
        for sid, events in sorted(by_student.items())
    }
    return Dataset(manifest=manifest, students=students)


def filter_students(dataset: Dataset, min_responses: int = 10) -> Dataset:
    """Drop students with fewer than min_responses question responses.

    Only question responses count toward the threshold; all events of a
    dropped student (including material events) are removed.
    """
    if min_responses < 0:
        raise ConfigError("min_responses must be >= 0")
    kept = {
        sid: events
        for sid, events in dataset.students.items()
        if sum(1 for e in events if e.is_response()) >= min_responses
    }
    quality = dict(dataset.quality)
    quality["students_filtered"] = quality.get("students_filtered", 0) + (
        dataset.n_students - len(kept)
    )
    return replace(dataset, students=kept, quality=quality)


def squash_multi_kc(dataset: Dataset) -> Dataset:
    """Replace each distinct KC set with a single artificial KC id.

    The mapping is order-insensitive over the member ids; artificial ids
    are assigned in sorted order of the member tuples, so the result is
    independent of event order.  Every event carrying KCs is rewritten,
    and the artificial-to-original mapping is retained on the dataset so
    that graph-based features can still resolve original ids.
    """
    if dataset.squash_map is not None:
        raise ConfigError("dataset KCs are already squashed")
    distinct: set[tuple[str, ...]] = set()
    for events in dataset.students.values():
        for e in events:
            if e.kc_ids:
                distinct.add(e.kc_ids)
    ordered = sorted(distinct)
    width = max(5, len(str(max(len(ordered) - 1, 0))))
    by_set = {kcs: f"akc{i:0{width}d}" for i, kcs in enumerate(ordered)}
    squash_map = {aid: kcs for kcs, aid in by_set.items()}
    students = {
        sid: [
            replace(e, kc_ids=(by_set[e.kc_ids],)) if e.kc_ids else e
            for e in events
        ]
        for sid, events in dataset.students.items()
    }
    return replace(dataset, students=students, squash_map=squash_map)


def split_folds(dataset: Dataset, k: int = 5, seed: int = 0) -> FoldAssignment:
    """Student-level fold assignment: seeded shuffle of the sorted ids,
    then round-robin, so fold sizes differ by at most one student."""
    ids = sorted(dataset.students)
    if k < 2:
        raise ConfigError("need at least 2 folds")
    if len(ids) < k:
        raise ConfigError(f"cannot split {len(ids)} students into {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    folds = {ids[int(j)]: int(pos % k) for pos, j in enumerate(order)}
    return FoldAssignment(k=k, seed=seed, folds=folds)


def derive_lag_times(dataset: Dataset) -> Dataset:
    """Add the responses whose lag time extraction clamps to zero (`response_lags`)
    to quality["negative_lag_clamped"]; no event changes."""
    negative = int(response_lags(dataset.students.values())[1].sum())
    quality = dict(dataset.quality)
    quality["negative_lag_clamped"] = quality.get("negative_lag_clamped", 0) + negative
    return replace(dataset, quality=quality)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_optional_cells = operator.attrgetter(*OPTIONAL_FIELDS)


def write_events(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical CSV (students in sorted-id order)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for sid in sorted(dataset.students):
            for e in dataset.students[sid]:
                row = [
                    e.student_id, e.timestamp, e.kind.value, _fmt(e.question_id),
                    ";".join(e.kc_ids), _fmt(e.correct),
                ]
                # a Python loop, not map(_fmt, ...): CPython does not specialize calls
                # made from C, and most optional cells are empty, which skips the call
                for value in _optional_cells(e):
                    row.append("" if value is None else _fmt(value))
                writer.writerow(row)


def read_manifest(path: str | Path) -> tuple[DatasetManifest, KCGraph | None]:
    """Load a manifest JSON; it may embed a prerequisite graph under
    the "kc_graph" key."""
    with Path(path).open(encoding="utf-8") as fh:
        obj = json.load(fh)
    manifest = DatasetManifest.from_json(obj)
    graph = None
    if obj.get("kc_graph") is not None:
        graph = KCGraph.from_json(obj["kc_graph"])
        flag_ok = manifest.allows("prereq_graph") or manifest.allows("kc_hierarchy")
        if not flag_ok:
            raise SchemaError(
                "manifest embeds a kc_graph but declares neither "
                "'prereq_graph' nor 'kc_hierarchy'"
            )
    return manifest, graph


def write_manifest(manifest: DatasetManifest, path: str | Path, kc_graph: KCGraph | None = None) -> None:
    obj = manifest.to_json()
    if kc_graph is not None:
        obj["kc_graph"] = kc_graph.to_json()
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def write_prepared(dataset: Dataset, assignment: FoldAssignment, out_dir: str | Path) -> dict[str, str]:
    """Write a prepared dataset directory; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_events(dataset, out / "events.csv")
    write_manifest(dataset.manifest, out / "manifest.json", dataset.kc_graph)
    (out / "folds.json").write_text(canonical_json(assignment.to_json()), encoding="utf-8")
    meta = {
        "version": 1,
        "squash_map": {k: list(v) for k, v in sorted((dataset.squash_map or {}).items())},
        "quality": dict(sorted(dataset.quality.items())),
        "n_students": dataset.n_students,
        "n_responses": dataset.n_responses,
    }
    (out / "prepare_meta.json").write_text(canonical_json(meta), encoding="utf-8")
    return {
        "events": str(out / "events.csv"),
        "manifest": str(out / "manifest.json"),
        "folds": str(out / "folds.json"),
        "prepare_meta": str(out / "prepare_meta.json"),
    }


def load_prepared(dir_path: str | Path) -> tuple[Dataset, FoldAssignment]:
    """Load a directory produced by write_prepared.

    The quality tallies come from prepare_meta.json (none without it)."""
    d = Path(dir_path)
    manifest, graph = read_manifest(d / "manifest.json")
    dataset = load_events(d / "events.csv", manifest)
    dataset.kc_graph = graph
    meta_path = d / "prepare_meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        squash = meta.get("squash_map") or None
        if squash:
            dataset.squash_map = {k: tuple(v) for k, v in squash.items()}
        dataset.quality = {k: int(v) for k, v in meta.get("quality", {}).items()}
    assignment = FoldAssignment.from_json(
        json.loads((d / "folds.json").read_text(encoding="utf-8"))
    )
    return dataset, assignment
