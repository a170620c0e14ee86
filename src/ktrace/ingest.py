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
import gc
import json
import math
import threading
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import attrgetter, is_
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Sequence

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


class Memo:
    """Values computed once per key, shared by threads.

    A miss computes outside the lock, so a computation may itself use the
    memo; two threads that miss one key both compute, and the first value
    stored is the one both get.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict = {}

    def get(self, key: Hashable, compute: Callable[[], object]):
        with self._lock:
            if key in self._values:
                return self._values[key]
        value = compute()
        with self._lock:
            return self._values.setdefault(key, value)


@dataclass(frozen=True)
class Dataset:
    """A manifest plus per-student, time-ordered event sequences.

    Frozen, because its row store captures the fields: a changed dataset
    is a new one (`dataclasses.replace`), with a store of its own.
    """

    manifest: DatasetManifest
    students: dict[str, list[InteractionEvent]]
    kc_graph: KCGraph | None = None
    squash_map: dict[str, tuple[str, ...]] | None = None
    quality: dict[str, int] = field(default_factory=dict)
    # keyed feature rows of these students, and the fits and predictions made
    # on them (evaluate.fit_once, predict_once); `replace` starts both afresh
    feature_rows: RowStore = field(init=False, repr=False, compare=False)
    fits: Memo = field(init=False, default_factory=Memo, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = RowStore(self.students, self.manifest, self.kc_graph, self.squash_map)
        object.__setattr__(self, "feature_rows", rows)

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


# Records parsed at a time; bounds the memory a chunk's rows and columns take.
_CHUNK_RECORDS = 1 << 16
# Characters read from the file at a time.
_BLOCK_CHARS = 1 << 20
_WIDTH = len(CANONICAL_COLUMNS)
_MINUTES = list(OPTIONAL_FIELDS).index("consumption_minutes")
_EVENT_KINDS = {kind.value: kind for kind in EventKind}
_RESPONSE = EventKind.QUESTION_RESPONSE
_BAD = object()  # a cell that does not parse
# tuple.__new__ builds the event without the generated __new__'s Python frame
_make_event = partial(tuple.__new__, InteractionEvent)
_student_of = attrgetter("student_id")
_timestamp_of = attrgetter("timestamp")


class _Undecodable(ValueError):
    """A line holds bytes that are not UTF-8."""


class _BadRecord(Exception):
    """The first row of a chunk that fails one check."""

    def __init__(self, index: int, error: type[ValueError], message: str):
        super().__init__(message)
        self.index = index
        self.error = error
        self.message = message

    def at(self, line: int) -> ValueError:
        if self.error is ParseError:
            return ParseError(self.message, line)
        return self.error(f"line {line}: {self.message}")


def _first(test, values) -> int:
    """The index of the first value that passes `test`."""
    return next(i for i, value in enumerate(values) if test(value))


def _blocks(fh) -> Iterator[list[str]]:
    """The lines of a text file opened with errors="surrogateescape", a block
    at a time.  A block that holds an undecodable byte is cut before its line,
    and the next block raises `_Undecodable`, so a reader fails on that line."""
    while block := fh.readlines(_BLOCK_CHARS):
        text = "".join(block)
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as err:  # a lone surrogate stands for each undecodable byte
                yield block[:bisect_right(list(accumulate(map(len, block))), err.start)]
                raise _Undecodable(f"byte 0x{ord(text[err.start]) - 0xDC00:02x} is not UTF-8") from None
        yield block


def _flag(cell: str):
    if not cell:
        return None
    low = cell.lower()
    if low in ("1", "true"):
        return True
    if low in ("0", "false"):
        return False
    return _BAD


def _kc_set(cell: str) -> tuple[str, ...]:
    return tuple(sorted({k for k in cell.split(";") if k}))


def _timestamp(cell: str):
    try:
        return math.floor(float(cell))
    except (ValueError, OverflowError):  # not a number, NaN or infinite
        return _BAD


def _number(cell: str, typ: type):
    try:
        value = typ(cell)
    except ValueError:
        return _BAD
    return _BAD if isinstance(value, float) and not math.isfinite(value) else value


def _memo_map(memo: dict, cells: Sequence[str], parse) -> list | None:
    """Each cell parsed once per distinct value and kept in `memo`; None
    when a cell does not parse."""
    new = set(cells).difference(memo)
    parsed = list(map(parse, new))
    if _BAD in parsed:
        return None
    memo.update(zip(new, parsed))
    return list(map(memo.__getitem__, cells))


def _numbers(cells: Sequence[str], typ: type) -> list | None:
    """The cells as numbers of `typ`, an empty cell as None; None when a
    cell does not parse or a float is not finite."""
    present = list(filter(None, cells))
    try:
        values = list(map(typ, present))
    except ValueError:
        return None
    if typ is float and not all(map(math.isfinite, values)):
        return None
    if len(values) == len(cells):
        return values
    found = iter(values)
    return [next(found) if cell else None for cell in cells]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector.  A load makes a tuple per event
    and no reference cycles, and each full collection would traverse every
    event made so far: on a million events that was over half the load."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _ChunkParser:
    """Turns chunks of CSV records into events, a column at a time.

    Each check tests a whole column and finds its first offending row.  The
    checks are ranked, and run in rank order: width, student_id, timestamp,
    event_kind, the manifest's column flags in column order, its material
    flag, consumption_minutes on a response, correct, the numeric cells in
    column order, then the value checks (negative timestamp; a response
    without question_id, kc_ids or correct; negative numbers in column
    order).  The first check that fails names its row's first error, and the
    rows before that row are checked again for a later-ranked one, so the
    error raised is the earliest row's first-ranked error.
    """

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        self.barred_columns = [
            (j, col, f.flag) for j, (col, f) in enumerate(OPTIONAL_FIELDS.items())
            if f.flag and not manifest.allows(f.flag)
        ]
        self.barred_kinds = {kind: m.flag for kind, m in MATERIAL_KINDS.items() if not manifest.allows(m.flag)}
        # memos over the whole file: each distinct cell is parsed once, and
        # equal cells share one string or KC tuple (an empty string cell is None)
        self.strings: dict[str, str | None] = {"": None}
        self.kc_sets: dict[str, tuple[str, ...]] = {}
        self.flags: dict[str, bool | None] = {}

    def events(self, records: list[list[str]], first_line: int) -> Iterator[InteractionEvent]:
        """The events of consecutive records, the first on `first_line`;
        raises the first error among them.  Empty records are skipped."""
        lines: Sequence[int] = range(first_line, first_line + len(records))
        if not all(records):
            lines = [line for line, record in zip(lines, records) if record]
            records = [record for record in records if record]
        n, bad = len(records), None
        while True:
            try:
                columns = self.columns(records[:n])
            except _BadRecord as found:
                n, bad = found.index, found
                continue
            if bad is not None:
                raise bad.at(lines[n])
            return map(_make_event, zip(*columns))

    def columns(self, rows: list[list[str]]) -> list[Sequence]:
        """The event fields of the rows, one sequence per field; raises
        `_BadRecord` for the first offending row of the first failing check."""
        if not rows:
            return []
        if set(map(len, rows)) != {_WIDTH}:
            i = _first(lambda row: len(row) != _WIDTH, rows)
            raise _BadRecord(i, ParseError, f"expected {_WIDTH} columns, got {len(rows[i])}")
        sids, ts_cells, kind_cells, qid_cells, kc_cells, correct_cells, *optional = zip(*rows)
        if "" in sids:
            raise _BadRecord(sids.index(""), ParseError, "empty student_id")
        try:
            ts = list(map(math.floor, map(float, ts_cells)))
        except (ValueError, OverflowError):  # not a number, NaN or infinite
            i = _first(lambda cell: _timestamp(cell) is _BAD, ts_cells)
            raise _BadRecord(i, ParseError, f"bad timestamp {ts_cells[i]!r}") from None
        kinds = list(map(_EVENT_KINDS.get, kind_cells))
        if None in kinds:
            i = kinds.index(None)
            raise _BadRecord(i, ParseError, f"unknown event_kind {kind_cells[i]!r}")

        for j, col, flag in self.barred_columns:
            if any(optional[j]):
                message = f"column {col!r} populated but manifest {self.manifest.name!r} does not declare {flag!r}"
                raise _BadRecord(_first(bool, optional[j]), SchemaError, message)
        if not self.barred_kinds.keys().isdisjoint(kinds):
            i = _first(self.barred_kinds.__contains__, kinds)
            message = f"event kind {kinds[i].value!r} requires manifest flag {self.barred_kinds[kinds[i]]!r}"
            raise _BadRecord(i, SchemaError, message)
        responses = list(map(is_, kinds, repeat(_RESPONSE)))
        minutes = optional[_MINUTES]
        if any(compress(minutes, responses)):
            i = _first(lambda pair: pair[0] and pair[1], zip(minutes, responses))
            raise _BadRecord(i, ParseError, "consumption_minutes on a question response")
        correct = _memo_map(self.flags, correct_cells, _flag)
        if correct is None:
            i = _first(lambda cell: _flag(cell) is _BAD, correct_cells)
            raise _BadRecord(i, ParseError, f"bad correct flag {correct_cells[i]!r}")
        values: list[Sequence] = []
        numeric: list[tuple[str, list]] = []  # the populated number columns
        for (col, f), cells in zip(OPTIONAL_FIELDS.items(), optional):
            if not any(cells):
                values.append(repeat(None))
            elif f.type is str:
                values.append(list(map(self.strings.setdefault, cells, cells)))
            elif (numbers := _numbers(cells, f.type)) is not None:
                values.append(numbers)
                numeric.append((col, numbers))
            else:
                i = _first(lambda cell: cell and _number(cell, f.type) is _BAD, cells)
                expected = "integer" if f.type is int else "number"
                raise _BadRecord(i, ParseError, f"bad {expected} {cells[i]!r} in column {col!r}")

        if min(ts) < 0:
            i = _first(lambda t: t < 0, ts)
            raise _BadRecord(i, ParseError, f"negative timestamp {ts[i]}")
        questions = list(map(self.strings.setdefault, qid_cells, qid_cells))
        kc_ids = _memo_map(self.kc_sets, kc_cells, _kc_set)
        for column, missing, what in (
            (questions, None, "without question_id"),
            (kc_ids, (), "without kc_ids"),
            (correct, None, "without correct flag"),
        ):
            if missing in compress(column, responses):
                i = _first(lambda pair: pair[1] and pair[0] == missing, zip(column, responses))
                named = f"{questions[i]!r} " if column is not questions else ""
                raise _BadRecord(i, ParseError, f"question response {named}{what}")
        for col, numbers in numeric:
            if min(filter(None, numbers), default=0) < 0:
                raise _BadRecord(_first(lambda v: v is not None and v < 0, numbers), ParseError, f"negative {col}")
        return [list(map(self.strings.setdefault, sids, sids)), ts, kinds, questions, kc_ids, correct, *values]


def load_events(path: str | Path, manifest: DatasetManifest) -> Dataset:
    """Parse a canonical CSV into per-student, time-sorted sequences.

    Records are parsed a chunk at a time (`_ChunkParser`); an error names the
    line of the first bad record, counting records, not physical lines.
    Within one student, ties on timestamp keep file order (stable sort).
    """
    parser = _ChunkParser(manifest)
    by_student: dict[str, list[InteractionEvent]] = {}
    with _collector_paused(), Path(path).open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(chain.from_iterable(_blocks(fh)))
        line, records = 1, []  # the line of the chunk's first record, and the chunk
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty file: missing header", 1)
            if tuple(header) != CANONICAL_COLUMNS:
                raise ParseError(f"header mismatch: expected {','.join(CANONICAL_COLUMNS)}", 1)
            line = 2
            while True:
                records.extend(islice(reader, _CHUNK_RECORDS))  # keeps what was read if the reader fails
                if not records:
                    break
                events = parser.events(records, line)
                line += len(records)
                records = []  # frees the rows before the events are made
                # groupby: files are usually sorted by student, so a run is a student's chunk
                for sid, run in groupby(events, _student_of):
                    by_student.setdefault(sid, []).extend(run)
        except (csv.Error, _Undecodable) as err:  # a cell over csv's limit, or a byte that is not UTF-8
            parser.events(records, line)  # an earlier record's error comes first
            raise ParseError(str(err), line + len(records)) from None
    students = {
        sid: sorted(events, key=_timestamp_of)
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
            e._replace(kc_ids=(by_set[e.kc_ids],)) if e.kc_ids else e
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


_FLAG_CELLS = {None: "", True: "1", False: "0"}
_kind_value = attrgetter("value")


def write_events(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical CSV (students in sorted-id order), a chunk of
    events at a time, a column at a time.  csv writes None as an empty cell,
    a float by repr and an int or string as itself."""
    events = chain.from_iterable(dataset.students[sid] for sid in sorted(dataset.students))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        while chunk := list(islice(events, _CHUNK_RECORDS)):
            sid, ts, kind, qid, kc_ids, correct, *optional = zip(*chunk)
            writer.writerows(zip(
                sid, ts, map(_kind_value, kind), qid, map(";".join, kc_ids),
                map(_FLAG_CELLS.__getitem__, correct), *optional,
            ))


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
    squash_map, quality = None, {}
    meta_path = d / "prepare_meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        squash_map = {k: tuple(v) for k, v in (meta.get("squash_map") or {}).items()} or None
        quality = {k: int(v) for k, v in meta.get("quality", {}).items()}
    dataset = replace(dataset, kc_graph=graph, squash_map=squash_map, quality=quality)
    assignment = FoldAssignment.from_json(
        json.loads((d / "folds.json").read_text(encoding="utf-8"))
    )
    return dataset, assignment
