import csv
import dataclasses
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_line, response, toy_dataset, write_csv
from oracle import reference_load_events

from ktrace import cli, ingest
from ktrace.core import (
    MATERIAL_KINDS,
    OPTIONAL_FIELDS,
    ConfigError,
    DatasetManifest,
    EventKind,
    InteractionEvent,
    KCGraph,
    ParseError,
    SchemaError,
    response_lags,
)
from ktrace.features import LAG_CATEGORIES_MIN, F, Recipe, build_matrix, fit_encoders
from ktrace.ingest import (
    CANONICAL_COLUMNS,
    Dataset,
    derive_lag_times,
    filter_students,
    load_events,
    load_prepared,
    split_folds,
    squash_multi_kc,
    write_events,
    write_manifest,
    write_prepared,
)

MINIMAL = DatasetManifest.minimal("t")


def test_load_empty_file(tmp_path):
    path = write_csv(tmp_path / "e.csv", [])
    ds = load_events(path, MINIMAL)
    assert ds.n_students == 0 and ds.n_responses == 0


def test_load_sorts_within_student(tmp_path):
    lines = [
        csv_line(student_id="s1", timestamp=300, event_kind="QuestionResponse", question_id="q2", kc_ids="k1", correct=0),
        csv_line(student_id="s1", timestamp=100, event_kind="QuestionResponse", question_id="q1", kc_ids="k1", correct=1),
        csv_line(student_id="s1", timestamp=300, event_kind="QuestionResponse", question_id="q3", kc_ids="k1", correct=1),
    ]
    ds = load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)
    evs = ds.students["s1"]
    assert [e.question_id for e in evs] == ["q1", "q2", "q3"]  # stable tie order


def test_load_random_order_matches_sort_oracle(tmp_path, rng):
    rows = []
    expected = {}
    for s in range(8):
        sid = f"s{s}"
        ts = rng.integers(0, 100_000, size=125)
        for i, t in enumerate(ts):
            rows.append((sid, int(t), f"q{i}"))
    rng.shuffle(rows)
    for sid, t, qid in rows:
        expected.setdefault(sid, []).append((t, qid))
    lines = [
        csv_line(student_id=sid, timestamp=t, event_kind="QuestionResponse", question_id=qid, kc_ids="k0", correct=1)
        for sid, t, qid in rows
    ]
    ds = load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)
    assert ds.n_responses == 1000
    for sid, pairs in expected.items():
        # oracle: stable sort of (timestamp, arrival order)
        want = [p[1] for _, p in sorted(enumerate(pairs), key=lambda ip: (ip[1][0], ip[0]))]
        want_sorted = [q for (t, q) in sorted(pairs, key=lambda p: p[0])]
        got = [e.question_id for e in ds.students[sid]]
        assert got == want_sorted == want


def test_load_malformed_row_names_line(tmp_path):
    lines = [
        csv_line(student_id="s1", timestamp=1, event_kind="QuestionResponse", question_id="q1", kc_ids="k1", correct=1),
        csv_line(student_id="s1", timestamp="notatime", event_kind="QuestionResponse", question_id="q1", kc_ids="k1", correct=1),
    ]
    with pytest.raises(ParseError, match="line 3"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)


NON_FINITE = ("inf", "-inf", "1e400", "nan", "-nan", "Infinity")


def _assert_each_rejected(tmp_path, manifest, column, make_line):
    for cell in NON_FINITE:
        lines = [
            csv_line(student_id="s1", timestamp=1, event_kind="QuestionResponse", question_id="q1", kc_ids="k1", correct=1),
            make_line(cell),
        ]
        with pytest.raises(ParseError, match=rf"^line 3: bad .*{re.escape(repr(cell))}") as err:
            load_events(write_csv(tmp_path / "e.csv", lines), manifest)
        assert column in str(err.value)


def test_load_rejects_non_finite_timestamp(tmp_path):
    _assert_each_rejected(tmp_path, MINIMAL, "timestamp", lambda cell: csv_line(
        student_id="s1", timestamp=cell, event_kind="QuestionResponse", question_id="q1", kc_ids="k1", correct=1,
    ))


def test_load_rejects_non_finite_elapsed_time(tmp_path):
    manifest = DatasetManifest(name="t", capabilities=frozenset({"elapsed_lag_time"}))
    _assert_each_rejected(tmp_path, manifest, "elapsed_time_s", lambda cell: csv_line(
        student_id="s1", timestamp=2, event_kind="QuestionResponse", question_id="q1", kc_ids="k1", correct=1,
        elapsed_time_s=cell,
    ))


def test_load_rejects_non_finite_consumption_minutes(tmp_path):
    manifest = DatasetManifest(name="t", capabilities=frozenset({"reading"}))
    _assert_each_rejected(tmp_path, manifest, "consumption_minutes", lambda cell: csv_line(
        student_id="s1", timestamp=2, event_kind="Reading", kc_ids="k1", consumption_minutes=cell,
    ))


# cells that reach every branch of the row parser, plus arbitrary text
_CELLS = st.one_of(
    st.sampled_from([
        "", "s1", "q1", "k1", "k1;k2", "0", "1", "-1", "2.5", "true", "False", "x", "1_0", " 7 ", "-0",
        "inf", "-inf", "nan", "1e400", "-1e400", "1e18",
        *(kind.value for kind in EventKind), "questionresponse",
    ]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)

_NUMBER_COLUMNS = ("timestamp", "elapsed_time_s", "hint_count", "consumption_minutes")


@st.composite
def _rows(draw):
    """A valid response row with a few cells replaced, sometimes cut or extended."""
    row = dict.fromkeys(CANONICAL_COLUMNS, "")
    row.update(student_id="s1", timestamp="5", event_kind="QuestionResponse",
               question_id="q1", kc_ids="k1", correct="1")
    for col in draw(st.lists(st.sampled_from(CANONICAL_COLUMNS + _NUMBER_COLUMNS * 4), max_size=4)):
        row[col] = draw(st.one_of(_CELLS, st.floats().map(repr)) if col in _NUMBER_COLUMNS else _CELLS)
    cells = [row[c] for c in CANONICAL_COLUMNS]
    width = draw(st.sampled_from([len(cells)] * 40 + [0, 1, len(cells) - 1, len(cells) + 1]))
    return (cells + [draw(_CELLS)])[:width]


def _outcome(load, path, manifest):
    """A loader's students, or the class and message of its error."""
    try:
        return load(path, manifest).students
    except (ParseError, SchemaError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(_rows(), max_size=6),
    manifest=st.sampled_from([MINIMAL, DatasetManifest.full("f")]),
)
def test_load_events_fuzz_fails_only_with_line_numbered_errors(rows, manifest):
    """The chunked loader agrees with the row parser: equal students, or the
    same error class and message, also when chunks hold two records."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CANONICAL_COLUMNS)
            writer.writerows(rows)
        want = _outcome(reference_load_events, path, manifest)
        if isinstance(want, tuple):
            assert re.match(r"line \d+: ", want[1]), want[1]
        else:
            assert len(want) <= len(rows)
        assert _outcome(load_events, path, manifest) == want
        with mock.patch.object(ingest, "_CHUNK_RECORDS", 2):
            assert _outcome(load_events, path, manifest) == want


def test_load_reports_the_first_records_first_error(tmp_path):
    """Errors in several rows and columns: the earliest record's first check
    in the row order wins, whatever comes after it."""
    manifest = DatasetManifest.full("f")
    ok = dict(student_id="s1", timestamp=5, event_kind="QuestionResponse", question_id="q1", kc_ids="k1", correct=1)
    line3 = dict(ok, correct="maybe", hint_count="x", elapsed_time_s=-2, study_module="m")
    line4 = dict(ok, student_id="", timestamp="soon")
    lines = [csv_line(**ok), csv_line(**line3), csv_line(**line4), "s2,1,QuestionResponse", csv_line(**ok)]
    expected = [
        (None, "line 3: bad correct flag 'maybe'"),
        (dict(correct=1), "line 3: bad integer 'x' in column 'hint_count'"),
        (dict(hint_count=3), "line 3: negative elapsed_time_s"),
        (dict(elapsed_time_s=2), "line 4: empty student_id"),
    ]
    for fix, message in expected:
        if fix:
            line3.update(fix)
            lines[1] = csv_line(**line3)
        path = write_csv(tmp_path / "e.csv", lines)
        assert _outcome(load_events, path, manifest) == (ParseError, message)
        assert _outcome(reference_load_events, path, manifest) == (ParseError, message)
    lines[2] = csv_line(**ok)
    path = write_csv(tmp_path / "e.csv", lines)
    want = (ParseError, "line 5: expected 21 columns, got 3")
    assert _outcome(load_events, path, manifest) == want == _outcome(reference_load_events, path, manifest)
    want = (SchemaError, "line 3: column 'elapsed_time_s' populated but manifest 't' does not declare 'elapsed_lag_time'")
    assert _outcome(load_events, path, MINIMAL) == want == _outcome(reference_load_events, path, MINIMAL)


def _response_line(sid, ts, qid, **cells):
    return csv_line(student_id=sid, timestamp=ts, event_kind="QuestionResponse", question_id=qid,
                    kc_ids="k1", correct=1, **cells)


def test_load_sorts_a_student_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_RECORDS", 3)
    lines = [
        _response_line("s1", 5, "q1"), _response_line("s2", 1, "q1"), _response_line("s1", 3, "q2"),
        _response_line("s1", 5, "q3"), _response_line("s1", 3, "q4"), _response_line("s2", 1, "q2"),
        _response_line("s1", 5, "q5"),
    ]
    path = write_csv(tmp_path / "e.csv", lines)
    ds = load_events(path, MINIMAL)
    assert [(e.timestamp, e.question_id) for e in ds.students["s1"]] == [
        (3, "q2"), (3, "q4"), (5, "q1"), (5, "q3"), (5, "q5"),
    ]
    assert [e.question_id for e in ds.students["s2"]] == ["q1", "q2"]
    assert ds.students == reference_load_events(path, MINIMAL).students


def test_load_error_in_a_later_chunk_keeps_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_RECORDS", 3)
    lines = [
        _response_line("s1", 1, "q1"), "", _response_line("s1", 2, "q1"),  # a blank record still counts
        _response_line("s1", 3, "q1"), _response_line("s1", "later", "q1"), _response_line("s1", 4, "q1"),
        _response_line("s1", -1, "q1"),
    ]
    with pytest.raises(ParseError, match=r"^line 6: bad timestamp 'later'$"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)
    lines[4] = _response_line("s1", 5, "q1")
    with pytest.raises(ParseError, match=r"^line 8: negative timestamp -1$"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)


def test_load_short_row_after_a_clean_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_RECORDS", 3)
    lines = [_response_line("s1", t, "q1") for t in range(3)]
    lines.append(_response_line("s1", 3, "q1").rsplit(",", 1)[0])
    with pytest.raises(ParseError, match=rf"^line 5: expected {len(CANONICAL_COLUMNS)} columns, got 20$"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)


def _prepare_fails(tmp_path, path, capsys, message):
    write_manifest(MINIMAL, tmp_path / "manifest.json")
    code = cli.main(["prepare", "--input", str(path), "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "prep")])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_load_names_the_line_of_a_cell_over_the_csv_limit(tmp_path, capsys):
    long_cell = "q" * (csv.field_size_limit() + 1)
    lines = [_response_line("s1", 1, "q1"), _response_line("s1", 2, long_cell), _response_line("s1", -3, "q1")]
    path = write_csv(tmp_path / "e.csv", lines)
    message = f"line 3: field larger than field limit ({csv.field_size_limit()})"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_events(path, MINIMAL)
    _prepare_fails(tmp_path, path, capsys, message)
    lines[0] = _response_line("s1", "x", "q1")  # an earlier record's error comes first
    with pytest.raises(ParseError, match="^line 2: bad timestamp 'x'$"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)


# with 400-character blocks, the block that holds the bad byte starts a few records before it
@pytest.mark.parametrize("block_chars", [1 << 20, 400])
def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, monkeypatch, block_chars):
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", block_chars)
    lines = [_response_line("s1", t, f"q{t}") for t in range(400)]
    lines[300] = _response_line("s1", 300, '"q\nBAD"')  # a record of two physical lines
    path = tmp_path / "e.csv"
    write_csv(path, lines)
    path.write_bytes(path.read_bytes().replace(b"BAD", b"\xffAD"))
    message = "line 302: byte 0xff is not UTF-8"
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_events(path, MINIMAL)
    _prepare_fails(tmp_path, path, capsys, message)
    path.write_bytes(path.read_bytes().replace(b"s1,200,", b"s1,-200,"))  # an earlier record's error comes first
    with pytest.raises(ParseError, match="^line 202: negative timestamp -200$"):
        load_events(path, MINIMAL)
    path.write_bytes(b"\xfe" + path.read_bytes())
    with pytest.raises(ParseError, match="^line 1: byte 0xfe is not UTF-8$"):
        load_events(path, MINIMAL)


def test_load_header_mismatch(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("foo,bar\n1,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="header"):
        load_events(path, MINIMAL)


# a well-formed cell of each OPTIONAL_FIELDS type
SAMPLE_CELLS = {str: "m1", float: "2.5", int: "3"}


@pytest.mark.parametrize("col", [c for c, f in OPTIONAL_FIELDS.items() if f.flag])
def test_load_rejects_undeclared_fields(tmp_path, col):
    typ, flag = OPTIONAL_FIELDS[col]
    lines = [
        csv_line(
            student_id="s1", timestamp=1, event_kind="QuestionResponse",
            question_id="q1", kc_ids="k1", correct=1, **{col: SAMPLE_CELLS[typ]},
        )
    ]
    with pytest.raises(SchemaError, match=f"column '{col}' populated .* does not declare '{flag}'"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)
    ok = DatasetManifest(name="t", capabilities=frozenset({flag}))
    ds = load_events(write_csv(tmp_path / "e2.csv", lines), ok)
    assert getattr(ds.students["s1"][0], col) == typ(SAMPLE_CELLS[typ])


@pytest.mark.parametrize("kind", list(MATERIAL_KINDS), ids=lambda k: k.value)
def test_load_rejects_undeclared_event_kinds(tmp_path, kind):
    flag = MATERIAL_KINDS[kind].flag
    lines = [csv_line(student_id="s1", timestamp=1, event_kind=kind.value, kc_ids="k1")]
    with pytest.raises(SchemaError, match=f"event kind '{kind.value}' requires manifest flag '{flag}'"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)
    ok = DatasetManifest(name="t", capabilities=frozenset({flag}))
    assert load_events(write_csv(tmp_path / "e.csv", lines), ok).students["s1"][0].kind is kind


def test_canonical_columns_are_the_event_fields():
    """A field added to InteractionEvent without an OPTIONAL_FIELDS row fails here."""
    names = InteractionEvent._fields
    assert ["event_kind" if n == "kind" else n for n in names] == list(CANONICAL_COLUMNS)


def test_readme_event_kinds_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"`event_kind` is one of(.*?)\.", readme, re.S).group(1)
    kinds = re.findall(r"`([^`]+)`", sentence)
    assert sorted(kinds) == sorted(k.value for k in EventKind)
    lines = [
        csv_line(student_id="s1", timestamp=i, event_kind=kind, question_id="q1", kc_ids="k1",
                 correct=1 if kind == "QuestionResponse" else "")
        for i, kind in enumerate(kinds)
    ]
    manifest = DatasetManifest(name="t", capabilities=frozenset({"videos", "reading", "hints"}))
    ds = load_events(write_csv(tmp_path / "e.csv", lines), manifest)
    assert [e.kind.value for e in ds.students["s1"]] == kinds


def test_load_response_without_kcs_fails(tmp_path):
    lines = [csv_line(student_id="s1", timestamp=1, event_kind="QuestionResponse", question_id="q1", correct=1)]
    with pytest.raises(ParseError, match="kc_ids"):
        load_events(write_csv(tmp_path / "e.csv", lines), MINIMAL)


def _student(sid, n, correct_every=2, start=0):
    return [
        response(sid, start + 60 * i, f"q{i}", ["k1"], i % correct_every == 0)
        for i in range(n)
    ]


def test_filter_threshold():
    ds = toy_dataset({"s9": _student("s9", 9), "s10": _student("s10", 10)})
    out = filter_students(ds, min_responses=10)
    assert set(out.students) == {"s10"}
    assert out.quality["students_filtered"] == 1


def test_filter_counts_only_responses():
    events = _student("s1", 9)
    events.append(
        response("s1", 10_000, "q9", ["k1"], True).__class__(
            student_id="s1", timestamp=10_000, kind=EventKind.VIDEO_WATCH, kc_ids=("k1",)
        )
    )
    ds = toy_dataset({"s1": events}, capabilities={"videos"})
    assert set(filter_students(ds, 10).students) == set()


def test_filter_brute_force_oracle(rng):
    students = {}
    for i in range(100):
        sid = f"s{i:03d}"
        n_resp = int(rng.integers(0, 25))
        evs = _student(sid, n_resp)
        for j in range(int(rng.integers(0, 5))):
            evs.append(
                response(sid, 0, "x", ["k1"], True).__class__(
                    student_id=sid, timestamp=100_000 + j, kind=EventKind.READING, kc_ids=()
                )
            )
        students[sid] = evs
    ds = toy_dataset(students, capabilities={"reading"})
    out = filter_students(ds, 10)
    want = {
        sid
        for sid, evs in students.items()
        if sum(1 for e in evs if e.kind is EventKind.QUESTION_RESPONSE) >= 10
    }
    assert set(out.students) == want


def test_squash_order_insensitive():
    ds = toy_dataset(
        {
            "s1": [
                response("s1", 0, "q1", ["k1", "k2"], True),
                response("s1", 60, "q2", ["k2", "k1"], False),
                response("s1", 120, "q3", ["k1"], True),
            ]
        }
    )
    out = squash_multi_kc(ds)
    evs = out.students["s1"]
    assert evs[0].kc_ids == evs[1].kc_ids
    assert len(evs[0].kc_ids) == 1
    assert evs[2].kc_ids != evs[0].kc_ids
    # mapping resolves back to the original members
    aid = evs[0].kc_ids[0]
    assert out.squash_map[aid] == ("k1", "k2")
    assert out.squash_map[evs[2].kc_ids[0]] == ("k1",)


def test_squash_random_multisets_oracle(rng):
    kcs = [f"k{i}" for i in range(6)]
    events = []
    seen_sets = set()
    for i in range(50):
        size = int(rng.integers(1, 4))
        chosen = list(rng.choice(kcs, size=size, replace=False))
        rng.shuffle(chosen)
        seen_sets.add(tuple(sorted(chosen)))
        events.append(response("s1", 60 * i, f"q{i}", chosen, bool(rng.integers(2))))
    ds = toy_dataset({"s1": events})
    out = squash_multi_kc(ds)
    new_ids = {e.kc_ids[0] for e in out.students["s1"]}
    assert len(new_ids) == len(seen_sets)
    assert out.n_responses == ds.n_responses
    # correctness untouched
    assert [e.correct for e in out.students["s1"]] == [e.correct for e in ds.students["s1"]]
    with pytest.raises(ConfigError):
        squash_multi_kc(out)


def test_split_folds_balanced():
    ds = toy_dataset({f"s{i}": _student(f"s{i}", 1) for i in range(10)})
    fa = split_folds(ds, k=5, seed=3)
    assert fa.sizes() == [2, 2, 2, 2, 2]
    assert split_folds(ds, k=5, seed=3).folds == fa.folds
    assert split_folds(ds, k=5, seed=4).folds != fa.folds


def test_split_folds_sizes_differ_by_at_most_one():
    ds = toy_dataset({f"s{i:04d}": _student(f"s{i:04d}", 1) for i in range(1003)})
    sizes = split_folds(ds, k=5, seed=0).sizes()
    assert sorted(sizes) == [200, 200, 201, 201, 201]


def test_split_folds_too_few_students():
    ds = toy_dataset({"s1": _student("s1", 1)})
    with pytest.raises(ConfigError):
        split_folds(ds, k=5, seed=0)


def test_split_folds_insertion_order_independent():
    students = {f"s{i}": _student(f"s{i}", 1) for i in range(20)}
    ds1 = toy_dataset(students)
    shuffled = dict(reversed(list(students.items())))
    ds2 = Dataset(manifest=ds1.manifest, students=shuffled)
    assert split_folds(ds1, 5, 11).folds == split_folds(ds2, 5, 11).folds


LAG_RECIPE = Recipe(families=(F("lag_time", "current"), F("lag_time", "prior")))
NO_LAG = len(LAG_CATEGORIES_MIN) + 1  # a lag_time block's column for "first response, no lag"


def _lag_blocks(events):
    """The walk's lag_time:current and lag_time:prior blocks, one dense row per response."""
    ds = Dataset(DatasetManifest.full("t"), {events[0].student_id: events})
    X = build_matrix(ds, ds.students, fit_encoders(ds, ds.students, LAG_RECIPE)).X.toarray()
    width = X.shape[1] // 2
    return X[:, :width], X[:, width:]


def test_lag_first_response_flagged():
    current, prior = _lag_blocks(_student("s1", 3))
    assert current[0].nonzero()[0].tolist() == [NO_LAG]
    assert current[1].any() and not current[1, NO_LAG]
    assert not prior[0].any()
    assert prior[1].nonzero()[0].tolist() == [NO_LAG]
    assert prior[2].any() and not prior[2, NO_LAG]


def _lags(events):
    """The lag `response_lags` gives each of one student's responses (None for the first)."""
    lag, _ = response_lags([events])
    return [None if math.isnan(x) else x for x in lag.tolist()]


def test_lag_subtracts_prior_elapsed():
    events = [
        response("s1", 1000, "q1", ["k1"], True, elapsed_time_s=20.0),
        response("s1", 1120, "q2", ["k1"], False),
    ]
    assert _lags(events) == [None, 100.0]


def test_lag_negative_clamped_and_tallied():
    ds = toy_dataset(
        {
            "s1": [
                response("s1", 1000, "q1", ["k1"], True, elapsed_time_s=500.0),
                response("s1", 1100, "q2", ["k1"], False),
            ]
        },
        capabilities={"elapsed_lag_time"},
    )
    assert _lags(ds.students["s1"]) == [None, 0.0]
    out = derive_lag_times(ds)
    assert out.quality["negative_lag_clamped"] == 1
    assert out.students == ds.students


def test_lag_brute_force_oracle(rng):
    events = []
    ts = 0
    for i in range(200):
        ts += int(rng.integers(1, 4000))
        elapsed = float(rng.integers(0, 120)) if rng.random() < 0.8 else None
        events.append(response("s1", ts, f"q{i%7}", ["k1"], bool(rng.integers(2)), elapsed_time_s=elapsed))
    # oracle: recompute from scratch with plain arithmetic
    prev_end = None
    for event, lag in zip(events, _lags(events), strict=True):
        if prev_end is None:
            assert lag is None
        else:
            assert lag == max(event.timestamp - prev_end, 0)
        prev_end = event.timestamp + (event.elapsed_time_s or 0.0)


@st.composite
def _lag_logs(draw):
    """Students with time-ordered responses and material events."""
    students = {}
    for s in range(draw(st.integers(1, 4))):
        sid = f"s{s}"
        ts = draw(st.integers(0, 10**9))
        events = []
        for _ in range(draw(st.integers(0, 12))):
            ts += draw(st.integers(0, 5000))
            if draw(st.booleans()):
                events.append(InteractionEvent(
                    student_id=sid, timestamp=ts, kind=EventKind.QUESTION_RESPONSE,
                    question_id="q1", kc_ids=("k1",), correct=draw(st.booleans()),
                    elapsed_time_s=draw(st.none() | st.floats(0.0, 1e4, allow_nan=False)),
                ))
            else:
                events.append(InteractionEvent(
                    student_id=sid, timestamp=ts,
                    kind=draw(st.sampled_from([EventKind.VIDEO_WATCH, EventKind.READING])),
                    kc_ids=("k1",),
                    consumption_minutes=draw(st.none() | st.floats(0.0, 60.0, allow_nan=False)),
                ))
        students[sid] = events
    return students


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(students=_lag_logs(), clamped_before=st.integers(0, 3))
def test_derive_lag_times_fuzz(students, clamped_before):
    ds = Dataset(
        manifest=DatasetManifest.full("f"), students=students,
        quality={"negative_lag_clamped": clamped_before},
    )
    out = derive_lag_times(ds)
    assert out.students == students
    negative = 0
    for events in students.values():
        responses = [e for e in events if e.is_response()]
        lags = _lags(events)
        assert len(lags) == len(responses)
        prev_end = None
        for response_, lag in zip(responses, lags):
            if prev_end is None:
                assert lag is None
            else:
                assert math.isfinite(lag) and lag >= 0
                assert lag == max(response_.timestamp - prev_end, 0.0)
                negative += response_.timestamp - prev_end < 0
            prev_end = response_.timestamp + (response_.elapsed_time_s or 0.0)
    assert out.quality["negative_lag_clamped"] == clamped_before + negative
    again = derive_lag_times(out)
    assert again.students == students
    assert again.quality["negative_lag_clamped"] == clamped_before + 2 * negative


def test_lag_ignores_material_events_between_questions():
    events = [
        response("s1", 100, "q1", ["k1"], True, elapsed_time_s=10.0),
        InteractionEvent(student_id="s1", timestamp=150, kind=EventKind.VIDEO_WATCH, kc_ids=("k1",)),
        response("s1", 300, "q2", ["k1"], False),
    ]
    assert _lags(events) == [None, 190.0]


def test_lag_features_from_raw_load_match_prepared(tmp_path):
    """Lag features come from the walk: load_events output that never went
    through prepare gets the lag_time rows load_prepared's output gets."""
    manifest = DatasetManifest(name="t", capabilities=frozenset({"elapsed_lag_time"}))
    students = {
        sid: [  # 100 s apart, elapsed up to 120 s: some lags clamp
            response(sid, 100 * i + 7 * n, f"q{i % 3}", ["k1"], i % 2 == 0, elapsed_time_s=40.0 * (i % 4))
            for i in range(8)
        ]
        for n, sid in enumerate(("s1", "s2", "s3"))
    }
    write_events(Dataset(manifest=manifest, students=students), tmp_path / "events.csv")
    write_manifest(manifest, tmp_path / "manifest.json")
    raw = load_events(tmp_path / "events.csv", manifest)
    assert cli.main([
        "prepare", "--input", str(tmp_path / "events.csv"), "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "prep"), "--folds", "2", "--min-responses", "1",
    ]) == 0
    prepared, _ = load_prepared(tmp_path / "prep")
    assert prepared.quality["negative_lag_clamped"] == 3  # one per student, at i = 4

    enc = fit_encoders(raw, raw.students, LAG_RECIPE)
    from_raw = build_matrix(raw, raw.students, enc).X
    from_prepared = build_matrix(prepared, prepared.students, enc).X
    assert from_raw.shape == (24, enc.dim)
    assert np.all(np.diff(from_raw.indptr) > 0)  # every row has a lag (or the no-lag flag)
    assert from_raw.shape == from_prepared.shape and (from_raw != from_prepared).nnz == 0


def test_prepared_roundtrip(tmp_path):
    students = {
        "s1": [
            response("s1", 0, "q1", ["k1", "k2"], True, elapsed_time_s=12.5),
            response("s1", 90, "q2", ["k1"], False),
        ],
        "s2": [response("s2", 10, "q1", ["k2", "k1"], True)],
    }
    ds = squash_multi_kc(toy_dataset(students, capabilities={"elapsed_lag_time"}))
    fa = split_folds(ds, k=2, seed=5)
    write_prepared(ds, fa, tmp_path / "prep")
    again, fa2 = load_prepared(tmp_path / "prep")
    assert fa2 == fa
    assert again.squash_map == ds.squash_map
    assert {s: [e.question_id for e in v] for s, v in again.students.items()} == {
        s: [e.question_id for e in v] for s, v in ds.students.items()
    }
    assert again.students["s1"][0].elapsed_time_s == 12.5


def test_dataset_is_frozen_and_its_row_store_holds_its_fields(tmp_path):
    """The row store captures the dataset's fields, so a dataset cannot change
    under it: a changed dataset is a `replace`d one, with a store of its own,
    and load_prepared's store holds the graph and squash map it read."""
    students = {sid: [response(sid, 0, "q1", ["k1", "k2"], True), response(sid, 60, "q2", ["k1"], False)]
                for sid in ("s1", "s2")}
    ds = squash_multi_kc(toy_dataset(students, capabilities={"prereq_graph"}))
    graph = KCGraph("kc", [("k1", "k2")])
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.kc_graph = graph
    changed = dataclasses.replace(ds, kc_graph=graph)
    rows = changed.feature_rows
    assert rows is not ds.feature_rows and ds.feature_rows.kc_graph is None
    assert (rows.students, rows.manifest, rows.kc_graph, rows.squash_map) == (
        changed.students, changed.manifest, graph, ds.squash_map)
    write_prepared(changed, split_folds(changed, k=2, seed=1), tmp_path / "prep")
    again, _ = load_prepared(tmp_path / "prep")
    assert again.kc_graph is not None and again.feature_rows.kc_graph is again.kc_graph
    assert again.feature_rows.squash_map == ds.squash_map and again.feature_rows.students is again.students


def test_prepared_roundtrip_keeps_every_field_and_lag(tmp_path):
    """load_prepared gives prepare's events, so the walk's lags, and its quality tallies."""
    cells = {col: typ(SAMPLE_CELLS[typ]) for col, (typ, _) in OPTIONAL_FIELDS.items()}
    per_response = {col: v for col, v in cells.items() if col != "consumption_minutes"}
    students = {
        sid: [
            response(sid, 0, "q1", ["k1", "k2"], True, **{**per_response, "elapsed_time_s": 30.0}),
            *(
                InteractionEvent(sid, 5 + i, kind, kc_ids=("k1",), **cells)
                for i, kind in enumerate(MATERIAL_KINDS)
            ),
            response(sid, 20, "q2", ["k1"], False, **per_response),  # before q1 ended: clamped
            response(sid, 100, "q1", ["k2"], True, **per_response),
        ]
        for sid in ("s1", "s2")
    }
    ds = derive_lag_times(Dataset(manifest=DatasetManifest.full("t"), students=students))
    assert ds.quality == {"negative_lag_clamped": 2}
    write_prepared(ds, split_folds(ds, k=2, seed=1), tmp_path / "prep")
    again, _ = load_prepared(tmp_path / "prep")
    assert again.students == ds.students
    assert again.quality == ds.quality
    for sid in students:
        assert _lags(again.students[sid]) == [None, 0.0, 77.5]
