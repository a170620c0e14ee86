import dataclasses
import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import response
from oracle import (
    ResponseLog, compare_vector, offset_of, pattern_block, reference_build_matrix, scipy_csr, subset,
)

from ktrace import features, regression
from ktrace.core import (
    CAPABILITY_FLAGS,
    ConfigError,
    DatasetManifest,
    EventKind,
    InteractionEvent,
    KCGraph,
    SequencingError,
    scale,
)
from ktrace.features import (
    _KINDS,
    _SCOPES,
    ETA,
    Csr,
    F,
    FeatureFamily,
    Recipe,
    build_matrix,
    elapsed_bins,
    fit_encoders,
    lag_bins,
    smoothed_avg_correct,
)
from ktrace.ingest import Dataset, derive_lag_times, squash_multi_kc
from ktrace.recipes import _FIXED
FULL = DatasetManifest.full("full")
MINIMAL = DatasetManifest.minimal("min")


def test_family_validation():
    with pytest.raises(ConfigError):
        F("nonsense")
    with pytest.raises(ConfigError):
        F("counts")  # needs a variant
    with pytest.raises(ConfigError):
        F("bias", "x")
    assert F("tw_counts", "kc").name == "tw_counts:kc"
    assert FeatureFamily.parse("context:topic") == F("context", "topic")


def test_recipe_validation():
    with pytest.raises(ConfigError):
        Recipe(families=(F("bias"), F("bias")))
    with pytest.raises(ConfigError):
        Recipe(families=())
    r = Recipe(families=(F("bias"),))
    assert Recipe.from_json(r.to_json()) == r


def test_elapsed_bins():
    cat, scaled = elapsed_bins(np.array([12.7, 500.0, 0.0, 99.0]))
    assert cat.tolist() == [12, 300, 0, 99]
    assert scaled[2] == 0.0
    assert abs(scaled[3] - math.log(100.0)) < 1e-12
    with pytest.raises(ValueError):
        elapsed_bins(np.array([1.0, -1.0]))


def test_lag_bins():
    from ktrace.features import LAG_CATEGORIES_MIN

    assert len(LAG_CATEGORIES_MIN) == 150
    last = len(LAG_CATEGORIES_MIN) - 1
    cat, _ = lag_bins(np.array([0.0, 7.0, 10.0, 2000.0, 1440.0]))
    assert cat.tolist() == [0, LAG_CATEGORIES_MIN.index(5), LAG_CATEGORIES_MIN.index(10), last, last]
    # rounding half-up to whole minutes happens before categorizing
    cat, _ = lag_bins(np.array([4.5, 4.4]))
    assert cat.tolist() == [LAG_CATEGORIES_MIN.index(5), LAG_CATEGORIES_MIN.index(4)]
    with pytest.raises(ValueError):
        lag_bins(np.array([-0.5]))


def test_smoothed_avg_correct():
    assert ETA == 5.0
    assert smoothed_avg_correct(0, 0, 0.8) == 0.8
    assert abs(smoothed_avg_correct(3, 4, 0.5) - (3 + 2.5) / 9.0) < 1e-12
    with pytest.raises(ValueError):
        smoothed_avg_correct(5, 4, 0.5)
    # elementwise on arrays, with the scalar arithmetic
    many = smoothed_avg_correct(np.array([0, 3, 7]), np.array([0, 4, 9]), 0.37)
    assert many.tolist() == [(c + 5.0 * 0.37) / (a + 5.0) for c, a in ((0, 0), (3, 4), (7, 9))]
    with pytest.raises(ValueError):
        smoothed_avg_correct(np.array([1, 5]), np.array([1, 4]), 0.5)


def test_pattern_block():
    assert pattern_block([], 10) is None
    assert pattern_block([1] * 4, 10) is None
    assert pattern_block([0] * 10, 10) == 0
    assert pattern_block([1] * 10, 10) == 1023
    # most recent response is the least significant bit
    bits = [0] * 9 + [1]
    assert pattern_block(bits, 10) == 1
    assert pattern_block([1] + [0] * 9, 10) == 512


def _events_one_student():
    return [
        response("s1", 1000, "q1", ["k1"], True, elapsed_time_s=20.0),
        response("s1", 2000, "q2", ["k1", "k2"], False, elapsed_time_s=30.0),
        response("s1", 3000, "q1", ["k1"], True),
    ]


def test_fit_encoders_dims():
    ds = Dataset(MINIMAL, {"s1": _events_one_student()})
    enc = fit_encoders(ds, ["s1"], Recipe(families=(F("bias"),)))
    assert enc.dim == 1
    recipe = Recipe(families=(F("bias"), F("student"), F("question"), F("kc")))
    enc = fit_encoders(ds, ["s1"], recipe)
    assert enc.dim == 1 + 1 + 2 + 2
    assert enc.vocabs["question"] == {"q1": 0, "q2": 1}
    assert abs(enc.rbar - 2.0 / 3.0) < 1e-15


def test_fit_encoders_many_questions():
    students = {
        "s1": [response("s1", 60 * i, f"q{i:04d}", ["k1"], True) for i in range(835)]
    }
    enc = fit_encoders(Dataset(MINIMAL, students), ["s1"], Recipe(families=(F("question"),)))
    off, size = offset_of(enc, "question")
    assert (off, size) == (0, 835)


def test_fit_encoders_order_independent():
    students = {"s1": _events_one_student(), "s2": [response("s2", 5, "q9", ["k9"], False)]}
    recipe = Recipe(
        families=(F("bias"), F("student"), F("question"), F("kc"), F("counts", "kc"))
    )
    a = fit_encoders(Dataset(MINIMAL, students), ["s1", "s2"], recipe)
    b = fit_encoders(Dataset(MINIMAL, dict(reversed(list(students.items())))), ["s2", "s1"], recipe)
    assert a.to_json() == b.to_json()


def test_fit_encoders_one_hot_vocabularies_hold_every_training_value(rng):
    """A domain with a one-hot block gets every value its event field takes in training responses."""
    students = _random_full_students(rng)
    one_hots = [F("student"), F("question"), F("kc"), F("study_module")]
    one_hots += [F("context", v) for v in _KINDS["context"].variants]
    recipe = Recipe(families=(F("bias"), *one_hots, F("counts", "kc"), F("study_module_counts")))
    enc = fit_encoders(Dataset(FULL, students), students, recipe)
    responses = [e for events in students.values() for e in events if e.is_response()]
    fields = {"student": "student_id", "question": "question_id"}
    for domain, vocab in enc.vocabs.items():
        if domain == "kc":
            values = {k for e in responses for k in e.kc_ids}
        else:
            values = {getattr(e, fields.get(domain, domain)) for e in responses} - {None}
        assert vocab == {v: i for i, v in enumerate(sorted(values))}, domain
    assert len(enc.vocabs) == len(one_hots)
    assert enc.rbar == sum(1 for e in responses if e.correct) / len(responses)


def test_fit_encoders_drops_keys_no_training_row_counts():
    """counts:kc without a kc block: a KC no training student answers twice gets no columns,
    and test predictions equal those of a fit that keeps its (zero-weight) columns."""
    train = {
        "s1": [response("s1", 10, "q1", ["k0"], True), response("s1", 20, "q2", ["k0"], False),
               response("s1", 30, "q3", ["k1"], True)],
        "s2": [response("s2", 10, "q3", ["k1"], False), response("s2", 20, "q1", ["k0"], False),
               response("s2", 30, "q1", ["k0"], True), response("s2", 40, "q2", ["k0"], True)],
    }
    test = {"s3": [response("s3", 10, "q3", ["k1"], True), response("s3", 20, "q3", ["k1"], False),
                   response("s3", 30, "q1", ["k0"], True), response("s3", 40, "q3", ["k1"], True)]}
    recipe = Recipe(families=(F("bias"), F("counts", "kc")))
    ds = Dataset(MINIMAL, {**train, **test})
    enc = fit_encoders(ds, train, recipe)
    assert enc.vocabs == {"kc": {"k0": 0}} and enc.dim == 3
    kept = dataclasses.replace(enc, vocabs={"kc": {"k0": 0, "k1": 1}})
    assert kept.blocks == ((F("bias"), 0, 1), (F("counts", "kc"), 1, 4)) and kept.dim == 5
    probs = []
    for e in (enc, kept):
        ext = build_matrix(ds, train, e)
        model = regression.fit(ext.X, ext.y, regression.TrainConfig(), encoder=e)
        probs.append(regression.predict_proba_batch(model, build_matrix(ds, test, e).X))
    assert scipy_csr(build_matrix(ds, test, kept).X)[:, 3:].nnz > 0  # the dropped columns fire at test time
    np.testing.assert_allclose(probs[0], probs[1], rtol=0, atol=1e-12)


def test_fit_encoders_rejects_unsupported_families():
    students = {"s1": _events_one_student()}
    with pytest.raises(ConfigError, match="study_module"):
        fit_encoders(Dataset(MINIMAL, students), ["s1"], Recipe(families=(F("bias"), F("study_module"))))
    with pytest.raises(ConfigError, match="graph"):
        fit_encoders(Dataset(FULL, students), ["s1"], Recipe(families=(F("bias"), F("prereq_ids"))))


def test_encoder_json_roundtrip():
    students = {"s1": _events_one_student()}
    recipe = Recipe(families=(F("bias"), F("kc"), F("tw_counts", "kc"), F("response_pattern")))
    enc = fit_encoders(Dataset(MINIMAL, students), ["s1"], recipe)
    from ktrace.features import Encoder

    again = Encoder.from_json(enc.to_json())
    assert again.to_json() == enc.to_json()
    assert again.dim == enc.dim and again.blocks == enc.blocks
    gap = enc.to_json()
    gap["vocabs"]["kc"] = {k: i + 1 for i, k in enumerate(gap["vocabs"]["kc"])}
    with pytest.raises(ConfigError, match="must index its n keys 0, ..., n - 1"):
        Encoder.from_json(gap)


def _row_pairs(ext, r):
    """(column, value) pairs of row r of a build_matrix result."""
    row = ext.X.take([r])
    return list(zip(row.indices.tolist(), row.data.tolist()))


def test_emit_counts_total_example():
    students = {"s1": [response("s1", 60 * i, f"q{i}", ["k1"], i != 3) for i in range(5)]}
    recipe = Recipe(families=(F("bias"), F("counts", "total")))
    ds = Dataset(MINIMAL, students)
    enc = fit_encoders(ds, ["s1"], recipe)
    # the row of the 5th response: 3 corrects, 4 attempts so far
    assert _row_pairs(build_matrix(ds, ["s1"], enc), 4) == [(0, 1.0), (1, scale(3)), (2, scale(4))]


def test_emit_tw_counts_ages():
    # prior correct responses at ages 0.5h, 2d, 10d -> per-window corrects (1,1,2,3,3)
    recipe = Recipe(families=(F("tw_counts", "total"),))
    now = 2_000_000
    events = [
        response("s1", now - 10 * 86400, "q1", ["k1"], True),
        response("s1", now - 2 * 86400, "q2", ["k1"], True),
        response("s1", now - 1800, "q3", ["k1"], True),
        response("s1", now, "q4", ["k1"], True),
    ]
    ds = Dataset(MINIMAL, {"s1": events})
    enc = fit_encoders(ds, ["s1"], recipe)
    got = dict(_row_pairs(build_matrix(ds, ["s1"], enc), 3))
    corrects = [got.get(2 * j, 0.0) for j in range(5)]
    assert corrects == [scale(1), scale(1), scale(2), scale(3), scale(3)]


def test_emit_prereq_counts_example():
    graph = KCGraph("kc", [("p", "c")])
    recipe = Recipe(families=(F("prereq_ids"), F("prereq_counts")))
    events = [
        response("s1", 100, "q1", ["p"], True),
        response("s1", 200, "q2", ["p"], True),
        response("s1", 300, "q3", ["p"], False),
        response("s1", 400, "q4", ["c"], True),
    ]
    enc = fit_encoders(Dataset(FULL, {"s1": events}, graph), ["s1"], recipe)
    # a further question on p itself has no prerequisites: empty blocks
    log = events + [response("s1", 500, "q5", ["p"], True)]
    ext = build_matrix(Dataset(FULL, {"s1": log}, graph), ["s1"], enc)
    nvoc = enc.vocabs["graph_node"]
    ids_off, _ = offset_of(enc, "prereq_ids")
    cnt_off, _ = offset_of(enc, "prereq_counts")
    got = dict(_row_pairs(ext, 3))
    assert got[ids_off + nvoc["p"]] == 1.0
    assert got[cnt_off + 2 * nvoc["p"]] == scale(2)
    assert got[cnt_off + 2 * nvoc["p"] + 1] == scale(3)
    assert _row_pairs(ext, 4) == []


def test_emit_postreq_is_reversal():
    graph = KCGraph("kc", [("p", "c")])
    recipe = Recipe(families=(F("postreq_ids"),))
    events = [response("s1", 100, "q1", ["p"], True), response("s1", 200, "q2", ["c"], True)]
    enc = fit_encoders(Dataset(FULL, {"s1": events}, graph), ["s1"], recipe)
    log = events + [response("s1", 300, "q3", ["p"], True)]
    ext = build_matrix(Dataset(FULL, {"s1": log}, graph), ["s1"], enc)
    assert _row_pairs(ext, 1) == []  # nothing depends on c
    assert _row_pairs(ext, 2) == [(enc.vocabs["graph_node"]["c"], 1.0)]


def test_emit_unseen_categories_empty_blocks():
    students = {"s1": _events_one_student()}
    recipe = Recipe(families=(F("student"), F("question"), F("kc")))
    ds = Dataset(MINIMAL, {**students, "s_new": [response("s_new", 50, "q_new", ["k_new"], True)]})
    enc = fit_encoders(ds, ["s1"], recipe)
    ext = build_matrix(ds, ["s_new"], enc)
    assert ext.X.shape[0] == 1 and ext.X.nnz == 0


def test_no_leakage_perturbing_future_events():
    events = [
        response("s1", 1000 + 500 * i, f"q{i % 4}", ["k1", "k2"][i % 2 : i % 2 + 1], i % 3 != 0)
        for i in range(30)
    ]
    recipe = Recipe(
        families=(
            F("bias"),
            F("counts", "total"),
            F("counts", "kc"),
            F("tw_counts", "total"),
            F("smoothed_avg_correct"),
            F("response_pattern"),
        ),
    )
    ds = Dataset(MINIMAL, {"s1": events})
    enc = fit_encoders(ds, ["s1"], recipe)
    cut = 12
    baseline = build_matrix(ds, ["s1"], enc).X.take(np.arange(cut))
    mutated = list(events)
    mutated[cut] = response("s1", events[cut].timestamp, "q0", ["k2"], not events[cut].correct)
    perturbed = build_matrix(Dataset(MINIMAL, {"s1": mutated}), ["s1"], enc).X.take(np.arange(cut))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(baseline, name), getattr(perturbed, name)), name


def oracle_rows(students, enc, graph):
    """Yield (student, event index, compare_vector problems) for every row
    of one build_matrix per student, on a new dataset of the students;
    row r is the prefix before the student's r-th response."""
    ds = Dataset(FULL, students, graph)
    for sid, events in students.items():
        X = build_matrix(ds, [sid], enc).X
        at = [i for i, ev in enumerate(events) if ev.is_response()]
        assert X.shape[0] == len(at), sid
        for r, i in enumerate(at):
            yield sid, i, compare_vector(enc, X.take([r]), events[:i], events[i], graph=graph)


def test_incremental_matches_bruteforce_small(rng):
    """Mini version of the full-state oracle: every family, every prefix."""
    graph = KCGraph("kc", [("k0", "k1"), ("k1", "k2"), ("k0", "k3")])
    students = _random_full_students(rng, n_students=6, max_events=120, short_gaps=True)
    enc = fit_encoders(Dataset(FULL, students, graph), students, full_recipe())
    checked = 0
    for sid, i, problems in oracle_rows(students, enc, graph):
        assert not problems, f"{sid} event {i}: " + "; ".join(problems[:4])
        checked += 1
    assert checked > 100
    # the lag clamp must fire often enough for a missing clamp to show
    responses = [[e for e in events if e.is_response()] for events in students.values()]
    clamped = sum(b.timestamp < a.timestamp + (a.elapsed_time_s or 0.0)
                  for rs in responses for a, b in zip(rs, rs[1:]))
    assert clamped >= 0.03 * sum(map(len, responses))


def _swap_counts_slots(monkeypatch):
    """Mutation: the counts emitter writes attempts in the corrects slot and back."""
    right = _KINDS["counts"].emitter

    def swapped(*args):
        entries = right(*args)
        return entries._replace(slot=entries.slot ^ 1)

    monkeypatch.setitem(_KINDS, "counts", dataclasses.replace(_KINDS["counts"], emitter=swapped))


# a recipe of counts only, and one with lag and datetime families too
_COUNTS_ONLY = Recipe(families=(F("bias"), F("counts", "total"), F("counts", "kc"), F("counts", "question")))
_COUNTS_AND_TIMES = Recipe(families=_COUNTS_ONLY.families + (F("lag_time", "current"), F("datetime", "hour")))


def test_row_oracle_catches_a_wrong_slot(rng, monkeypatch):
    graph = KCGraph("kc", [("k0", "k1"), ("k1", "k2"), ("k0", "k3")])
    students = _random_full_students(rng, n_students=6, max_events=120)
    ds = Dataset(FULL, students, graph)
    encoders = [fit_encoders(ds, students, r) for r in (full_recipe(), _COUNTS_ONLY)]
    for enc in encoders:
        assert not any(p for _, _, p in oracle_rows(students, enc, graph))
    _swap_counts_slots(monkeypatch)
    for enc in encoders:
        flagged = [p for _, _, p in oracle_rows(students, enc, graph) if p]
        assert flagged and any("counts:" in line for p in flagged for line in p), enc.recipe


def full_recipe() -> Recipe:
    fams = [
        F("bias"),
        F("student"),
        F("question"),
        F("kc"),
        F("counts", "total"),
        F("counts", "kc"),
        F("counts", "question"),
        F("tw_counts", "total"),
        F("tw_counts", "kc"),
        F("tw_counts", "question"),
        F("elapsed_time", "current"),
        F("elapsed_time", "prior"),
        F("lag_time", "current"),
        F("lag_time", "prior"),
        F("datetime", "month"),
        F("datetime", "week"),
        F("datetime", "day"),
        F("datetime", "hour"),
        F("study_module"),
        F("study_module_counts"),
        F("context", "teacher_group"),
        F("context", "school"),
        F("context", "course"),
        F("context", "topic"),
        F("context", "difficulty"),
        F("context", "bundle"),
        F("context", "part_area"),
        F("context", "platform"),
        F("context", "age"),
        F("context", "gender"),
        F("context", "social_support"),
        F("part_area_counts"),
        F("prereq_ids"),
        F("prereq_counts"),
        F("postreq_ids"),
        F("postreq_counts"),
        F("video_watched_counts"),
        F("video_skipped_counts"),
        F("video_watched_time"),
        F("reading_counts"),
        F("reading_time"),
        F("hint_counts"),
        F("hint_time"),
        F("smoothed_avg_correct"),
        F("response_pattern"),
    ]
    return Recipe(families=tuple(fams))


def _random_full_students(rng, n_students=6, max_events=120, short_gaps=False):
    """Students whose logs exercise every optional field and event kind.

    With `short_gaps`, the odd gaps are cut below 10 minutes, so responses
    often arrive before the previous one's elapsed time is over and their
    lag is clamped to 0; the same numbers are drawn either way.
    """
    kcs = ["k0", "k1", "k2", "k3"]
    questions = [f"q{i}" for i in range(8)]
    students = {}
    for s in range(n_students):
        sid = f"s{s:02d}"
        ts = 1_600_000_000 + int(rng.integers(0, 10**6))
        events = []
        n = int(rng.integers(20, max_events))
        for i in range(n):
            gap = int(rng.integers(30, 3 * 86400))
            ts += gap % 600 if short_gaps and gap % 2 else gap
            kind_draw = rng.random()
            if kind_draw < 0.72:
                q = str(rng.choice(questions))
                q_kcs = sorted(rng.choice(kcs, size=int(rng.integers(1, 3)), replace=False))
                elapsed = float(rng.integers(0, 400)) if rng.random() < 0.8 else None
                events.append(
                    response(
                        sid,
                        ts,
                        q,
                        q_kcs,
                        bool(rng.integers(2)),
                        elapsed_time_s=elapsed,
                        study_module=f"m{int(rng.integers(3))}",
                        teacher_group=f"t{int(rng.integers(2))}",
                        school=f"sch{int(rng.integers(2))}",
                        course=f"c{int(rng.integers(2))}",
                        topic=f"top{int(rng.integers(3))}",
                        bundle=f"b{int(rng.integers(3))}",
                        part_area=f"p{int(rng.integers(3))}",
                        platform=["web", "mobile"][int(rng.integers(2))],
                        difficulty=str(10 * int(rng.integers(1, 10))),
                        age=str(10 + int(rng.integers(4))),
                        gender=["f", "m", "o", "na"][int(rng.integers(4))],
                        social_support=["low", "mid", "high"][int(rng.integers(3))],
                        hint_count=int(rng.integers(0, 3)) or None,
                    )
                )
            else:
                kind = [
                    EventKind.VIDEO_WATCH,
                    EventKind.VIDEO_SKIP,
                    EventKind.READING,
                    EventKind.HINT_USE,
                ][int(rng.integers(4))]
                m_kcs = tuple(sorted(rng.choice(kcs, size=int(rng.integers(0, 3)), replace=False)))
                events.append(
                    InteractionEvent(
                        student_id=sid,
                        timestamp=ts,
                        kind=kind,
                        kc_ids=m_kcs,
                        consumption_minutes=float(rng.integers(1, 30)) / 7 if rng.random() < 0.7 else None,
                        hint_count=int(rng.integers(1, 3)) if kind is EventKind.HINT_USE else None,
                    )
                )
        students[sid] = events
    return students


def test_full_recipe_names_every_kind_and_variant():
    """The oracle tests run full_recipe(), so a family missing here goes unchecked."""
    names = {f.name for f in full_recipe().families}
    table = {
        kind if variant is None else f"{kind}:{variant}"
        for kind, row in _KINDS.items()
        for variant in (row.variants or (None,))
    }
    assert names == table


_GRAPH_FLAGS = {"prereq_graph", "kc_hierarchy"}

# family -> capability flags any one of which allows it (empty: always allowed)
FAMILY_NEEDS = {
    "bias": set(),
    "student": set(),
    "question": set(),
    "kc": set(),
    "counts:total": set(),
    "counts:kc": set(),
    "counts:question": set(),
    "tw_counts:total": set(),
    "tw_counts:kc": set(),
    "tw_counts:question": set(),
    "elapsed_time:current": {"elapsed_lag_time"},
    "elapsed_time:prior": {"elapsed_lag_time"},
    "lag_time:current": {"elapsed_lag_time"},
    "lag_time:prior": {"elapsed_lag_time"},
    "datetime:month": set(),
    "datetime:week": set(),
    "datetime:day": set(),
    "datetime:hour": set(),
    "study_module": {"study_module"},
    "study_module_counts": {"study_module"},
    "context:teacher_group": {"teacher_group"},
    "context:school": {"school"},
    "context:course": {"course"},
    "context:topic": {"topic"},
    "context:difficulty": {"difficulty"},
    "context:bundle": {"bundle"},
    "context:part_area": {"part_area"},
    "context:platform": {"platform"},
    "context:age": {"age_gender"},
    "context:gender": {"age_gender"},
    "context:social_support": {"social_support"},
    "part_area_counts": {"part_area"},
    "prereq_ids": _GRAPH_FLAGS,
    "prereq_counts": _GRAPH_FLAGS,
    "postreq_ids": _GRAPH_FLAGS,
    "postreq_counts": _GRAPH_FLAGS,
    "video_watched_counts": {"videos"},
    "video_skipped_counts": {"videos"},
    "video_watched_time": {"videos"},
    "reading_counts": {"reading"},
    "reading_time": {"reading"},
    "hint_counts": {"hints"},
    "hint_time": {"hints"},
    "smoothed_avg_correct": set(),
    "response_pattern": set(),
}


def _only(flag: str) -> DatasetManifest:
    return DatasetManifest(name=f"only-{flag}", capabilities=frozenset({flag}))


def test_allowed_by_single_capability_manifests():
    families = full_recipe().families
    assert [f.name for f in families] == list(FAMILY_NEEDS)
    for fam in families:
        needs = FAMILY_NEEDS[fam.name]
        assert fam.allowed_by(MINIMAL) == (not needs), fam.name
        assert fam.allowed_by(FULL), fam.name
        for flag in CAPABILITY_FLAGS:
            assert fam.allowed_by(_only(flag)) == (not needs or flag in needs), (fam.name, flag)

    for variant in ("age", "gender"):
        assert F("context", variant).allowed_by(_only("age_gender"))
        assert not F("context", variant).allowed_by(_only("social_support"))
    for kind in ("prereq_ids", "prereq_counts", "postreq_ids", "postreq_counts"):
        assert F(kind).allowed_by(_only("kc_hierarchy"))
        assert F(kind).allowed_by(_only("prereq_graph"))
        assert not F(kind).allowed_by(MINIMAL)
    for fam in (F("datetime", "hour"), F("smoothed_avg_correct"), F("response_pattern")):
        assert fam.allowed_by(MINIMAL)


def test_build_matrix_shapes():
    students = {"s1": _events_one_student(), "s2": [response("s2", 10, "q1", ["k1"], False)]}
    recipe = Recipe(families=(F("bias"), F("question"), F("counts", "total")))
    ds = Dataset(MINIMAL, students)
    enc = fit_encoders(ds, students, recipe)
    res = build_matrix(ds, students, enc)
    assert res.X.shape == (4, enc.dim)
    assert res.y.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert res.t.tolist() == [0, 1, 2, 0]


# ---------------------------------------------------------------------------
# build_matrix against the per-row reference, and the keyed-row store


def _extraction_mismatch(res, ref) -> list[str]:
    """Differences between an ExtractResult and reference_build_matrix's (X, y, t, events)."""
    X, y, t, events = ref
    problems = [] if isinstance(res.X, Csr) else [f"X is a {type(res.X).__name__}, not a Csr"]
    if res.X.shape != X.shape:
        problems.append(f"shape {res.X.shape} != {X.shape}")
    for name in ("indptr", "indices", "data"):
        got, want = getattr(res.X, name), getattr(X, name)
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            problems.append(f"X.{name} differs")
    for name, got, want in (("y", res.y, y), ("t", res.t, t)):
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            problems.append(f"{name} differs")
    if len(res.events) != len(events) or any(a is not b for a, b in zip(res.events, events)):
        problems.append("events differ")
    return problems


def _with_unsorted_kcs(students):
    """Every third multi-KC response lists its KCs in reverse order."""
    out = {}
    for sid, events in students.items():
        out[sid] = [
            e._replace(kc_ids=e.kc_ids[::-1])
            if e.is_response() and len(e.kc_ids) > 1 and i % 3 == 0 else e
            for i, e in enumerate(events)
        ]
    return out


def _extraction_cases(rng):
    """(name, students, recipe, manifest, kc_graph, squash_map) to extract."""
    students = _with_unsorted_kcs(_random_full_students(rng, n_students=12, max_events=90))
    graph = KCGraph("kc", [("k0", "k1"), ("k1", "k2"), ("k0", "k3")])
    yield "full", students, full_recipe(), FULL, graph, None
    squashed = squash_multi_kc(Dataset(manifest=FULL, students=students))
    ontology = KCGraph.from_ontology({"k1": "k0", "k2": "k0", "k3": "k1"})
    yield "full-squashed", squashed.students, full_recipe(), FULL, ontology, squashed.squash_map
    for name, families in _FIXED.items():
        yield name, students, Recipe(families=families), FULL, None, None


@pytest.mark.parametrize("limit", [1 << 30, 60])
def test_build_matrix_matches_reference_extraction(rng, monkeypatch, limit):
    """Same CSR bytes, labels, t and events as one emit per response.

    Encoders are fitted on the first two thirds of the students and
    applied to all of them, so unseen student, question and KC keys
    occur; one store serves every rbar variant of a recipe.  The store
    walks every student in one run, then in runs of a few students that
    each place their entries in the one dataset-wide matrix.
    """
    monkeypatch.setattr(features, "_WALK_RESPONSES", limit)
    for name, students, recipe, manifest, graph, squash in _extraction_cases(rng):
        ds = Dataset(manifest, students, graph, squash)
        sids = sorted(students)
        with monkeypatch.context() as m:
            walks = _Walks(m)
            enc = fit_encoders(ds, sids[: 2 * len(sids) // 3], recipe)
        assert len(walks.batches) == 1 if limit == 1 << 30 else len(walks.batches) > 2, name
        for rbar in (enc.rbar, 0.0, 1.0, 0.37):
            variant = dataclasses.replace(enc, rbar=rbar)
            res = build_matrix(ds, sids, variant)
            ref = reference_build_matrix(students, variant, kc_graph=graph, squash_map=squash)
            problems = _extraction_mismatch(res, ref)
            assert not problems, (name, rbar, problems)
        assert ds.feature_rows.students_walked == len(students), name
        # an empty selection gives the reference's empty matrix
        assert not _extraction_mismatch(
            build_matrix(ds, [], enc),
            reference_build_matrix({}, enc, kc_graph=graph, squash_map=squash),
        )


def test_keys_first_seen_in_a_later_run_take_their_sorted_columns(monkeypatch):
    """s2's question, KCs and module sort before s1's but are first seen in
    the run after s1's: the matrices equal a one-run walk's and the
    reference's, and the encoder's vocabularies index keys in sorted order."""
    students = {
        "s1": [response("s1", 10, "q9", ["k9"], True, study_module="m9"),
               response("s1", 20, "q9", ["k9", "k5"], False, study_module="m9")],
        "s2": [response("s2", 10, "q1", ["k0"], False, study_module="m1"),
               response("s2", 30, "q9", ["k0", "k9"], True, study_module="m9")],
    }
    graph = KCGraph("kc", [("k0", "k5"), ("k5", "k9")])
    recipe = Recipe(families=(F("bias"), F("question"), F("kc"), F("tw_counts", "kc"), F("study_module_counts"),
                              F("prereq_counts"), F("smoothed_avg_correct")))
    one_run = Dataset(FULL, students, graph)
    enc = fit_encoders(one_run, ["s1", "s2"], recipe)
    assert enc.vocabs["question"] == {"q1": 0, "q9": 1} and enc.vocabs["kc"] == {"k0": 0, "k5": 1, "k9": 2}
    want = build_matrix(one_run, students, enc)
    assert not _extraction_mismatch(want, reference_build_matrix(students, enc, kc_graph=graph))
    monkeypatch.setattr(features, "_WALK_RESPONSES", 2)
    walks = _Walks(monkeypatch)
    two_runs = Dataset(FULL, students, graph)
    assert fit_encoders(two_runs, ["s1", "s2"], recipe) == enc
    assert walks.batches == [["s1"], ["s2"]]
    assert not _extraction_mismatch(build_matrix(two_runs, students, enc), (want.X, want.y, want.t, want.events))
    # fitted on s1 alone, s2's earlier-sorting keys are unseen and dropped
    alone = fit_encoders(two_runs, ["s1"], recipe)
    assert alone.vocabs["question"] == {"q9": 0} and alone.vocabs["kc"] == {"k5": 0, "k9": 1}
    assert not _extraction_mismatch(build_matrix(two_runs, students, alone),
                                    reference_build_matrix(students, alone, kc_graph=graph))


def test_build_matrix_refuses_a_vocabulary_out_of_key_order():
    students = {"s1": _events_one_student()}
    ds = Dataset(MINIMAL, students)
    enc = fit_encoders(ds, ["s1"], Recipe(families=(F("bias"), F("question"))))
    assert len(enc.vocabs["question"]) > 1
    keys = sorted(enc.vocabs["question"], reverse=True)
    reversed_vocab = dataclasses.replace(enc, vocabs={"question": {k: i for i, k in enumerate(keys)}})
    with pytest.raises(ValueError, match="not in the dataset's key order"):
        build_matrix(ds, ["s1"], reversed_vocab)


@st.composite
def _csr_and_rows(draw):
    """A CSR matrix as its arrays (rows may be empty; int32 or int64
    indices) and a selection of its rows: maybe empty, maybe repeating."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(st.tuples(st.integers(0, n_cols - 1), st.floats(-10, 10)), max_size=4))
            for _ in range(n_rows)]
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    X = Csr(np.cumsum([0] + [len(row) for row in rows]).astype(dtype),
            np.array([col for row in rows for col, _ in row], dtype=dtype),
            np.array([value for row in rows for _, value in row], dtype=np.float64), (n_rows, n_cols))
    take = draw(st.lists(st.integers(0, n_rows - 1), max_size=8)) if n_rows else []
    return X, np.array(take, dtype=draw(st.sampled_from([np.int32, np.int64])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_csr_and_rows())
def test_csr_take_is_scipys_row_selection(case):
    """`Csr.take` copies the arrays scipy's `X[rows]` holds, in X's own
    dtypes (scipy's constructor may narrow int64 to int32)."""
    X, rows = case
    got, want = X.take(rows), scipy_csr(X)[rows]
    assert got.shape == want.shape and got.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(X, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.data.tobytes() == want.data.tobytes()
    for bad in ([-1], [X.shape[0]]):
        with pytest.raises(IndexError):
            X.take(bad)


def test_build_matrix_refuses_a_repeated_column():
    """A response listing one KC twice puts two entries in one `kc` column:
    a ValueError, wherever the row sits.  A row's first column may repeat
    the previous row's last, and the same responses listed once pass."""
    for at in (0, 1, 3):
        events = [response("s1", 10 * j, f"q{j}", ["k0", "k1"] if j == at else ["k1"], j % 2 == 0)
                  for j in range(4)]
        once = Dataset(MINIMAL, {"s1": events})
        recipe = Recipe(families=(F("bias"), F("kc"), F("question")))
        enc = fit_encoders(once, ["s1"], recipe)
        assert not _extraction_mismatch(build_matrix(once, ["s1"], enc), reference_build_matrix(once.students, enc))
        twice = list(events)
        twice[at] = response("s1", 10 * at, f"q{at}", ["k1", "k1"], at % 2 == 0)
        with pytest.raises(ValueError, match="duplicate feature index"):
            build_matrix(Dataset(MINIMAL, {"s1": twice}), ["s1"], enc)
    # rows that each end in the column the next one starts with are not repeats
    students = {f"s{i}": [response(f"s{i}", 10, "q0", ["k0"], True)] for i in range(3)}
    ds = Dataset(MINIMAL, students)
    enc = fit_encoders(ds, students, Recipe(families=(F("kc"),)))
    assert build_matrix(ds, students, enc).X.indices.tolist() == [0, 0, 0]


def test_build_matrix_computes_each_encoders_column_table_once(monkeypatch):
    """A fit's training and prediction matrices share one encoder's table;
    an equal encoder that is another object computes its own, which gives
    the same matrix; a freed encoder's table leaves the cache."""
    students = {f"s{i}": _events_one_student() for i in range(1, 4)}
    for sid, events in students.items():
        students[sid] = [e._replace(student_id=sid) for e in events]
    ds = Dataset(MINIMAL, students)
    recipe = Recipe(families=(F("bias"), F("question"), F("kc"), F("counts", "kc"), F("smoothed_avg_correct")))
    computed = []
    column_table = features._Matrix._column_table

    def spy(matrix, encoder):
        computed.append(encoder)
        return column_table(matrix, encoder)

    monkeypatch.setattr(features._Matrix, "_column_table", spy)
    enc = fit_encoders(ds, ["s1", "s2"], recipe)
    train = build_matrix(ds, ["s1", "s2"], enc)
    test = build_matrix(ds, ["s3"], enc)
    assert len(computed) == 1 and computed[0] is enc
    equal = dataclasses.replace(enc)
    assert equal == enc and equal is not enc
    for ids, want in ((["s1", "s2"], train), (["s3"], test)):
        got = build_matrix(ds, ids, equal)
        assert not _extraction_mismatch(got, (want.X, want.y, want.t, want.events))
        assert not _extraction_mismatch(got, reference_build_matrix({s: students[s] for s in ids}, equal))
    assert len(computed) == 2 and computed[1] is equal
    tables = ds.feature_rows.rows([], recipe)[1]._tables
    assert len(tables) == 2
    computed.clear()
    del equal
    assert len(tables) == 1


def test_build_matrix_reference_check_catches_a_wrong_slot(rng, monkeypatch):
    students = _random_full_students(rng, n_students=4, max_events=40)
    ds = Dataset(FULL, students)
    encoders = [fit_encoders(ds, students, r) for r in (_COUNTS_ONLY, _COUNTS_AND_TIMES)]
    refs = [reference_build_matrix(students, enc) for enc in encoders]
    for enc, ref in zip(encoders, refs):
        assert not _extraction_mismatch(build_matrix(ds, students, enc), ref)
    _swap_counts_slots(monkeypatch)
    mutated = Dataset(FULL, students)  # a store of its own, walked with the mutation
    for enc, ref in zip(encoders, refs):
        assert _extraction_mismatch(build_matrix(mutated, students, enc), ref), enc.recipe


def test_response_log_window_counts():
    """The reference's window log, which the array walk's window counts must match."""
    # windows: 1h, 1d (in seconds); responses at ages 0.5h, 2h, 25h
    log = ResponseLog((3600.0, 86400.0))
    now = 100 * 3600
    log.add(now - 25 * 3600, True)
    log.add(now - 2 * 3600, False)
    log.add(now - 1800, True)
    assert log.window_counts(now) == [(1, 1), (1, 2)]
    assert (log.corrects, log.attempts) == (2, 3)
    # boundary: a response exactly one window old is outside the window
    log2 = ResponseLog((3600.0,))
    log2.add(0, True)
    assert log2.window_counts(3600) == [(0, 0)]
    log3 = ResponseLog((3601.0,))
    log3.add(0, True)
    assert log3.window_counts(3600) == [(1, 1)]


def _video(sid, ts, kcs):
    return InteractionEvent(sid, ts, EventKind.VIDEO_WATCH, kc_ids=tuple(kcs), consumption_minutes=2.0)


def _block_values(ext, enc, r, name, key=None):
    """{slot: value} of block `name` in row r (of `key`'s columns for a keyed block)."""
    off, size = offset_of(enc, name)
    if key is not None:
        per = size // len(enc.vocabs["kc"])
        off, size = off + enc.vocabs["kc"][key] * per, per
    return {c - off: v for c, v in _row_pairs(ext, r) if off <= c < off + size}


def test_array_walk_edge_cases():
    """Window boundaries, shared timestamps, multi-KC responses, material events
    between responses and short or empty histories: the array walk gives the
    reference's bytes and the values worked out by hand."""
    hour, day, week, month = 3600, 86400, 604800, 2592000
    t0 = 1000
    late = [False, False, True, True, False, True]
    students = {
        "a": [
            response("a", t0, "q1", ["k1"], True),
            _video("a", t0 + 500, ["k1"]),
            response("a", t0 + hour, "q2", ["k1", "k2"], False),  # the first is exactly 1 h old
            response("a", t0 + hour, "q1", ["k2"], True),  # same timestamp
            response("a", t0 + day, "q1", ["k1"], True),  # the first is exactly 1 d old
            response("a", t0 + hour + week, "q3", ["k1", "k2"], False),  # the second and third 7 d
            response("a", t0 + month, "q2", ["k1"], True),  # the first 30 d
            # ten answers before row 10: a pattern from then on
            *(response("a", t0 + month + 60 * i, "q1", ["k2"], y) for i, y in enumerate(late, 1)),
        ],
        "b": [response("b", 10, "q1", ["k1"], True), response("b", 20, "q2", ["k2"], False)],
        "c": [_video("c", 5, ["k1"])],
    }
    prefix_only = Recipe(
        families=(F("bias"), F("kc"), *(F(k, scope) for k in ("counts", "tw_counts") for scope in _SCOPES),
                  F("smoothed_avg_correct"), F("response_pattern")),
    )
    with_state = dataclasses.replace(
        prefix_only, families=prefix_only.families + (F("video_watched_counts"), F("lag_time", "current"))
    )
    ds = Dataset(FULL, students)
    for recipe in (prefix_only, with_state):
        enc = fit_encoders(ds, students, recipe)
        ext = build_matrix(ds, students, enc)
        assert not _extraction_mismatch(ext, reference_build_matrix(students, enc))
        assert ext.X.shape[0] == 14 and ext.t.tolist() == [*range(12), 0, 1]

        def windows(*pairs):
            return {s: scale(c) for s, c in enumerate(x for pair in pairs for x in pair) if c}

        # rows of a: windows 1 h, 1 d, 7 d, 30 d, all time
        total = [_block_values(ext, enc, r, "tw_counts:total") for r in range(6)]
        assert total[0] == {}
        assert total[1] == windows((0, 0), (1, 1), (1, 1), (1, 1), (1, 1))
        assert total[2] == windows((0, 1), (1, 2), (1, 2), (1, 2), (1, 2))
        assert total[3] == windows((0, 0), (1, 2), (2, 3), (2, 3), (2, 3))
        assert total[4] == windows((0, 0), (0, 0), (1, 1), (3, 4), (3, 4))
        assert total[5] == windows((0, 0), (0, 0), (0, 0), (2, 4), (3, 5))
        assert _block_values(ext, enc, 4, "counts:kc", "k1") == {0: scale(2), 1: scale(3)}
        assert _block_values(ext, enc, 4, "counts:kc", "k2") == {0: scale(1), 1: scale(2)}
        assert _block_values(ext, enc, 4, "tw_counts:kc", "k2") == windows((0, 0), (0, 0), (0, 0), (1, 2), (1, 2))
        assert _block_values(ext, enc, 2, "counts:question") == {0: scale(1), 1: scale(1)}
        assert _block_values(ext, enc, 3, "counts:question") == {0: scale(2), 1: scale(2)}
        # the last ten answers, the most recent in the low bit; none before ten, none for b
        patterns = [_block_values(ext, enc, r, "response_pattern") for r in range(14)]
        assert patterns == [{}] * 10 + [{0b1011010011: 1.0}, {0b0110100110: 1.0}, {}, {}]
        smoothed = [_block_values(ext, enc, r, "smoothed_avg_correct")[0] for r in range(14)]
        counts = ((0, 0), (1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8), (5, 9), (6, 10), (6, 11),
                  (0, 0), (1, 1))
        assert smoothed == [(c + ETA * enc.rbar) / (a + ETA) for c, a in counts]


def test_array_walk_counts_a_repeated_kc_twice():
    """A response listing a KC twice adds two to that KC's counts, as one log update per listed KC did."""
    students = {"d": [response("d", 10, "q1", ["k1", "k1"], True), response("d", 20, "q2", ["k1"], False),
                      response("d", 30, "q2", ["k1"], True)]}
    recipe = Recipe(families=(F("counts", "kc"), F("tw_counts", "kc")))
    ds = Dataset(MINIMAL, students)
    enc = fit_encoders(ds, students, recipe)
    ext = build_matrix(ds, students, enc)
    assert not _extraction_mismatch(ext, reference_build_matrix(students, enc))
    counts = [_block_values(ext, enc, r, "counts:kc", "k1") for r in range(3)]
    assert counts == [{}, {0: scale(2), 1: scale(2)}, {0: scale(2), 1: scale(3)}]


def _material(ts, kind, kcs=("k1",), **cells):
    return InteractionEvent("s1", ts, kind, kc_ids=tuple(kcs), **cells)


def _hand_rows(events, families, manifest=FULL):
    """(row -> {slot: value} of a block) for one student's build_matrix rows,
    after checking them against the reference extraction."""
    students = {"s1": events}
    ds = Dataset(manifest, students)
    enc = fit_encoders(ds, students, Recipe(families=families))
    ext = build_matrix(ds, students, enc)
    assert not _extraction_mismatch(ext, reference_build_matrix(students, enc))
    return lambda name: [_block_values(ext, enc, r, name) for r in range(ext.X.shape[0])]


def test_module_part_elapsed_and_lag_by_hand():
    """Module and part counts, prior elapsed time and lag times before each response."""
    events = [
        response("s1", 100, "q1", ["k1", "k2"], True, study_module="m", elapsed_time_s=5.0),
        response("s1", 200, "q2", ["k2"], False, study_module="m", part_area="p"),
        response("s1", 500, "q3", ["k1"], True, study_module="m", part_area="p"),
    ]
    rows = _hand_rows(events, (F("study_module_counts"), F("part_area_counts"), F("elapsed_time", "prior"),
                               F("lag_time", "current"), F("lag_time", "prior")))
    assert rows("study_module_counts") == [{}, {0: scale(1), 1: scale(1)}, {0: scale(1), 1: scale(2)}]
    assert rows("part_area_counts") == [{}, {}, {1: scale(1)}]
    assert rows("elapsed_time:prior") == [{}, {5: 1.0, 301: scale(5.0)}, {}]
    # lags: 200 - (100 + 5.0) = 95 s, then 500 - 200 = 300 s; 150 categories, the value, the no-lag flag
    first, after_95, after_300 = {151: 1.0}, {2: 1.0, 150: scale(95 / 60)}, {5: 1.0, 150: scale(5.0)}
    assert rows("lag_time:current") == [first, after_95, after_300]
    assert rows("lag_time:prior") == [{}, first, after_95]


def test_material_tallies_by_hand():
    """Video skips and watches, minutes 3.5, a HintUse's hint_count and a response's
    hint_count, which counts from the next response on."""
    events = [
        _material(10, EventKind.VIDEO_SKIP),
        _material(20, EventKind.VIDEO_WATCH, consumption_minutes=3.5),
        _material(30, EventKind.HINT_USE, hint_count=2),
        response("s1", 40, "q1", ["k1"], True, hint_count=3),
        response("s1", 50, "q2", ["k2"], False),
    ]
    rows = _hand_rows(events, (F("video_skipped_counts"), F("video_watched_counts"), F("video_watched_time"),
                               F("hint_counts")))
    assert rows("video_skipped_counts") == [{0: scale(1.0), 1: scale(1.0)}, {0: scale(1.0)}]
    assert rows("video_watched_counts") == [{0: scale(1.0), 1: scale(1.0)}, {0: scale(1.0)}]
    assert rows("video_watched_time") == [{0: scale(3.5), 1: scale(3.5)}, {0: scale(3.5)}]
    assert rows("hint_counts") == [{0: scale(2.0), 1: scale(2.0)}, {0: scale(5.0)}]


def test_update_state_rejects_out_of_order():
    """A student's running state, whether prefix counts or module and lag tallies,
    takes no event earlier than the one before it."""
    first = response("s1", 100, "q1", ["k1"], True)
    for families in ((F("counts", "total"),), (F("study_module_counts"), F("lag_time", "current"))):
        enc = fit_encoders(Dataset(FULL, {"s1": [first]}), ["s1"], Recipe(families=families))
        late = Dataset(FULL, {"s1": [first, response("s1", 50, "q2", ["k1"], True)]})
        with pytest.raises(SequencingError, match="event at 50 arrived after state reached 100"):
            build_matrix(late, ["s1"], enc)


def test_material_events_count_by_list_position():
    """A material event listed just before a response at the same timestamp counts
    for it; one listed just after does not."""
    events = [
        response("s1", 100, "q1", ["k1"], True),
        _material(200, EventKind.VIDEO_WATCH),
        response("s1", 200, "q2", ["k1"], False),
        _material(200, EventKind.VIDEO_WATCH),
        response("s1", 300, "q3", ["k1"], True),
    ]
    rows = _hand_rows(events, (F("video_watched_counts"),))
    assert rows("video_watched_counts") == [{}, {0: scale(1.0), 1: scale(1.0)}, {0: scale(2.0), 1: scale(2.0)}]


def test_material_minutes_sum_in_event_order_per_kc():
    """Minutes 0.1 and 0.2 on k1, then 0.3 on k2: k2's tally is exactly 0.3, where a
    cumulative sum over both KCs minus k2's start gives 0.30000000000000004.  A row
    shows only scale() of a tally, which rounds that difference away, so the rows
    take 0.2 on k2 instead (0.19999999999999996 the wrong way)."""
    # groups k1, k1, k2 at positions 0, 1, 2; read k2 and k1 at position 3
    tallies = features._sums_before(
        np.array([0, 0, 1]), np.arange(3), np.array([0.1, 0.2, 0.3]), np.array([1, 0]), np.array([3, 3])
    )
    assert tallies.tolist() == [0.3, 0.1 + 0.2]
    events = [
        _material(10, EventKind.VIDEO_WATCH, consumption_minutes=0.1),
        _material(20, EventKind.VIDEO_WATCH, consumption_minutes=0.2),
        _material(30, EventKind.VIDEO_WATCH, ["k2"], consumption_minutes=0.2),
        response("s1", 40, "q1", ["k2"], True),
        response("s1", 50, "q2", ["k1"], True),
    ]
    total = scale(0.1 + 0.2 + 0.2)
    rows = _hand_rows(events, (F("video_watched_time"),))
    assert rows("video_watched_time") == [{0: total, 1: scale(0.2)}, {0: total, 1: scale(0.1 + 0.2)}]


def test_material_event_on_a_kc_listed_twice():
    """An event listing a KC twice adds to it twice, and a response listing it twice reads it twice."""
    events = [
        _material(10, EventKind.VIDEO_WATCH, ["k1", "k1"], consumption_minutes=1.5),
        response("s1", 20, "q1", ["k1"], True),
        InteractionEvent("s1", 30, EventKind.QUESTION_RESPONSE, "q2", ("k1", "k1"), False),
    ]
    rows = _hand_rows(events, (F("video_watched_counts"), F("video_watched_time")))
    assert rows("video_watched_counts") == [{0: scale(1.0), 1: scale(2.0)}, {0: scale(1.0), 1: scale(4.0)}]
    assert rows("video_watched_time") == [{0: scale(1.5), 1: scale(3.0)}, {0: scale(1.5), 1: scale(6.0)}]


def test_material_tallies_when_no_response_lists_a_kc(monkeypatch):
    """Responses without KCs still get the total tallies, and so does a walk whose
    one student has only a video: every family gives the reference's bytes."""
    students = {
        "s1": [
            _material(10, EventKind.VIDEO_WATCH, (), consumption_minutes=1.5),
            response("s1", 20, "q1", [], True, hint_count=2),
            _material(30, EventKind.READING, (), consumption_minutes=0.5),
            response("s1", 40, "q2", [], False),
        ],
        "s2": [InteractionEvent("s2", 5, EventKind.VIDEO_WATCH, kc_ids=("k1",), consumption_minutes=2.0)],
    }
    graph = KCGraph("kc", [("k0", "k1")])
    monkeypatch.setattr(features, "_WALK_RESPONSES", 1)  # s1's two responses overflow a run: s2 runs alone
    walks = _Walks(monkeypatch)
    ds = Dataset(FULL, students, graph)
    enc = fit_encoders(ds, ["s1"], full_recipe())
    ext = build_matrix(ds, students, enc)
    assert walks.batches == [["s1"], ["s2"]]
    assert not _extraction_mismatch(ext, reference_build_matrix(students, enc, kc_graph=graph))
    assert ext.X.shape[0] == 2

    def rows(name):
        return [_block_values(ext, enc, r, name) for r in range(2)]

    assert rows("video_watched_counts") == [{0: scale(1.0)}, {0: scale(1.0)}]
    assert rows("video_watched_time") == [{0: scale(1.5)}, {0: scale(1.5)}]
    assert rows("reading_time") == [{}, {0: scale(0.5)}]
    assert rows("hint_counts") == [{}, {0: scale(2.0)}]


def test_datetime_on_iso_week_edges():
    """At 12:00 UTC on 2020-12-31, 2021-01-03, 2021-01-04, 2024-12-30 and 2027-01-01,
    where strftime's %W and %U both disagree with the ISO week."""
    stamps = [1609416000, 1609675200, 1609761600, 1735560000, 1798804800]
    events = [response("s1", ts, f"q{i}", ["k1"], True) for i, ts in enumerate(stamps)]
    rows = _hand_rows(events, tuple(F("datetime", v) for v in ("month", "week", "day", "hour")), MINIMAL)

    def one_hots(*slots):
        return [{slot: 1.0} for slot in slots]

    assert rows("datetime:week") == one_hots(52, 52, 0, 0, 52)  # ISO weeks 53, 53, 1, 1, 53
    assert rows("datetime:month") == one_hots(11, 0, 0, 11, 0)
    assert rows("datetime:day") == one_hots(3, 6, 0, 0, 4)  # Thursday, Sunday, Monday, Monday, Friday
    assert rows("datetime:hour") == one_hots(12, 12, 12, 12, 12)


def test_array_walk_refuses_window_keys_that_overflow():
    """(group, timestamp) search keys must fit in int64; a wider span fails instead of miscounting."""
    recipe = Recipe(families=(F("bias"), F("tw_counts", "total")))
    students = {"a": [response("a", 0, "q1", ["k1"], True)], "b": [response("b", 1 << 61, "q1", ["k1"], True)]}
    enc = fit_encoders(Dataset(MINIMAL, {"a": students["a"]}), ["a"], recipe)
    both = Dataset(MINIMAL, students)  # one run walks a and b together
    for _ in range(2):  # a failed walk keeps no rows, so it fails again
        with pytest.raises(ValueError, match="span too wide"):
            build_matrix(both, ["a"], enc)
    assert build_matrix(Dataset(MINIMAL, {"b": students["b"]}), ["b"], enc).X.shape == (1, enc.dim)


def test_array_walk_keeps_the_order_check():
    """A recipe of prefix families, or of lag, module-count and material families,
    refuses events that go back in time."""
    ok = {"a": [response("a", 100, "q1", ["k1"], True), response("a", 200, "q2", ["k1"], False)],
          "b": [response("b", 50, "q1", ["k1"], True)]}  # earlier than a's last: another student
    late_response = {"a": [response("a", 100, "q1", ["k1"], True), response("a", 50, "q2", ["k1"], False)]}
    late_material = {"a": [response("a", 100, "q1", ["k1"], True), _video("a", 90, ["k1"]),
                           response("a", 200, "q2", ["k1"], False)]}
    for families in (
        _FIXED["best-lr"],
        (F("bias"), F("lag_time", "current"), F("study_module_counts"), F("video_watched_counts")),
    ):
        enc = fit_encoders(Dataset(FULL, ok), ok, Recipe(families=families))
        for students, (late, reached) in ((late_response, (50, 100)), (late_material, (90, 100))):
            message = f"event at {late} arrived after state reached {reached}"
            with pytest.raises(SequencingError, match=message):
                build_matrix(Dataset(FULL, {**ok, **students}), ok, enc)
            with pytest.raises(SequencingError, match=message):
                reference_build_matrix({**ok, **students}, enc)


def test_build_matrix_keeps_duplicate_and_dimension_checks():
    dup = {"s1": [InteractionEvent("s1", 10, EventKind.QUESTION_RESPONSE, "q1", ("k1", "k1"), True)]}
    ds = Dataset(MINIMAL, dup)
    enc = fit_encoders(ds, ["s1"], Recipe(families=(F("bias"), F("kc"))))
    with pytest.raises(ValueError, match="duplicate feature index"):
        build_matrix(ds, ["s1"], enc)
    with pytest.raises(ValueError, match="duplicate feature index"):
        reference_build_matrix(dup, enc)
    students = {"s1": _events_one_student()}
    ds = Dataset(MINIMAL, students)
    enc = fit_encoders(ds, ["s1"], Recipe(families=(F("bias"), F("question"))))
    # an encoder's dimension follows from its vocabularies, so only the reference can be given a short one
    short = SimpleNamespace(recipe=enc.recipe, vocabs=enc.vocabs, blocks=enc.blocks, dim=enc.dim - 1, rbar=enc.rbar)
    with pytest.raises(RuntimeError, match="outside encoder dimension"):
        reference_build_matrix(students, short)


class _Walks:
    """Spies on the store's walks: the student ids of each batch `_walk` is given."""

    def __init__(self, monkeypatch):
        self.batches: list[list[str]] = []
        walk = features._walk

        def walk_spy(walks, *a, **kw):
            self.batches.append(list(walks))
            return walk(walks, *a, **kw)

        monkeypatch.setattr(features, "_walk", walk_spy)

    @property
    def students(self) -> list[str]:
        return sorted(sid for batch in self.batches for sid in batch)


def test_graph_families_need_the_graph_before_any_walk(monkeypatch):
    """build_matrix refuses a graph-family encoder on a dataset without a graph
    before it walks anyone, with the message fit_encoders gives."""
    graph = KCGraph("kc", [("p", "c")])
    students = {"s1": [response("s1", 100, "q1", ["p"], True), response("s1", 200, "q2", ["c"], True)]}
    recipe = Recipe(families=(F("bias"), F("prereq_ids"), F("postreq_counts")))
    enc = fit_encoders(Dataset(FULL, students, graph), ["s1"], recipe)
    walks = _Walks(monkeypatch)
    no_graph = Dataset(FULL, students)
    message = "^families prereq_ids, postreq_counts need a prerequisite graph, none was provided$"
    for selection in (["s1"], []):
        with pytest.raises(ConfigError, match=message):
            build_matrix(no_graph, selection, enc)
    with pytest.raises(ConfigError, match=message):
        fit_encoders(no_graph, ["s1"], recipe)
    assert walks.batches == []


# the graph of the row-store tests' datasets, for their graph-family recipe
_STORE_GRAPH = KCGraph("kc", [("k0", "k1"), ("k1", "k2"), ("k0", "k3")])


def _store_dataset(rng, n_students=8):
    students = _random_full_students(rng, n_students=n_students, max_events=40)
    return Dataset(manifest=FULL, students=students, kc_graph=_STORE_GRAPH)


def _walk_recipes(monkeypatch, prefix_only: Recipe):
    """(recipe, fresh walk spies) for a recipe of prefix families, then for it plus
    an elapsed-time family, a material family and a graph family in turn."""
    for extra in ((), (F("elapsed_time", "prior"),), (F("video_watched_time"),), (F("prereq_counts"),)):
        with monkeypatch.context() as m:
            yield dataclasses.replace(prefix_only, families=prefix_only.families + extra), _Walks(m)


def test_row_store_walks_each_student_once_per_recipe(rng, monkeypatch):
    prefix_only = Recipe(families=(F("bias"), F("student"), F("counts", "kc"), F("smoothed_avg_correct")))
    for recipe, walks in _walk_recipes(monkeypatch, prefix_only):
        ds = _store_dataset(rng)
        sids = sorted(ds.students)
        train, test = sids[:5], sids[5:]
        enc = fit_encoders(ds, train, recipe)
        assert walks.batches == [sids]  # the recipe's first call walks every student of the dataset
        first = build_matrix(ds, sids, enc)
        # other folds: the same walk serves their encoders and matrices
        other = fit_encoders(ds, test, recipe)
        build_matrix(ds, train, other)
        again = build_matrix(ds, sids, enc)
        assert walks.batches == [sids]
        assert not _extraction_mismatch(again, (first.X, first.y, first.t, first.events))
        assert not _extraction_mismatch(first, reference_build_matrix(ds.students, enc, kc_graph=_STORE_GRAPH))
        n = first.X.shape[0]
        n_train = sum(1 for s in train for e in ds.students[s] if e.is_response())
        # served: train (enc), all, test (other), train, all
        assert ds.feature_rows.counts() == {
            "students_walked": len(sids),
            "rows_walked": n,
            "rows_served": 3 * n + n_train,
        }
        # a recipe with other families walks again
        other_walk = dataclasses.replace(recipe, families=recipe.families + (F("counts", "total"),))
        other_enc = fit_encoders(ds, sids, other_walk)
        build_matrix(ds, sids, other_enc)
        assert walks.batches == [sids, sids]


@pytest.mark.parametrize("limit", [1, 30, 90])
def test_row_store_walks_in_bounded_runs(rng, monkeypatch, limit):
    """A dataset's store walks its students in sorted order, in runs of whole
    students: each run holds at most _WALK_RESPONSES responses, unless one
    student holds more and runs alone, and a run ends only where the next
    student would overflow it.  The rows are the reference's."""
    monkeypatch.setattr(features, "_WALK_RESPONSES", limit)
    prefix_only = Recipe(families=(F("bias"), F("question"), F("counts", "kc"), F("response_pattern")))
    for recipe, walks in _walk_recipes(monkeypatch, prefix_only):
        ds = _store_dataset(rng, n_students=12)
        sids = sorted(ds.students)
        responses = {s: sum(e.is_response() for e in ds.students[s]) for s in sids}
        enc = fit_encoders(ds, sids[:4], recipe)
        assert [s for run in walks.batches for s in run] == sids and len(walks.batches) > 1
        sizes = [sum(responses[s] for s in run) for run in walks.batches]
        for run, size in zip(walks.batches, sizes):
            assert size <= limit or len(run) == 1, (limit, run, size)
        for size, following in zip(sizes, walks.batches[1:]):
            assert size + responses[following[0]] > limit
        res = build_matrix(ds, sids, enc)
        assert len(walks.batches) == len(sizes)
        assert not _extraction_mismatch(res, reference_build_matrix(ds.students, enc, kc_graph=_STORE_GRAPH))


def test_row_store_checks_a_recipe_and_finds_each_domains_keys_once(monkeypatch):
    """A recipe is checked on its first request only, unless that request
    failed; a vocabulary domain's sorted keys are found once per dataset,
    however many recipes and blocks read the domain."""
    checked, found = [], []
    check, keys = features.check_recipe_supported, features._Frame.keys
    monkeypatch.setattr(features, "check_recipe_supported", lambda recipe, *args: (checked.append(recipe),
                                                                                  check(recipe, *args)))
    monkeypatch.setattr(features._Frame, "keys", lambda frame, domain, graph: (found.append(domain),
                                                                               keys(frame, domain, graph))[1])
    ds = Dataset(MINIMAL, {"s1": _events_one_student()})
    recipes = (Recipe(families=(F("bias"), F("kc"), F("counts", "kc"))),
               Recipe(families=(F("question"), F("kc"), F("tw_counts", "kc"))))
    for recipe in recipes * 2:
        build_matrix(ds, ["s1"], fit_encoders(ds, ["s1"], recipe))
    assert checked == list(recipes) and sorted(found) == ["kc", "question"]
    unsupported = Recipe(families=(F("bias"), F("study_module")))
    for _ in range(2):
        with pytest.raises(ConfigError, match="study_module"):
            fit_encoders(ds, ["s1"], unsupported)
    assert checked == [*recipes, unsupported, unsupported]


def test_row_store_is_not_shared_with_derived_datasets(rng, monkeypatch):
    prefix_only = Recipe(families=(F("bias"), F("counts", "total")))
    for recipe, walks in _walk_recipes(monkeypatch, prefix_only):
        ds = _store_dataset(rng)
        enc = fit_encoders(ds, ds.students, recipe)
        build_matrix(ds, ds.students, enc)
        walks.batches.clear()
        lagged = derive_lag_times(ds)
        part = subset(ds, sorted(ds.students)[:3])
        assert lagged.feature_rows is not ds.feature_rows and part.feature_rows is not ds.feature_rows
        res = build_matrix(lagged, lagged.students, enc)
        assert walks.students == sorted(ds.students)
        assert not _extraction_mismatch(res, reference_build_matrix(lagged.students, enc, kc_graph=_STORE_GRAPH))
        build_matrix(part, part.students, enc)
        assert walks.students == sorted(list(ds.students) + sorted(ds.students)[:3])
        assert ds.feature_rows.students_walked == len(ds.students)


def test_row_store_threads_walk_each_student_once(rng, monkeypatch):
    prefix_only = Recipe(families=(F("bias"), F("question"), F("tw_counts", "kc"), F("response_pattern")))
    for recipe, walks in _walk_recipes(monkeypatch, prefix_only):
        ds = _store_dataset(rng, n_students=16)
        enc = fit_encoders(dataclasses.replace(ds), ds.students, recipe)  # a copy with a store of its own
        want = reference_build_matrix(ds.students, enc, kc_graph=_STORE_GRAPH)
        walks.batches.clear()
        results: list = []
        errors: list = []

        # two equal encoders, each shared by two threads: their column tables are cached side by side
        encoders = (enc, dataclasses.replace(enc))

        def worker(encoder):
            try:
                results.append(build_matrix(ds, ds.students, encoder))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(encoders[i % 2],)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors and len(results) == 4
        assert walks.batches == [sorted(ds.students)]
        for res in results:
            assert not _extraction_mismatch(res, want)
        assert ds.feature_rows.counts()["rows_served"] == 4 * want[0].shape[0]
        assert len(ds.feature_rows.rows([], recipe)[1]._tables) == 2
