import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import response, toy_dataset
from oracle import (
    metrics_report_from_json, modal_successor_oracle, pairwise_auc, reference_roc_curve, trapezoid_area,
)

from ktrace import features
from ktrace.core import ConfigError, FoldAssignment
from ktrace.evaluate import (
    DEFAULT_SPLITPOINTS,
    FoldPrediction,
    PlainSpec,
    UndefinedMetricError,
    accuracy,
    auc,
    bucket_metrics,
    cross_validate,
    dataset_stats,
    roc_curve,
)
from ktrace.ingest import split_folds
from ktrace.regression import TrainConfig


def test_accuracy_examples():
    assert accuracy([0.6, 0.4], [1, 0]) == 1.0
    assert accuracy([0.6, 0.4], [0, 1]) == 0.0
    # a probability exactly at the threshold predicts a correct response
    assert accuracy([0.5], [1]) == 1.0
    assert accuracy([0.5], [0]) == 0.0


def test_accuracy_matches_loop_oracle(rng):
    p = rng.random(1000)
    y = (rng.random(1000) < 0.6).astype(float)
    want = sum(1.0 for pi, yi in zip(p, y) if (pi >= 0.5) == (yi == 1.0)) / 1000
    assert accuracy(p, y) == want


def test_accuracy_errors():
    with pytest.raises(UndefinedMetricError):
        accuracy([], [])
    with pytest.raises(ConfigError):
        accuracy([0.5], [1, 0])
    with pytest.raises(ConfigError):
        accuracy([0.5], [2])


def test_auc_examples():
    assert auc([0.9, 0.1], [1, 0]) == 1.0
    assert auc([0.7, 0.7, 0.7], [1, 0, 1]) == 0.5
    assert abs(auc([0.9, 0.8, 0.3], [1, 0, 1]) - 0.5) < 1e-15
    with pytest.raises(UndefinedMetricError):
        auc([0.2, 0.4], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auc([0.2, 0.4], [0, 0])


def _rankdata_auc(probs, labels) -> float:
    """auc's formula over scipy's average ranks."""
    p, y = np.asarray(probs, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    n_pos = int(np.sum(y))
    n_neg = int(y.size - n_pos)
    ranks = rankdata(p, method="average")
    u = float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@st.composite
def _scored_labels(draw):
    """Scores drawn mostly from a few values (ties, both zeros) and labels of both classes."""
    n = draw(st.integers(2, 40))
    few = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=4)) + [0.0, -0.0]
    score = st.one_of(st.sampled_from(few), st.floats(allow_nan=False))
    probs = draw(st.lists(score, min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < n))
    return probs, labels


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_scored_labels())
@example(case=([0.3, 0.3, 0.3, 0.3], [1.0, 0.0, 1.0, 0.0]))  # all scores equal
@example(case=([0.8, 0.1], [1.0, 0.0]))  # one example per class
@example(case=([0.0, -0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 1.0]))
@example(case=([0.2, float("nan"), 0.7], [1.0, 0.0, 1.0]))  # a NaN score: all ranks NaN
def test_auc_is_bitwise_the_rankdata_formula(case):
    probs, labels = case
    assert np.float64(auc(probs, labels)).tobytes() == np.float64(_rankdata_auc(probs, labels)).tobytes()


def test_auc_matches_pairwise_oracle(rng):
    for trial in range(40):
        n = int(rng.integers(2, 60))
        # coarse grid forces plenty of ties
        p = rng.integers(0, 6, size=n) / 5.0
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        assert abs(auc(p, y) - pairwise_auc(p, y)) < 1e-12


def test_auc_monotone_transform_invariant(rng):
    p = rng.random(200)
    y = (rng.random(200) < 0.4).astype(float)
    base = auc(p, y)
    assert abs(auc(np.exp(p), y) - base) < 1e-12
    assert abs(auc(5.0 * p - 2.0, y) - base) < 1e-12
    assert abs(auc(p**3, y) - base) < 1e-12


def test_auc_complement_property(rng):
    p = rng.integers(0, 4, size=300) / 3.0
    y = (rng.random(300) < 0.5).astype(float)
    assert abs(auc(p, y) + auc(p, 1.0 - y) - 1.0) < 1e-12


def test_roc_curve_shapes():
    pts = roc_curve([0.9, 0.1], [1, 0])
    assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
    assert (0.0, 1.0) in pts  # perfect separation
    assert roc_curve([0.5, 0.5], [1, 0]) == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_area_equals_auc(rng):
    for _ in range(20):
        n = int(rng.integers(5, 300))
        p = rng.integers(0, 10, size=n) / 9.0
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        pts = roc_curve(p, y)
        assert len(pts) == len(np.unique(p)) + 1
        assert abs(trapezoid_area(pts) - auc(p, y)) < 1e-12


@pytest.mark.parametrize("p, y", [
    ([0.2, 0.7, 0.7, 0.2, 0.9, 0.7, 0.1, 0.2], [1, 0, 1, 1, 0, 1, 0, 0]),
    ([0.4] * 6, [1, 0, 0, 1, 1, 0]),
    ([0.3, 0.8], [0, 1]),
    ([0.8, 0.3], [0, 1]),
], ids=["ties", "all-tied", "one-score-per-label", "one-score-per-label-inverted"])
def test_roc_curve_matches_the_threshold_loop(p, y):
    p, y = np.asarray(p, dtype=float), np.asarray(y, dtype=float)
    got = roc_curve(p, y)
    assert got == reference_roc_curve(p, y)
    assert all(type(v) is float for point in got for v in point)


def test_roc_curve_matches_the_threshold_loop_on_random_scores(rng):
    for _ in range(20):
        n = int(rng.integers(2, 400))
        p = rng.integers(0, int(rng.integers(1, 50)), size=n) / 7.0
        y = (rng.random(n) < 0.4).astype(float)
        y[:2] = (0.0, 1.0)
        assert roc_curve(p, y) == reference_roc_curve(p, y)


def test_bucket_metrics_breakdown():
    t = np.array([0, 5, 9, 10, 49, 50, 600])
    p = np.array([0.9, 0.2, 0.8, 0.6, 0.4, 0.7, 0.3])
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    rows = bucket_metrics(p, y, t)
    by = {r["bucket"]: r for r in rows}
    assert set(by) == {"0-10", "10-50", "50-100", "100-250", "250-500", "500-inf"}
    assert by["0-10"]["n"] == 3 and by["0-10"]["auc"] == 1.0
    assert by["10-50"]["n"] == 2
    assert by["50-100"]["auc"] is None  # single class
    assert by["100-250"]["n"] == 0 and by["100-250"]["acc"] is None
    assert by["500-inf"]["n"] == 1


def _cv_dataset(n_students=30, per=12):
    students = {}
    for i in range(n_students):
        sid = f"s{i:03d}"
        students[sid] = [
            response(sid, 1000 + 600 * j, f"q{(i + j) % 7}", [f"k{j % 3}"], (i + j) % 3 != 0)
            for j in range(per)
        ]
    return toy_dataset(students, name="cvtoy")


class ConstantSpec:
    """Duck-typed spec predicting a fixed probability everywhere."""

    label = "constant"

    def __init__(self, p=0.7):
        self.p = p

    def fit_on(self, student_ids, dataset, config):
        return self.p

    def predict_on(self, fitted, student_ids, dataset):
        labels = []
        t = []
        for sid in sorted(student_ids):
            k = 0
            for e in dataset.students[sid]:
                if e.is_response():
                    labels.append(1.0 if e.correct else 0.0)
                    t.append(k)
                    k += 1
        y = np.asarray(labels)
        return FoldPrediction(probs=np.full(y.size, fitted), labels=y, t=np.asarray(t))


def test_cross_validate_constant_baseline():
    students = {}
    for i in range(40):
        sid = f"s{i:03d}"
        # 83% correct: 10 of 12 responses, with 2 fixed misses
        students[sid] = [
            response(sid, 100 + 60 * j, f"q{j}", ["k1"], j not in (3, 7)) for j in range(12)
        ]
    ds = toy_dataset(students, name="const")
    report = cross_validate(ds, ConstantSpec(0.7), k=5, seed=1)
    assert abs(report.acc_mean - 10 / 12) < 1e-12
    for row in report.per_fold:
        assert row["auc"] == 0.5
    assert report.auc_var == 0.0


def test_cross_validate_plain_spec_report():
    ds = _cv_dataset()
    report = cross_validate(ds, PlainSpec("irt"), k=5, seed=3, config=TrainConfig(l2=0.1))
    assert report.k == 5 and len(report.per_fold) == 5
    assert 0.0 <= report.acc_mean <= 1.0
    assert 0.0 <= report.auc_mean <= 1.0
    assert report.acc_var >= 0.0 and report.auc_var >= 0.0
    assert sum(r["n"] for r in report.per_fold) == 30 * 12
    assert sum(b["n"] for b in report.buckets) == 30 * 12
    assert report.spec == "irt"


def test_cross_validate_deterministic_and_jobs_invariant():
    ds = _cv_dataset(20, 8)
    cfg = TrainConfig(l2=0.05)
    a = cross_validate(ds, PlainSpec("best-lr"), k=4, seed=9, config=cfg, jobs=1)
    b = cross_validate(ds, PlainSpec("best-lr"), k=4, seed=9, config=cfg, jobs=3)
    assert a.to_canonical_json() == b.to_canonical_json()


def test_cross_validate_respects_given_folds():
    ds = _cv_dataset(12, 6)
    folds = split_folds(ds, k=3, seed=77)
    report = cross_validate(ds, ConstantSpec(), folds=folds)
    assert report.k == 3 and report.seed == 77


def test_cross_validate_never_touches_test_students(monkeypatch):
    ds = _cv_dataset(15, 8)
    folds = split_folds(ds, k=5, seed=2)
    seen_per_call: list[set] = []
    real_fit = features.fit_encoders
    real_build = features.build_matrix

    def spy_fit(dataset, student_ids, recipe):
        seen_per_call.append(set(student_ids))
        return real_fit(dataset, student_ids, recipe)

    monkeypatch.setattr(features, "fit_encoders", spy_fit)
    extracted: list[set] = []

    def spy_build(dataset, student_ids, encoder):
        extracted.append(set(student_ids))
        return real_build(dataset, student_ids, encoder)

    monkeypatch.setattr(features, "build_matrix", spy_build)
    cross_validate(ds, PlainSpec("pfa"), folds=folds, config=TrainConfig(l2=0.1))
    # encoder fitting saw exactly the train students of each fold
    assert len(seen_per_call) == folds.k
    for i, seen in enumerate(seen_per_call):
        test_ids = set(folds.students_in(i))
        assert not (seen & test_ids)
        assert seen == set(folds.train_students(i))
    # each fold extracts exactly its training students, then exactly its test students
    expected = []
    for i in range(folds.k):
        expected += [set(folds.train_students(i)), set(folds.students_in(i))]
    assert extracted == expected


def test_metrics_report_roundtrip():
    ds = _cv_dataset(10, 6)
    report = cross_validate(ds, ConstantSpec(), k=2, seed=5, include_roc=True)
    again = metrics_report_from_json(report.to_json())
    assert again.to_canonical_json() == report.to_canonical_json()
    assert report.roc is not None and trapezoid_area(report.roc) == pytest.approx(0.5)


def test_dataset_stats_examples():
    ds = toy_dataset(
        {"s1": [response("s1", 100 * j, f"q{j}", ["k1"], True) for j in range(5)]},
        name="tiny",
    )
    stats = dataset_stats(ds)
    assert stats["responses_per_student"] == {"5": 1}
    assert stats["n_responses"] == 5
    assert stats["overall_correct_rate"] == 1.0
    # every student follows q0->q1->...: successors are fully predictable
    ds2 = toy_dataset(
        {
            f"s{i}": [response(f"s{i}", 100 * j, f"q{j}", ["k1"], True) for j in range(4)]
            for i in range(3)
        },
        name="chain",
    )
    assert dataset_stats(ds2)["next_question_predictability"] == 1.0
    assert dataset_stats(ds2)["next_kc_predictability"] == 1.0


def test_dataset_stats_matches_successor_oracle(rng):
    students = {}
    for i in range(8):
        sid = f"s{i}"
        students[sid] = [
            response(sid, 50 * j, f"q{int(rng.integers(4))}", [f"k{int(rng.integers(3))}"], True)
            for j in range(int(rng.integers(2, 15)))
        ]
    ds = toy_dataset(students, name="rand")
    stats = dataset_stats(ds)
    q_seqs = [[e.question_id for e in evs] for _, evs in sorted(students.items())]
    kc_seqs = [[e.kc_ids for e in evs] for _, evs in sorted(students.items())]
    assert stats["next_question_predictability"] == modal_successor_oracle(q_seqs)
    assert stats["next_kc_predictability"] == modal_successor_oracle(kc_seqs)


def test_dataset_stats_no_transitions():
    ds = toy_dataset({"s1": [response("s1", 10, "q1", ["k1"], False)]}, name="one")
    stats = dataset_stats(ds)
    assert stats["next_question_predictability"] is None
    assert stats["overall_correct_rate"] == 0.0
