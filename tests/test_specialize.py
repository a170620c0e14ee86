import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import response, toy_dataset
from oracle import assign_partition, nll, offset_of

from ktrace.core import ConfigError
from ktrace.evaluate import PlainSpec, auc, cross_validate
from ktrace.features import ExtractResult, build_matrix
from ktrace.ingest import split_folds
from ktrace.recipes import resolve
from ktrace.regression import TrainConfig, fit, predict_proba_batch
from ktrace.specialize import (
    MISSING_KEY,
    ByField,
    PartitionedSpec,
    ResponseIndex,
    _rows_by_partition,
    fit_partitioned,
    predict_routed_batch,
    save_partitioned,
    scheme_from_json,
)
from ktrace.synth import GeneratorConfig, generate


def _ext(events, ts) -> ExtractResult:
    """An extract with no feature columns: schemes read only events and t."""
    n = len(events)
    return ExtractResult(X=sp.csr_matrix((n, 0)), y=np.zeros(n), t=np.asarray(ts, dtype=np.int64),
                         events=list(events))


def _row_labels(scheme, events, ts) -> list[str]:
    labels, codes = scheme.keys(_ext(events, ts))
    return [labels[c] for c in codes]


def test_scheme_validation():
    with pytest.raises(ConfigError):
        ResponseIndex((0, 10, 50))  # must end at inf
    with pytest.raises(ConfigError):
        ResponseIndex((10, 50, math.inf))  # must start at 0
    with pytest.raises(ConfigError):
        ResponseIndex((0, 50, 10, math.inf))
    with pytest.raises(ConfigError, match="integers >= 0"):
        ResponseIndex((0, 5.5, math.inf))  # t is a count
    with pytest.raises(ConfigError, match="integers >= 0"):
        scheme_from_json({"kind": "response_index", "splitpoints": [0, "ten", "inf"]})
    with pytest.raises(ConfigError, match="integers >= 0"):
        scheme_from_json({"kind": "response_index", "splitpoints": [0, "nan", "inf"]})
    with pytest.raises(ConfigError, match="integers >= 0"):
        ResponseIndex((0, math.nan, math.inf))
    with pytest.raises(ConfigError):
        ByField("correct")
    with pytest.raises(ConfigError):
        ByField("hint_count")  # not a categorical field
    for name in ("question_id", "study_module", "difficulty", "age", "gender", "social_support"):
        assert ByField(name).label == f"by-feature:{name}"
    assert ResponseIndex((0, 10.0, math.inf)) == ResponseIndex((0, 10, math.inf))
    scheme = ResponseIndex()
    assert scheme.to_json() == {"kind": "response_index",
                                "splitpoints": [0, 10, 50, 100, 250, 500, "inf"]}
    assert scheme_from_json(scheme.to_json()) == scheme
    byf = ByField("study_module")
    assert byf.to_json() == {"kind": "by_feature", "feature": "study_module"}
    assert scheme_from_json(byf.to_json()) == byf


def test_unknown_scheme_json_fails_with_a_config_error():
    with pytest.raises(ConfigError, match="unknown partition kind 'bogus'"):
        scheme_from_json({"kind": "bogus"})


def test_assign_partition_examples():
    scheme = ResponseIndex()
    ev = response("s1", 100, "q1", ["k1"], True)
    assert _row_labels(scheme, [ev] * 3, [9, 10, 600]) == ["0-10", "10-50", "500-inf"]
    assert scheme.keys(_ext([], []))[0] == ["0-10", "10-50", "50-100", "100-250", "250-500", "500-inf"]

    byf = ByField("study_module")
    ev2 = response("s1", 100, "q1", ["k1"], True, study_module="pre-test")
    assert _row_labels(byf, [ev2, ev], [0, 0]) == ["pre-test", MISSING_KEY]


def test_assignment_covers_everything():
    scheme = ResponseIndex((0, 3, math.inf))
    ev = response("s1", 1, "q1", ["k1"], True)
    groups = _rows_by_partition(*scheme.keys(_ext([ev] * 200, range(200))))
    assert sum(rows.size for rows in groups.values()) == 200
    assert {key: rows.size for key, rows in groups.items()} == {"0-3": 3, "3-inf": 197}


def test_array_routing_matches_per_row_reference():
    rng = np.random.default_rng(4242)
    for trial in range(30):
        n = int(rng.integers(0, 120))
        events = [
            response("s1", j, f"q{rng.integers(5)}", ["k1"], True,
                     study_module=None if rng.random() < 0.3 else f"m{rng.integers(4)}")
            for j in range(n)
        ]
        ts = rng.integers(0, 60, size=n)
        # inner points up to 90 leave some intervals empty
        inner = sorted(int(x) for x in rng.choice(np.arange(1, 90), size=rng.integers(0, 6), replace=False))
        for scheme in (ResponseIndex((0, *inner, math.inf)), ByField("study_module"), ByField("question_id")):
            labels, codes = scheme.keys(_ext(events, ts))
            expected = {}
            for i, (ev, t) in enumerate(zip(events, ts)):
                expected.setdefault(assign_partition(scheme, ev, int(t)), []).append(i)
            got = _rows_by_partition(labels, codes)
            assert list(got) == sorted(expected), (trial, scheme)
            assert {k: v.tolist() for k, v in got.items()} == expected, (trial, scheme)
            assert set(labels) >= set(expected)


def _two_regime_students(n_students=40, per=30, flip=10):
    """Correctness flips meaning at response index `flip`."""
    students = {}
    for i in range(n_students):
        sid = f"s{i:03d}"
        events = []
        for j in range(per):
            easy = j % 2 == 0
            correct = easy if j < flip else not easy
            events.append(response(sid, 100 + 60 * j, f"q{j % 2}", ["k1"], correct))
        students[sid] = events
    return toy_dataset(students, name="regimes")


def test_fit_partitioned_beats_fallback_per_partition():
    ds = _two_regime_students()
    scheme = ResponseIndex((0, 10, math.inf))
    recipe = resolve("irt", ds.manifest).recipe
    cfg = TrainConfig(l2=1e-6)
    pm = fit_partitioned(tuple(ds.students), scheme, recipe, ds, cfg)
    assert set(pm.models) == {"0-10", "10-inf"}
    ext = build_matrix(ds, ds.students, pm.encoder)
    for key, lo, hi in (("0-10", 0, 10), ("10-inf", 10, 10**9)):
        rows = np.asarray([i for i, t in enumerate(ext.t) if lo <= t < hi])
        spec_nll = nll(pm.models[key].weights, ext.X[rows], ext.y[rows])
        fall_nll = nll(pm.fallback.weights, ext.X[rows], ext.y[rows])
        assert spec_nll < fall_nll


def test_empty_intervals_warn_and_route_to_fallback():
    ds = _two_regime_students(n_students=8, per=12, flip=6)
    scheme = ResponseIndex()
    recipe = resolve("pfa", ds.manifest).recipe
    pm = fit_partitioned(tuple(ds.students), scheme, recipe, ds, TrainConfig())
    # 8 students x 12 responses: 0-10 has 80 rows, 10-50 has 16, later intervals are empty
    assert list(pm.models) == ["0-10", "10-50"]
    assert pm.warnings == [f"partition {key}: no training examples, routed to fallback"
                           for key in ("50-100", "100-250", "250-500", "500-inf")]
    ev = response("s999", 100, "q1", ["k1"], True)
    ext = build_matrix(dataclasses.replace(ds, students={"s999": [ev]}), ["s999"], pm.encoder)
    routed = predict_routed_batch(pm, dataclasses.replace(ext, t=np.array([600])), scheme)  # empty 500-inf
    fallback = predict_proba_batch(pm.fallback, ext.X)
    assert routed.tobytes() == fallback.tobytes()


def test_single_class_partition_flagged():
    students = {}
    for i in range(6):
        sid = f"s{i}"
        # first 5 responses always correct, the rest mixed
        students[sid] = [
            response(sid, 50 * j, f"q{j % 3}", ["k1"], j < 5 or (i + j) % 2 == 0)
            for j in range(10)
        ]
    ds = toy_dataset(students, name="oneclass")
    scheme = ResponseIndex((0, 5, math.inf))
    recipe = resolve("pfa", ds.manifest).recipe
    pm = fit_partitioned(tuple(ds.students), scheme, recipe, ds, TrainConfig())
    assert "0-5" in pm.single_class
    assert "5-inf" not in pm.single_class


def _module_students(capabilities=("study_module",)):
    """Responses alternate between study modules a and b."""
    students = {
        f"s{i}": [
            response(f"s{i}", 60 * j, f"q{j % 4}", ["k1"], (i + j) % 2 == 0,
                     study_module="a" if j % 2 == 0 else "b")
            for j in range(12)
        ]
        for i in range(10)
    }
    return toy_dataset(students, name="mods", capabilities=capabilities)


def test_by_feature_unseen_value_routes_to_fallback():
    ds = _module_students()
    scheme = ByField("study_module")
    recipe = resolve("pfa", ds.manifest).recipe
    pm = fit_partitioned(tuple(ds.students), scheme, recipe, ds, TrainConfig())
    assert set(pm.models) == {"a", "b"}
    ev = response("s0", 9999, "q1", ["k1"], True, study_module="never-seen")
    ext = build_matrix(dataclasses.replace(ds, students={"sX": [ev]}), ["sX"], pm.encoder)
    routed = predict_routed_batch(pm, ext, scheme)
    assert routed.tobytes() == predict_proba_batch(pm.fallback, ext.X).tobytes()


def test_one_row_partition_stays_near_the_fallback():
    """A partition holding one response is fitted, shrunk toward the fallback."""
    students = {
        f"s{i}": [
            response(f"s{i}", 60 * j, f"q{j % 4}", ["k1"], (i + j) % 3 != 0,
                     study_module="rare" if (i, j) == (0, 5) else "ab"[j % 2])
            for j in range(12)
        ]
        for i in range(10)
    }
    ds = toy_dataset(students, name="mods", capabilities=("study_module",))
    recipe = resolve("best-lr", ds.manifest).recipe
    scheme = ByField("study_module")
    pm = fit_partitioned(tuple(ds.students), scheme, recipe, ds, TrainConfig())
    assert list(pm.models) == ["a", "b", "rare"] and pm.single_class == ("rare",)
    held_out = {f"t{i}": [response(f"t{i}", 60 * j, f"q{j % 4}", ["k1"], j % 2 == 0, study_module="rare")
                          for j in range(8)] for i in range(3)}
    ext = build_matrix(dataclasses.replace(ds, students=held_out), held_out, pm.encoder)
    fallback = predict_proba_batch(pm.fallback, ext.X)
    assert np.max(np.abs(predict_routed_batch(pm, ext, scheme) - fallback)) < 0.15
    # weights the row does not touch stay at the center: the fallback's, student block zeroed
    train = build_matrix(ds, ds.students, pm.encoder)
    row = [i for i, e in enumerate(train.events) if e.study_module == "rare"]
    center = pm.fallback.weights.copy()
    off, size = offset_of(pm.encoder, "student")
    center[off : off + size] = 0.0
    untouched = train.X[row].getnnz(axis=0) == 0
    assert np.array_equal(pm.models["rare"].weights[untouched], center[untouched])
    assert np.any(pm.fallback.weights[off : off + size])
    # without the shrinkage the one row's model is far from the fallback
    alone = fit(train.X[row], train.y[row], TrainConfig(), encoder=pm.encoder)
    assert np.max(np.abs(predict_proba_batch(alone, ext.X) - fallback)) > 0.3


def test_load_refuses_a_fit_stored_with_a_partition_floor(tmp_path):
    """Fold directories written before partition models were shrunk hold `min_partition`."""
    ds = _module_students()
    spec = PartitionedSpec("pfa", scheme=ByField("study_module"))
    spec.save(spec.fit_on(tuple(ds.students), ds, TrainConfig()), tmp_path)
    doc = json.loads((tmp_path / "fit.json").read_text())
    doc["spec"]["min_partition"] = 50
    (tmp_path / "fit.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match='"min_partition":50'):
        spec.load(tmp_path)


def test_undeclared_field_is_refused():
    ds = _module_students(capabilities=())
    recipe = resolve("pfa", ds.manifest).recipe
    with pytest.raises(ConfigError, match="by-feature:study_module needs the manifest flag 'study_module'"):
        fit_partitioned(tuple(ds.students), ByField("study_module"), recipe, ds, TrainConfig())
    with pytest.raises(ConfigError, match="'age_gender'"):
        PartitionedSpec("pfa", scheme=ByField("gender")).fit_on(tuple(ds.students), ds, TrainConfig())


def test_partitioned_beats_plain_after_regime_change():
    cfg = GeneratorConfig(seed=31, n_students=160, responses_per_student=80,
                          n_questions=30, regime_step=50)
    ds, _ = generate(cfg)
    folds = split_folds(ds, k=4, seed=31)
    train = tuple(folds.train_students(0))
    test = tuple(folds.students_in(0))
    tc = TrainConfig(l2=1e-6)

    plain = PlainSpec("irt")
    pp = plain.predict_on(plain.fit_on(train, ds, tc), test, ds)
    part = PartitionedSpec("irt", scheme=ResponseIndex((0, 50, math.inf)))
    rp = part.predict_on(part.fit_on(train, ds, tc), test, ds)

    late = pp.t >= 50
    assert auc(rp.probs[late], rp.labels[late]) > auc(pp.probs[late], pp.labels[late])


def test_partitioned_spec_in_cross_validation():
    ds, _ = generate(GeneratorConfig(seed=37, n_students=40, responses_per_student=25, n_questions=12))
    spec = PartitionedSpec("irt", scheme=ResponseIndex((0, 10, math.inf)))
    report = cross_validate(ds, spec, k=4, seed=37, config=TrainConfig(l2=0.01))
    assert report.spec == "irt@response-index"
    assert len(report.per_fold) == 4


def test_save_load_roundtrip(tmp_path):
    for ds, scheme in ((_two_regime_students(n_students=12, per=14, flip=7), ResponseIndex((0, 7, math.inf))),
                       (_module_students(), ByField("study_module"))):
        recipe = resolve("best-lr", ds.manifest).recipe
        pm = fit_partitioned(tuple(ds.students), scheme, recipe, ds, TrainConfig())
        out = tmp_path / scheme.kind
        spec = PartitionedSpec("best-lr", scheme=scheme)
        save_partitioned(pm, out, spec)
        assert [p.name for p in out.iterdir()] == ["fit.json"]
        again = spec.load(out)
        assert set(again.models) == set(pm.models)
        ext = build_matrix(ds, ds.students, pm.encoder)
        assert predict_routed_batch(again, ext, scheme).tobytes() == predict_routed_batch(pm, ext, scheme).tobytes()
        assert again.warnings == pm.warnings
