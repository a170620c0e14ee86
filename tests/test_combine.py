import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from ktrace.cli import save_fitted
from ktrace.combine import (
    CombinationError,
    CombinedSpec,
    fit_combined,
    predict_combined,
    select_bases,
)
from ktrace.core import ConfigError, FoldAssignment, canonical_json
from ktrace.evaluate import PlainSpec, auc, cross_validate
from ktrace.features import F
from ktrace.ingest import split_folds
from ktrace.regression import TrainConfig
from ktrace.specialize import ByField, PartitionedSpec, ResponseIndex
from ktrace.synth import GeneratorConfig, generate

CFG = TrainConfig(l2=1e-4)


def _irt_data(seed=41, n_students=60, per=25):
    ds, _ = generate(GeneratorConfig(seed=seed, n_students=n_students,
                                     responses_per_student=per, n_questions=15))
    folds = split_folds(ds, k=4, seed=seed)
    train = tuple(folds.train_students(0))
    test = tuple(folds.students_in(0))
    return ds, folds, train, test


def test_needs_two_bases():
    ds, _, train, _ = _irt_data()
    with pytest.raises(ConfigError):
        fit_combined(train, [PlainSpec("irt")], ds, CFG)
    with pytest.raises(ConfigError):
        CombinedSpec(bases=(PlainSpec("irt"),))


def test_identical_bases_match_single_base():
    ds, _, train, test = _irt_data()
    single = PlainSpec("irt")
    pred_single = single.predict_on(single.fit_on(train, ds, CFG), test, ds)
    bases = [PlainSpec("irt"), PlainSpec("irt")]
    pred_comb = predict_combined(fit_combined(train, bases, ds, CFG, seed=3), bases, test, ds)
    assert abs(auc(pred_comb.probs, pred_comb.labels) - auc(pred_single.probs, pred_single.labels)) < 1e-6


class ComplementSpec:
    """Wraps a spec and emits 1 - p, for the monotone-invariance check."""

    def __init__(self, inner):
        self.inner = inner
        self.label = f"complement({inner.label})"

    def fit_on(self, student_ids, dataset, config):
        return self.inner.fit_on(student_ids, dataset, config)

    def predict_on(self, fitted, student_ids, dataset):
        pred = self.inner.predict_on(fitted, student_ids, dataset)
        return type(pred)(probs=1.0 - pred.probs, labels=pred.labels, t=pred.t)


def test_base_plus_complement_keeps_auc():
    ds, _, train, test = _irt_data()
    base = PlainSpec("irt")
    pred_single = base.predict_on(base.fit_on(train, ds, CFG), test, ds)
    bases = [base, ComplementSpec(PlainSpec("irt"))]
    pred = predict_combined(fit_combined(train, bases, ds, CFG, seed=5), bases, test, ds)
    assert abs(auc(pred.probs, pred.labels) - auc(pred_single.probs, pred_single.labels)) < 1e-6


def test_complementary_signals_not_worse_than_best_base():
    ds, _, train, test = _irt_data(seed=43)
    dm, _ = generate(GeneratorConfig(seed=43, momentum=1.5, n_students=80,
                                     responses_per_student=30, n_questions=15))
    folds = split_folds(dm, k=4, seed=43)
    train = tuple(folds.train_students(0))
    test = tuple(folds.students_in(0))
    sees_difficulty = PlainSpec("irt")
    sees_recency = PlainSpec("pfa", extras=(F("response_pattern"),))
    base_aucs = []
    for spec in (sees_difficulty, sees_recency):
        pred = spec.predict_on(spec.fit_on(train, dm, CFG), test, dm)
        base_aucs.append(auc(pred.probs, pred.labels))
    bases = [sees_difficulty, sees_recency]
    pred = predict_combined(fit_combined(train, bases, dm, CFG, seed=7), bases, test, dm)
    assert auc(pred.probs, pred.labels) >= max(base_aucs) - 0.002


class BoomSpec:
    label = "boom"

    def fit_on(self, *a, **kw):
        raise RuntimeError("nope")

    def predict_on(self, *a, **kw):
        raise RuntimeError("nope")


def test_failing_base_named():
    ds, folds, train, _ = _irt_data()
    with pytest.raises(CombinationError, match="boom"):
        fit_combined(train, [PlainSpec("irt"), BoomSpec()], ds, CFG)
    for cands in ([PlainSpec("irt"), BoomSpec()], [BoomSpec()]):
        with pytest.raises(CombinationError, match="boom"):
            select_bases(cands, ds, folds, CFG)


def test_combined_spec_cross_validates():
    ds, _ = generate(GeneratorConfig(seed=47, n_students=40, responses_per_student=20, n_questions=10))
    spec = CombinedSpec(bases=(PlainSpec("irt"), PlainSpec("pfa")), seed=11)
    report = cross_validate(ds, spec, k=4, seed=47, config=CFG)
    assert report.spec == "combined(irt+pfa)"
    assert len(report.per_fold) == 4
    assert 0.4 < report.auc_mean <= 1.0


class NoiseSpec:
    """Predictions unrelated to the data."""

    label = "noise"

    def __init__(self, seed=99):
        self.seed = seed

    def fit_on(self, student_ids, dataset, config):
        return None

    def predict_on(self, fitted, student_ids, dataset):
        # reuse extraction only for labels and ordering
        from ktrace import features
        from ktrace.evaluate import FoldPrediction
        from ktrace.recipes import resolve

        enc = features.fit_encoders(dataset, student_ids, resolve("irt", dataset.manifest).recipe)
        ext = features.build_matrix(dataset, student_ids, enc)
        rng = np.random.default_rng(self.seed)
        return FoldPrediction(probs=rng.random(ext.y.size), labels=ext.y, t=ext.t)


class CountingSpec:
    """Wraps a spec and counts its fit_on and predict_on calls."""

    def __init__(self, inner, counts):
        self.inner = inner
        self.label = inner.label
        self.counts = counts

    def fit_on(self, student_ids, dataset, config):
        self.counts["fit_on"] += 1
        return self.inner.fit_on(student_ids, dataset, config)

    def predict_on(self, fitted, student_ids, dataset):
        self.counts["predict_on"] += 1
        return self.inner.predict_on(fitted, student_ids, dataset)


def test_select_bases_examples():
    ds, folds, _, _ = _irt_data(seed=53, n_students=50, per=20)
    # one candidate -> that singleton
    res = select_bases([PlainSpec("irt")], ds, folds, CFG)
    assert res.chosen == (0,)
    assert len(res.table) == 1

    # noise candidate is not selected
    res2 = select_bases([PlainSpec("irt"), NoiseSpec()], ds, folds, CFG, seed=1)
    assert res2.chosen == (0,)
    assert len(res2.table) == 3

    with pytest.raises(ConfigError):
        select_bases([PlainSpec("irt")] * 13, ds, folds, CFG)


def test_select_bases_subset_count():
    ds, folds, _, _ = _irt_data(seed=59, n_students=40, per=15)
    counts = Counter()
    cands = [CountingSpec(s, counts)
             for s in (PlainSpec("irt"), PlainSpec("pfa"), NoiseSpec(1), NoiseSpec(2))]
    res = select_bases(cands, ds, folds, CFG, seed=2)
    assert len(res.table) == 15  # 2^4 - 1
    assert set(res.chosen) <= {0, 1, 2, 3}
    # each candidate is fitted on the meta split and on all of fold 1's training students
    assert counts == {"fit_on": 8, "predict_on": 8}


def _select_from_scratch(candidates, ds, folds, config, seed):
    """Reference selection: fit every subset from scratch, as fit_combined does."""
    train = tuple(folds.train_students(0))
    test = tuple(folds.students_in(0))
    table, best, best_auc = [], None, -1.0
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(range(len(candidates)), size):
            specs = [candidates[i] for i in subset]
            if size == 1:
                pred = specs[0].predict_on(specs[0].fit_on(train, ds, config), test, ds)
            else:
                pred = predict_combined(fit_combined(train, specs, ds, config, seed=seed), specs, test, ds)
            score = auc(pred.probs, pred.labels)
            table.append({"subset": list(subset), "labels": [s.label for s in specs], "auc": score})
            if score > best_auc:
                best, best_auc = subset, score
    return table, best, best_auc


def test_select_bases_matches_fitting_every_subset():
    ds, folds, _, _ = _irt_data(seed=71, n_students=48, per=20)
    cands = [
        PlainSpec("irt"),
        PartitionedSpec("pfa", scheme=ResponseIndex((0, 8, math.inf))),
        PlainSpec("pfa"),
        NoiseSpec(3),
    ]
    table, best, best_auc = _select_from_scratch(cands, ds, folds, CFG, seed=5)
    res = select_bases(cands, ds, folds, CFG, seed=5)
    assert res.table == table
    assert res.chosen == best
    assert res.best_auc == best_auc


class TrackingFolds(FoldAssignment):
    """Records which folds are touched."""

    def __init__(self, inner: FoldAssignment):
        super().__init__(k=inner.k, seed=inner.seed, folds=dict(inner.folds))
        object.__setattr__(self, "touched", [])

    def students_in(self, fold):
        self.touched.append(fold)
        return super().students_in(fold)

    def train_students(self, fold):
        self.touched.append(fold)
        return super().train_students(fold)


def test_select_bases_touches_only_first_fold():
    ds, folds, _, _ = _irt_data(seed=61, n_students=30, per=12)
    tracking = TrackingFolds(folds)
    select_bases([PlainSpec("irt"), PlainSpec("pfa")], ds, tracking, CFG)
    assert set(tracking.touched) == {0}


ROUNDTRIP_SPECS = {
    "plain": PlainSpec("irt", extras=(F("counts", "total"),)),
    "partitioned": PartitionedSpec("pfa", scheme=ResponseIndex((0, 10, math.inf))),
    "combined": CombinedSpec(
        (PlainSpec("irt"),
         PartitionedSpec("pfa", scheme=ResponseIndex((0, 10, math.inf)))),
        seed=13,
    ),
}


@pytest.mark.parametrize("kind, spec", [
    *ROUNDTRIP_SPECS.items(),
    ("partitioned", PartitionedSpec("pfa", scheme=ByField("question_id"))),
], ids=[*ROUNDTRIP_SPECS, "by-feature"])
def test_save_load_roundtrip(kind, spec, tmp_path):
    """Every spec kind stores its fit as one document, `fit.json`, and
    reloads a fit that writes the same document and predicts the same bytes."""
    obj = json.loads(canonical_json(spec.to_json()))
    assert type(spec).from_json(obj) == spec and obj["kind"] == kind
    ds, folds, train, test = _irt_data(seed=67, n_students=40, per=20)
    fitted = spec.fit_on(train, ds, CFG)
    save_fitted(fitted, tmp_path / "m", spec)
    assert [p.name for p in (tmp_path / "m").iterdir()] == ["fit.json"]
    text = (tmp_path / "m" / "fit.json").read_text()
    assert text == canonical_json({"spec": spec.to_json(), "fit": fitted.to_json()})
    again = spec.load(tmp_path / "m")
    assert canonical_json(again.to_json()) == canonical_json(fitted.to_json())
    a = spec.predict_on(fitted, test, ds)
    b = spec.predict_on(again, test, ds)
    assert a.probs.tobytes() == b.probs.tobytes()


def test_plain_load_refuses_another_recipes_fit(tmp_path):
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    save_fitted(PlainSpec("pfa").fit_on(train, ds, CFG), tmp_path, PlainSpec("pfa"))
    with pytest.raises(ConfigError, match=r'fit of spec .*"recipe":"pfa".*not of .*"recipe":"irt"'):
        PlainSpec("irt").load(tmp_path)


@pytest.mark.parametrize("key, value", [("n_recent", 10), ("eta", 5.0), ("windows_days", [1.0, "inf"])])
def test_plain_load_refuses_a_recipe_with_removed_parameters(tmp_path, key, value):
    """A model directory whose recipe still holds a time window, pattern length
    or smoothing weight key (fixed constants now) does not load."""
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    save_fitted(PlainSpec("irt").fit_on(train, ds, CFG), tmp_path, PlainSpec("irt"))
    path = tmp_path / "fit.json"
    doc = json.loads(path.read_text())
    doc["fit"]["encoder"]["recipe"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"recipe keys '{key}' are not read"):
        PlainSpec("irt").load(tmp_path)


def test_partitioned_load_refuses_other_splitpoints(tmp_path):
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    stored = PartitionedSpec("irt", scheme=ResponseIndex((0, 5, math.inf)))
    save_fitted(stored.fit_on(train, ds, CFG), tmp_path, stored)
    wanted = PartitionedSpec("irt", scheme=ResponseIndex((0, 10, math.inf)))
    with pytest.raises(ConfigError, match=r'fit of spec .*\[0,5,"inf"\].*not of .*\[0,10,"inf"\]'):
        wanted.load(tmp_path)


def test_unknown_base_kind_fails_with_a_config_error(tmp_path):
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    spec = CombinedSpec((PlainSpec("irt"), PlainSpec("pfa")))
    save_fitted(spec.fit_on(train, ds, CFG), tmp_path, spec)
    doc = json.loads((tmp_path / "fit.json").read_text())
    doc["spec"]["bases"][1]["kind"] = "combined"
    with pytest.raises(ConfigError, match="unknown base spec kind 'combined'"):
        CombinedSpec.from_json(doc["spec"])


@pytest.mark.parametrize("kind", list(ROUNDTRIP_SPECS))
def test_a_fit_stores_nothing_its_spec_holds(kind, tmp_path):
    """A partitioned fit holds no scheme, a stack's bases are bare fits, and
    no encoder holds its blocks or dimension, which follow from its vocabularies."""
    spec = ROUNDTRIP_SPECS[kind]
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    save_fitted(spec.fit_on(train, ds, CFG), tmp_path, spec)
    fit = json.loads((tmp_path / "fit.json").read_text())["fit"]
    bases = fit["bases"] if kind == "combined" else [fit]
    assert len(bases) == len(getattr(spec, "bases", [spec]))
    for base in bases:
        assert not {"scheme", "spec"} & set(base) and "encoder" in base
        assert not {"blocks", "dim"} & set(base["encoder"])


def _write_multi_file_layout(spec, fitted, out) -> None:
    """The files a fold directory held before fits were one document."""
    out.mkdir()
    (out / "spec.json").write_text(canonical_json(spec.to_json()))
    if isinstance(spec, CombinedSpec):
        (out / "combined.json").write_text(canonical_json({"kind": "combined_model", "bases": []}))
        (out / "meta.json").write_text(canonical_json(fitted.meta.to_json()))
        return
    if isinstance(spec, PartitionedSpec):
        (out / "partitioned.json").write_text(canonical_json({"kind": "partitioned_model"}))
        encoder, model = fitted.encoder, fitted.fallback
        name = "fallback.json"
    else:
        encoder, model = fitted
        name = "model.json"
    (out / "encoder.json").write_text(canonical_json(encoder.to_json()))
    (out / name).write_text(canonical_json(model.to_json()))


@pytest.mark.parametrize("kind", list(ROUNDTRIP_SPECS))
def test_a_directory_of_the_multi_file_layout_does_not_load(kind, tmp_path):
    spec = ROUNDTRIP_SPECS[kind]
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    _write_multi_file_layout(spec, spec.fit_on(train, ds, CFG), tmp_path / "old")
    with pytest.raises(ConfigError, match="holds no fit.json"):
        spec.load(tmp_path / "old")


def _stacked_bases_with_their_specs(fit, spec):
    """The layout before a stack's bases were bare fits: each base with its spec."""
    fit["bases"] = [{"spec": s.to_json(), "fit": b} for s, b in zip(spec.bases, fit["bases"])]


def _one_base_too_few(fit, spec):
    fit["bases"].pop()


def _no_encoder(fit, spec):
    del fit["encoder"]


@pytest.mark.parametrize("kind, rewrite", [
    ("combined", _stacked_bases_with_their_specs),
    ("combined", _one_base_too_few),
    ("plain", _no_encoder),
], ids=["combined-old-stacked-layout", "combined-bases-of-wrong-length", "plain-without-encoder"])
def test_a_fit_of_another_layout_fails_with_a_config_error_naming_the_document(kind, rewrite, tmp_path):
    spec = ROUNDTRIP_SPECS[kind]
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    save_fitted(spec.fit_on(train, ds, CFG), tmp_path, spec)
    doc = json.loads((tmp_path / "fit.json").read_text())
    rewrite(doc["fit"], spec)
    (tmp_path / "fit.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"fit\.json holds a fit this version does not read .*; refit"):
        spec.load(tmp_path)


@pytest.mark.parametrize("kind, path", [
    ("plain", ("model",)),
    ("partitioned", ("fallback",)),
    ("partitioned", ("models", "0-10")),
    ("combined", ("bases", 1, "fallback")),
], ids=["plain-model", "partitioned-fallback", "partitioned-part", "combined-base-fallback"])
def test_a_model_whose_dim_is_not_its_encoders_does_not_load(kind, path, tmp_path):
    spec = ROUNDTRIP_SPECS[kind]
    ds, _, train, _ = _irt_data(seed=67, n_students=30, per=12)
    save_fitted(spec.fit_on(train, ds, CFG), tmp_path, spec)
    doc = json.loads((tmp_path / "fit.json").read_text())
    model = doc["fit"]
    for step in path:
        model = model[step]
    model["dim"] += 1
    (tmp_path / "fit.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"model has dim \d+, but its encoder has dim \d+"):
        spec.load(tmp_path)
