import dataclasses
import filecmp
import math

import numpy as np
import pytest

from oracle import brute_lags

from ktrace.core import ConfigError, DatasetManifest, EventKind, InteractionEvent
from ktrace.evaluate import PlainSpec, cross_validate
from ktrace.ingest import (
    Dataset,
    derive_lag_times,
    filter_students,
    load_events,
    read_manifest,
    split_folds,
)
from ktrace.regression import TrainConfig
from ktrace.synth import (
    GeneratorConfig,
    GroundTruth,
    bayes_auc,
    generate,
    load_ground_truth,
    true_probabilities,
    write_synth,
)

# frozen once from the seed-7 default configuration
BAYES_POOLED_SEED7 = 0.7708861563630224
BAYES_FOLDMEAN_SEED7 = 0.770395972281027


def test_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(n_students=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(n_kcs=10, n_questions=5)
    with pytest.raises(ConfigError):
        GeneratorConfig(regime_step=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(mean_gap_s=0.0)
    cfg = GeneratorConfig(modules=("a", "b"))
    assert GeneratorConfig.from_json(cfg.to_json()) == cfg


def test_plain_config_is_pure_irt():
    cfg = GeneratorConfig(seed=3, n_students=20, responses_per_student=15)
    ds, truth = generate(cfg)
    for sid, events in ds.students.items():
        for e, p in zip(events, truth.probs[sid]):
            z = truth.abilities[sid] - truth.difficulties[e.question_id]
            assert abs(p - 1.0 / (1.0 + math.exp(-z))) < 1e-15
    assert truth.difficulties_late is None
    assert ds.kc_graph is None


def test_empirical_mean_matches_expectation_seed7():
    ds, truth = generate(GeneratorConfig(seed=7))
    p, y = true_probabilities(ds, truth)
    assert y.size == 500 * 50
    assert abs(float(np.mean(y)) - float(np.mean(p))) < 0.02


def test_same_seed_identical_files(tmp_path):
    cfg = GeneratorConfig(seed=5, n_students=12, responses_per_student=8, modules=("m1", "m2"))
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_synth(*generate(cfg), a)
    write_synth(*generate(cfg), b)
    for name in ("events.csv", "manifest.json", "ground_truth.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_output_passes_ingest_cleanly(tmp_path):
    cfg = GeneratorConfig(
        seed=9, n_students=25, responses_per_student=30,
        modules=("pre", "main"), prereq_transfer=0.8,
    )
    ds, truth = generate(cfg)
    paths = write_synth(ds, truth, tmp_path)
    manifest, graph = read_manifest(paths["manifest"])
    loaded = dataclasses.replace(load_events(paths["events"], manifest), kc_graph=graph)
    loaded = filter_students(loaded, min_responses=10)
    loaded = derive_lag_times(loaded)
    assert loaded.n_students == 25
    assert all(v == 0 for v in loaded.quality.values()), loaded.quality
    # the walk's lags over the loaded events equal those over the generator's
    for sid in loaded.students:
        assert brute_lags(loaded.students[sid]) == brute_lags(ds.students[sid])


def test_lag_never_negative_by_construction():
    ds, _ = generate(GeneratorConfig(seed=13, n_students=40, mean_gap_s=90.0, mean_elapsed_s=600.0))
    assert derive_lag_times(ds).quality["negative_lag_clamped"] == 0
    for events in ds.students.values():
        lags = brute_lags(events)
        assert lags[0] is None
        for e, prev, lag in zip(events[1:], events, lags[1:]):
            assert lag is not None and lag >= 0.0
            assert lag == e.timestamp - (prev.timestamp + prev.elapsed_time_s)  # not clamped


def test_momentum_raises_post_success_rate():
    ds, _ = generate(GeneratorConfig(seed=11, momentum=1.0, n_students=150, responses_per_student=40))
    after = {True: [], False: []}
    for events in ds.students.values():
        for a, b in zip(events, events[1:]):
            after[bool(a.correct)].append(1.0 if b.correct else 0.0)
    assert np.mean(after[True]) > np.mean(after[False]) + 0.1


def test_prereq_transfer_signal_and_graph():
    cfg = GeneratorConfig(seed=21, prereq_transfer=1.0, n_students=50, responses_per_student=40)
    ds, truth = generate(cfg)
    assert ds.kc_graph is not None
    assert ds.manifest.allows("prereq_graph")
    assert ("kc000", "kc001") in ds.kc_graph.edges
    # on child-KC questions, the true probability grows with parent corrects
    sid = next(iter(ds.students))
    seen_boost = False
    parent_done = 0
    for e, p in zip(ds.students[sid], truth.probs[sid]):
        kc = e.kc_ids[0]
        if kc == "kc001" and parent_done >= 3:
            base = truth.abilities[sid] - truth.difficulties[e.question_id]
            assert p > 1.0 / (1.0 + math.exp(-base))
            seen_boost = True
        if kc == "kc000" and e.correct:
            parent_done += 1
    assert seen_boost


def test_regime_step_switches_difficulty_table():
    cfg = GeneratorConfig(seed=17, regime_step=5, n_students=10, responses_per_student=12)
    ds, truth = generate(cfg)
    assert truth.difficulties_late is not None
    sid = next(iter(ds.students))
    events = ds.students[sid]
    for t, (e, p) in enumerate(zip(events, truth.probs[sid])):
        table = truth.difficulties if t < 5 else truth.difficulties_late
        z = truth.abilities[sid] - table[e.question_id]
        assert abs(p - 1.0 / (1.0 + math.exp(-z))) < 1e-15


def test_bayes_auc_extremes():
    events = {
        "s1": [
            InteractionEvent(
                student_id="s1", timestamp=100 * i, kind=EventKind.QUESTION_RESPONSE,
                question_id=f"q{i}", kc_ids=("k1",), correct=(i % 2 == 0),
            )
            for i in range(6)
        ]
    }
    ds = Dataset(manifest=DatasetManifest.minimal("x"), students=events)
    cfg = GeneratorConfig(n_students=1)
    perfect = GroundTruth(
        config=cfg, abilities={}, difficulties={}, difficulties_late=None,
        module_offsets={}, probs={"s1": [1.0 if i % 2 == 0 else 0.0 for i in range(6)]},
    )
    assert bayes_auc(ds, perfect) == 1.0
    flat = GroundTruth(
        config=cfg, abilities={}, difficulties={}, difficulties_late=None,
        module_offsets={}, probs={"s1": [0.5] * 6},
    )
    assert bayes_auc(ds, flat) == 0.5


def test_bayes_auc_seed7_pinned():
    ds, truth = generate(GeneratorConfig(seed=7))
    assert abs(bayes_auc(ds, truth) - BAYES_POOLED_SEED7) < 1e-12
    folds = split_folds(ds, k=5, seed=7)
    assert abs(bayes_auc(ds, truth, folds) - BAYES_FOLDMEAN_SEED7) < 1e-12


def test_truth_mismatch_raises():
    ds, truth = generate(GeneratorConfig(seed=1, n_students=5, responses_per_student=6))
    truth.probs["s00000"] = truth.probs["s00000"][:-1]
    with pytest.raises(ConfigError):
        true_probabilities(ds, truth)


def test_ground_truth_roundtrip(tmp_path):
    ds, truth = generate(GeneratorConfig(seed=2, n_students=4, responses_per_student=5))
    paths = write_synth(ds, truth, tmp_path)
    again = load_ground_truth(paths["ground_truth"])
    assert again.config == truth.config
    assert again.probs == truth.probs
    assert again.abilities == truth.abilities


def test_no_model_beats_bayes():
    ds, truth = generate(GeneratorConfig(seed=23, n_students=80, responses_per_student=30))
    folds = split_folds(ds, k=4, seed=23)
    report = cross_validate(ds, PlainSpec("irt"), folds=folds, config=TrainConfig(l2=1e-6))
    assert report.auc_mean <= bayes_auc(ds, truth, folds) + 0.005
