"""Acceptance suite: one test and one printed verdict line per criterion.

Each criterion is checked at its stated tolerance and runtime budget on
pinned seeds.  Run with -s to see the verdict lines for passing tests.
"""

import filecmp
import json
import os
import time

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from oracle import nll, nll_and_gradient, pairwise_auc
from test_features import FULL, full_recipe, oracle_rows, _random_full_students

from ktrace import features, regression
from ktrace.cli import main as cli_main
from ktrace.combine import CombinedSpec
from ktrace.core import KCGraph
from ktrace.evaluate import PlainSpec, auc, cross_validate
from ktrace.features import FeatureFamily as F
from ktrace.features import Recipe
from ktrace.ingest import Dataset, split_folds
from ktrace.recipes import resolve
from ktrace.regression import TrainConfig
from ktrace.specialize import PartitionedSpec
from ktrace.synth import GeneratorConfig, generate

# Oracle values recorded once from the pinned seed-7 generator run.
BAYES_FOLDMEAN_SEED7 = 0.770395972281027
MARGINAL_BAYES_FOLDMEAN_SEED7 = 0.6552602280519731

CV_CONFIG = TrainConfig()


def _verdict(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _pure_irt_run():
    ds, truth = generate(GeneratorConfig(seed=7))
    folds = split_folds(ds, k=5, seed=7)
    return ds, truth, folds


# ---------------------------------------------------------------------------
# 1. analytic gradient vs central finite differences


def _gradient_instances(rng):
    """Datasets plus the feature families each one supports."""
    common = [
        F("student"), F("question"), F("kc"),
        F("counts", "total"), F("counts", "kc"), F("counts", "question"),
        F("tw_counts", "total"), F("tw_counts", "kc"), F("tw_counts", "question"),
        F("elapsed_time", "current"), F("elapsed_time", "prior"),
        F("lag_time", "current"), F("lag_time", "prior"),
        F("datetime", "month"), F("datetime", "week"),
        F("datetime", "day"), F("datetime", "hour"),
        F("smoothed_avg_correct"), F("response_pattern"),
    ]
    pool = []
    ds, _ = generate(GeneratorConfig(
        seed=101, n_students=40, n_questions=18, n_kcs=4,
        responses_per_student=25, modules=("m1", "m2"), momentum=0.5,
    ))
    pool.append((ds, common + [F("study_module"), F("study_module_counts")]))
    ds, _ = generate(GeneratorConfig(
        seed=102, n_students=30, n_questions=15, n_kcs=5,
        responses_per_student=20, prereq_transfer=0.8,
    ))
    pool.append((ds, common + [F("prereq_ids"), F("prereq_counts"),
                               F("postreq_ids"), F("postreq_counts")]))
    ds, _ = generate(GeneratorConfig(
        seed=103, n_students=25, n_questions=12, n_kcs=3,
        responses_per_student=30, mean_gap_s=900.0,
    ))
    pool.append((ds, list(common)))
    return pool


def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(20260801)
    pool = _gradient_instances(rng)
    step = 1e-5
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(200):
        ds, fams = pool[rng.integers(len(pool))]
        picked = [fams[i] for i in rng.choice(len(fams), size=int(rng.integers(1, 9)),
                                              replace=False)]
        sids = sorted(ds.students)
        take = rng.choice(len(sids), size=int(rng.integers(5, len(sids))), replace=False)
        students = [sids[i] for i in take]
        while True:
            recipe = Recipe(families=(F("bias"), *picked))
            enc = features.fit_encoders(ds, students, recipe)
            if enc.dim <= 1500:  # room for response_pattern's 1,024 columns
                break
            picked.pop(int(rng.integers(len(picked))))
        ex = features.build_matrix(ds, students, enc)
        dim = enc.dim
        w = np.zeros(dim) if rng.random() < 0.1 else rng.normal(0.0, 0.4, dim)
        l2 = float(rng.choice([0.0, 1e-3, 0.1, 1.0]))
        mask = regression.reg_mask_for(enc) if rng.random() < 0.5 else None
        _, grad = nll_and_gradient(w, ex.X, ex.y, l2, mask)
        fd = np.zeros(dim)
        for j in range(dim):
            wp = w.copy(); wp[j] += step
            wm = w.copy(); wm[j] -= step
            fd[j] = (nll(wp, ex.X, ex.y, l2, mask) - nll(wm, ex.X, ex.y, l2, mask)) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0)
        worst = max(worst, rel)
    dt = time.perf_counter() - t0
    _verdict(1, "gradient vs central differences", worst < 1e-6 and dt < 60,
             f"200 instances, max rel err {worst:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. rank-based AUC vs pairwise counting


def test_criterion_2_auc_matches_pairwise_counting():
    rng = np.random.default_rng(20260802)
    t0 = time.perf_counter()
    worst = 0.0
    cases = []
    cases.append((np.full(700, 0.3), (np.arange(700) % 3 == 0).astype(float)))
    single = np.concatenate([rng.uniform(size=999), [0.25]])
    y_single = np.concatenate([np.ones(500), np.zeros(500)])
    single[499] = 0.25
    cases.append((single, y_single))
    while len(cases) < 200:
        n = int(rng.integers(2, 2001))
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        if y.min() == y.max():
            continue
        mode = rng.integers(3)
        if mode == 0:
            p = rng.uniform(size=n)
        elif mode == 1:
            p = rng.choice(rng.uniform(size=int(rng.integers(1, 18))), size=n)
        else:
            p = np.round(rng.uniform(size=n), 1)
        cases.append((p, y))
    for p, y in cases:
        worst = max(worst, abs(auc(p, y) - pairwise_auc(p, y)))
    dt = time.perf_counter() - t0
    _verdict(2, "AUC vs pairwise oracle", worst < 1e-12 and dt < 60,
             f"200 instances incl. all-tied and single-tie, max abs diff {worst:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 3. feature state vs brute-force recomputation at every prefix


def test_criterion_3_feature_oracle_full_scale():
    rng = np.random.default_rng(20260803)
    graph = KCGraph("kc", [("k0", "k1"), ("k1", "k2"), ("k0", "k3")])
    students = _random_full_students(rng, n_students=100, max_events=500)
    enc = features.fit_encoders(Dataset(FULL, students, graph), students, full_recipe())
    t0 = time.perf_counter()
    checked = 0
    for sid, i, problems in oracle_rows(students, enc, graph):
        assert not problems, f"{sid} event {i}: " + "; ".join(problems[:4])
        checked += 1
    dt = time.perf_counter() - t0
    _verdict(3, "feature oracle at every prefix", checked > 10_000 and dt < 300,
             f"{len(students)} students, {checked} prefixes, every family exact, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 4. IRT recovery against the pinned bayes reference


def _marginal_irt_bayes_foldmean(ds, truth, folds):
    """AUC of ability-marginalized true probabilities, averaged over folds.

    Folding is by student, so a fair reference for a fitted model must
    not use the held-out student's own ability; it is integrated out
    over its generating N(0, scale^2) prior instead.
    """
    nodes, wts = hermegauss(64)
    wts = wts / wts.sum()
    scale = truth.config.ability_scale
    marginal = {
        q: float(np.sum(wts / (1.0 + np.exp(-(scale * nodes - d)))))
        for q, d in truth.difficulties.items()
    }
    fold_aucs = []
    for i in range(folds.k):
        probs, labels = [], []
        for sid in folds.students_in(i):
            for ev in ds.students[sid]:
                if ev.is_response():
                    probs.append(marginal[ev.question_id])
                    labels.append(1.0 if ev.correct else 0.0)
        fold_aucs.append(auc(np.asarray(probs), np.asarray(labels)))
    return float(np.mean(fold_aucs))


def test_criterion_4_irt_recovery():
    t0 = time.perf_counter()
    ds, truth, folds = _pure_irt_run()
    reference = _marginal_irt_bayes_foldmean(ds, truth, folds)
    assert abs(reference - MARGINAL_BAYES_FOLDMEAN_SEED7) < 1e-9
    report = cross_validate(ds, PlainSpec("irt"), folds=folds, config=CV_CONFIG, jobs=5)
    ok = report.auc_mean >= MARGINAL_BAYES_FOLDMEAN_SEED7 - 0.01
    ceiling = report.auc_mean <= BAYES_FOLDMEAN_SEED7 + 0.005
    dt = time.perf_counter() - t0
    _verdict(4, "IRT recovery vs pinned oracle", ok and ceiling and dt < 120,
             f"cv auc {report.auc_mean:.4f} vs marginal bayes {MARGINAL_BAYES_FOLDMEAN_SEED7:.4f} - 0.01, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 5. feature-value detection on targeted generators


def test_criterion_5_momentum_detection():
    t0 = time.perf_counter()
    ds, _ = generate(GeneratorConfig(
        seed=7, momentum=1.0, momentum_cap=2, n_students=250,
        n_questions=25, responses_per_student=50,
    ))
    folds = split_folds(ds, k=5, seed=7)
    base = cross_validate(ds, PlainSpec("best-lr"), folds=folds, config=CV_CONFIG, jobs=5)
    plus = cross_validate(ds, PlainSpec("best-lr+"), folds=folds, config=CV_CONFIG, jobs=5)
    gain = plus.auc_mean - base.auc_mean
    dt = time.perf_counter() - t0
    _verdict(5, "momentum detected by best-lr+", gain >= 0.005 and dt < 300,
             f"best-lr {base.auc_mean:.4f} best-lr+ {plus.auc_mean:.4f} gain {gain:+.4f}, {dt:.1f}s")


def test_criterion_5_prereq_detection():
    t0 = time.perf_counter()
    ds, _ = generate(GeneratorConfig(
        seed=7, prereq_transfer=1.0, n_students=250, n_questions=25,
        n_kcs=8, responses_per_student=50,
    ))
    folds = split_folds(ds, k=5, seed=7)
    base = cross_validate(ds, PlainSpec("best-lr"), folds=folds, config=CV_CONFIG, jobs=5)
    plus = cross_validate(ds, PlainSpec("best-lr", extras=(F("prereq_counts"),)),
                          folds=folds, config=CV_CONFIG, jobs=5)
    gain = plus.auc_mean - base.auc_mean
    dt = time.perf_counter() - t0
    _verdict(5, "prerequisite transfer detected", gain >= 0.005 and dt < 300,
             f"best-lr {base.auc_mean:.4f} +prereq_counts {plus.auc_mean:.4f} gain {gain:+.4f}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 6. cold-start shape under a regime change


def test_criterion_6_partitioning_fixes_cold_start():
    t0 = time.perf_counter()
    ds, _ = generate(GeneratorConfig(
        seed=7, regime_step=50, n_students=250, n_questions=25,
        responses_per_student=120,
    ))
    folds = split_folds(ds, k=5, seed=7)
    plain = cross_validate(ds, PlainSpec("irt"), folds=folds, config=CV_CONFIG, jobs=5)
    part = cross_validate(ds, PartitionedSpec("irt"), folds=folds, config=CV_CONFIG, jobs=5)
    pb, qb = plain.buckets[0], part.buckets[0]
    assert pb["bucket"] == qb["bucket"] == "0-10"
    gain = qb["auc"] - pb["auc"]
    dt = time.perf_counter() - t0
    _verdict(6, "cold-start bucket gain from partitioning", gain >= 0.005 and dt < 300,
             f"0-10 bucket auc plain {pb['auc']:.4f} partitioned {qb['auc']:.4f} gain {gain:+.4f}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 7. stacked combination sanity


def test_criterion_7_stacking_sanity():
    t0 = time.perf_counter()
    ds, _ = generate(GeneratorConfig(
        seed=7, momentum=1.5, n_students=200, n_questions=25,
        responses_per_student=50,
    ))
    folds = split_folds(ds, k=5, seed=7)
    sees_difficulty = PlainSpec("irt")
    sees_recency = PlainSpec("pfa", extras=(F("response_pattern"),))
    ra = cross_validate(ds, sees_difficulty, folds=folds, config=CV_CONFIG, jobs=5)
    rb = cross_validate(ds, sees_recency, folds=folds, config=CV_CONFIG, jobs=5)
    rc = cross_validate(ds, CombinedSpec(bases=(sees_difficulty, sees_recency), seed=7),
                        folds=folds, config=CV_CONFIG, jobs=5)
    margin = rc.auc_mean - max(ra.auc_mean, rb.auc_mean)
    rd = cross_validate(ds, CombinedSpec(bases=(sees_difficulty, PlainSpec("irt")), seed=7),
                        folds=folds, config=CV_CONFIG, jobs=5)
    dup_diff = abs(rd.auc_mean - ra.auc_mean)
    dt = time.perf_counter() - t0
    _verdict(7, "stacking sanity", margin >= -0.002 and dup_diff <= 1e-6 and dt < 300,
             f"combined {rc.auc_mean:.4f} vs max base {max(ra.auc_mean, rb.auc_mean):.4f} "
             f"(margin {margin:+.4f}), duplicate-base diff {dup_diff:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 8. byte-identical reports across worker counts


def test_criterion_8_jobs_invariant_reports(tmp_path):
    t0 = time.perf_counter()
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert cli_main(["generate", "--out", str(raw), "--seed", "11", "--students", "60",
                     "--questions", "20", "--responses", "30"]) == 0
    assert cli_main(["prepare", "--input", str(raw / "events.csv"),
                     "--manifest", str(raw / "manifest.json"),
                     "--out", str(prep), "--folds", "4", "--seed", "11"]) == 0
    for jobs, name in (("1", "a.json"), ("4", "b.json")):
        assert cli_main(["train-eval", "--data", str(prep), "--recipe", "pfa",
                         "--jobs", jobs, "--report", str(tmp_path / name)]) == 0
    same = filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)
    dt = time.perf_counter() - t0
    _verdict(8, "determinism across --jobs", same and dt < 120,
             f"reports byte-identical for --jobs 1 vs 4, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 9. optional large-scale reproduction (excluded from CI)


@pytest.mark.skipif(
    not os.environ.get("KTRACE_JUNYI15_DIR"),
    reason="set KTRACE_JUNYI15_DIR to a prepared junyi15 dataset directory",
)
def test_criterion_9_junyi15_reproduction():
    from ktrace.ingest import load_prepared

    data_dir = os.environ["KTRACE_JUNYI15_DIR"]
    ds, folds = load_prepared(data_dir)
    if folds.k != 5:
        folds = split_folds(ds, k=5, seed=0)
    base = cross_validate(ds, PlainSpec("best-lr"), folds=folds, config=CV_CONFIG, jobs=5)
    plus = cross_validate(ds, PlainSpec("best-lr+"), folds=folds, config=CV_CONFIG, jobs=5)
    ok = abs(base.auc_mean - 0.762) <= 0.010 and abs(plus.auc_mean - 0.789) <= 0.010
    _verdict(9, "junyi15 reproduction", ok,
             f"best-lr {base.auc_mean:.4f} (want 0.762±0.010), "
             f"best-lr+ {plus.auc_mean:.4f} (want 0.789±0.010)")
