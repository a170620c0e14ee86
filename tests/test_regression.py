import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import response
from oracle import nll, nll_and_gradient, offset_of, reference_fit, scipy_csr

from ktrace.combine import _meta_inputs
from ktrace.core import ConfigError, DatasetManifest
from ktrace.features import Csr, F, Recipe, build_matrix, fit_encoders
from ktrace.ingest import Dataset
from ktrace import regression
from ktrace.recipes import resolve
from ktrace.evaluate import PlainSpec
from ktrace.regression import (
    Model,
    PlainFit,
    TrainConfig,
    TrainingDivergenceError,
    fit,
    predict_proba_batch,
    reg_mask_for,
    save_model,
)
from ktrace.synth import GeneratorConfig, generate

LN2 = 0.6931471805599453


def test_nll_single_example_at_zero():
    X = sp.csr_matrix(np.array([[1.0, 1.0]]))
    for y in (0.0, 1.0):
        assert abs(nll(np.zeros(2), X, np.array([y])) - LN2) < 1e-15


def test_gradient_single_example_at_zero():
    X = sp.csr_matrix(np.array([[1.0, 1.0, 0.0]]))
    _, g = nll_and_gradient(np.zeros(3), X, np.array([1.0]))
    assert np.allclose(g, [-0.5, -0.5, 0.0], atol=1e-15)
    _, g = nll_and_gradient(np.zeros(3), X, np.array([0.0]))
    assert np.allclose(g, [0.5, 0.5, 0.0], atol=1e-15)


def test_gradient_matches_central_differences(rng):
    n, d = 60, 7
    X = sp.csr_matrix(rng.normal(size=(n, d)))
    y = (rng.random(n) < 0.5).astype(float)
    w = rng.normal(size=d)
    mask = np.ones(d)
    mask[0] = 0.0
    value, grad = nll_and_gradient(w, X, y, l2=0.01, reg_mask=mask)
    h = 1e-6
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        fd = (nll(w + e, X, y, 0.01, mask) - nll(w - e, X, y, 0.01, mask)) / (2 * h)
        rel = abs(fd - grad[j]) / max(abs(grad[j]), 1e-12)
        assert rel < 1e-6, (j, fd, grad[j])


@pytest.mark.parametrize("l2, masked", [(0.5, True), (0.5, False), (0.0, False)],
                         ids=["masked", "unmasked", "no-penalty"])
def test_hessian_product_matches_central_differences_of_gradient(rng, l2, masked):
    n, d = 60, 7
    X = sp.csr_matrix(rng.normal(size=(n, d)))
    y = (rng.random(n) < 0.5).astype(float)
    w = rng.normal(size=d)
    mask = np.ones(d)
    if masked:
        mask[0] = 0.0
    p = expit(X @ w)
    h = 1e-6
    for v in (rng.normal(size=d), np.eye(d)[0]):
        hv = regression._hessian_product(X, X.T.tocsr(), p * (1 - p), l2 * mask, v)
        up = nll_and_gradient(w + h * v, X, y, l2, mask)[1]
        down = nll_and_gradient(w - h * v, X, y, l2, mask)[1]
        fd = (up - down) / (2 * h)
        assert np.max(np.abs(fd - hv)) < 1e-6 * np.max(np.abs(hv)), (fd, hv)


def test_penalty_excludes_masked_weights():
    X = sp.csr_matrix(np.zeros((1, 2)))
    w = np.array([3.0, 4.0])
    y = np.array([0.0])
    full = nll(w, X, y, l2=2.0)
    masked = nll(w, X, y, l2=2.0, reg_mask=np.array([0.0, 1.0]))
    assert abs(full - (LN2 + 25.0)) < 1e-12
    assert abs(masked - (LN2 + 16.0)) < 1e-12


def test_reg_mask_for_encoder_excludes_bias():
    students = {"s1": [response("s1", 10, "q1", ["k1"], True)]}
    recipe = Recipe(families=(F("question"), F("bias"), F("kc")))
    enc = fit_encoders(Dataset(DatasetManifest.minimal("m"), students), students, recipe)
    mask = reg_mask_for(enc)
    off, size = offset_of(enc, "bias")
    assert size == 1 and mask[off] == 0.0
    assert mask.sum() == enc.dim - 1


def test_shape_mismatch_raises():
    X = sp.csr_matrix(np.ones((3, 2)))
    with pytest.raises(ConfigError):
        fit(X, np.zeros(2))
    with pytest.raises(ConfigError):
        fit(sp.csr_matrix((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        predict_proba_batch(Model(weights=np.zeros(3)), X)


def _margin_data(rng, n=300, d=6, margin=0.5):
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    z = X @ w
    keep = np.abs(z) > margin
    return sp.csr_matrix(X[keep]), (z[keep] > 0).astype(float)


def test_fit_separable_reaches_full_accuracy(rng):
    X, y = _margin_data(rng)
    model = fit(X, y, TrainConfig(l2=1e-8))
    pred = (predict_proba_batch(model, X) >= 0.5).astype(float)
    assert np.array_equal(pred, y)
    assert model.info["converged"]


def test_fit_intercept_only_recovers_rate():
    n = 1000
    X = sp.csr_matrix(np.ones((n, 1)))
    y = np.zeros(n)
    y[:700] = 1.0
    model = fit(X, y, TrainConfig(l2=1e-6), reg_mask=np.zeros(1))
    p = predict_proba_batch(model, sp.csr_matrix(np.ones((1, 1))))[0]
    assert abs(p - 0.7) < 1e-3


def test_fit_deterministic_bitwise(rng):
    X, y = _margin_data(rng, margin=0.0)
    a = fit(X, y, TrainConfig())
    b = fit(X, y, TrainConfig())
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.info == b.info


def test_fit_nll_not_worse_than_start(rng):
    X, y = _margin_data(rng, margin=0.0)
    cfg = TrainConfig(l2=1e-3)
    model = fit(X, y, cfg)
    start = nll(np.zeros(X.shape[1]), X, y, cfg.l2)
    assert model.info["final_nll"] < start


def test_fit_optimum_independent_of_init(rng):
    # strong convexity so every start lands on the same optimum
    X, y = _margin_data(rng, margin=0.0)
    cfg = TrainConfig(l2=1.0)
    a = fit(X, y, cfg)
    b = fit(X, y, cfg, init=rng.normal(size=X.shape[1]) * 3.0)
    warm = fit(X, y, cfg, init=fit(X, y, TrainConfig(l2=0.3)).weights)
    for other in (b, warm):
        assert other.info["converged"]
        assert abs(a.info["final_nll"] - other.info["final_nll"]) < 1e-6
        assert np.max(np.abs(a.weights - other.weights)) < 1e-3
    assert warm.info["epochs"] < a.info["epochs"]


@pytest.mark.parametrize("masked", [False, True], ids=["all-penalized", "bias-free"])
def test_fit_with_center_is_stationary_for_the_centered_penalty(rng, masked):
    X, y = _margin_data(rng, margin=0.0)
    X = sp.hstack([np.ones((X.shape[0], 1)), X], format="csr")  # column 0 is a bias
    dim = X.shape[1]
    mask = np.ones(dim)
    if masked:
        mask[0] = 0.0
    center = rng.normal(size=dim)
    center[0] = 1.5
    cfg = TrainConfig(l2=2.0)
    model = fit(X, y, cfg, reg_mask=mask, center=center)
    w = model.weights
    grad = X.T @ (1.0 / (1.0 + np.exp(-(X @ w))) - y) + cfg.l2 * mask * (w - center)
    assert np.linalg.norm(grad) <= cfg.gtol
    assert model.info["converged"]
    # the center moves the optimum; a zero center is the plain objective, bit for bit
    plain = fit(X, y, cfg, reg_mask=mask)
    assert np.max(np.abs(w - plain.weights)) > 0.01
    assert fit(X, y, cfg, reg_mask=mask, center=np.zeros(dim)).weights.tobytes() == plain.weights.tobytes()


def test_fit_divergent_init_raises(rng):
    X, y = _margin_data(rng, margin=0.0)
    for trainer in (fit, reference_fit):
        with pytest.raises(TrainingDivergenceError):
            trainer(X, y, TrainConfig(l2=1e-6), init=np.full(X.shape[1], 1e200))


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(l2=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError, match="gtol"):
        TrainConfig(gtol=0.0)
    with pytest.raises(ConfigError, match="gtol"):
        Model.from_json({"dim": 1, "weights": [], "config": {"gtol": -1.0}})


@pytest.mark.parametrize("config, problem", [
    ({"max_epoch": 2}, "unknown train config keys max_epoch"),
    ({"max_epochs": 3.7}, "must be an int, got"),
    ({"l2": "1e-3"}, "l2 must be a finite number, got '1e-3'"),
    ({"l2": 1e-6, "max_epochs": 500, "tol": 1e-7, "initial_step": 1.0, "max_halvings": 60},
     "unknown train config keys initial_step, max_halvings, tol"),
], ids=["unknown-key", "fractional-counts", "string-l2", "gradient-descent-keys"])
def test_malformed_model_config_fails_with_a_named_config_error(config, problem):
    with pytest.raises(ConfigError, match=problem):
        Model.from_json({"dim": 1, "weights": [], "config": config})


def test_model_json_roundtrip(tmp_path):
    """A plain fit is stored as fit.json, encoder inline, and reloads the same weights."""
    students = {"s1": [response("s1", 10, "q1", ["k1"], True),
                       response("s1", 20, "q2", ["k1"], False)]}
    recipe = Recipe(families=(F("bias"), F("question")))
    ds = Dataset(DatasetManifest.minimal("m"), students)
    enc = fit_encoders(ds, students, recipe)
    w = np.array([0.25, 0.0, -1.5])
    spec = PlainSpec("irt")
    path = save_model(PlainFit(enc, Model(weights=w, info={"epochs": 3})), tmp_path, spec)
    assert path == tmp_path / "fit.json" and sorted(p.name for p in tmp_path.iterdir()) == ["fit.json"]
    again = spec.load(tmp_path)
    assert again.encoder == enc
    assert np.array_equal(again.model.weights, w)
    assert again.model.info["epochs"] == 3
    assert not hasattr(again.model, "recipe")


def test_fit_ties_weights_to_encoder_bias_block(rng):
    """With an encoder given, the bias weight is not shrunk by l2."""
    n = 400
    students = {"s1": [response("s1", 10 * i, "q1", ["k1"], True) for i in range(3)]}
    enc = fit_encoders(Dataset(DatasetManifest.minimal("m"), students), students, Recipe(families=(F("bias"),)))
    X = sp.csr_matrix(np.ones((n, 1)))
    y = np.zeros(n)
    y[: n // 2 + 100] = 1.0
    strong = TrainConfig(l2=50.0)
    with_enc = fit(X, y, strong, encoder=enc)
    without = fit(X, y, strong)
    target = math.log((n // 2 + 100) / (n // 2 - 100))
    assert abs(with_enc.weights[0] - target) < 1e-3
    assert abs(without.weights[0]) < abs(with_enc.weights[0])


def _sparse_counts(rng, n=400, d=40):
    """Bias column plus one-hot and log-count columns, like extracted rows."""
    X = np.zeros((n, d))
    X[:, 0] = 1.0
    X[np.arange(n), rng.integers(1, d // 2, size=n)] = 1.0
    counts = rng.integers(0, 6, size=(n, d - d // 2)) * (rng.random((n, d - d // 2)) < 0.2)
    X[:, d // 2 :] = np.log1p(counts)
    y = (rng.random(n) < expit(X @ rng.normal(size=d))).astype(float)
    return sp.csr_matrix(X), y


def _assert_converged_below_reference(X, y, config, **kw):
    """|g|_inf <= gtol at return, and J no higher than gradient descent's."""
    model = fit(X, y, config, **kw)
    reg_mask = kw.get("reg_mask")
    if reg_mask is None and "encoder" in kw:
        reg_mask = reg_mask_for(kw["encoder"])
    value, grad = nll_and_gradient(model.weights, X, y, config.l2, reg_mask)
    assert model.info["converged"]
    assert np.max(np.abs(grad)) <= config.gtol
    assert model.info["grad_norm"] == np.max(np.abs(grad))
    assert model.info["final_nll"] == value
    _, want_info = reference_fit(X, y, config, **kw)
    assert value <= want_info["final_nll"]
    return model


@pytest.mark.parametrize("l2", [0.0, 1e-6, 0.5])
def test_fit_not_worse_than_reference_trainer(rng, l2):
    X, y = _sparse_counts(rng)
    mask = np.ones(X.shape[1])
    mask[0] = 0.0
    for kw in ({}, {"reg_mask": mask}, {"init": rng.normal(size=X.shape[1])}):
        _assert_converged_below_reference(X, y, TrainConfig(l2=l2, max_epochs=60), **kw)


def test_fit_not_worse_than_reference_on_extracted_features():
    ds, _ = generate(GeneratorConfig(seed=5, n_students=12, n_questions=10, n_kcs=3,
                                     responses_per_student=30))
    recipe = resolve("best-lr", ds.manifest).recipe
    enc = fit_encoders(ds, ds.students, recipe)
    ext = build_matrix(ds, ds.students, enc)
    model = _assert_converged_below_reference(ext.X, ext.y, TrainConfig(max_epochs=80), encoder=enc)
    assert model.info["epochs"] > 0


def test_fit_stops_at_max_epochs_and_at_gtol(rng):
    X, y = _sparse_counts(rng, n=200, d=12)
    capped = fit(X, y, TrainConfig(l2=1e-3, max_epochs=2))
    assert capped.info["epochs"] == 2 and not capped.info["converged"]
    assert capped.info["grad_norm"] > capped.config.gtol
    done = fit(X, y, TrainConfig(l2=1.0, gtol=1e-2))
    tight = fit(X, y, TrainConfig(l2=1.0, gtol=1e-6))
    for model in (done, tight):
        assert model.info["converged"] and model.info["epochs"] < model.config.max_epochs
        assert model.info["grad_norm"] <= model.config.gtol
    assert done.info["epochs"] < tight.info["epochs"]


def _many_rows(rng, n=20_000, d=100):
    """A bias column, one one-hot column and three log-count columns per row."""
    cols = np.column_stack([np.zeros(n, dtype=int), rng.integers(1, d // 2, size=n),
                            rng.integers(d // 2, d, size=(n, 3))])
    vals = np.column_stack([np.ones((n, 2)), np.log1p(rng.integers(1, 6, size=(n, 3)))])
    X = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, cols.size + 1, 5)), shape=(n, d))
    y = (rng.random(n) < expit(0.5 * (X @ rng.normal(size=d)))).astype(float)
    return X, y


def test_tight_gtol_converges_on_many_rows(rng):
    """Near the optimum the predicted reduction falls below the float error of
    a 20k-term J; the fit must still drive |g| under an absolute gtol."""
    X, y = _many_rows(rng)
    config = TrainConfig(gtol=1e-8)
    model = fit(X, y, config)
    _, grad = nll_and_gradient(model.weights, X, y, config.l2)
    assert model.info["converged"] and model.info["epochs"] < config.max_epochs
    assert np.max(np.abs(grad)) <= config.gtol


def _recording_step(monkeypatch):
    """Record (delta, |s|, on_boundary, direct) of every trust-region
    subproblem; `direct` is whether it took the dogleg on the exact H."""
    calls = []
    real = regression._step

    def step(g, delta, hessp, system):
        s, r, on_boundary = real(g, delta, hessp, system)
        calls.append((delta, float(np.linalg.norm(s)), on_boundary, system is not None))
        return s, r, on_boundary

    monkeypatch.setattr(regression, "_step", step)
    return calls


def _on_each_path(monkeypatch):
    """Yield ("direct", patch) with the module's gate, then ("cg", patch) with
    the gate at 0, which forces Steihaug CG on every design; each patch is
    undone when the next path starts."""
    for path, gate in (("direct", regression._DIRECT_MAX_DIM), ("cg", 0)):
        with monkeypatch.context() as patch:
            patch.setattr(regression, "_DIRECT_MAX_DIM", gate)
            yield path, patch


def _overflow_at_trials(monkeypatch, trials, value=math.inf):
    """Make J come out non-finite (`value`) at the given trial steps (1-based)."""
    real = regression._objective
    calls = itertools.count()

    def objective(*args):
        j, z, w_reg = real(*args)
        return (value if next(calls) in trials else j), z, w_reg

    monkeypatch.setattr(regression, "_objective", objective)


def test_first_step_on_the_boundary(monkeypatch):
    """The Newton step -0.5 / 0.75 is longer than the first region, |g| = 0.5."""
    X = sp.csr_matrix(np.ones((3, 1)))
    for path, patch in _on_each_path(monkeypatch):
        calls = _recording_step(patch)
        model = fit(X, np.array([1.0, 0.0, 0.0]), TrainConfig(l2=0.0, gtol=1e-10))
        delta, step, on_boundary, direct = calls[0]
        assert direct == (path == "direct")
        assert on_boundary and delta == 0.5 and abs(step - delta) < 1e-15
        assert model.info["converged"]
        assert abs(model.weights[0] - math.log(0.5)) < 1e-9


def test_zero_curvature_steps_to_the_boundary(monkeypatch):
    """Started where every p rounds to 1, D = 0 and l2 = 0 make H = 0: H is
    singular, with no Cholesky factor, so the direct path's first trial
    takes the CG step."""
    g = np.array([3.0, -4.0])
    s, r, on_boundary = regression._truncated_cg(np.zeros_like, g, 2.0)
    assert on_boundary and np.allclose(s, -0.4 * g) and np.array_equal(r, -g)
    assert regression._newton_system(np.zeros((2, 2)), g) is None

    X = sp.csr_matrix(np.ones((4, 1)))
    for path, patch in _on_each_path(monkeypatch):
        calls = _recording_step(patch)
        model = fit(X, np.array([1.0, 1.0, 0.0, 0.0]), TrainConfig(l2=0.0), init=np.array([50.0]))
        delta, step, on_boundary, direct = calls[0]
        assert not direct
        assert on_boundary and delta == 2.0 and step == delta
        assert model.info["converged"] and abs(model.weights[0]) < 1e-4
        # once D is positive, H is nonsingular and the direct path takes over
        assert any(c[3] for c in calls) == (path == "direct")


def test_an_overflowing_newton_step_takes_the_cg_step(monkeypatch):
    """Column 1 fires only on rows whose p is subnormal, so H is nonsingular
    but the Newton step overflows; the trial takes the CG step, and the fit
    converges (dogleg steps on the overflowed Newton step ran to `max_epochs`)."""
    X = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.1], [0.0, 0.1]]))
    y = np.array([1.0, 0.0, 1.0, 1.0])
    init = np.array([3.0, -7095.0])
    p = expit(X @ init)
    H = (X.T @ sp.diags(p * (1 - p)) @ X).toarray()
    assert 0 < p[2] < np.finfo(float).tiny and np.all(np.linalg.eigvalsh(H) > 0)
    assert regression._newton_system(H, X.T @ (p - y)) is None
    calls = _recording_step(monkeypatch)
    model = fit(X, y, TrainConfig(l2=0.0), init=init)
    assert not calls[0][3]
    assert model.info["converged"]


def _model_value(g, H, s):
    return float(g @ s + 0.5 * s @ H @ s)


def test_dogleg_takes_the_newton_step_the_cauchy_point_or_the_leg_between():
    H = np.array([[4.0, 1.0], [1.0, 2.0]])
    g = np.array([1.0, -3.0])
    _, newton = regression._newton_system(H, g)
    assert np.allclose(H @ newton, -g, rtol=0, atol=1e-14)
    cauchy = -float(g @ g) / float(g @ H @ g) * g
    n_newton, n_cauchy = np.linalg.norm(newton), np.linalg.norm(cauchy)
    assert n_cauchy < n_newton

    # the Newton step fits: taken whole, off the boundary, with r = 0
    s, r, on_boundary = regression._dogleg(g, 1.01 * n_newton, H, newton)
    assert s is newton and not on_boundary
    assert np.max(np.abs(r)) < 1e-14

    # the Cauchy point lies beyond the region: steepest descent to the boundary
    delta = 0.5 * n_cauchy
    s, r, on_boundary = regression._dogleg(g, delta, H, newton)
    assert on_boundary and abs(np.linalg.norm(s) - delta) < 1e-15
    assert np.allclose(s, -delta / np.linalg.norm(g) * g, rtol=0, atol=1e-15)
    assert np.array_equal(r, -g - H @ s)

    # between the two: the boundary point of the leg from the Cauchy point to the Newton step
    delta = 0.5 * (n_cauchy + n_newton)
    s, r, on_boundary = regression._dogleg(g, delta, H, newton)
    assert on_boundary and abs(np.linalg.norm(s) - delta) < 1e-14
    leg, off = newton - cauchy, s - cauchy
    tau = float(off @ leg) / float(leg @ leg)
    assert 0 < tau < 1 and np.allclose(off, tau * leg, rtol=0, atol=1e-14)
    assert np.array_equal(r, -g - H @ s)
    assert _model_value(g, H, newton) < _model_value(g, H, s) < _model_value(g, H, cauchy) < 0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_trial_is_rejected_and_the_fit_converges(rng, monkeypatch, bad):
    X, y = _sparse_counts(rng, n=200, d=12)
    config = TrainConfig(l2=1.0, gtol=1e-8)
    for path, patch in _on_each_path(monkeypatch):
        clean = fit(X, y, config)
        with patch.context() as failing:
            calls = _recording_step(failing)
            _overflow_at_trials(failing, {1}, bad)
            model = fit(X, y, config)
        assert all(c[3] == (path == "direct") for c in calls)
        assert model.info["converged"] and model.info["grad_norm"] <= config.gtol
        assert calls[1][0] <= 0.5 * calls[0][1]  # the region shrank below the rejected step
        assert abs(model.info["final_nll"] - clean.info["final_nll"]) < 1e-9 * clean.info["final_nll"]
        assert np.max(np.abs(model.weights - clean.weights)) < 1e-6


def test_max_epochs_counts_rejected_trials(rng, monkeypatch):
    X, y = _sparse_counts(rng, n=200, d=12)
    init = rng.normal(size=X.shape[1])
    for cap in (1, 2):
        with monkeypatch.context() as patch:
            _overflow_at_trials(patch, {1, 2})
            model = fit(X, y, TrainConfig(max_epochs=cap), init=init)
        assert model.info["epochs"] == cap and not model.info["converged"]
        assert model.weights.tobytes() == init.tobytes()


def test_fit_matches_reference_when_line_search_fails(rng):
    """A start at the optimum: the reference accepts no step, and fit takes none."""
    X = sp.csr_matrix(np.ones((4, 1)))
    y = np.array([1.0, 1.0, 0.0, 0.0])
    model = fit(X, y, TrainConfig(l2=0.0), init=np.zeros(1))
    want_w, want_info = reference_fit(X, y, TrainConfig(l2=0.0), init=np.zeros(1))
    assert model.weights.tobytes() == want_w.tobytes()
    assert {k: v for k, v in model.info.items() if k != "grad_norm"} == want_info
    assert model.info["epochs"] == 0 and model.info["converged"]


def _alone_and_together(X, ys, cfg):
    """The weight bytes of a fit per label vector, fitted one after another
    and two at a time in threads."""
    alone = [fit(X, y, cfg).weights.tobytes() for y in ys]
    with ThreadPoolExecutor(max_workers=2) as pool:
        together = [m.weights.tobytes() for m in pool.map(lambda y: fit(X, y, cfg), ys)]
    return alone, together


def test_fit_bytes_do_not_depend_on_concurrent_fits(rng):
    """Weights are the same bytes whether fits run alone or two at a time.

    The dimension is large enough that the solver's vector dot products
    may use threaded BLAS, as fold threads do under --jobs.
    """
    n, d = 3000, 20_000
    cols = np.column_stack([np.zeros(n, dtype=int), rng.integers(1, d, size=(n, 3))])
    X = sp.csr_matrix((np.ones(cols.size), cols.ravel(), np.arange(0, cols.size + 1, 4)), shape=(n, d))
    ys = [(rng.random(n) < 0.6).astype(float) for _ in range(2)]
    alone, together = _alone_and_together(X, ys, TrainConfig(l2=1.0))
    assert together == alone


def test_direct_fit_bytes_do_not_depend_on_concurrent_fits(rng, monkeypatch):
    """The same on the direct path: H's sparse product and dense solve give
    the same bytes when two fits solve at once."""
    X, _ = _sparse_counts(rng, n=3000, d=56)
    ys = [(rng.random(X.shape[0]) < 0.6).astype(float) for _ in range(2)]
    calls = _recording_step(monkeypatch)
    alone, together = _alone_and_together(X, ys, TrainConfig(l2=1.0))
    assert calls and all(c[3] for c in calls)
    assert together == alone


def _least_curvature(X, w, l2, mask):
    """The least eigenvalue of J's Hessian at w."""
    X = scipy_csr(X)
    p = expit(X @ w)
    H = (X.T @ sp.diags(p * (1 - p)) @ X).toarray() + np.diag(l2 * mask)
    return float(np.linalg.eigvalsh(H)[0])


def _assert_paths_agree(X, y, config, direct, cg, reg_mask, center):
    """Both fits reached gtol, so each lies within |g| / mu of the optimum, mu
    being J's least curvature between them (taken as half its smaller value
    at the two ends, the fits being that close); by convexity their J differ
    by at most gtol times their distance, plus J's float error (relative to
    at least 1, since J's terms cancel where it is small)."""
    for model in (direct, cg):
        assert model.info["converged"] and model.info["grad_norm"] <= config.gtol
    gap = float(np.linalg.norm(direct.weights - cg.weights))
    mu = 0.5 * min(_least_curvature(X, m.weights, config.l2, reg_mask) for m in (direct, cg))
    assert gap <= 2 * config.gtol / mu
    a, b = direct.info["final_nll"], cg.info["final_nll"]
    assert abs(a - b) <= config.gtol * gap + 1e-12 * max(abs(b), 1.0)


@st.composite
def _small_problem(draw):
    """A sparse design with a bias column, labels of both classes, a mask
    that penalizes every column or all but the bias (so J has one minimizer,
    as for the fits the program makes: with one class and a free bias it
    has none), and maybe a center and an init."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
    X[:, 0] = 1.0
    y = (rng.random(n) < draw(st.floats(0.05, 0.95))).astype(float)
    y[:2] = 0.0, 1.0
    mask = np.ones(d)
    mask[0] = draw(st.sampled_from([0.0, 1.0]))
    center = rng.normal(size=d) if draw(st.booleans()) else None
    init = 2.0 * rng.normal(size=d) if draw(st.booleans()) else None
    return sp.csr_matrix(X), y, TrainConfig(l2=draw(st.floats(0.1, 10.0))), mask, center, init


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(problem=_small_problem())
def test_direct_and_cg_paths_agree_within_gtol(problem):
    X, y, config, mask, center, init = problem
    fits = {}
    # hypothesis runs every example in one test call, so each draws its own patch
    for path, _ in _on_each_path(pytest.MonkeyPatch()):
        fits[path] = fit(X, y, config, reg_mask=mask, init=init, center=center)
    _assert_paths_agree(X, y, config, fits["direct"], fits["cg"], mask, center)


def test_direct_path_reaches_gtol_in_fewer_trials_on_a_partition_fit(monkeypatch):
    """A best-lr partition fit of cv-ri-long's size (800 rows, 56 columns),
    started at and pulled toward its fallback's weights: exact Newton steps
    take fewer trials to gtol than CG steps, to the same weights."""
    ds, _ = generate(GeneratorConfig(seed=1, n_students=8, n_questions=30, responses_per_student=300))
    enc = fit_encoders(ds, ds.students, resolve("best-lr", ds.manifest).recipe)
    ext = build_matrix(ds, ds.students, enc)
    assert enc.dim == 56 <= regression._DIRECT_MAX_DIM
    center = fit(ext.X, ext.y, TrainConfig(), encoder=enc).weights
    rows = np.flatnonzero((ext.t >= 100) & (ext.t < 200))
    X, y, mask = ext.X.take(rows), ext.y[rows], np.ones(enc.dim)
    assert X.shape == (800, 56)
    fits = {}
    for path, patch in _on_each_path(monkeypatch):
        fits[path] = fit(X, y, TrainConfig(), reg_mask=mask, init=center, center=center)
    assert fits["direct"].info["epochs"] < fits["cg"].info["epochs"]
    _assert_paths_agree(X, y, TrainConfig(), fits["direct"], fits["cg"], mask, center)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _raw_csr(draw):
    """A CSR matrix as stored: rows may be empty and hold unsorted or
    duplicate column indices; index arrays are int32 or int64."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(st.tuples(st.integers(0, n_cols - 1), _finite), max_size=5)) for _ in range(n_rows)]
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    A = sp.csr_matrix((n_rows, n_cols))
    A.data = np.array([value for row in rows for _, value in row], dtype=np.float64)
    A.indices = np.array([col for row in rows for col, _ in row], dtype=index_dtype)
    A.indptr = np.cumsum([0] + [len(row) for row in rows]).astype(index_dtype)
    v = np.array(draw(st.lists(_finite, min_size=n_cols, max_size=n_cols)))
    u = np.array(draw(st.lists(_finite, min_size=n_rows, max_size=n_rows)))
    return A, v, u


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_raw_csr())
def test_matvec_is_bitwise_scipy_matmul(case):
    """`_matvec` calls the kernel `A @ v` ends in, so the bytes agree; X^T as
    CSR sums each column in the row order of scipy's CSC view X.T."""
    A, v, u = case
    assert regression._matvec(A, v).tobytes() == (A @ v).tobytes()
    assert regression._matvec(A.T.tocsr(), u).tobytes() == (A.T @ u).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_raw_csr())
def test_transpose_is_scipys_transpose(case):
    """`_transpose` runs the kernel `X.T.tocsr()` ends in: the same arrays,
    in X's own index dtype (scipy's constructor may narrow int64 to int32)."""
    A = case[0]
    got, want = regression._transpose(A), A.T.tocsr()
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(A, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.data.tobytes() == want.data.tobytes()


def test_meta_inputs_are_scipys_csr_of_the_dense_columns(rng):
    """`_meta_inputs` builds the arrays `sp.csr_matrix` makes of the bias and base
    columns, exact zeros (either sign) dropped."""
    n = 40
    sparse_col = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
    for columns in ([rng.random(n), rng.random(n)],
                    [sparse_col, rng.random(n), np.zeros(n), np.full(n, -0.0)],
                    [np.array([0.0]), np.array([0.5])]):
        got = _meta_inputs(columns)
        want = sp.csr_matrix(np.column_stack([np.ones_like(columns[0]), *columns]))
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_fit_on_a_csr_is_bitwise_its_fit_on_the_scipy_matrix(monkeypatch):
    """`fit` and `predict_proba_batch` take a `Csr` design as it is and
    convert a scipy matrix of the same arrays at their boundary: the same
    weights, info and probabilities, on the direct path and the CG path."""
    ds, _ = generate(GeneratorConfig(seed=7, n_students=16, n_questions=12, n_kcs=3,
                                     responses_per_student=40))
    for name in ("irt", "best-lr+"):
        enc = fit_encoders(ds, ds.students, resolve(name, ds.manifest).recipe)
        ext = build_matrix(ds, ds.students, enc)
        assert isinstance(ext.X, Csr)
        for path, _ in _on_each_path(monkeypatch):
            got = fit(ext.X, ext.y, TrainConfig(), encoder=enc)
            want = fit(scipy_csr(ext.X), ext.y, TrainConfig(), encoder=enc)
            assert got.weights.tobytes() == want.weights.tobytes() and got.info == want.info, (name, path)
            probs = predict_proba_batch(got, ext.X)
            assert probs.tobytes() == predict_proba_batch(want, scipy_csr(ext.X)).tobytes(), (name, path)


def test_fits_are_bitwise_those_of_scipy_matmul(monkeypatch):
    """A best-lr+ fit, a centered partition fit and a stacking meta fit give
    the same weights and info when every product goes through `A @ v`."""
    ds, _ = generate(GeneratorConfig(seed=7, n_students=16, n_questions=12, n_kcs=3,
                                     responses_per_student=40))
    enc = fit_encoders(ds, ds.students, resolve("best-lr+", ds.manifest).recipe)
    ext = build_matrix(ds, ds.students, enc)
    rows = np.flatnonzero(np.arange(len(ext.y)) % 3 == 0)

    def fits():
        plain = fit(ext.X, ext.y, TrainConfig(), encoder=enc)
        center = plain.weights
        part = fit(ext.X.take(rows), ext.y[rows], TrainConfig(), reg_mask=np.ones(enc.dim), encoder=enc,
                   init=center, center=center)
        columns = [predict_proba_batch(m, ext.X) for m in (plain, part)]
        meta = fit(_meta_inputs(columns), ext.y, TrainConfig())
        return [(m.weights.tobytes(), m.info) for m in (plain, part, meta)]

    direct = fits()
    monkeypatch.setattr(regression, "_matvec", lambda A, v: scipy_csr(A) @ v)
    assert fits() == direct
