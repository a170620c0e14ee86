"""Sparse binary logistic regression with a deterministic trainer.

The objective is the negative log-likelihood plus an L2 penalty that
excludes bias weights:

    J(w) = sum_i [softplus(z_i) - y_i z_i] + (l2 / 2) ||w_reg||^2,
    z_i = x_i . w

with gradient  X^T (p - y) + l2 * w_reg,  p = sigma(z), and Hessian-vector
product  X^T (D (X v)) + l2 * mask * v,  D = p (1 - p).  Training runs the
trust-region Newton-CG method (scipy's ``trust-ncg``; Lin, Weng and
Keerthi, JMLR 9, 2008) to convergence: each iteration solves the Newton
system by conjugate gradients inside a trust region, and the fit stops
once the gradient's 2-norm is below ``gtol`` (so |g|_inf <= gtol too) or
after ``max_epochs`` iterations.  Since the fit reaches the minimizer of
J, ``l2`` alone regularizes it; the default (5) was picked by a sweep
scored on an inner split of the training students.  Weights start at
zero unless an init is given and nothing is random, so a fit is a pure
function of the training matrix, labels and config.

Cost: one X w and one X^T r per objective evaluation, and one X v plus
one X^T u per Hessian-vector product, which reuses D from the objective
call at the same weights.  X^T is built once per fit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit

from ktrace.core import ConfigError, canonical_json
from ktrace.features import Encoder, Recipe


class TrainingDivergenceError(RuntimeError):
    """Non-finite loss encountered during training."""


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 5.0
    # cap on solver iterations
    max_epochs: int = 500
    gtol: float = 1e-4

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int,) if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds) or not math.isfinite(value):
                raise ConfigError(f"{f.name} must be {'an int' if f.type == 'int' else 'a finite number'}, got {value!r}")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.gtol <= 0:
            raise ConfigError("gtol must be > 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: Mapping) -> "TrainConfig":
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(obj) - set(names))
        if unknown:
            raise ConfigError(f"unknown train config keys {', '.join(unknown)}; accepted: {', '.join(names)}")
        return cls(**obj)


def _as_csr(X) -> sp.csr_matrix:
    if sp.issparse(X):
        return X.tocsr()
    return sp.csr_matrix(np.asarray(X, dtype=np.float64))


def reg_mask_for(encoder: Encoder) -> np.ndarray:
    """Regularization mask over the encoder dimension: bias blocks excluded."""
    mask = np.ones(encoder.dim, dtype=np.float64)
    for fam, off, size in encoder.blocks:
        if fam.kind == "bias":
            mask[off : off + size] = 0.0
    return mask


def _objective(
    weights: np.ndarray, X: sp.csr_matrix, y: np.ndarray, l2: float, reg_mask: np.ndarray | None
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """J(w) together with the margins z = X w and the penalized weights
    w_reg (None when l2 is 0), so the gradient can reuse both."""
    z = X @ weights
    value = float(np.sum(np.logaddexp(0.0, z) - y * z))
    w_reg = None
    if l2:
        w_reg = weights if reg_mask is None else weights * reg_mask
        value += 0.5 * l2 * float(np.sum(w_reg * w_reg))
    return value, z, w_reg


def _gradient(Xt, y: np.ndarray, p: np.ndarray, w_reg: np.ndarray | None, l2: float) -> np.ndarray:
    """Gradient of J at the weights that produced p = sigma(z) and `w_reg`; `Xt` is X^T."""
    grad = Xt @ (p - y)
    if l2:
        grad += l2 * w_reg
    return grad


def nll(weights: np.ndarray, X, y: np.ndarray, l2: float = 0.0, reg_mask: np.ndarray | None = None) -> float:
    """Objective value only (shares the definition with nll_and_gradient)."""
    # overflow to inf/nan is detected by callers, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        return _objective(weights, _as_csr(X), y, l2, reg_mask)[0]


def nll_and_gradient(
    weights: np.ndarray,
    X,
    y: np.ndarray,
    l2: float = 0.0,
    reg_mask: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its exact gradient.

    `reg_mask` selects the weights the L2 term applies to (1 = subject
    to the penalty); None penalizes everything.
    """
    X = _as_csr(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != len(y):
        raise ConfigError(f"X has {X.shape[0]} rows but y has {len(y)} labels")
    with np.errstate(over="ignore", invalid="ignore"):
        value, z, w_reg = _objective(weights, X, y, l2, reg_mask)
        grad = _gradient(X.T, y, expit(z), w_reg, l2)
    return value, np.asarray(grad, dtype=np.float64)


@dataclass
class Model:
    """Trained weights, optionally tied to a recipe and encoder."""

    weights: np.ndarray
    config: TrainConfig = TrainConfig()
    recipe: Recipe | None = None
    encoder: Encoder | None = None
    info: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def to_json(self) -> dict:
        nz = np.flatnonzero(self.weights)
        obj = {
            "version": 1,
            "dim": int(self.dim),
            "weights": [[int(i), float(self.weights[i])] for i in nz],
            "config": self.config.to_json(),
            "info": {k: self.info[k] for k in sorted(self.info)},
        }
        if self.recipe is not None:
            obj["recipe"] = self.recipe.to_json()
        if self.encoder is not None:
            obj["encoder_digest"] = self.encoder.digest()
        return obj

    @classmethod
    def from_json(cls, obj: Mapping, encoder: Encoder | None = None) -> "Model":
        w = np.zeros(int(obj["dim"]), dtype=np.float64)
        for i, v in obj["weights"]:
            w[int(i)] = float(v)
        config = TrainConfig.from_json(obj.get("config", {}))
        recipe = Recipe.from_json(obj["recipe"]) if "recipe" in obj else None
        if encoder is not None and "encoder_digest" in obj:
            if encoder.digest() != obj["encoder_digest"]:
                raise ConfigError("encoder digest does not match the model file")
        return cls(weights=w, config=config, recipe=recipe, encoder=encoder, info=dict(obj.get("info", {})))


def predict_proba_batch(model: Model, X) -> np.ndarray:
    return expit(_as_csr(X) @ model.weights)


class _Problem:
    """J, its gradient and Hessian-vector products on one training set.

    The objective call keeps D = p (1 - p) with the weights it was computed
    at, so a product at those weights costs X v and X^T u only.
    """

    def __init__(self, X: sp.csr_matrix, y: np.ndarray, l2: float, reg_mask: np.ndarray | None) -> None:
        self.X, self.Xt, self.y = X, X.T.tocsr(), y
        self.l2, self.reg_mask = l2, reg_mask
        self.penalty = l2 * (np.ones(X.shape[1]) if reg_mask is None else reg_mask)
        self.w: np.ndarray | None = None
        self.d: np.ndarray | None = None

    def value_and_gradient(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        value, z, w_reg = _objective(w, self.X, self.y, self.l2, self.reg_mask)
        if not math.isfinite(value):
            # an overflowing trial step: the trust region rejects it and shrinks
            return math.inf, np.zeros_like(w)
        p = expit(z)
        self.w, self.d = w.copy(), p * (1.0 - p)
        return value, _gradient(self.Xt, self.y, p, w_reg, self.l2)

    def hessp(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        if not np.array_equal(w, self.w):
            # the last objective call was at a rejected trial point
            p = expit(self.X @ w)
            self.w, self.d = w.copy(), p * (1.0 - p)
        return self.Xt @ (self.d * (self.X @ v)) + self.penalty * v


def fit(
    X,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    reg_mask: np.ndarray | None = None,
    recipe: Recipe | None = None,
    encoder: Encoder | None = None,
    init: np.ndarray | None = None,
) -> Model:
    """Minimize J by trust-region Newton-CG, stopping at `config.gtol`.

    `info` records the solver iterations (`epochs`), whether the gradient
    norm reached `gtol` (`converged`), the final |g|_inf (`grad_norm`) and
    J there (`final_nll`).  When the encoder is given and no mask is
    passed, its bias block is excluded from regularization.
    """
    X = _as_csr(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != len(y):
        raise ConfigError(f"X has {X.shape[0]} rows but y has {len(y)} labels")
    if X.shape[0] == 0:
        raise ConfigError("cannot fit on an empty training set")
    if reg_mask is None and encoder is not None:
        reg_mask = reg_mask_for(encoder)

    dim = X.shape[1]
    w = np.zeros(dim, dtype=np.float64) if init is None else np.array(init, dtype=np.float64)
    if len(w) != dim:
        raise ConfigError(f"init has length {len(w)}, expected {dim}")

    problem = _Problem(X, y, config.l2, reg_mask)
    # overflow to inf/nan is caught by the isfinite checks, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        value = _objective(w, X, y, config.l2, reg_mask)[0]
        if not math.isfinite(value):
            raise TrainingDivergenceError(
                f"non-finite loss at initialization (loss={value!r}, max|w|={np.max(np.abs(w))!r})"
            )
        res = minimize(
            problem.value_and_gradient, w, method="trust-ncg", jac=True, hessp=problem.hessp,
            options={"gtol": config.gtol, "maxiter": config.max_epochs},
        )
    info = {
        "epochs": int(res.nit),
        "converged": bool(res.success),
        "grad_norm": float(np.max(np.abs(res.jac))),
        "final_nll": float(res.fun),
        "n_examples": int(X.shape[0]),
    }
    return Model(weights=res.x, config=config, recipe=recipe, encoder=encoder, info=info)


def save_model(model: Model, path: str | Path) -> str:
    text = canonical_json(model.to_json())
    Path(path).write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode()).hexdigest()


def load_model(path: str | Path, encoder: Encoder | None = None) -> Model:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return Model.from_json(obj, encoder=encoder)
