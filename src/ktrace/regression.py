"""Sparse binary logistic regression with a deterministic trainer.

The objective is the negative log-likelihood plus an L2 penalty that
excludes bias weights:

    J(w) = sum_i [softplus(z_i) - y_i z_i] + (l2 / 2) ||w_reg||^2,
    z_i = x_i . w

with gradient  X^T (sigma(z) - y) + l2 * w_reg.  Training is full-batch
gradient descent with a step-halving line search: every accepted step
strictly decreases J, the step grows after each accepted epoch, and the
run stops when the relative improvement drops below the tolerance.
There is no randomness anywhere (weights start at zero), so a fit is a
pure function of the training matrix, labels and config.

Cost per epoch: one sparse product X w per line-search trial, and one
transposed product X^T r per accepted epoch, whose gradient reuses the
accepted trial's margins.  X^T is built once per fit.
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
from scipy.special import expit

from ktrace.core import ConfigError, canonical_json
from ktrace.features import Encoder, Recipe


class TrainingDivergenceError(RuntimeError):
    """Non-finite loss encountered during training."""


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1e-6
    max_epochs: int = 500
    tol: float = 1e-7
    initial_step: float = 1.0
    max_halvings: int = 60

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
        if self.tol < 0 or self.initial_step <= 0:
            raise ConfigError("tol must be >= 0 and initial_step > 0")
        if self.max_halvings < 1:
            raise ConfigError("max_halvings must be >= 1")

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


def _gradient(Xt, y: np.ndarray, z: np.ndarray, w_reg: np.ndarray | None, l2: float) -> np.ndarray:
    """Gradient of J at the weights that produced `z` and `w_reg`; `Xt` is X^T."""
    grad = Xt @ (expit(z) - y)
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
        grad = _gradient(X.T, y, z, w_reg, l2)
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


def fit(
    X,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    reg_mask: np.ndarray | None = None,
    recipe: Recipe | None = None,
    encoder: Encoder | None = None,
    init: np.ndarray | None = None,
) -> Model:
    """Train by full-batch gradient descent with step-halving.

    The accepted-step NLL sequence is strictly decreasing.  When the
    encoder is given and no mask is passed, its bias block is excluded
    from regularization.
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

    l2 = config.l2
    Xt = X.T.tocsr()
    # overflow to inf/nan is caught by the isfinite checks, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        value, z, w_reg = _objective(w, X, y, l2, reg_mask)
        if not math.isfinite(value):
            raise TrainingDivergenceError(
                f"non-finite loss at initialization (loss={value!r}, max|w|={np.max(np.abs(w))!r})"
            )
        grad = _gradient(Xt, y, z, w_reg, l2)
        step = config.initial_step
        epochs = 0
        converged = False
        for _ in range(config.max_epochs):
            s = step
            for _ in range(config.max_halvings):
                w_try = w - s * grad
                v_try, z, w_reg = _objective(w_try, X, y, l2, reg_mask)
                if math.isfinite(v_try) and v_try < value:
                    break
                s *= 0.5
            else:
                converged = True
                break
            epochs += 1
            rel = (value - v_try) / max(abs(value), 1.0)
            w = w_try
            value = v_try
            # the accepted trial's margins give the gradient without a second X @ w
            grad = _gradient(Xt, y, z, w_reg, l2)
            step = s * 2.0
            if rel < config.tol:
                converged = True
                break
    info = {
        "epochs": epochs,
        "converged": converged,
        "final_nll": value,
        "n_examples": int(X.shape[0]),
    }
    return Model(weights=w, config=config, recipe=recipe, encoder=encoder, info=info)


def save_model(model: Model, path: str | Path) -> str:
    text = canonical_json(model.to_json())
    Path(path).write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode()).hexdigest()


def load_model(path: str | Path, encoder: Encoder | None = None) -> Model:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return Model.from_json(obj, encoder=encoder)
