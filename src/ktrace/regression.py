"""Sparse binary logistic regression with a deterministic trainer.

The objective is the negative log-likelihood plus an L2 penalty that
excludes bias weights and pulls the rest toward a center c (default 0):

    J(w) = sum_i [softplus(z_i) - y_i z_i] + (l2 / 2) ||w_reg||^2,
    z_i = x_i . w,  w_reg = mask * (w - c)

with gradient  X^T (p - y) + l2 * w_reg,  p = sigma(z), and Hessian-vector
product  X^T (D (X v)) + l2 * mask * v,  D = p (1 - p).  Training runs
LIBLINEAR's trust-region Newton method, TRON (Lin, Weng and Keerthi,
JMLR 9, 2008), without a preconditioner: each trial step minimizes the
quadratic model by truncated conjugate gradients inside the trust
region, and is accepted when J falls by enough of the predicted amount.
When the predicted reduction is within J's float error (1e-12 |J|), the
trial is accepted iff it lowers |g| instead.  The fit has two stops:
the gradient's 2-norm is at most ``gtol`` (so |g|_inf <= gtol too;
``gtol`` is absolute), or ``max_epochs`` trial steps, accepted or
rejected, have been taken.  Since the fit reaches the minimizer of
J, ``l2`` alone regularizes it; the default (5) was picked by a sweep
scored on an inner split of the training students.  Weights start at
zero unless an init is given and nothing is random, so a fit is a pure
function of the training matrix, labels and config.

A design with at most `_DIRECT_MAX_DIM` (64) columns solves the model
directly instead: H = X^T D X + diag(l2 * mask) is formed and solved for
the Newton step at each accepted point, and each trial there takes
Powell's dogleg step on H, inside the same region; where H is singular,
so has no Cholesky factor (D underflowing with l2 = 0), or the Newton
step overflows, the trial takes the CG step.  Acceptance, region updates
and stops are the same on both paths.

Cost: one X w per trial step, one X^T r per accepted step, and one X v
plus one X^T u per Hessian-vector product, which reuses D from the
accepted point.  On the direct path an accepted point instead costs one
sparse product X^T (D X) by scipy's CSR kernel, ``csr_matmat``, on X's
arrays, with no dense copy of X (`_hessian_former`), and one dense LU
solve; a trial costs dense products with H.  On the 56-column
partition fits of ``perfbench``'s ``cv-ri-long`` that took fits from 356
trials to 212 and cut fit time by about 40%; the gate is where the dense
H stops paying (`CHANGES.md` records the sweep).  X^T is built
once per fit, as CSR, by scipy's CSR-to-CSC kernel on X's arrays
(`_transpose`).  Every product
calls scipy's CSR kernel, ``_sparsetools.csr_matvec``, directly
(`_matvec`): on fold-sized matrices (tens to thousands of rows) the
Python-level dispatch of ``X @ v`` cost about a third of fit time, more
than the products themselves.  ``X @ v`` ends in the same kernel call,
so results are bit-identical; ``tests/test_regression.py`` pins this
private import against ``@``.  The trainer therefore holds X and X^T
as `features.Csr`, the CSR arrays alone: a design from `build_matrix`
passes through `_as_csr` as it is, and only a scipy or dense matrix
handed to `fit` or `predict_proba_batch` is converted, there.  A scipy
matrix object adds nothing the kernels read, and its constructor
validates the arrays at 20-30 µs a call.

A fold's fit is stored as one document, ``fit.json``:
``{"spec": spec.to_json(), "fit": fitted.to_json()}`` (`write_fit`,
`read_fit`).  The fit holds only what training learned and the spec
what was asked, each once: a stack's `load` reads its bases' fits by
its base specs, and a partitioned spec's `predict_on` passes its scheme
to the fit.  Every
fitted kind holds its encoder inline once, and its ``from_json``
refuses a model whose ``dim`` is not its encoder's; a document of
another layout fails to load with a ConfigError naming it.  A plain fit
is a `PlainFit`, written by `save_model`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.special import expit

from ktrace.core import ConfigError, canonical_json
from ktrace.features import Csr, Encoder


class TrainingDivergenceError(RuntimeError):
    """Non-finite loss encountered during training."""


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 5.0
    # cap on trust-region trial steps, accepted or rejected
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


def _as_csr(X) -> Csr:
    """X as a float64 `Csr`, the only layout `_matvec` takes: a `Csr`
    passes through, and a scipy sparse or dense matrix is converted here,
    at the public boundary of `fit` and `predict_proba_batch`."""
    if isinstance(X, Csr):
        return X
    if sp.issparse(X):
        X = X.tocsr().astype(np.float64, copy=False)
    else:
        X = sp.csr_matrix(np.asarray(X, dtype=np.float64))
    return Csr(X.indptr, X.indices, X.data, X.shape)


def _matvec(A: Csr, v: np.ndarray) -> np.ndarray:
    """A v for float64 CSR `A`: the kernel call `A @ v` makes, without its dispatch."""
    M, N = A.shape
    if v.shape != (N,):
        # the kernel reads v[A.indices] unchecked
        raise ValueError(f"matvec: matrix has {N} columns, vector has shape {v.shape}")
    out = np.zeros(M)
    _sparsetools.csr_matvec(M, N, A.indptr, A.indices, A.data, v, out)
    return out


def _transpose(X: Csr) -> Csr:
    """X^T as CSR: X's CSC arrays from the kernel `X.T.tocsr()` ends in,
    without the CSC view and conversion dispatch around it."""
    M, N = X.shape
    indptr = np.empty(N + 1, dtype=X.indptr.dtype)
    indices = np.empty(X.nnz, dtype=X.indices.dtype)
    data = np.empty(X.nnz, dtype=X.data.dtype)
    _sparsetools.csr_tocsc(M, N, X.indptr, X.indices, X.data, indptr, indices, data)
    return Csr(indptr, indices, data, (N, M))


def reg_mask_for(encoder: Encoder) -> np.ndarray:
    """Regularization mask over the encoder dimension: bias blocks excluded."""
    mask = np.ones(encoder.dim, dtype=np.float64)
    for fam, off, size in encoder.blocks:
        if fam.kind == "bias":
            mask[off : off + size] = 0.0
    return mask


def _objective(
    weights: np.ndarray, X: Csr, y: np.ndarray, l2: float, reg_mask: np.ndarray | None,
    center: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """J(w) together with the margins z = X w and the penalized offset
    w_reg from the center (None when l2 is 0), so the gradient can reuse both."""
    z = _matvec(X, weights)
    value = float(np.sum(np.logaddexp(0.0, z) - y * z))
    w_reg = None
    if l2:
        w_reg = weights if center is None else weights - center
        w_reg = w_reg if reg_mask is None else w_reg * reg_mask
        value += 0.5 * l2 * float(np.sum(w_reg * w_reg))
    return value, z, w_reg


def _gradient(Xt, y: np.ndarray, p: np.ndarray, w_reg: np.ndarray | None, l2: float) -> np.ndarray:
    """Gradient of J at the weights that produced p = sigma(z) and `w_reg`; `Xt` is X^T as CSR."""
    grad = _matvec(Xt, p - y)
    if l2:
        grad += l2 * w_reg
    return grad


@dataclass
class Model:
    """Trained weights, the config that trained them and the fit's `info`."""

    weights: np.ndarray
    config: TrainConfig = TrainConfig()
    info: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def to_json(self) -> dict:
        nz = np.flatnonzero(self.weights)
        return {
            "dim": int(self.dim),
            "weights": list(map(list, zip(nz.tolist(), self.weights[nz].tolist()))),
            "config": self.config.to_json(),
            "info": {k: self.info[k] for k in sorted(self.info)},
        }

    @classmethod
    def from_json(cls, obj: Mapping, encoder: Encoder | None = None) -> "Model":
        """The model `to_json` wrote; with an encoder, a ConfigError unless
        the model has the encoder's dimension."""
        dim = int(obj["dim"])
        if encoder is not None and dim != encoder.dim:
            raise ConfigError(f"model has dim {dim}, but its encoder has dim {encoder.dim}")
        w = np.zeros(dim, dtype=np.float64)
        for i, v in obj["weights"]:
            w[int(i)] = float(v)
        return cls(weights=w, config=TrainConfig.from_json(obj.get("config", {})), info=dict(obj.get("info", {})))


class PlainFit(NamedTuple):
    """A plain fit: the encoder and the model over its columns."""

    encoder: Encoder
    model: Model

    def to_json(self) -> dict:
        return {"encoder": self.encoder.to_json(), "model": self.model.to_json()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PlainFit":
        encoder = Encoder.from_json(obj["encoder"])
        return cls(encoder, Model.from_json(obj["model"], encoder))


def predict_proba_batch(model: Model, X) -> np.ndarray:
    return expit(_matvec(_as_csr(X), model.weights))


# LIBLINEAR's TRON: a trial step is accepted when the actual reduction in J
# exceeds ETA0 times the predicted one; ETA1 and ETA2 grade the ratio for
# the region update, which scales by the SIGMAs.
_ETA0, _ETA1, _ETA2 = 1e-4, 0.25, 0.75
_SIGMA1, _SIGMA2, _SIGMA3 = 0.25, 0.5, 4.0
# conjugate gradients stop once the residual is this fraction of |g|
_CG_RTOL = 0.1
# a predicted reduction at or below this fraction of |J| is within J's float
# error (J sums one rounded term per row), so the ratio is noise
_FLOAT_FLOOR = 1e-12
# designs with at most this many columns solve each Newton system directly
# (`_dogleg`); above it a dense H costs more than the CG products it replaces
_DIRECT_MAX_DIM = 64


def _hessian_product(X: Csr, Xt: Csr, d: np.ndarray, penalty: np.ndarray,
                     v: np.ndarray) -> np.ndarray:
    """H v = X^T (D (X v)) + penalty * v, with D = p (1 - p) at the weights
    H is taken at and `penalty` = l2 * mask; `Xt` is X^T as CSR."""
    return _matvec(Xt, d * _matvec(X, v)) + penalty * v


def _to_boundary(s: np.ndarray, d: np.ndarray, delta: float) -> float:
    """tau >= 0 with |s + tau d| = delta, for |s| <= delta."""
    sd, ss, dd = float(s @ d), float(s @ s), float(d @ d)
    room = delta * delta - ss
    if room <= 0:
        # s already on the boundary, or a region shrunk to nothing by rejected trials
        return 0.0
    rad = math.sqrt(sd * sd + dd * room)
    if sd < 0:
        return (rad - sd) / dd
    # the form without cancellation for s.d >= 0; 0/0 only when dd * room underflows
    return room / (sd + rad) if sd + rad > 0 else 0.0


def _truncated_cg(hessp, g: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Steihaug's conjugate gradients for min g.s + s.H s / 2 over |s| <= delta.

    Returns the step s, the residual r = -g - H s and whether s lies on the
    boundary.  A direction of zero or negative curvature (d.H d <= 0, as when
    D underflows and l2 is 0) goes to the boundary.
    """
    s = np.zeros_like(g)
    r = -g
    d = r.copy()
    rr = float(r @ r)
    tol = _CG_RTOL * math.sqrt(rr)
    for _ in range(len(g)):
        if math.sqrt(rr) <= tol:
            break
        hd = hessp(d)
        dhd = float(d @ hd)
        if dhd > 0:
            alpha = rr / dhd
            s_next = s + alpha * d
            if math.sqrt(float(s_next @ s_next)) <= delta:
                s = s_next
                r = r - alpha * hd
                rr, rr_old = float(r @ r), rr
                d = r + (rr / rr_old) * d
                continue
        tau = _to_boundary(s, d, delta)
        return s + tau * d, r - tau * hd, True
    return s, r, False


def _hessian_former(X: Csr, Xt: Csr, penalty: np.ndarray):
    """The function of D = p (1 - p) giving the dense H = X^T D X + diag(penalty),
    formed by scipy's CSR product kernel from X's arrays without a dense copy
    of X; `Xt` is X^T as CSR."""
    N = X.shape[1]
    row_nnz = np.diff(X.indptr)

    def hessian(d: np.ndarray) -> np.ndarray:
        # the product has at most N * N entries, a bound that costs nothing,
        # where the kernel's own (csr_matmat_maxnnz) costs as much as a product
        indptr = np.empty(N + 1, dtype=X.indptr.dtype)
        indices = np.empty(N * N, dtype=X.indices.dtype)
        data = np.empty(N * N)
        # X^T (D X), D scaling X's rows
        _sparsetools.csr_matmat(N, N, Xt.indptr, Xt.indices, Xt.data,
                                X.indptr, X.indices, X.data * np.repeat(d, row_nnz), indptr, indices, data)
        H = np.diag(penalty)
        _sparsetools.csr_todense(N, N, indptr, indices, data, H)  # adds to H
        return H

    return hessian


def _newton_system(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(H, the Newton step -H^-1 g); None when H is singular or the step
    overflows, as when D underflows with l2 = 0.

    H = X^T D X + diag(l2 * mask) is positive semidefinite by construction,
    so it is positive definite, and has a Cholesky factor, iff it is
    nonsingular: one LU solve (numpy's LAPACK ``gesv``) settles both.
    numpy's Cholesky test before that solve made the 53- and 55-column IRT
    fits of a stack about 30% slower than CG, and scipy.linalg's Cholesky
    solve adds about 6 MB to a run's peak RSS by its import alone.
    """
    try:
        newton = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return None
    return (H, newton) if math.isfinite(float(newton @ newton)) else None


def _dogleg(g: np.ndarray, delta: float, H: np.ndarray, newton: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Powell's dogleg for min g.s + s.H s / 2 over |s| <= delta, with H
    positive definite and `newton` = -H^-1 g.

    Returns the step s, the residual r = -g - H s and whether s lies on the
    boundary: the Newton step when it fits, else the point where the path
    from 0 to the model's minimizer along -g (the Cauchy point) and on to the
    Newton step leaves the region.
    """
    if math.sqrt(float(newton @ newton)) <= delta:
        return newton, -g - H @ newton, False
    gg, gHg = float(g @ g), float(g @ (H @ g))
    if gg * math.sqrt(gg) >= delta * gHg:
        # the Cauchy point -(gg / gHg) g is on or beyond the boundary (or the
        # curvature along g rounded to <= 0): steepest descent to the boundary
        s = -(delta / math.sqrt(gg)) * g
    else:
        cauchy = -(gg / gHg) * g
        leg = newton - cauchy
        s = cauchy + _to_boundary(cauchy, leg, delta) * leg
    return s, -g - H @ s, True


def _step(g: np.ndarray, delta: float, hessp, system) -> tuple[np.ndarray, np.ndarray, bool]:
    """A trial step for min g.s + s.H s / 2 over |s| <= delta: (s, r = -g - H s,
    whether s is on the boundary).  The dogleg on the exact H when `system`
    is `_newton_system`'s (H, Newton step), else Steihaug CG through `hessp`."""
    if system is None:
        return _truncated_cg(hessp, g, delta)
    return _dogleg(g, delta, *system)


def _trust_region_newton(
    X: Csr, y: np.ndarray, w: np.ndarray, config: TrainConfig, reg_mask: np.ndarray | None,
    center: np.ndarray | None,
) -> tuple[np.ndarray, float, np.ndarray, int]:
    """TRON (Lin, Weng and Keerthi 2008) from `w`: (weights, J, gradient, trials).

    Every trial step, accepted or rejected, counts against `max_epochs`.  A
    trial whose J is not finite is rejected.  When the predicted reduction
    is within J's float error, the trial is accepted iff it lowers |g|.
    With at most `_DIRECT_MAX_DIM` columns, H is formed and solved once per
    accepted point and the trials there take dogleg steps (`_step`).
    """
    Xt = _transpose(X)
    l2 = config.l2
    penalty = l2 * (np.ones(len(w)) if reg_mask is None else reg_mask)
    hessian = _hessian_former(X, Xt, penalty) if len(w) <= _DIRECT_MAX_DIM else None

    def gradient_and_curvature(z: np.ndarray, w_reg: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        p = expit(z)
        return _gradient(Xt, y, p, w_reg, l2), p * (1.0 - p)

    f, z, w_reg = _objective(w, X, y, l2, reg_mask, center)
    if not math.isfinite(f):
        raise TrainingDivergenceError(
            f"non-finite loss at initialization (loss={f!r}, max|w|={np.max(np.abs(w))!r})"
        )
    g, curvature = gradient_and_curvature(z, w_reg)
    g_norm = math.sqrt(float(g @ g))
    delta = g_norm
    trials = 0
    system, moved = None, True
    while g_norm > config.gtol and trials < config.max_epochs:
        trials += 1
        if moved and hessian is not None:
            system = _newton_system(hessian(curvature), g)
        s, r, on_boundary = _step(g, delta, lambda v: _hessian_product(X, Xt, curvature, penalty, v), system)
        s_norm = math.sqrt(float(s @ s))
        if trials == 1:
            # |g| only starts the region; the first step's length sets its scale
            delta = min(delta, s_norm)
        w_new = w + s
        f_new, z_new, w_reg_new = _objective(w_new, X, y, l2, reg_mask, center)
        gs = float(g @ s)
        predicted = -0.5 * (gs - float(s @ r))
        at_trial = None
        if not math.isfinite(f_new):
            f_new, ratio = math.inf, -math.inf
        elif predicted <= _FLOAT_FLOOR * abs(f):
            at_trial = gradient_and_curvature(z_new, w_reg_new)
            g_trial = at_trial[0]
            ratio = 1.0 if math.sqrt(float(g_trial @ g_trial)) < g_norm else 0.0
        else:
            ratio = (f - f_new) / predicted

        # step-length estimate from the quadratic interpolating f, f_new and g.s
        excess = f_new - f - gs
        alpha = _SIGMA3 if excess <= 0 else max(_SIGMA1, -0.5 * gs / excess)
        if ratio < _ETA0:
            delta = min(alpha * s_norm, _SIGMA2 * delta)
        elif ratio < _ETA1:
            delta = max(_SIGMA1 * delta, min(alpha * s_norm, _SIGMA2 * delta))
        elif ratio < _ETA2:
            delta = max(_SIGMA1 * delta, min(alpha * s_norm, _SIGMA3 * delta))
        elif on_boundary:
            delta = _SIGMA3 * delta
        else:
            delta = max(delta, min(alpha * s_norm, _SIGMA3 * delta))

        moved = ratio > _ETA0
        if moved:
            w, f = w_new, f_new
            g, curvature = at_trial if at_trial is not None else gradient_and_curvature(z_new, w_reg_new)
            g_norm = math.sqrt(float(g @ g))
    return w, f, g, trials


def fit(
    X,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    reg_mask: np.ndarray | None = None,
    encoder: Encoder | None = None,
    init: np.ndarray | None = None,
    center: np.ndarray | None = None,
) -> Model:
    """Minimize J by trust-region Newton (CG steps, or dogleg steps on the
    exact H for at most `_DIRECT_MAX_DIM` columns), stopping at `config.gtol`.

    The penalty pulls the masked weights toward `center` (zero when None).
    `info` records the trial steps (`epochs`), whether the gradient norm
    reached `gtol` (`converged`), the final |g|_inf (`grad_norm`) and J
    there (`final_nll`).  When the encoder is given and no mask is passed,
    its bias block is excluded from regularization.
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

    # overflow to inf/nan is caught by the isfinite checks, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        w, value, grad, trials = _trust_region_newton(X, y, w, config, reg_mask, center)
    info = {
        "epochs": trials,
        "converged": bool(np.linalg.norm(grad) <= config.gtol),
        "grad_norm": float(np.max(np.abs(grad))),
        "final_nll": float(value),
        "n_examples": int(X.shape[0]),
    }
    return Model(weights=w, config=config, info=info)


# ---------------------------------------------------------------------------
# Fit documents

FIT_FILE = "fit.json"


def write_fit(fitted, out_dir: str | Path, spec) -> Path:
    """Write `out_dir/fit.json`: the spec and the fit, one canonical document."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / FIT_FILE
    path.write_text(canonical_json({"spec": spec.to_json(), "fit": fitted.to_json()}), encoding="utf-8")
    return path


def read_fit(spec, out_dir: str | Path, from_json):
    """`from_json` of the fit `out_dir/fit.json` holds, for the spec's `load`;
    a ConfigError when the directory holds no such document, the document
    holds another spec's fit, or the fit has a layout `from_json` does not
    read (one written before a change of layout)."""
    path = Path(out_dir) / FIT_FILE
    if not path.is_file():
        raise ConfigError(f"{out_dir} holds no {FIT_FILE}; model directories of other layouts do not load")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["spec"] != spec.to_json():
        raise ConfigError(
            f"{out_dir} holds a fit of spec {canonical_json(doc['spec']).strip()}, "
            f"not of {canonical_json(spec.to_json()).strip()}"
        )
    try:
        return from_json(doc["fit"])
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{path} holds a fit this version does not read ({type(exc).__name__}: {exc}); "
            "refit to write it again"
        ) from exc


def save_model(fitted: PlainFit, out_dir: str | Path, spec) -> Path:
    """Write a plain fit's document."""
    return write_fit(fitted, out_dir, spec)
