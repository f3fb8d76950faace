"""From-scratch models with per-sample gradients and L2 clipping.

Three model kinds share one flat-parameter interface:

* ``svm``: linear scorer with ridge penalty and a hinge written as
  ``max(y - w.x, 0)`` on labels y in {+1, -1}.  This is the form the
  simulated experiments use; the conventional ``max(1 - y*w.x, 0)`` margin
  hinge is available as ``hinge="unit_margin"``.
* ``logistic``: multinomial logistic regression (weights + bias).
* ``mlp``: one hidden ReLU layer, softmax cross-entropy readout.

Parameters are a single flat float64 vector (layout documented per kind
below), which is what federated aggregation and noise injection operate on.

Per-sample gradient norms are computed without materializing per-sample
gradient matrices: every per-sample gradient here factors into outer
products of forward/backward vectors, so its squared norm is a product of
their squared norms.  ``local_update`` exploits that to apply exact
per-sample clipping at full-batch cost.

All operations are pure functions of (spec, params, data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

KINDS = ("svm", "logistic", "mlp")
HINGE_FORMS = ("label_threshold", "unit_margin")


class Sample(NamedTuple):
    features: np.ndarray
    label: int


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description.

    Parameter layouts:
      svm      -> [w] of length input_dim (no bias; the scorer is w.x)
      logistic -> [W.ravel(), b] with W (input_dim, num_classes)
      mlp      -> [W1.ravel(), b1, W2.ravel(), b2] with W1 (input_dim,
                  hidden_dim), W2 (hidden_dim, num_classes)
    """

    kind: str
    input_dim: int
    num_classes: int = 2
    hidden_dim: int = 0
    kappa: float = 0.0
    hinge: str = "label_threshold"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.kind != "svm" and self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ValueError(f"mlp needs hidden_dim >= 1, got {self.hidden_dim}")
        if self.kind == "svm" and self.kappa <= 0.0:
            raise ValueError(f"svm needs kappa > 0, got {self.kappa}")
        if self.hinge not in HINGE_FORMS:
            raise ValueError(f"hinge must be one of {HINGE_FORMS}, got {self.hinge!r}")


def param_count(spec: ModelSpec) -> int:
    if spec.kind == "svm":
        return spec.input_dim
    if spec.kind == "logistic":
        return spec.input_dim * spec.num_classes + spec.num_classes
    return (
        spec.input_dim * spec.hidden_dim
        + spec.hidden_dim
        + spec.hidden_dim * spec.num_classes
        + spec.num_classes
    )


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial flat parameter vector.

    Linear models start at zero.  MLP layers draw uniformly from
    [-1/sqrt(fan_in), +1/sqrt(fan_in)] so early gradients stay bounded.
    """
    if spec.kind in ("svm", "logistic"):
        return np.zeros(param_count(spec))
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    bound1 = 1.0 / np.sqrt(d)
    bound2 = 1.0 / np.sqrt(h)
    return np.concatenate(
        [
            rng.uniform(-bound1, bound1, d * h),
            rng.uniform(-bound1, bound1, h),
            rng.uniform(-bound2, bound2, h * c),
            rng.uniform(-bound2, bound2, c),
        ]
    )


def _unpack_logistic(spec: ModelSpec, params: np.ndarray):
    d, c = spec.input_dim, spec.num_classes
    return params[: d * c].reshape(d, c), params[d * c :]


def _unpack_mlp(spec: ModelSpec, params: np.ndarray):
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    i = 0
    W1 = params[i : i + d * h].reshape(d, h)
    i += d * h
    b1 = params[i : i + h]
    i += h
    W2 = params[i : i + h * c].reshape(h, c)
    i += h * c
    b2 = params[i : i + c]
    return W1, b1, W2, b2


def _check_batch(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(
            f"features must be (n, {spec.input_dim}), got {X.shape}"
        )
    if len(X) == 0:
        raise ValueError("empty batch")
    if y.shape != (len(X),):
        raise ValueError(f"labels must be ({len(X)},), got {y.shape}")
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"params must have length {param_count(spec)}, got {params.shape}"
        )
    if spec.kind == "svm":
        if not np.all(np.isin(y, (-1, 1))):
            raise ValueError("svm labels must be +1/-1")
    else:
        if y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= spec.num_classes:
            raise ValueError(f"labels must be ints in [0, {spec.num_classes})")
    return X, y


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _scores(spec: ModelSpec, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The forward pass: per-sample scores (svm) or logits (logistic, mlp)."""
    if spec.kind == "svm":
        return X @ params
    if spec.kind == "logistic":
        W, b = _unpack_logistic(spec, params)
        return X @ W + b
    W1, b1, W2, b2 = _unpack_mlp(spec, params)
    return np.maximum(X @ W1 + b1, 0.0) @ W2 + b2


def _loss_from_scores(spec, params, scores, y) -> float:
    if spec.kind == "svm":
        slack = y - scores if spec.hinge == "label_threshold" else 1.0 - y * scores
        return float(np.maximum(slack, 0.0).mean() + 0.5 * spec.kappa * params @ params)
    logp = _log_softmax(scores)
    return float(-logp[np.arange(len(y)), y].mean())


def _labels_from_scores(spec, scores) -> np.ndarray:
    if spec.kind == "svm":
        return np.where(scores >= 0.0, 1, -1)
    return np.argmax(scores, axis=1)


def loss(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean per-sample loss (the svm per-sample loss includes the ridge term)."""
    X, y = _check_batch(spec, params, X, y)
    return _loss_from_scores(spec, params, _scores(spec, params, X), y)


def predict(spec: ModelSpec, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    return _labels_from_scores(spec, _scores(spec, params, np.asarray(X, dtype=float)))


def accuracy(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(predict(spec, params, X) == np.asarray(y)))


def loss_and_accuracy(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple:
    """``(loss(...), accuracy(...))`` from a single forward pass."""
    X, y = _check_batch(spec, params, X, y)
    scores = _scores(spec, params, X)
    return (
        _loss_from_scores(spec, params, scores, y),
        float(np.mean(_labels_from_scores(spec, scores) == y)),
    )


def _backward(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray):
    """``(norms2, grad_sum)``: per-sample squared gradient norms, and a function
    mapping per-sample weights s to the flat sum of s[i] times sample i's gradient.
    """
    n = len(X)
    if spec.kind == "svm":
        scores = X @ params
        if spec.hinge == "label_threshold":
            coeff = ((y - scores) > 0.0).astype(float)  # hinge gradient is -coeff*x
        else:
            coeff = ((1.0 - y * scores) > 0.0).astype(float) * y
        norms2 = (
            spec.kappa**2 * float(params @ params)
            - 2.0 * spec.kappa * coeff * scores
            + np.abs(coeff) * (X * X).sum(axis=1)
        )
        return norms2, lambda s: s.sum() * spec.kappa * params - X.T @ (s * coeff)
    if spec.kind == "logistic":
        W, b = _unpack_logistic(spec, params)
        D = _softmax(X @ W + b)
        D[np.arange(n), y] -= 1.0
        norms2 = (D * D).sum(axis=1) * ((X * X).sum(axis=1) + 1.0)

        def grad_sum(s):
            Ds = D * s[:, None]
            return np.concatenate([(X.T @ Ds).ravel(), Ds.sum(axis=0)])

        return norms2, grad_sum
    W1, b1, W2, b2 = _unpack_mlp(spec, params)
    Z1 = X @ W1 + b1
    H = np.maximum(Z1, 0.0)
    D2 = _softmax(H @ W2 + b2)
    D2[np.arange(n), y] -= 1.0
    D1 = (D2 @ W2.T) * (Z1 > 0.0)
    x2, h2 = (X * X).sum(axis=1) + 1.0, (H * H).sum(axis=1) + 1.0
    norms2 = (D1 * D1).sum(axis=1) * x2 + (D2 * D2).sum(axis=1) * h2

    def grad_sum(s):
        D1s, D2s = D1 * s[:, None], D2 * s[:, None]
        return np.concatenate(
            [(X.T @ D1s).ravel(), D1s.sum(axis=0), (H.T @ D2s).ravel(), D2s.sum(axis=0)]
        )

    return norms2, grad_sum


def per_sample_grad_norms(
    spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """L2 norms of the unclipped per-sample gradients."""
    X, y = _check_batch(spec, params, X, y)
    norms2, _ = _backward(spec, params, X, y)
    return np.sqrt(np.maximum(norms2, 0.0))


def _clip_factors(norms2: np.ndarray, clip: float) -> np.ndarray:
    # 1/max(1, norm/clip) per sample, with zero-gradient samples untouched.
    norms = np.sqrt(np.maximum(norms2, 0.0))
    return np.where(norms > clip, clip / np.where(norms > 0, norms, 1.0), 1.0)


def clipped_gradient_sum(
    spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray, clip: float
) -> np.ndarray:
    """Sum over the batch of per-sample gradients clipped to norm <= clip."""
    if clip <= 0.0:
        raise ValueError(f"clip threshold must be > 0, got {clip}")
    X, y = _check_batch(spec, params, X, y)
    norms2, grad_sum = _backward(spec, params, X, y)
    return grad_sum(_clip_factors(norms2, clip))


def per_sample_gradient(spec: ModelSpec, params: np.ndarray, sample: Sample) -> np.ndarray:
    """Gradient of the per-sample loss at one sample, as a flat vector."""
    x = np.asarray(sample.features, dtype=float)[None, :]
    y = np.asarray([sample.label])
    # A single-sample batch with an unreachable threshold leaves the gradient
    # unclipped, so the clipped sum is exactly the per-sample gradient.
    return clipped_gradient_sum(spec, params, x, y, clip=np.inf)


def local_update(
    spec: ModelSpec,
    params: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    eta: float,
    clip: float,
) -> np.ndarray:
    """One full-batch step: params - (eta/n) * sum of clipped per-sample grads."""
    if eta < 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ValueError("empty shard")
    if eta == 0.0:
        return params.copy()
    return params - (eta / len(X)) * clipped_gradient_sum(spec, params, X, y, clip)
