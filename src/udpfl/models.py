"""From-scratch models with per-sample gradients and L2 clipping.

Three model kinds share one flat-parameter interface:

* ``svm``: linear scorer with ridge penalty and a hinge written as
  ``max(y - w.x, 0)`` on labels y in {+1, -1}.  This is the form the
  simulated experiments use; the conventional ``max(1 - y*w.x, 0)`` margin
  hinge is available as ``hinge="unit_margin"``.
* ``logistic`` and ``mlp``: a softmax network with cross-entropy loss.
  Logistic regression has no hidden layer; the MLP has one hidden ReLU layer.

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

from . import ConfigError, _is_int

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
      logistic, mlp -> [W1.ravel(), b1, W2.ravel(), b2, ...], one (W, b) per
                  layer, W (fan_in, fan_out), over the widths input_dim,
                  hidden_dim (mlp only), num_classes
    """

    kind: str
    input_dim: int
    num_classes: int = 2
    hidden_dim: int = 0
    kappa: float = 0.0
    hinge: str = "label_threshold"

    def __post_init__(self) -> None:
        v = []
        if self.kind not in KINDS:
            v.append(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (_is_int(self.input_dim) and self.input_dim >= 1):
            v.append(f"input_dim must be an int >= 1, got {self.input_dim}")
        if self.kind != "svm" and self.num_classes < 2:
            v.append(f"num_classes must be >= 2, got {self.num_classes}")
        if not _is_int(self.hidden_dim) or self.kind == "mlp" and self.hidden_dim < 1:
            v.append(f"hidden_dim must be an int, >= 1 for mlp, got {self.hidden_dim}")
        if self.kind == "svm" and not self.kappa > 0.0:
            v.append(f"kappa must be > 0 for svm, got {self.kappa}")
        if self.hinge not in HINGE_FORMS:
            v.append(f"hinge must be one of {HINGE_FORMS}, got {self.hinge!r}")
        if v:
            raise ConfigError(v)


def _widths(spec: ModelSpec) -> tuple:
    """The softmax network's layer widths, input to output."""
    hidden = (spec.hidden_dim,) if spec.kind == "mlp" else ()
    return (spec.input_dim, *hidden, spec.num_classes)


def param_count(spec: ModelSpec) -> int:
    if spec.kind == "svm":
        return spec.input_dim
    w = _widths(spec)
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(w, w[1:]))


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial flat parameter vector.

    Linear models start at zero.  MLP layers draw uniformly from
    [-1/sqrt(fan_in), +1/sqrt(fan_in)] so early gradients stay bounded.
    """
    if spec.kind != "mlp":
        return np.zeros(param_count(spec))
    w, draws = _widths(spec), []
    for fan_in, fan_out in zip(w, w[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        draws += [rng.uniform(-bound, bound, fan_in * fan_out), rng.uniform(-bound, bound, fan_out)]
    return np.concatenate(draws)


def _layers(spec: ModelSpec, params: np.ndarray) -> list:
    """The softmax network's ``(W, b)`` per layer, as views of ``params``."""
    w, layers, i = _widths(spec), [], 0
    for fan_in, fan_out in zip(w, w[1:]):
        W = params[i : i + fan_in * fan_out].reshape(fan_in, fan_out)
        i += fan_in * fan_out
        layers.append((W, params[i : i + fan_out]))
        i += fan_out
    return layers


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
        if not (np.abs(y) == 1).all():
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


def _forward_buffers(spec: ModelSpec, X: np.ndarray, feature_major: bool = False) -> tuple:
    """Uninitialized ``(inputs, pre, scores)`` for a forward pass over X's rows.

    ``feature_major`` lays each hidden pre-activation and activation out as the
    transpose of a C-contiguous ``(hidden, rows)`` array, so numpy hands OpenBLAS
    the first layer's product with the rows on the fast axis: at d = 784 that takes
    0.6-0.75x the time of the row-major form over 10,000 rows.  Only a pass that
    just scores uses it.  A pass that ``_backward`` reads stays row-major: the
    hidden delta must be row-major to keep its bits independent of the rows per
    call, masking it by a feature-major pre-activation costs a transpose, and a
    client's row range of a feature-major buffer is 2-3x slower to update.
    """
    n, (_, *hidden, c) = len(X), _widths(spec)
    pre = [np.empty((h, n)).T if feature_major else np.empty((n, h)) for h in hidden]
    return [X, *map(np.empty_like, pre)], pre, np.empty(n if spec.kind == "svm" else (n, c))


def _forward(spec: ModelSpec, params: np.ndarray, X: np.ndarray, out=None) -> tuple:
    """The forward pass ``(inputs, pre, scores)``: every layer's input (``[X]``
    for svm), each hidden layer's pre-activation, and the per-sample scores
    (svm) or logits.  ``out``, buffers from ``_forward_buffers`` for X's rows (or
    a row range of them), receives the pass in place; without it the hidden
    arrays are row-major.
    """
    inputs, pre, scores = out if out is not None else _forward_buffers(spec, X)
    if spec.kind == "svm":
        return inputs, pre, np.matmul(X, params, out=scores)
    *hidden, (W, b) = _layers(spec, params)
    for (Wh, bh), Z, H in zip(hidden, pre, inputs[1:]):
        np.add(np.matmul(X, Wh, out=Z), bh, out=Z)
        X = np.maximum(Z, 0.0, out=H)
    np.add(np.matmul(X, W, out=scores), b, out=scores)
    return inputs, pre, scores


def _scores(spec: ModelSpec, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-sample scores (svm) or logits (softmax network), from a feature-major pass."""
    return _forward(spec, params, X, _forward_buffers(spec, X, feature_major=True))[2]


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


def _backward(spec: ModelSpec, params: np.ndarray, fwd: tuple, y: np.ndarray, sq_norms):
    """``(norms2, grad_sum)`` from the forward ``fwd`` of rows with labels y and squared
    norms ``sq_norms``: per-sample squared gradient norms, and a function mapping
    weights s and a row range to the flat sum over it of s[i] times row i's gradient.
    """
    inputs, pre, scores = fwd
    if spec.kind == "svm":
        X = inputs[0]
        if spec.hinge == "label_threshold":
            coeff = ((y - scores) > 0.0).astype(float)  # hinge gradient is -coeff*x
        else:
            coeff = ((1.0 - y * scores) > 0.0).astype(float) * y
        norms2 = (
            spec.kappa**2 * float(params @ params)
            - 2.0 * spec.kappa * coeff * scores
            + np.abs(coeff) * sq_norms
        )
        return norms2, lambda s, r: s[r].sum() * spec.kappa * params - X[r].T @ (s[r] * coeff[r])
    layers = _layers(spec, params)
    deltas = [_softmax(scores)]
    deltas[0][np.arange(len(y)), y] -= 1.0
    for (W, _), Z in zip(layers[:0:-1], pre[::-1]):  # back through the hidden layers
        # numpy sends a lone row to gemv, which rounds apart from the gemm that the
        # same row takes inside a larger batch; a doubled row goes through gemm too
        P = deltas[0] if len(Z) > 1 else np.repeat(deltas[0], 2, axis=0)
        deltas.insert(0, (P @ W.T)[: len(Z)] * (Z > 0.0))
    # a layer's per-sample gradient is the outer product of [input, 1] and its delta
    sq = [sq_norms, *((A * A).sum(axis=1) for A in inputs[1:])]
    norms2 = sum((D * D).sum(axis=1) * (a2 + 1.0) for a2, D in zip(sq, deltas))

    def grad_sum(s, rows):
        parts = []
        for A, D in zip(inputs, deltas):
            Ds = D[rows] * s[rows, None]
            # A.T @ Ds as (Ds.T @ A).T: the faster orientation for OpenBLAS at d = 784
            parts += [(Ds.T @ A[rows]).T.ravel(), Ds.sum(axis=0)]
        return np.concatenate(parts)

    return norms2, grad_sum


def per_sample_grad_norms(
    spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """L2 norms of the unclipped per-sample gradients."""
    X, y = _check_batch(spec, params, X, y)
    norms2, _ = _backward(spec, params, _forward(spec, params, X), y, (X * X).sum(axis=1))
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
    norms2, grad_sum = _backward(spec, params, _forward(spec, params, X), y, (X * X).sum(axis=1))
    return grad_sum(_clip_factors(norms2, clip), slice(None))


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
