"""Model correctness tests.

Gradients are validated two independent ways: against naive per-sample
loops written here from the chain rule (outer products, no norm
factorization), and against central finite differences of the loss.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udpfl import models
from udpfl.models import (
    ModelSpec,
    _forward,
    _forward_buffers,
    Sample,
    accuracy,
    clipped_gradient_sum,
    init_params,
    local_update,
    loss,
    loss_and_accuracy,
    param_count,
    per_sample_grad_norms,
    per_sample_gradient,
    predict,
)


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = max(np.abs(a).max(), np.abs(b).max())
    if denom < 1e-12:
        return 0.0
    return float(np.abs(a - b).max() / denom)


# --- naive reference implementations (independent of the library's
# --- factorized path: explicit python loops and outer products) ---


def naive_grad(spec, params, x, y):
    if spec.kind == "svm":
        g = spec.kappa * params.copy()
        score = float(params @ x)
        if spec.hinge == "label_threshold":
            if y - score > 0:
                g = g - x
        else:
            if 1.0 - y * score > 0:
                g = g - y * x
        return g
    if spec.kind == "logistic":
        d, c = spec.input_dim, spec.num_classes
        W = params[: d * c].reshape(d, c)
        b = params[d * c :]
        z = W.T @ x + b
        p = np.exp(z - z.max())
        p /= p.sum()
        p[y] -= 1.0
        return np.concatenate([np.outer(x, p).ravel(), p])
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    W1 = params[: d * h].reshape(d, h)
    b1 = params[d * h : d * h + h]
    W2 = params[d * h + h : d * h + h + h * c].reshape(h, c)
    b2 = params[d * h + h + h * c :]
    z1 = W1.T @ x + b1
    hid = np.maximum(z1, 0.0)
    z2 = W2.T @ hid + b2
    p = np.exp(z2 - z2.max())
    p /= p.sum()
    p[y] -= 1.0
    d1 = (W2 @ p) * (z1 > 0)
    return np.concatenate(
        [np.outer(x, d1).ravel(), d1, np.outer(hid, p).ravel(), p]
    )


def naive_clipped_sum(spec, params, X, y, clip):
    total = np.zeros_like(params)
    for i in range(len(X)):
        g = naive_grad(spec, params, X[i], y[i])
        norm = np.linalg.norm(g)
        total += g / max(1.0, norm / clip)
    return total


def fd_grad(spec, params, x, y, h=1e-5):
    g = np.zeros_like(params)
    X1 = x[None, :]
    y1 = np.asarray([y])
    for j in range(len(params)):
        up = params.copy()
        dn = params.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (loss(spec, up, X1, y1) - loss(spec, dn, X1, y1)) / (2 * h)
    return g


def make_batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, spec.input_dim))
    if spec.kind == "svm":
        y = rng.choice([-1, 1], size=n)
    else:
        y = rng.integers(0, spec.num_classes, size=n)
    return X, y


SPECS = [
    ModelSpec("svm", input_dim=6, kappa=0.01),
    ModelSpec("svm", input_dim=6, kappa=0.01, hinge="unit_margin"),
    ModelSpec("logistic", input_dim=5, num_classes=4),
    ModelSpec("mlp", input_dim=7, num_classes=3, hidden_dim=4),
    # the narrowest layers of the softmax network: two classes, one hidden unit
    ModelSpec("logistic", input_dim=5, num_classes=2),
    ModelSpec("mlp", input_dim=7, num_classes=2, hidden_dim=1),
]
SPEC_IDS = [f"{s.kind}-{s.hinge}" for s in SPECS[:4]] + ["logistic-2class", "mlp-hidden1"]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_per_sample_gradient_matches_naive_chain_rule(spec):
    rng = np.random.default_rng(11)
    params = rng.normal(scale=0.5, size=param_count(spec))
    X, y = make_batch(spec, 20, 12)
    for i in range(len(X)):
        got = per_sample_gradient(spec, params, Sample(X[i], y[i]))
        want = naive_grad(spec, params, X[i], y[i])
        assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_per_sample_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(21)
    params = rng.normal(scale=0.5, size=param_count(spec))
    X, y = make_batch(spec, 8, 22)
    for i in range(len(X)):
        if spec.kind == "svm":
            # keep samples off the hinge kink where the loss is not smooth
            score = params @ X[i]
            margin = y[i] - score if spec.hinge == "label_threshold" else 1 - y[i] * score
            if abs(margin) < 1e-3:
                continue
        got = per_sample_gradient(spec, params, Sample(X[i], y[i]))
        want = fd_grad(spec, params, X[i], y[i])
        assert rel_err(got, want) < 1e-6


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_grad_norms_match_materialized_gradients(spec):
    rng = np.random.default_rng(31)
    params = rng.normal(scale=0.5, size=param_count(spec))
    X, y = make_batch(spec, 30, 32)
    got = per_sample_grad_norms(spec, params, X, y)
    want = np.array(
        [np.linalg.norm(naive_grad(spec, params, X[i], y[i])) for i in range(len(X))]
    )
    assert rel_err(got, want) < 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("clip", [0.05, 0.5, 5.0, 1e6])
def test_clipped_sum_matches_naive_loop(spec, clip):
    rng = np.random.default_rng(41)
    params = rng.normal(scale=0.5, size=param_count(spec))
    X, y = make_batch(spec, 25, 42)
    got = clipped_gradient_sum(spec, params, X, y, clip)
    want = naive_clipped_sum(spec, params, X, y, clip)
    assert rel_err(got, want) < 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_local_update_is_clipped_gradient_step(spec):
    rng = np.random.default_rng(51)
    params = rng.normal(scale=0.5, size=param_count(spec))
    X, y = make_batch(spec, 16, 52)
    eta, clip = 0.1, 0.3
    got = local_update(spec, params, X, y, eta, clip)
    want = params - (eta / len(X)) * naive_clipped_sum(spec, params, X, y, clip)
    assert rel_err(got, want) < 1e-12
    # displacement of a single local step is bounded by eta*clip
    assert np.linalg.norm(got - params) <= eta * clip * (1 + 1e-12)


def test_local_update_zero_eta_is_identity():
    spec = SPECS[2]
    rng = np.random.default_rng(61)
    params = rng.normal(size=param_count(spec))
    X, y = make_batch(spec, 5, 62)
    out = local_update(spec, params, X, y, 0.0, 1.0)
    assert np.array_equal(out, params)
    assert out is not params


@given(
    spec_index=st.integers(0, len(SPECS) - 1),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 100.0),
    clip=st.floats(1e-6, 1e4),
)
@settings(max_examples=200, deadline=None)
def test_clipped_gradient_sum_clips_a_single_sample(spec_index, seed, scale, clip):
    """A one-sample batch's clipped sum is its gradient scaled to norm <= clip:
    unchanged inside the ball, parallel to it outside."""
    spec = SPECS[spec_index]
    rng = np.random.default_rng(seed)
    params = scale * rng.normal(size=param_count(spec))
    X, y = make_batch(spec, 1, seed)
    X = scale * X
    g = per_sample_gradient(spec, params, Sample(X[0], y[0]))
    out = clipped_gradient_sum(spec, params, X, y, clip)
    norm = np.linalg.norm(g)
    assert np.linalg.norm(out) <= clip * (1 + 1e-9)
    if norm <= clip * (1 - 1e-9):
        assert np.array_equal(out, g)
    elif norm > clip:
        assert rel_err(out / np.linalg.norm(out), g / norm) < 1e-9


@pytest.mark.parametrize("feature_major", [False, True], ids=["row-major", "feature-major"])
@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_forward_into_row_ranges_of_either_layout_equals_a_fresh_pass_bitwise(
    spec, n, feature_major
):
    rng = np.random.default_rng(71)
    params = rng.normal(scale=0.5, size=param_count(spec))
    X, _ = make_batch(spec, n + 5, 72)
    inputs, pre, scores = _forward_buffers(spec, X, feature_major)
    hidden = [*inputs[1:], *pre]
    assert len(hidden) == 2 * (spec.kind == "mlp")
    for A in hidden:  # feature-major: laid out as the transpose of a C (hidden, rows) array
        assert A.shape == (n + 5, spec.hidden_dim)
        assert (A.T if feature_major else A).flags.c_contiguous
    # rows 3..n+3 of the buffers take a pass in place, as _Stacked.fill writes one client's
    r = slice(3, n + 3)
    got = _forward(spec, params, X[r], ([A[r] for A in inputs], [Z[r] for Z in pre], scores[r]))
    want = _forward(spec, params, X[r], _forward_buffers(spec, X[r], feature_major))
    for a, b in zip([*got[0], *got[1], got[2]], [*want[0], *want[1], want[2]]):
        assert np.array_equal(a, b)


def test_scoring_passes_are_feature_major_and_passes_for_the_backward_row_major(monkeypatch):
    spec = SPECS[3]
    params = np.random.default_rng(73).normal(scale=0.5, size=param_count(spec))
    X, y = make_batch(spec, 37, 74)
    seen, forward = [], models._forward

    def spy(*args):
        fwd = forward(*args)
        seen.append(fwd[1][0].T.flags.c_contiguous)  # the pre-activation, (37, 4)
        return fwd

    monkeypatch.setattr(models, "_forward", spy)
    loss(spec, params, X, y)
    predict(spec, params, X)
    loss_and_accuracy(spec, params, X, y)
    assert seen == [True] * 3
    local_update(spec, params, X, y, 0.1, 0.5)
    per_sample_grad_norms(spec, params, X, y)
    assert seen == [True] * 3 + [False] * 2


def test_mlp_init_is_bounded_and_seeded():
    spec = ModelSpec("mlp", input_dim=16, num_classes=10, hidden_dim=8)
    p1 = init_params(spec, np.random.default_rng(7))
    p2 = init_params(spec, np.random.default_rng(7))
    p3 = init_params(spec, np.random.default_rng(8))
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    d, h = spec.input_dim, spec.hidden_dim
    assert np.abs(p1[: d * h + h]).max() <= 1.0 / np.sqrt(d)
    assert np.abs(p1[d * h + h :]).max() <= 1.0 / np.sqrt(h)


def test_linear_models_init_at_zero():
    for spec in (SPECS[0], SPECS[2]):
        p = init_params(spec, np.random.default_rng(0))
        assert p.shape == (param_count(spec),)
        assert np.all(p == 0.0)


def test_param_count_layouts():
    assert param_count(ModelSpec("svm", input_dim=9, kappa=0.1)) == 9
    assert param_count(ModelSpec("logistic", input_dim=4, num_classes=3)) == 15
    assert (
        param_count(ModelSpec("mlp", input_dim=784, num_classes=10, hidden_dim=32))
        == 784 * 32 + 32 + 32 * 10 + 10
    )


def test_softmax_losses_are_stable_at_large_logit_scale():
    spec = ModelSpec("logistic", input_dim=3, num_classes=3)
    params = np.zeros(param_count(spec))
    params[:9] = np.array([[500.0, 0, 0], [0, 500.0, 0], [0, 0, 500.0]]).ravel()
    X = np.eye(3)
    y = np.array([0, 1, 2])
    val = loss(spec, params, X, y)
    assert np.isfinite(val)
    assert val < 1e-12  # confidently correct -> near-zero cross entropy
    assert accuracy(spec, params, X, y) == 1.0


def test_svm_loss_at_origin_and_predictions():
    spec = ModelSpec("svm", input_dim=2, kappa=0.01)
    w = np.zeros(2)
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1, -1])
    # at w=0 the hinge max(y - 0, 0) keeps only positive labels
    assert loss(spec, w, X, y) == pytest.approx(0.5)
    w = np.array([1.0, 0.0])
    assert np.array_equal(predict(spec, w, X), np.array([1, -1]))
    assert accuracy(spec, w, X, y) == 1.0


def test_hinge_subgradient_steps_approach_plateau():
    # subgradient steps on the ridge-regularized hinge are not a descent
    # method, but the trajectory should settle near its best value
    rng = np.random.default_rng(71)
    spec = ModelSpec("svm", input_dim=10, kappa=0.05)
    X = rng.normal(size=(60, 10))
    w_true = rng.normal(size=10)
    y = np.where(X @ w_true >= 0, 1, -1)
    gram_top = np.linalg.eigvalsh(X.T @ X / len(X)).max()
    eta = 1.0 / (spec.kappa + gram_top)
    w = np.zeros(10)
    values = [loss(spec, w, X, y)]
    for _ in range(150):
        w = local_update(spec, w, X, y, eta, clip=1e9)
        values.append(loss(spec, w, X, y))
    assert values[-1] < 0.5 * values[0]
    assert values[-1] <= min(values) + 5e-3


def test_logistic_descent_is_monotone_at_smoothness_step_size():
    # smooth objective: eta = 1/L with L from the bias-augmented Gram matrix
    # (softmax-logit Hessian is at most I/2) must never increase the loss
    rng = np.random.default_rng(91)
    spec = ModelSpec("logistic", input_dim=6, num_classes=3)
    X = rng.normal(size=(80, 6))
    y = np.argmax(X @ rng.normal(size=(6, 3)), axis=1)
    Xa = np.hstack([X, np.ones((80, 1))])
    eta = 1.0 / (0.5 * np.linalg.eigvalsh(Xa.T @ Xa / 80).max())
    p = np.zeros(param_count(spec))
    values = [loss(spec, p, X, y)]
    for _ in range(200):
        p = local_update(spec, p, X, y, eta, clip=1e9)
        values.append(loss(spec, p, X, y))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < 0.2 * values[0]


def test_mlp_training_reduces_loss_on_tiny_problem():
    rng = np.random.default_rng(81)
    spec = ModelSpec("mlp", input_dim=5, num_classes=3, hidden_dim=6)
    X = rng.normal(size=(90, 5))
    y = rng.integers(0, 3, size=90)
    # make labels learnable: class decided by a random linear map
    M = rng.normal(size=(5, 3))
    y = np.argmax(X @ M, axis=1)
    params = init_params(spec, rng)
    first = loss(spec, params, X, y)
    for _ in range(300):
        params = local_update(spec, params, X, y, eta=0.5, clip=1e9)
    assert loss(spec, params, X, y) < 0.5 * first
    assert accuracy(spec, params, X, y) > 0.8


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_loss_and_accuracy_equals_separate_passes(spec):
    X, y = make_batch(spec, 50, seed=8)
    params = np.random.default_rng(9).normal(size=param_count(spec))
    fused = loss_and_accuracy(spec, params, X, y)
    assert fused == (loss(spec, params, X, y), accuracy(spec, params, X, y))
    assert 0.0 < fused[1] < 1.0  # a non-degenerate comparison


_LOGISTIC = ModelSpec("logistic", input_dim=3, num_classes=2)
_SVM = ModelSpec("svm", input_dim=3, kappa=0.1)


@pytest.mark.parametrize(
    "spec, params, X, y",
    [
        (_LOGISTIC, np.zeros(8), np.zeros((2, 4)), np.array([0, 1])),
        (_LOGISTIC, np.zeros(8), np.zeros((0, 3)), np.array([], dtype=int)),
        (_LOGISTIC, np.zeros(8), np.zeros((2, 3)), np.array([0, 1, 1])),
        (_LOGISTIC, np.zeros(8), np.zeros((2, 3)), np.array([0, 5])),
        (_LOGISTIC, np.zeros(8), np.zeros((2, 3)), np.array([0.0, 1.0])),
        (_LOGISTIC, np.zeros(7), np.zeros((2, 3)), np.array([0, 1])),
        (_SVM, np.zeros(3), np.zeros((1, 3)), np.array([0])),
    ],
    ids=["features", "empty", "label-shape", "label-range", "label-dtype", "params", "svm-labels"],
)
def test_loss_and_accuracy_validates_like_loss(spec, params, X, y):
    with pytest.raises(ValueError) as expected:
        loss(spec, params, X, y)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        loss_and_accuracy(spec, params, X, y)


def test_validation_errors():
    spec = ModelSpec("logistic", input_dim=3, num_classes=2)
    p = np.zeros(param_count(spec))
    with pytest.raises(ValueError, match="features"):
        loss(spec, p, np.zeros((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError, match="empty"):
        loss(spec, p, np.zeros((0, 3)), np.array([], dtype=int))
    with pytest.raises(ValueError, match="labels"):
        loss(spec, p, np.zeros((2, 3)), np.array([0, 5]))
    with pytest.raises(ValueError, match="labels"):
        loss(ModelSpec("svm", input_dim=3, kappa=0.1), np.zeros(3), np.zeros((1, 3)), np.array([0]))
    with pytest.raises(ValueError, match="clip"):
        clipped_gradient_sum(spec, p, np.zeros((1, 3)), np.array([0]), 0.0)
    with pytest.raises(ValueError, match="kind"):
        ModelSpec("tree", input_dim=3)
    with pytest.raises(ValueError, match="kappa"):
        ModelSpec("svm", input_dim=3)
    with pytest.raises(ValueError, match="hidden"):
        ModelSpec("mlp", input_dim=3, num_classes=2)
