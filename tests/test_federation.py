"""Federated loop tests.

The noiseless-equivalence tests compare against a centralized clipped
gradient descent loop written here from scratch (pooled data, no
federation machinery).
"""

import functools
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from conftest import assert_within_inverse_variance_budget
from test_models import SPEC_IDS, SPECS, make_batch
from udpfl import federation, models
from udpfl.accountant import (
    BudgetExhausted,
    MomentLedger,
    PrivacyBudget,
    calibrate_sigma,
    sensitivity,
)
from udpfl.data import Dataset, PartitionPlan, partition, synth_linear
from udpfl.federation import (
    ClientState,
    FederationConfig,
    RoundRecord,
    ServerState,
    add_noise,
    aggregate,
    evaluate,
    run_round,
    run_training,
    sample_clients,
)
from udpfl.models import (
    HINGE_FORMS,
    ModelSpec,
    clipped_gradient_sum,
    init_params,
    local_update,
    loss,
    param_count,
)

INF = float("inf")


@pytest.fixture
def helper_always(monkeypatch):
    """Every round job goes to the helper thread, however small (where there is one)."""
    monkeypatch.setattr(federation, "_HELPER_MIN_BYTES", 0)


def make_federation(
    n_clients=5,
    per_client=10,
    epsilon=INF,
    delta=0.001,
    K=None,
    T=20,
    eta=0.05,
    clip=0.5,
    seed=0,
    weight_mode="by_size",
    sizes=None,
):
    """Small logistic task split across clients; returns everything a test needs."""
    spec = ModelSpec("logistic", input_dim=4, num_classes=3)
    rng = np.random.default_rng(1000 + seed)
    sizes = sizes or [per_client] * n_clients
    n = sum(sizes) + 30
    X = rng.normal(size=(n, 4))
    y = np.argmax(X @ rng.normal(size=(4, 3)), axis=1)
    ds = Dataset(X, y, 3)
    shards, start = [], 0
    for s in sizes:
        shards.append(ds.subset(np.arange(start, start + s)))
        start += s
    test = ds.subset(np.arange(start, n))
    train_eval = ds.subset(np.arange(0, start))
    budget = PrivacyBudget(epsilon, delta)
    cfg = FederationConfig(
        spec=spec, K=K or n_clients, eta=eta, clip=clip, seed=seed,
        weight_mode=weight_mode,
    )
    clients = [
        ClientState(
            shards[i],
            MomentLedger(budget, cfg.K / n_clients, sensitivity(eta, clip, len(shards[i]))),
        )
        for i in range(n_clients)
    ]
    server = ServerState(global_params=np.zeros(param_count(spec)), T=T)
    return spec, clients, cfg, server, train_eval, test


def centralized_clipped_gd(spec, params, shards, eta, clip, steps):
    """Independent oracle: pooled per-sample-clipped GD with size weighting."""
    X = np.concatenate([s.features for s in shards])
    y = np.concatenate([s.labels for s in shards])
    w = params.copy()
    for _ in range(steps):
        w = w - (eta / len(X)) * clipped_gradient_sum(spec, w, X, y, clip)
    return w


# --- sampling ---


def test_sample_clients_full_participation():
    rng = np.random.default_rng(0)
    assert sample_clients(4, 4, rng) == (0, 1, 2, 3)


def test_sample_clients_subset_properties():
    rng = np.random.default_rng(1)
    s = sample_clients(50, 30, rng)
    assert len(s) == 30 and len(set(s)) == 30
    assert s == tuple(sorted(s))
    assert all(0 <= i < 50 for i in s)


def test_sample_clients_rejects_bad_K():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        sample_clients(5, 6, rng)
    with pytest.raises(ValueError):
        sample_clients(5, 0, rng)


def test_sample_clients_frequency_tracks_q():
    U, K, rounds = 20, 12, 20000
    counts = np.zeros(U)
    for r in range(rounds):
        rng = np.random.default_rng((7, r))
        for i in sample_clients(U, K, rng):
            counts[i] += 1
    freq = counts / rounds
    assert np.abs(freq - K / U).max() < 0.02 * (K / U)


# --- noise ---


def test_add_noise_zero_sigma_is_identity():
    p = np.array([1.0, -2.0, 0.0])
    out = add_noise(p, 0.0, np.random.default_rng(3))
    assert np.array_equal(out, p)
    assert out is not p


def test_add_noise_moments():
    n = 200000
    p = np.zeros(n)
    out = add_noise(p, 0.25, np.random.default_rng(4))
    assert abs(out.std() - 0.25) < 0.03 * 0.25
    assert abs(out.mean()) < 5 * 0.25 / np.sqrt(n)


def test_add_noise_deterministic_given_stream():
    p = np.ones(100)
    a = add_noise(p, 0.1, np.random.default_rng(5))
    b = add_noise(p, 0.1, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_add_noise_scale_shares_draws_across_sigmas():
    # same stream, different sigma: perturbations are exact scalings
    p = np.zeros(50)
    a = add_noise(p, 0.1, np.random.default_rng(6))
    b = add_noise(p, 0.2, np.random.default_rng(6))
    assert np.allclose(2.0 * a, b, rtol=1e-15)


# --- aggregation ---


def test_aggregate_consensus_and_midpoint():
    p = np.array([3.0, 1.0])
    assert np.array_equal(aggregate([(0.4, p), (0.6, p)]), p)
    out = aggregate([(0.5, np.zeros(3)), (0.5, 2.0 * np.ones(3))])
    assert np.array_equal(out, np.ones(3))


def test_aggregate_weight_validation():
    p = np.zeros(2)
    with pytest.raises(ValueError, match="sum"):
        aggregate([(0.5, p), (0.6, p)])
    with pytest.raises(ValueError, match="positive"):
        aggregate([(1.5, p), (-0.5, p)])
    with pytest.raises(ValueError, match="uploads"):
        aggregate([])


def test_aggregate_commutes_with_affine_maps():
    rng = np.random.default_rng(8)
    uploads = [(w, rng.normal(size=6)) for w in (0.2, 0.3, 0.5)]
    A = rng.normal(size=(6, 6))
    b = rng.normal(size=6)
    mapped = [(w, A @ p + b) for w, p in uploads]
    assert np.allclose(aggregate(mapped), A @ aggregate(uploads) + b, atol=1e-12)


# --- rounds ---


def test_noiseless_full_participation_equals_centralized_oracle():
    spec, clients, cfg, server, train_eval, test = make_federation(
        n_clients=5, per_client=10, T=25
    )
    stop = run_training(server, clients, cfg, test)
    oracle = centralized_clipped_gd(
        spec, np.zeros(param_count(spec)), [c.shard for c in clients],
        cfg.eta, cfg.clip, 25,
    )
    assert stop == "completed"
    assert np.abs(server.global_params - oracle).max() < 1e-10


def test_noiseless_unequal_shards_match_size_weighted_oracle():
    spec, clients, cfg, server, train_eval, test = make_federation(
        sizes=[4, 8, 12, 16], n_clients=4, T=15
    )
    run_training(server, clients, cfg, test)
    oracle = centralized_clipped_gd(
        spec, np.zeros(param_count(spec)), [c.shard for c in clients],
        cfg.eta, cfg.clip, 15,
    )
    assert np.abs(server.global_params - oracle).max() < 1e-10


def test_run_round_appends_complete_record():
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=4.0, K=3, T=10
    )
    rec = run_round(server, clients, cfg, test)
    assert isinstance(rec, RoundRecord)
    assert rec.round == 0 and rec.T_at_start == 10
    assert len(rec.selected) == 3 and rec.selected == tuple(sorted(rec.selected))
    assert set(rec.sigma_by_client) == set(rec.selected)
    assert all(s > 0 for s in rec.sigma_by_client.values())
    assert np.isfinite(rec.train_loss) and np.isfinite(rec.test_loss)
    assert 0.0 <= rec.test_accuracy <= 1.0
    assert server.t == 1 and len(server.records) == 1
    # every client was charged, selected or not
    assert all(len(c.sigma_history) == 1 for c in clients)


def test_run_round_makes_one_forward_pass_per_evaluated_set(monkeypatch, helper_always):
    sizes = [6, 11, 8, 14, 9]
    spec, clients, cfg, server, train_eval, test = make_federation(
        sizes=sizes, n_clients=5, epsilon=4.0, K=3, T=10
    )
    run_round(server, clients, cfg, test)
    events, forward, draw = [], models._forward, federation._draw_noise

    def counting(spec, params, X, out=None):
        rows = X.size // X.shape[-1]  # a fill block is (clients, rows, features)
        events.append((rows, threading.current_thread() is threading.main_thread()))
        return forward(spec, params, X, out)

    def noting(rngs, block):
        assert len(rngs) == len(block)
        events.extend([("noise", None)] * len(rngs))
        return draw(rngs, block)

    monkeypatch.setattr(models, "_forward", counting)
    monkeypatch.setattr(federation, "_forward", counting)
    monkeypatch.setattr(federation, "_draw_noise", noting)
    run_round(server, clients, cfg, test)
    # the local steps start from the previous round's train-loss forward, so the
    # K noise draws beside them meet no forward; then the new parameters are
    # forwarded once over the test set and once over every client's rows
    assert [e for e, _ in events[:3]] == ["noise"] * 3
    assert sorted(e for e, _ in events[3:]) == sorted(sizes + [len(test)])
    # the helper runs the test pass and then takes clients from the front, in
    # order, while this thread takes them from the back; with no helper, this
    # thread runs it all in that order
    here = [e for e, on_main in events[3:] if on_main]
    helper = [e for e, on_main in events[3:] if not on_main]
    if federation._helper() is None:
        assert not helper and here == [len(test), *sizes]
    else:
        assert helper[0] == len(test)
        front = helper[1:]
        assert front == sizes[: len(front)] and here == sizes[len(front):][::-1]


def test_sigma_constant_while_T_fixed_and_matches_closed_form():
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=4.0, K=3, T=8
    )
    run_training(server, clients, cfg, test)
    q = 3 / 5
    dl = sensitivity(cfg.eta, cfg.clip, 10)
    expected = calibrate_sigma(clients[0].budget, q, 8, dl)
    for c in clients:
        assert len(c.sigma_history) == 8
        for s in c.sigma_history:
            assert abs(s - expected) / expected < 1e-9
    assert server.t == 8 == len(server.records)


def test_ledger_soundness_after_noisy_run():
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=2.0, K=2, T=12
    )
    run_training(server, clients, cfg, test)
    q = 2 / 5
    for c in clients:
        dl = sensitivity(cfg.eta, cfg.clip, len(c.shard))
        assert_within_inverse_variance_budget(c.sigma_history, c.budget, q, dl)


def test_deterministic_replay_bitwise():
    def one_run():
        spec, clients, cfg, server, train_eval, test = make_federation(
            epsilon=4.0, K=3, T=10, seed=42
        )
        run_training(server, clients, cfg, test)
        return server

    a, b = one_run(), one_run()
    assert np.array_equal(a.global_params, b.global_params)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


def test_budget_exhausted_leaves_state_intact():
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=1.0, K=3, T=8
    )
    # overdraw one client's ledger by hand: tiny sigma = huge spent budget
    clients[2].sigma_history.extend([1e-9] * 5)
    for c in clients[:2] + clients[3:]:
        c.sigma_history.extend([0.5] * 5)
    params_before = server.global_params.copy()
    with pytest.raises(BudgetExhausted):
        run_round(server, clients, cfg, test)
    assert server.t == 0 and len(server.records) == 0
    assert np.array_equal(server.global_params, params_before)
    assert len(clients[0].sigma_history) == 5  # no new charges

    # run_training converts the failure into a clean stop
    assert run_training(server, clients, cfg, test) == "budget_exhausted"
    assert server.t == 0


def test_nonpositive_sigma_override_rejected_before_any_charge():
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=4.0, K=3, T=8
    )
    with pytest.raises(ValueError, match="sigma_override"):
        run_round(
            server, clients, cfg, test,
            sigma_override={c.ledger: 0.0 if i == 3 else 0.5 for i, c in enumerate(clients)},
        )
    assert server.t == 0 and len(server.records) == 0
    assert all(c.sigma_history == [] for c in clients)


def test_on_round_may_shrink_T_but_not_grow_it():
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=4.0, K=3, T=30
    )

    def shrink(server_, record):
        if server_.t == 5:
            server_.T = 8
            record.trigger_fired = True

    run_training(server, clients, cfg, test, on_round=shrink)
    assert server.t == 8
    assert [r.trigger_fired for r in server.records].count(True) == 1
    assert [r.T_at_start for r in server.records] == [30] * 5 + [8] * 3

    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=4.0, K=3, T=6
    )

    def grow(server_, record):
        server_.T = 99

    with pytest.raises(RuntimeError, match="illegally"):
        run_training(server, clients, cfg, test, on_round=grow)


def test_sigma_rises_after_T_shrink():
    # shrinking T mid-run means less noise needed per remaining round
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=4.0, K=3, T=40
    )

    def shrink(server_, record):
        if server_.t == 10:
            server_.T = 20

    run_training(server, clients, cfg, test, on_round=shrink)
    h = clients[0].sigma_history
    assert len(h) == 20
    assert all(abs(s - h[0]) < 1e-12 for s in h[:10])
    assert all(abs(s - h[10]) < 1e-12 for s in h[10:])
    assert h[10] < h[0]  # fewer remaining rounds -> smaller sigma

    q, dl = 3 / 5, sensitivity(cfg.eta, cfg.clip, 10)
    assert_within_inverse_variance_budget(h, clients[0].budget, q, dl)


def test_empty_shard_rejected():
    ds = synth_linear(10, 3, 1.0, seed=0)
    with pytest.raises(ValueError, match="empty"):
        ClientState(
            ds.subset(np.array([], dtype=int)),
            MomentLedger(PrivacyBudget(1.0, 0.01), 1.0, sensitivity(0.05, 0.5, 1)),
        )


def test_mixed_sensitivities_get_distinct_sigmas():
    # unbalanced shards -> per-size sensitivity -> per-size noise scale
    spec, clients, cfg, server, train_eval, test = make_federation(
        sizes=[5, 5, 20, 20], n_clients=4, epsilon=3.0, K=4, T=6
    )
    rec = run_round(server, clients, cfg, test)
    sig = rec.sigma_by_client
    assert sig[0] == sig[1] and sig[2] == sig[3]
    assert sig[0] > sig[2]  # smaller shard -> larger sensitivity -> more noise


def test_round_rejects_an_empty_client_list():
    ds = synth_linear(20, 4, 1.0, seed=3)
    spec = ModelSpec("svm", input_dim=4, kappa=0.01)
    cfg = FederationConfig(spec=spec, K=1, eta=0.05, clip=0.5, seed=0)
    server = ServerState(global_params=np.zeros(4), T=5)
    with pytest.raises(ValueError, match="at least one client"):
        run_round(server, [], cfg, ds)
    assert server.t == 0 and server.records == []


# --- the stacked round engine against the per-client reference ---


def spec_federation(spec, sizes=(7, 3, 12, 5, 9), K=3, epsilon=INF, seed=0):
    """Unequal shards of one spec's data; the server starts at random parameters."""
    X, y = make_batch(spec, sum(sizes) + 20, 50 + seed)
    ds = Dataset(X, y, max(spec.num_classes, 2))
    ends = np.cumsum(sizes)
    shards = [ds.subset(np.arange(e - n, e)) for n, e in zip(sizes, ends)]
    test = ds.subset(np.arange(ends[-1], len(X)))
    cfg = FederationConfig(spec=spec, K=K, eta=0.3, clip=0.5, seed=seed)
    budget = PrivacyBudget(epsilon, 1e-3)
    clients = [
        ClientState(sh, MomentLedger(budget, K / len(sizes), sensitivity(0.3, 0.5, len(sh))))
        for sh in shards
    ]
    params = np.random.default_rng(seed).normal(scale=0.5, size=param_count(spec))
    return clients, cfg, ServerState(global_params=params, T=10), test


def naive_round(spec, params, clients, cfg, selected):
    """``local_update`` per selected client, then ``aggregate`` in the same order."""
    total = sum(len(clients[i].shard) for i in selected)
    return aggregate([
        (
            len(clients[i].shard) / total,
            local_update(
                spec, params, clients[i].shard.features, clients[i].shard.labels,
                cfg.eta, cfg.clip,
            ),
        )
        for i in selected
    ])


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_stacked_rounds_equal_per_client_local_updates_bitwise(spec):
    clients, cfg, server, test = spec_federation(spec)
    X = np.concatenate([c.shard.features for c in clients])
    y = np.concatenate([c.shard.labels for c in clients])
    want = server.global_params.copy()
    for _ in range(3):
        rec = run_round(server, clients, cfg, test)
        want = naive_round(spec, want, clients, cfg, rec.selected)
        assert np.array_equal(server.global_params, want)
        assert rec.train_loss == pytest.approx(loss(spec, want, X, y), rel=1e-13)
    assert len({r.selected for r in server.records}) > 1  # K < U: the selection moved


def noisy_reference_round(spec, params, clients, cfg, rnd, sigmas):
    """Per selected client ``local_update`` then ``add_noise`` with its keyed
    generator, then ``aggregate`` in client order."""
    total = sum(len(clients[i].shard) for i in sigmas)
    return aggregate([
        (
            len(clients[i].shard) / total,
            add_noise(
                local_update(
                    spec, params, clients[i].shard.features, clients[i].shard.labels,
                    cfg.eta, cfg.clip,
                ),
                sigma, federation._noise_rng(cfg.seed, i, rnd),
            ),
        )
        for i, sigma in sorted(sigmas.items())
    ])


@pytest.mark.parametrize("min_bytes", [0, 1 << 62], ids=["helper", "inline"])
@pytest.mark.parametrize("override", [False, True], ids=["recalibrated", "sigma_override"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_noisy_stacked_rounds_equal_per_client_add_noise_then_aggregate_bitwise(
    spec, override, min_bytes, monkeypatch
):
    monkeypatch.setattr(federation, "_HELPER_MIN_BYTES", min_bytes)
    clients, cfg, server, test = spec_federation(spec, epsilon=4.0)
    # the decay baseline's path: a fixed scale per class ledger, here one ledger per client
    sigma_override = {c.ledger: 0.05 * (i + 1) for i, c in enumerate(clients)} if override else None
    want = server.global_params.copy()
    for rnd in range(3):
        rec = run_round(server, clients, cfg, test, sigma_override=sigma_override)
        assert all(s > 0 for s in rec.sigma_by_client.values())
        if override:
            want_sigmas = {i: sigma_override[clients[i].ledger] for i in rec.selected}
            assert rec.sigma_by_client == want_sigmas
        want = noisy_reference_round(spec, want, clients, cfg, rnd, rec.sigma_by_client)
        assert np.array_equal(server.global_params, want)
    assert len({r.selected for r in server.records}) > 1


@pytest.mark.parametrize("min_bytes", [0, 1 << 62], ids=["helper", "inline"])
@pytest.mark.parametrize("epsilon", [INF, 4.0], ids=["noiseless", "noisy"])
def test_mnist_shape_stacked_rounds_equal_per_client_bitwise(epsilon, min_bytes, monkeypatch):
    """The MNIST runs' layer widths, where BLAS picks kernels by shape, and a 1-row shard,
    which numpy sends through gemv alone but through gemm inside the stacked rows."""
    monkeypatch.setattr(federation, "_HELPER_MIN_BYTES", min_bytes)
    spec = ModelSpec("mlp", input_dim=784, num_classes=10, hidden_dim=32)
    sizes = (200, 37, 401, 128, 1)
    clients, cfg, server, test = spec_federation(spec, sizes, K=4, epsilon=epsilon, seed=1)
    server.global_params = init_params(spec, np.random.default_rng(3))  # softmax not saturated
    want = server.global_params.copy()
    for rnd in range(3):
        rec = run_round(server, clients, cfg, test)
        want = noisy_reference_round(spec, want, clients, cfg, rnd, rec.sigma_by_client)
        assert np.array_equal(server.global_params, want)
    assert {i for r in server.records for i in r.selected} == set(range(len(sizes)))


FILL_SPECS = [ModelSpec("svm", input_dim=d, kappa=0.01, hinge=h) for h in HINGE_FORMS
              for d in (1, 10, 100, 300)]
FILL_SPECS += [*SPECS[2:], ModelSpec("mlp", input_dim=784, num_classes=10, hidden_dim=32)]


@pytest.mark.parametrize("rows_per_part", [0, 7, None], ids=["clients", "parts", "runs"])
@pytest.mark.parametrize(
    "spec", FILL_SPECS,
    ids=lambda s: f"{s.kind}-d{s.input_dim}-h{s.hidden_dim}-c{s.num_classes}-{s.hinge}",
)
def test_fill_blocks_equal_per_client_forward_bitwise(spec, rows_per_part, monkeypatch):
    """Runs of equal shards, forwarded as one batched matmul each, as parts of a run, or
    a client at a time, with 1-row shards (numpy sends those through dot, not gemv) and
    tails off the kernels' 4-row unroll: one GEMV over the stacked rows changes some
    rows' bits at these sizes, the batched matmul must not."""
    row_bytes = spec.input_dim * 8
    min_bytes = 1 << 62 if rows_per_part is None else rows_per_part * row_bytes
    monkeypatch.setattr(federation, "_HELPER_MIN_BYTES", min_bytes)
    sizes = (1, 1, 1, 7, 3, 3, 3, 3, 3, 12, 5, 5, 1, 9, 9, 9, 2)
    clients, cfg, server, test = spec_federation(spec, sizes, K=6, epsilon=4.0, seed=2)
    st = federation._Stacked(spec, server.global_params, clients)
    clients_per_block = [len(x) for x, _ in st.blocks]
    assert sum(clients_per_block) == len(sizes)
    assert max(clients_per_block) == {0: 1, 7: 3, None: 5}[rows_per_part]
    for params in server.global_params, -2.0 * server.global_params:
        st.fill(params)
        want = [models._forward(spec, params, c.shard.features) for c in clients]
        for got, parts in zip([*st.fwd[0][1:], *st.fwd[1], st.fwd[2]], zip(*(
            [*w[0][1:], *w[1], w[2]] for w in want
        ))):
            assert got.tobytes() == np.concatenate(parts).tobytes()
        assert np.array_equal(st.params, params)
    want = server.global_params.copy()
    for rnd in range(3):
        rec = run_round(server, clients, cfg, test)
        want = noisy_reference_round(spec, want, clients, cfg, rnd, rec.sigma_by_client)
        assert np.array_equal(server.global_params, want)


def test_noiseless_client_beside_noisy_ones_uploads_its_local_step_exactly(monkeypatch):
    spec = SPECS[0]
    clients, cfg, server, test = spec_federation(spec, K=5, epsilon=4.0)
    free = ClientState(clients[1].shard, MomentLedger(PrivacyBudget(INF, 1e-3), 1.0, 1.0))
    clients[1] = free
    draws, draw = [], federation._draw_noise

    def counting(rngs, block):
        draws.append(len(rngs))
        return draw(rngs, block)

    monkeypatch.setattr(federation, "_draw_noise", counting)
    want = server.global_params.copy()
    rec = run_round(server, clients, cfg, test)
    assert rec.sigma_by_client[1] == 0.0 and free.sigma_history == []
    assert draws == [4]  # the noiseless client draws nothing
    want = noisy_reference_round(spec, want, clients, cfg, 0, rec.sigma_by_client)
    assert np.array_equal(server.global_params, want)


def test_negative_sigma_override_rejected_before_any_charge():
    clients, cfg, server, test = spec_federation(SPECS[0], K=5)  # every client noiseless
    start = server.global_params.copy()
    with pytest.raises(ValueError, match="sigma_override"):
        run_round(server, clients, cfg, test, sigma_override={c.ledger: -0.1 for c in clients})
    assert server.t == 0 and np.array_equal(server.global_params, start)


@pytest.mark.parametrize("noiseless", [False, True], ids=["noisy", "noiseless"])
def test_nan_sigma_override_rejected_before_any_draw_or_charge(noiseless, monkeypatch):
    clients, cfg, server, test = spec_federation(SPECS[0], K=5, epsilon=INF if noiseless else 4.0)
    start = server.global_params.copy()
    draws = []
    monkeypatch.setattr(federation, "_draw_noise", lambda rngs, block: draws.append(len(rngs)))
    sigma_override = {c.ledger: float("nan") if i == 2 else 0.5 for i, c in enumerate(clients)}
    with pytest.raises(ValueError, match="sigma_override"):
        run_round(server, clients, cfg, test, sigma_override=sigma_override)
    assert draws == [] and server.t == 0 and np.array_equal(server.global_params, start)
    assert all(c.sigma_history == [] for c in clients)


def test_sigma_override_charges_a_shared_ledger_once():
    clients, cfg, server, test = spec_federation(SPECS[0], sizes=(6, 6, 4, 5, 9), epsilon=4.0)
    clients[1].ledger = clients[0].ledger  # one class of two equal shards
    run_round(server, clients, cfg, test, sigma_override={c.ledger: 0.5 for c in clients})
    assert [len(c.sigma_history) for c in clients] == [1] * 5
    assert clients[0].sigma_history is clients[1].sigma_history


@pytest.mark.parametrize("case", ["missing_noisy", "extra_noiseless"])
def test_sigma_override_not_keyed_by_the_noisy_ledgers_rejected_before_any_draw_or_charge(
    case, monkeypatch
):
    clients, cfg, server, test = spec_federation(SPECS[0], K=5, epsilon=4.0)
    clients[1] = ClientState(clients[1].shard, MomentLedger(PrivacyBudget(INF, 1e-3), 1.0, 1.0))
    sigma_override = {c.ledger: 0.5 for c in clients}
    if case == "missing_noisy":
        del sigma_override[clients[1].ledger], sigma_override[clients[3].ledger]
    start = server.global_params.copy()
    draws = []
    monkeypatch.setattr(federation, "_draw_noise", lambda rngs, block: draws.append(len(rngs)))
    with pytest.raises(ValueError, match="sigma_override"):
        run_round(server, clients, cfg, test, sigma_override=sigma_override)
    assert draws == [] and server.t == 0 and np.array_equal(server.global_params, start)
    assert all(c.sigma_history == [] for c in clients)


def test_helper_batch_runs_every_block_once_under_fast_thread_switches():
    # the two threads pop blocks from the two ends of one queue: a block lost or run
    # twice would show in its count
    counts = np.zeros(2000, dtype=int)

    def block(i):
        counts[i] += 1

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            blocks = [functools.partial(block, i) for i in range(len(counts))]
            with federation._on_helper(federation._HELPER_MIN_BYTES, lambda: "job", blocks) as done:
                assert done() == "job"
    finally:
        sys.setswitchinterval(switch)
    assert (counts == 5).all()


def _helper_runs_a_job_here():
    helper = federation._helper()
    sys.exit(helper.submit(os.getpid).result(timeout=30) != os.getpid())


def test_child_forked_with_a_live_helper_makes_its_own():
    helper = federation._helper()
    if helper is None:
        pytest.skip("this process may use one CPU only, so it has no helper")
    assert helper.submit(os.getpid).result() == os.getpid()  # its thread is running
    child = multiprocessing.get_context("fork").Process(target=_helper_runs_a_job_here)
    child.start()
    child.join(60)
    if child.is_alive():
        child.terminate()
    assert child.exitcode == 0  # it would wait forever on the parent's thread


def _state(server, clients):
    return server.t, server.global_params.copy(), [list(c.sigma_history) for c in clients]


@pytest.mark.parametrize("phase", ["clip_factors", "test_loss", "fill_block"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_failure_beside_helper_work_joins_it_and_mutates_nothing(
    spec, phase, monkeypatch, helper_always
):
    clients, cfg, server, test = spec_federation(spec, epsilon=4.0)
    run_round(server, clients, cfg, test)
    before = _state(server, clients)
    started, finished, begun = threading.Event(), [], []
    if phase == "clip_factors":  # the backward side fails while the noise is drawn
        draw = federation._draw_noise

        def slow_draw(rngs, block):
            started.set()
            for rng, row in zip(rngs, block):
                time.sleep(0.01)
                draw([rng], row[None])
                finished.append(row)

        def failing_clip(norms2, clip):
            assert started.wait(10)
            raise FloatingPointError("clip factors")

        monkeypatch.setattr(federation, "_draw_noise", slow_draw)
        monkeypatch.setattr(federation, "_clip_factors", failing_clip)
        expected, error = cfg.K, FloatingPointError
    elif phase == "fill_block":  # the last client's block fails while another is forwarded
        forward, last = federation._forward, server._stacked.fwd[2][-1:]

        def forward_or_fail(spec, params, X, out):
            if np.shares_memory(out[2], last):  # taken first by this thread, last inline
                assert started.wait(10)
                raise FloatingPointError("fill block")
            begun.append(len(X))
            started.set()
            time.sleep(0.05)
            forward(spec, params, X, out)
            finished.append(len(X))

        monkeypatch.setattr(federation, "_forward", forward_or_fail)
        expected, error = None, FloatingPointError
    else:  # the test pass returns a non-finite loss while the train rows are forwarded
        evaluate_test = federation.loss_and_accuracy

        def slow_nan_eval(*args):
            started.set()
            time.sleep(0.05)
            evaluate_test(*args)
            finished.append("test")
            return float("nan"), 0.0

        monkeypatch.setattr(federation, "loss_and_accuracy", slow_nan_eval)
        expected, error = 1, RuntimeError
    with pytest.raises(error):
        run_round(server, clients, cfg, test)
    # the helper's work was joined before the round raised, and nothing moved
    if expected is None:  # every block that began finished; the stacked rows are unfilled
        assert begun and finished == begun and server._stacked.params is None
        # the helper took no block after this thread's failed, which came 50 ms before
        # the helper's first block ended; inline, the blocks ran in order up to it
        assert len(begun) == (1 if federation._helper() else len(server._stacked.blocks) - 1)
    else:
        assert started.is_set() and len(finished) == expected
    after = _state(server, clients)
    assert after[0] == before[0] and np.array_equal(after[1], before[1]) and after[2] == before[2]
    assert server.records and len(server.records) == 1

    monkeypatch.undo()
    rec = run_round(server, clients, cfg, test)
    clients2, cfg2, fresh, test2 = spec_federation(spec, epsilon=4.0)
    for _ in range(2):
        want = run_round(fresh, clients2, cfg2, test2)
    assert rec == want
    assert np.array_equal(server.global_params, fresh.global_params)
    assert [c.sigma_history for c in clients] == [c.sigma_history for c in clients2]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_params_overwritten_in_place_are_not_served_a_stale_forward(spec):
    clients, cfg, server, test = spec_federation(spec)
    run_round(server, clients, cfg, test)
    server.global_params *= 0.5  # the same array, new values
    start = server.global_params.copy()
    rec = run_round(server, clients, cfg, test)
    assert np.array_equal(server.global_params, naive_round(spec, start, clients, cfg, rec.selected))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_out_of_range_label_rejected_before_any_charge(spec):
    clients, cfg, server, test = spec_federation(spec, epsilon=4.0)
    clients[3].shard.labels[2] = 0 if spec.kind == "svm" else spec.num_classes
    with pytest.raises(ValueError, match="labels"):
        run_round(server, clients, cfg, test)
    assert server.t == 0 and all(c.sigma_history == [] for c in clients)


# --- image-byte shards: the rows the steps read are the rows the clip norms read ---


def byte_rows(spec, n, seed):
    """``n`` rows of random image bytes and labels for ``spec``."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, spec.input_dim), dtype=np.uint8)
    return images, make_batch(spec, n, seed + 1)[1]


@pytest.mark.parametrize("min_bytes", [0, 1 << 62], ids=["helper", "inline"])
@pytest.mark.parametrize("epsilon", [INF, 4.0], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_byte_shards_round_as_their_float_copies_bitwise(
    spec, epsilon, min_bytes, monkeypatch
):
    monkeypatch.setattr(federation, "_HELPER_MIN_BYTES", min_bytes)
    sizes = (7, 3, 12, 5, 9)
    ends = np.cumsum(sizes)
    images, y = byte_rows(spec, ends[-1] + 20, 60)
    cfg = FederationConfig(spec=spec, K=3, eta=0.3, clip=0.5, seed=0)
    budget, classes = PrivacyBudget(epsilon, 1e-3), max(spec.num_classes, 2)
    params = np.random.default_rng(61).normal(scale=0.5, size=param_count(spec))
    runs = []
    for X in images, images / 255.0:
        clients = [
            ClientState(Dataset(X[e - n : e], y[e - n : e], classes),
                        MomentLedger(budget, 0.6, sensitivity(cfg.eta, cfg.clip, n)))
            for n, e in zip(sizes, ends)
        ]
        test = Dataset(X[ends[-1] :], y[ends[-1] :], classes)
        server = ServerState(global_params=params.copy(), T=10)
        runs.append(([run_round(server, clients, cfg, test) for _ in range(3)], server))
    (got, got_server), (want, want_server) = runs
    assert got == want
    assert got_server.global_params.tobytes() == want_server.global_params.tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_one_byte_row_moves_a_noiseless_step_by_at_most_dl(spec):
    n, classes = 12, max(spec.num_classes, 2)
    images, y = byte_rows(spec, n, 70)
    cfg = FederationConfig(spec=spec, K=1, eta=0.3, clip=0.5, seed=0)
    ledger = MomentLedger(PrivacyBudget(INF, 1e-3), 1.0, 1.0)
    params = np.random.default_rng(71).normal(scale=0.5, size=param_count(spec))
    steps = []
    for row in images[0], 255 - images[0]:  # neighbouring shards: row 0 replaced
        X = images.copy()
        X[0] = row
        server = ServerState(global_params=params.copy(), T=1)
        shard = Dataset(X, y, classes)
        run_round(server, [ClientState(shard, ledger)], cfg, shard)
        steps.append(server.global_params)
    dl = sensitivity(cfg.eta, cfg.clip, n)
    assert np.linalg.norm(steps[0] - steps[1]) <= dl * (1 + 1e-12)
