"""Round-budget policy tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_inverse_variance_budget
from test_federation import make_federation, noisy_reference_round
from udpfl import ConfigError
from udpfl.accountant import MomentLedger, PrivacyBudget, sensitivity
from udpfl.data import synth_linear
from udpfl.federation import (
    ClientState, FederationConfig, ServerState, run_training,
)
from udpfl.models import ModelSpec
from udpfl.scheduler import (
    CrdConfig,
    CrdScheduler,
    SchedulerDecision,
    crd_step,
    linear_decay_baseline,
)


def test_crd_step_discount_arithmetic():
    cfg = CrdConfig(beta=0.9, zeta=0.001, T_init=200)
    d = crd_step(1.0, 0.9995, t=50, T=200, cfg=cfg)
    assert d.triggered
    assert d.new_T == 185  # floor(0.9 * 150) + 50
    assert d.delta_v == pytest.approx(0.0005)


def test_crd_step_no_trigger_on_good_progress():
    cfg = CrdConfig(beta=0.9, zeta=0.001)
    d = crd_step(1.0, 0.95, t=50, T=200, cfg=cfg)
    assert not d.triggered and d.new_T == 200


def test_crd_step_threshold_is_strict():
    cfg = CrdConfig(beta=0.9, zeta=0.001)
    assert not crd_step(1.0, 1.0 - 0.001, t=10, T=50, cfg=cfg).triggered
    assert crd_step(1.0, 1.0 - 0.0009999, t=10, T=50, cfg=cfg).triggered


def test_crd_step_trigger_with_no_rounds_left_ends_training():
    cfg = CrdConfig(beta=0.9, zeta=0.001)
    d = crd_step(1.0, 1.0, t=37, T=37, cfg=cfg)
    assert d.new_T == 37


@given(
    t=st.integers(0, 500),
    extra=st.integers(1, 500),
    beta=st.floats(0.01, 0.99),
    worse=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_crd_step_never_grows_T_nor_passes_t(t, extra, beta, worse):
    T = t + extra
    cfg = CrdConfig(beta=beta, zeta=0.01)
    v_curr = 1.0 if worse else 0.0  # worse: no improvement; else huge improvement
    d = crd_step(1.0, v_curr, t=t, T=T, cfg=cfg)
    assert t <= d.new_T <= T


def test_repeated_triggers_reach_fixed_point():
    cfg = CrdConfig(beta=0.9, zeta=0.001)
    t, T = 5, 100
    seen = []
    while T > t:
        T = crd_step(1.0, 1.0, t=t, T=T, cfg=cfg).new_T
        seen.append(T)
        assert len(seen) < 200
    assert T == t
    assert all(b <= a for a, b in zip(seen, seen[1:]))


def test_crd_scheduler_on_live_run_yields_staircase():
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=1.0, K=3, T=60, seed=9
    )
    from udpfl.federation import evaluate

    v0, _ = evaluate(cfg.spec, server.global_params, test)
    sched = CrdScheduler(CrdConfig(beta=0.7, zeta=0.05, T_init=60), v0)
    run_training(server, clients, cfg, test, on_round=sched)
    traj = [r.T_at_start for r in server.records]
    assert all(b <= a for a, b in zip(traj, traj[1:]))
    assert server.t < 60  # zeta this large must trigger
    assert server.t == len(server.records)
    assert any(r.trigger_fired for r in server.records)
    # ledger still sound after shrinking T
    dl = sensitivity(cfg.eta, cfg.clip, 10)
    for c in clients:
        assert_within_inverse_variance_budget(c.sigma_history, c.budget, 3 / 5, dl)


def test_config_validation():
    with pytest.raises(ValueError, match="beta"):
        CrdConfig(beta=1.0)
    with pytest.raises(ValueError, match="zeta"):
        CrdConfig(zeta=0.0)
    with pytest.raises(ValueError, match="T_init"):
        CrdConfig(T_init=0)
    # every violation at once, in one ConfigError that is still a ValueError
    with pytest.raises(ConfigError) as err:
        CrdConfig(beta=1.0, zeta=0.0, T_init=0)
    assert isinstance(err.value, ValueError)
    assert len(err.value.violations) == 3


# --- linear noise decay baseline ---


def run_decay(slope_fraction, epsilon=4.0, T=30, seed=3):
    spec, clients, cfg, server, train_eval, test = make_federation(
        epsilon=epsilon, K=3, T=T, seed=seed
    )
    stop = linear_decay_baseline(
        server, clients, cfg, test, slope_fraction=slope_fraction
    )
    return stop, server, clients, cfg


def test_decay_zero_slope_halts_at_accountant_bound():
    stop, server, clients, cfg = run_decay(0.0)
    assert stop == "accountant_halt"
    assert 0 < server.t < 30
    # constant sigma throughout
    for c in clients:
        assert len(c.sigma_history) == server.t
        assert all(s == c.sigma_history[0] for s in c.sigma_history)
    # each client's own ledger: the spent rounds certify delta, one more would not
    for c in clients:
        assert c.ledger.sigmas is c.sigma_history
        assert c.ledger.within()
        assert not c.ledger.within(extra_sigma=c.sigma_history[-1])


def test_decay_faster_slope_halts_earlier():
    rounds = [run_decay(f)[1].t for f in (0.0, 0.5, 1.0, 2.0)]
    assert all(b <= a for a, b in zip(rounds, rounds[1:]))
    assert rounds[-1] < rounds[0]


def test_decay_sigma_floor_halt():
    # loose privacy + aggressive slope: sigma hits zero before the accountant
    stop, server, clients, cfg = run_decay(10.0, epsilon=4.0, T=20)
    assert stop == "sigma_floor"
    assert server.t == 2  # sigma(2) = sigma0 * (1 - 10*2/20) = 0


def test_decay_records_and_inverse_variance_margin():
    stop, server, clients, cfg = run_decay(1.0)
    assert isinstance(stop, str)
    assert len(server.records) == server.t
    sig0 = next(iter(server.records[0].sigma_by_client.values()))
    # sigma trajectory decreases linearly in the emitted records
    for r in server.records:
        for i, s in r.sigma_by_client.items():
            assert s == pytest.approx(sig0 * (1.0 - r.round / 30.0), rel=1e-12)
    # the moment-accountant halt is tighter than the inverse-variance budget
    for c in clients:
        dl = sensitivity(cfg.eta, cfg.clip, len(c.shard))
        assert_within_inverse_variance_budget(c.sigma_history, c.budget, 3 / 5, dl)


def test_decay_validates_slope():
    with pytest.raises(ValueError, match="slope"):
        run_decay(-0.5)


def decay_over_three_shards(epsilons):
    """The decay baseline over three 50-row SVM shards, K = 2 and T = 10; the clients
    of one epsilon share a class ledger."""
    ds = synth_linear(200, 5, 1.0, seed=4)
    cfg = FederationConfig(spec=ModelSpec("svm", input_dim=5, kappa=0.01), K=2, eta=0.05,
                           clip=0.5, seed=0)
    ledgers = {eps: MomentLedger(PrivacyBudget(eps, 1e-3), 2 / 3, sensitivity(0.05, 0.5, 50))
               for eps in set(epsilons)}
    clients = [ClientState(ds.subset(np.arange(50 * i, 50 * i + 50)), ledgers[eps])
               for i, eps in enumerate(epsilons)]
    server = ServerState(global_params=np.zeros(5), T=10)
    stop = linear_decay_baseline(server, clients, cfg, ds.subset(np.arange(150, 200)))
    return stop, server, clients, cfg


def test_decay_with_a_noiseless_class_stops_as_the_all_noisy_run():
    inf = math.inf
    want, want_server, noisy_clients, _ = decay_over_three_shards([4.0, 4.0, 4.0])
    got, server, clients, cfg = decay_over_three_shards([4.0, inf, 4.0])
    assert (got, server.t) == (want, want_server.t)
    assert got == "accountant_halt" and 0 < server.t < 10
    assert clients[0].sigma_history == noisy_clients[0].sigma_history
    assert clients[1].sigma_history == []
    # the noiseless client's uploads are its exact local steps (add_noise at sigma 0)
    assert any(1 in r.selected for r in server.records)
    params = np.zeros(5)
    for r in server.records:
        assert r.sigma_by_client.get(1, 0.0) == 0.0
        params = noisy_reference_round(cfg.spec, params, clients, cfg, r.round, r.sigma_by_client)
    assert np.array_equal(server.global_params, params)


def test_decay_with_no_noisy_class_runs_to_T():
    stop, server, clients, _ = decay_over_three_shards([math.inf] * 3)
    assert (stop, server.t) == ("completed", 10)
    assert all(c.sigma_history == [] for c in clients)
