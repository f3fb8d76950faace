"""Round-budget policy tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_federation import make_federation
from udpfl import ConfigError
from udpfl.accountant import MomentLedger, ledger_within_budget, sensitivity
from udpfl.federation import TrainingResult, run_training
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
    result = run_training(server, clients, cfg, train_eval, test, on_round=sched)
    traj = [r.T_at_start for r in result.records]
    assert all(b <= a for a, b in zip(traj, traj[1:]))
    assert result.realized_T < 60  # zeta this large must trigger
    assert any(r.trigger_fired for r in result.records)
    # ledger still sound after shrinking T
    dl = sensitivity(cfg.eta, cfg.clip, 10)
    for c in clients:
        assert ledger_within_budget(c.sigma_history, c.budget, 3 / 5, dl)


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
    result = linear_decay_baseline(
        server, clients, cfg, train_eval, test, slope_fraction=slope_fraction
    )
    return result, clients, cfg


def test_decay_zero_slope_halts_at_accountant_bound():
    result, clients, cfg = run_decay(0.0)
    assert result.stop_reason == "accountant_halt"
    assert 0 < result.realized_T < 30
    # constant sigma throughout
    for c in clients:
        assert len(c.sigma_history) == result.realized_T
        assert all(s == c.sigma_history[0] for s in c.sigma_history)
    # replay the ledger: spent rounds certify delta, one more would not
    c = clients[0]
    dl = sensitivity(cfg.eta, cfg.clip, len(c.shard))
    ledger = MomentLedger(3 / 5, dl)
    for s in c.sigma_history:
        ledger.charge(s)
        assert ledger.within(c.budget)
    assert not ledger.within(c.budget, extra_sigma=c.sigma_history[0])


def test_decay_faster_slope_halts_earlier():
    rounds = [run_decay(f)[0].realized_T for f in (0.0, 0.5, 1.0, 2.0)]
    assert all(b <= a for a, b in zip(rounds, rounds[1:]))
    assert rounds[-1] < rounds[0]


def test_decay_sigma_floor_halt():
    # loose privacy + aggressive slope: sigma hits zero before the accountant
    result, clients, cfg = run_decay(10.0, epsilon=4.0, T=20)
    assert result.stop_reason == "sigma_floor"
    assert result.realized_T == 2  # sigma(2) = sigma0 * (1 - 10*2/20) = 0


def test_decay_records_and_inverse_variance_margin():
    result, clients, cfg = run_decay(1.0)
    assert isinstance(result, TrainingResult)
    assert len(result.records) == result.realized_T
    sig0 = next(iter(result.records[0].sigma_by_client.values()))
    # sigma trajectory decreases linearly in the emitted records
    for r in result.records:
        for i, s in r.sigma_by_client.items():
            assert s == pytest.approx(sig0 * (1.0 - r.round / 30.0), rel=1e-12)
    # the moment-accountant halt is tighter than the inverse-variance budget
    for c in clients:
        dl = sensitivity(cfg.eta, cfg.clip, len(c.shard))
        assert ledger_within_budget(c.sigma_history, c.budget, 3 / 5, dl)


def test_decay_validates_slope():
    with pytest.raises(ValueError, match="slope"):
        run_decay(-0.5)
