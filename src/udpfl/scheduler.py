"""Round-budget policies.

* fixed-T: just run the federation loop to its round budget
  (``udpfl sweep --axis T`` compares a grid of such budgets);
* adaptive discounting: whenever the test-loss improvement of a round
  falls below a threshold zeta, shrink the remaining budget by a factor
  beta — ``T <- floor(beta*(T - t)) + t`` — and let the noise
  recalibration absorb the change;
* linear noise decay: a fixed starting noise scale shrinking linearly
  each round, halted by a cumulative moment accountant instead of a
  preset round count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ConfigError
from .accountant import MomentLedger, calibrate_sigma, sensitivity
# evaluate has no caller here; perfbench/layers.py wraps scheduler.evaluate by name
from .federation import FederationConfig, ServerState, TrainingResult, evaluate, run_round

# floor() guard so values like 0.9*150 = 134.99999999999997 floor to 135
_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class CrdConfig:
    """Adaptive round-discounting parameters."""

    beta: float = 0.9
    zeta: float = 0.001
    T_init: int = 200

    def __post_init__(self) -> None:
        v = []
        if not 0.0 < self.beta < 1.0:
            v.append(f"beta must be in (0, 1), got {self.beta}")
        if not self.zeta > 0.0:
            v.append(f"zeta must be > 0, got {self.zeta}")
        if self.T_init < 1:
            v.append(f"T_init must be >= 1, got {self.T_init}")
        if v:
            raise ConfigError(v)


@dataclass(frozen=True)
class SchedulerDecision:
    new_T: int
    triggered: bool
    delta_v: float  # observed improvement V_prev - V_curr


def crd_step(v_prev: float, v_curr: float, t: int, T: int, cfg: CrdConfig) -> SchedulerDecision:
    """One discounting decision after a round finishing at time t.

    Improvement below zeta shrinks the remaining budget:
    ``new_T = floor(beta*(T-t)) + t``; otherwise T is kept.  The result
    always satisfies ``t <= new_T <= T``; a trigger with no rounds left to
    discount returns ``new_T = t``, ending training.
    """
    if t > T:
        raise ValueError(f"need t <= T, got t={t}, T={T}")
    delta_v = v_prev - v_curr
    if delta_v < cfg.zeta:
        new_T = math.floor(cfg.beta * (T - t) + _FLOOR_EPS) + t
        return SchedulerDecision(new_T=new_T, triggered=True, delta_v=delta_v)
    return SchedulerDecision(new_T=T, triggered=False, delta_v=delta_v)


class CrdScheduler:
    """Stateful ``on_round`` callback applying crd_step each round.

    ``initial_v`` is the test loss of the initial model, so the very first
    round's improvement is measurable.
    """

    def __init__(self, cfg: CrdConfig, initial_v: float) -> None:
        self.cfg = cfg
        self.prev_v = initial_v
        self.decisions: list[SchedulerDecision] = []

    def __call__(self, server: ServerState, record) -> None:
        v = record.test_loss
        if server.t < server.T:
            decision = crd_step(self.prev_v, v, server.t, server.T, self.cfg)
            server.T = decision.new_T
            record.trigger_fired = decision.triggered
            self.decisions.append(decision)
        self.prev_v = v


def linear_decay_baseline(
    server: ServerState,
    clients: list,
    cfg: FederationConfig,
    train_eval,
    test_eval,
    slope_fraction: float = 1.0,
) -> TrainingResult:
    """Linearly shrinking noise, halted by the cumulative moment accountant.

    Round r uses ``sigma_start - slope*r`` per client, with
    ``slope = slope_fraction * sigma_start / T``; ``slope_fraction=0``
    keeps sigma fixed.  Before each round the per-client moment ledgers
    preview the charge and halt as soon as any client's tail bound would
    exceed its delta at its epsilon — so at halt the spent privacy is
    within budget and one more round would not be.
    """
    if not slope_fraction >= 0.0:
        raise ValueError(f"slope_fraction must be >= 0, got {slope_fraction}")
    U = len(clients)
    q = cfg.K / U
    sigma_start, ledgers = {}, {}
    for c in clients:
        dl = sensitivity(cfg.eta, cfg.clip, len(c.shard))
        sigma_start[c.id] = calibrate_sigma(c.budget, q, server.T, dl)
        ledgers[c.id] = MomentLedger(q, dl)
    slopes = {i: slope_fraction * s / server.T for i, s in sigma_start.items()}

    halt = "completed"
    while server.t < server.T:
        r = server.t
        sig = {i: sigma_start[i] - slopes[i] * r for i in sigma_start}
        if any(s <= 0.0 for s in sig.values()):
            halt = "sigma_floor"
            break
        if any(
            not ledgers[c.id].within(c.budget, extra_sigma=sig[c.id])
            for c in clients
        ):
            halt = "accountant_halt"
            break
        run_round(server, clients, cfg, train_eval, test_eval, sigma_override=sig)
        for c in clients:
            ledgers[c.id].charge(sig[c.id])
    return TrainingResult(server.global_params, server.records, server.t, halt)
