"""Federated training loop: sampling, local updates, noise, aggregation.

One round does, in order: sample K of U clients; charge every client's
privacy ledger for the round at the current round budget T (noise scale
from ``recalibrate_sigma``, which reduces to the closed-form calibration
while T is unchanged); selected clients run one full-batch clipped local
step and add Gaussian noise; the server aggregates the uploads by weight
and evaluates the new model: the loss alone on the training pool, and the
loss and accuracy on the test set from one forward pass.

Randomness is drawn from per-purpose generators keyed by
(seed, tag, round) for selection and (seed, tag, client, round) for noise,
so results are independent of execution order and identical under any
parallel schedule.

A client budget with ``epsilon == inf`` disables noise entirely: sigma is
0, no ledger entries accrue, and no random draws are consumed, which makes
such runs bit-identical to plain federated gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ConfigError
from .accountant import BudgetExhausted, PrivacyBudget, recalibrate_sigma, sensitivity
# accuracy has no caller here; perfbench/layers.py wraps federation.accuracy by name
from .models import ModelSpec, accuracy, local_update, loss, loss_and_accuracy

_TAG_SELECT = 1
_TAG_NOISE = 2
WEIGHT_MODES = ("by_size", "equal")


@dataclass
class ClientState:
    """One simulated client: data shard, privacy budget, and noise ledger."""

    id: int
    shard: object  # Dataset
    budget: PrivacyBudget
    sigma_history: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.shard) == 0:
            raise ValueError(f"client {self.id}: empty shard")

    @property
    def noiseless(self) -> bool:
        return math.isinf(self.budget.epsilon)


@dataclass
class ServerState:
    global_params: np.ndarray
    T: int
    t: int = 0
    records: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (0 <= self.t <= self.T):
            raise ValueError(f"need 0 <= t <= T, got t={self.t}, T={self.T}")


@dataclass
class RoundRecord:
    round: int
    T_at_start: int
    sigma_by_client: dict  # selected client id -> noise scale used
    train_loss: float
    test_loss: float
    test_accuracy: float
    selected: tuple
    trigger_fired: bool = False


@dataclass(frozen=True)
class FederationConfig:
    spec: ModelSpec
    K: int
    eta: float
    clip: float
    seed: int
    weight_mode: str = "by_size"  # one of WEIGHT_MODES

    def __post_init__(self) -> None:
        v = []
        if self.K < 1:
            v.append(f"K must be >= 1, got {self.K}")
        if not self.eta > 0:
            v.append(f"eta must be > 0, got {self.eta}")
        if not self.clip > 0:
            v.append(f"clip must be > 0, got {self.clip}")
        if self.weight_mode not in WEIGHT_MODES:
            v.append(f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}")
        if v:
            raise ConfigError(v)


@dataclass
class TrainingResult:
    params: np.ndarray
    records: list
    realized_T: int
    stop_reason: str  # "completed" | "budget_exhausted" | "accountant_halt" | "sigma_floor"


def sample_clients(U: int, K: int, rng: np.random.Generator) -> tuple:
    """Uniform K-subset of {0..U-1} without replacement, sorted."""
    if not 1 <= K <= U:
        raise ValueError(f"need 1 <= K <= U, got K={K}, U={U}")
    return tuple(sorted(rng.choice(U, size=K, replace=False).tolist()))


def add_noise(params: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """params + N(0, sigma^2) per coordinate; exact identity when sigma == 0."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return params.copy()
    return params + sigma * rng.standard_normal(params.shape)


def aggregate(uploads: list) -> np.ndarray:
    """Weighted coordinate-wise average of (weight, params) uploads."""
    if not uploads:
        raise ValueError("no uploads to aggregate")
    weights = np.array([w for w, _ in uploads], dtype=float)
    if np.any(weights <= 0):
        raise ValueError("aggregation weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"aggregation weights sum to {weights.sum()!r}, not 1")
    out = np.zeros_like(uploads[0][1])
    for w, p in uploads:
        out += w * p
    return out


def evaluate(spec: ModelSpec, params: np.ndarray, dataset) -> tuple:
    """``(loss, accuracy)`` of ``params`` on ``dataset`` from one forward pass."""
    return loss_and_accuracy(spec, params, dataset.features, dataset.labels)


def _selection_rng(seed: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _TAG_SELECT, rnd)))


def _noise_rng(seed: int, client_id: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _TAG_NOISE, client_id, rnd)))


def _round_sigmas(clients: list, q: float, T: int, cfg: FederationConfig) -> dict:
    """Noise scale for every client this round; raises BudgetExhausted."""
    sigmas = {}
    for c in clients:
        if c.noiseless:
            sigmas[c.id] = 0.0
            continue
        dl = sensitivity(cfg.eta, cfg.clip, len(c.shard))
        sigmas[c.id] = recalibrate_sigma(
            c.budget, q, T, len(c.sigma_history), c.sigma_history, dl
        )
    return sigmas


def run_round(
    server: ServerState,
    clients: list,
    cfg: FederationConfig,
    train_eval,
    test_eval,
    sigma_override: dict | None = None,
) -> RoundRecord:
    """Execute one round; mutates server and client ledgers only on success.

    ``sigma_override`` (client id -> noise scale) bypasses the budget
    recalibration — used by externally-scheduled baselines whose privacy
    is tracked by a separate accountant.
    """
    if server.t >= server.T:
        raise ValueError(f"round budget exhausted: t={server.t}, T={server.T}")
    U = len(clients)
    rnd = server.t
    q = cfg.K / U

    # all failure modes (BudgetExhausted, eval errors) fire before mutation
    if sigma_override is None:
        sigmas = _round_sigmas(clients, q, server.T, cfg)
    else:
        sigmas = {c.id: float(sigma_override[c.id]) for c in clients}
    selected = sample_clients(U, cfg.K, _selection_rng(cfg.seed, rnd))

    uploads = []
    if cfg.weight_mode == "by_size":
        total = sum(len(clients[i].shard) for i in selected)
        weights = {i: len(clients[i].shard) / total for i in selected}
    else:
        weights = {i: 1.0 / cfg.K for i in selected}
    for i in selected:  # already sorted by client id
        c = clients[i]
        local = local_update(
            cfg.spec, server.global_params, c.shard.features, c.shard.labels,
            cfg.eta, cfg.clip,
        )
        noised = add_noise(local, sigmas[i], _noise_rng(cfg.seed, i, rnd))
        uploads.append((weights[i], noised))

    new_params = aggregate(uploads)
    train_loss = loss(cfg.spec, new_params, train_eval.features, train_eval.labels)
    test_loss, test_acc = evaluate(cfg.spec, new_params, test_eval)
    if not (math.isfinite(train_loss) and math.isfinite(test_loss)):
        raise RuntimeError(f"non-finite evaluation loss at round {rnd}")

    record = RoundRecord(
        round=rnd,
        T_at_start=server.T,
        sigma_by_client={i: sigmas[i] for i in selected},
        train_loss=train_loss,
        test_loss=test_loss,
        test_accuracy=test_acc,
        selected=selected,
    )
    for c in clients:
        if not c.noiseless:
            c.sigma_history.append(sigmas[c.id])
    server.global_params = new_params
    server.t = rnd + 1
    server.records.append(record)
    return record


def run_training(
    server: ServerState,
    clients: list,
    cfg: FederationConfig,
    train_eval,
    test_eval,
    on_round=None,
) -> TrainingResult:
    """Run rounds until t reaches T (which ``on_round`` may shrink).

    ``on_round(server, record)`` is called after each round; it may lower
    ``server.T`` (never below ``server.t``) and may set
    ``record.trigger_fired``.
    """
    reason = "completed"
    while server.t < server.T:
        try:
            record = run_round(server, clients, cfg, train_eval, test_eval)
        except BudgetExhausted:
            reason = "budget_exhausted"
            break
        if on_round is not None:
            old_T = server.T
            on_round(server, record)
            if server.T > old_T or server.T < server.t:
                raise RuntimeError(
                    f"scheduler moved T illegally: {old_T} -> {server.T} at t={server.t}"
                )
    return TrainingResult(
        params=server.global_params,
        records=server.records,
        realized_T=server.t,
        stop_reason=reason,
    )
