"""Federated training loop: sampling, local updates, noise, aggregation.

One round does, in order: sample K of U clients; charge every client's
``MomentLedger`` for the round at the current round budget T (noise scale
from ``recalibrate_sigma`` over the ledger's history, which reduces to the
closed-form calibration while T is unchanged); every selected client takes
one full-batch clipped step from the global parameters and adds Gaussian
noise; the server aggregates the uploads by weight and evaluates the new
model on the clients' rows (loss) and on the test set (loss and accuracy).

Per run, the server stacks the clients' rows in client order (``clients[i].id``
must be i) and checks their labels once.  A round's train-loss forward pass is
the one the next round's local steps start from, and one backward pass over it
serves every selected client.  Once the noise is drawn, each noised upload is
added to one accumulator as it would be by ``add_noise`` then ``aggregate``,
with the same rounding and client-id order.

Each process has one helper thread, made on first use, and none where the
process may use one CPU only.  In a round it draws the noisy clients' standard
normals, from generators the main thread builds, beside the backward pass and
the local steps; then it evaluates the new model on the test set beside the
forward over the clients' rows.  A job reading under ``_HELPER_MIN_BYTES`` runs
inline instead, since waking the helper would cost as much.  A helper job is a
pure function of its arguments and writes only memory the main thread reads
after joining it, so no output depends on where or when it ran; a round that
fails joins its jobs before it raises.  ``harness.run_experiment`` stops the
helper before it forks its workers, so no fork copies a live thread (Python
3.12 warns of that); a child forked some other way inherits the executor but
not its thread, so the helper is made again whenever ``os.getpid()`` changes.
Checked on Python 3.11 with the fork start method.

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
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import ConfigError
from .accountant import BudgetExhausted, MomentLedger, PrivacyBudget, recalibrate_sigma
from .models import ModelSpec, _backward, _check_batch, _clip_factors, _forward, _forward_buffers
# accuracy, local_update and loss have no caller here; perfbench/layers.py wraps them by name
from .models import _loss_from_scores, accuracy, local_update, loss, loss_and_accuracy

_TAG_SELECT = 1
_TAG_NOISE = 2
WEIGHT_MODES = ("by_size", "equal")
_helper_of_pid = (None, None)  # (pid, its one-thread executor or None)
# a smaller helper job runs inline: waking the helper can cost ~0.1 ms, as much as the job
_HELPER_MIN_BYTES = 1 << 22


@dataclass
class ClientState:
    """One simulated client: data shard and privacy ledger."""

    id: int
    shard: object  # Dataset
    ledger: MomentLedger

    def __post_init__(self) -> None:
        if len(self.shard) == 0:
            raise ValueError(f"client {self.id}: empty shard")

    @property
    def budget(self) -> PrivacyBudget:
        return self.ledger.budget

    @property
    def sigma_history(self) -> list:
        """The ledger's own list of charged noise scales (not a copy)."""
        return self.ledger.sigmas

    @property
    def noiseless(self) -> bool:
        return math.isinf(self.budget.epsilon)


@dataclass
class ServerState:
    global_params: np.ndarray
    T: int
    t: int = 0
    records: list = field(default_factory=list)
    _stacked: object = field(default=None, init=False, repr=False, compare=False)

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


def _check_weights(weights) -> None:
    weights = np.array(weights, dtype=float)
    if not weights.size:
        raise ValueError("no uploads to aggregate")
    if np.any(weights <= 0):
        raise ValueError("aggregation weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"aggregation weights sum to {weights.sum()!r}, not 1")


def aggregate(uploads: list) -> np.ndarray:
    """Weighted coordinate-wise average of (weight, params) uploads."""
    _check_weights([w for w, _ in uploads])
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


def _draw_noise(rngs: list, block: np.ndarray) -> None:
    """Row j of ``block`` gets ``rngs[j]``'s standard normals (``add_noise``'s z)."""
    for rng, row in zip(rngs, block):
        rng.standard_normal(out=row)


def _helper() -> ThreadPoolExecutor | None:
    """This process's helper thread (None on one CPU), made again in a forked child."""
    global _helper_of_pid
    pid, pool = _helper_of_pid
    if pid != os.getpid():
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pool = ThreadPoolExecutor(1, "udpfl-helper") if (cpus or 1) > 1 else None
        _helper_of_pid = (os.getpid(), pool)
    return pool


def _stop_helper() -> None:
    """Join and drop this process's helper, so a fork copies no live thread; the next
    round makes one again."""
    global _helper_of_pid
    pid, pool = _helper_of_pid
    if pool is not None and pid == os.getpid():
        pool.shutdown()
    _helper_of_pid = (None, None)


@contextmanager
def _on_helper(nbytes: int, fn, *args):
    """Run ``fn(*args)``, a job reading ``nbytes`` of arrays, beside the block: on the
    helper if it exists and the job is worth a thread handoff, else first, on this
    thread.  Yields its future, joined before the block's exit goes on, raised or not."""
    pool = _helper() if nbytes >= _HELPER_MIN_BYTES else None
    if pool is None:
        future = Future()
        future.set_result(fn(*args))
    else:
        future = pool.submit(fn, *args)
    try:
        yield future
    finally:
        wait((future,))


def _round_sigmas(clients: list, T: int) -> dict:
    """Noise scale for every client this round; raises BudgetExhausted."""
    sigmas = {}
    for c in clients:
        if c.noiseless:
            sigmas[c.id] = 0.0
            continue
        led = c.ledger
        sigmas[c.id] = recalibrate_sigma(led.budget, led.q, T, led.rounds, led.sigmas, led.dl)
    return sigmas


def _row_stack(arrays: tuple) -> np.ndarray:
    """The arrays' rows stacked; a view if they are consecutive row ranges of one buffer."""
    first, at = arrays[0], arrays[0].ctypes.data
    for a in arrays:
        if not (a.base is first.base is not None and a.flags.c_contiguous and a.ctypes.data == at):
            return np.concatenate(arrays)
        at += a.nbytes
    shape = (sum(map(len, arrays)), *first.shape[1:])
    return np.lib.stride_tricks.as_strided(first, shape, writeable=False)


class _Stacked:
    """Per-run state of ``run_round``: the clients' rows stacked in client order,
    and buffers holding one forward pass over them at ``self.params``."""

    def __init__(self, spec: ModelSpec, params: np.ndarray, clients: list):
        if [c.id for c in clients] != list(range(len(clients) or 1)):
            raise ValueError("client ids must be their positions 0..U-1, with U >= 1")
        self.spec, self.shards, self.params = spec, [c.shard for c in clients], None
        self.X, ys = zip(*(_check_batch(spec, params, s.features, s.labels) for s in self.shards))
        ends = np.cumsum([len(x) for x in self.X])
        self.rows = [slice(e - len(x), e) for x, e in zip(self.X, ends)]
        self.y, self.sq_norms = np.concatenate(ys), np.concatenate([(x * x).sum(1) for x in self.X])
        self.fwd = _forward_buffers(spec, _row_stack(self.X))
        self.noise = np.empty((0, len(params)))

    def noise_rows(self, k: int) -> np.ndarray:
        """``k`` rows of scratch for one round's standard normals, kept across rounds."""
        if len(self.noise) < k:
            self.noise = np.empty((k, self.noise.shape[1]))
        return self.noise[:k]

    def fill(self, params: np.ndarray) -> None:
        """Forward every client's rows at ``params``, each into its row range."""
        self.params, (inputs, pre, scores) = None, self.fwd
        for x, r in zip(self.X, self.rows):
            _forward(self.spec, params, x, ([A[r] for A in inputs], [Z[r] for Z in pre], scores[r]))
        self.params = params.copy()


def run_round(
    server: ServerState,
    clients: list,
    cfg: FederationConfig,
    test_eval,
    sigma_override: dict | None = None,
) -> RoundRecord:
    """Execute one round; mutates server and client ledgers only on success.

    ``clients[i].id`` must be i.  The train loss is over the clients' rows, and
    its forward pass feeds the next round's local steps.  ``sigma_override``
    (client id -> noise scale) bypasses the budget recalibration — used by
    externally-scheduled baselines, which check the same ledgers with their
    own halting rule before each round.

    Order: refill the stacked forward if the parameters moved; noise scales
    (may raise ``BudgetExhausted``); selection; the helper draws the noisy
    selected clients' z while this thread runs the backward pass and the
    clipped steps; once the draws are done, ``w * (local + sigma * z)`` is
    summed in client-id order; the helper evaluates ``test_eval`` while this
    thread forwards the clients' rows.  Every helper job is joined before the
    round goes on or raises (the module docstring says why the thread
    schedule cannot show in the outputs).
    """
    if server.t >= server.T:
        raise ValueError(f"round budget exhausted: t={server.t}, T={server.T}")
    rnd, spec, params = server.t, cfg.spec, server.global_params

    # all failure modes (invalid shards, BudgetExhausted, eval errors) fire before mutation
    st = server._stacked
    if st is None or st.spec != spec or list(map(id, st.shards)) != [id(c.shard) for c in clients]:
        st = server._stacked = _Stacked(spec, params, clients)
    if not np.array_equal(st.params, params):  # filled at other parameters
        st.fill(params)
    if sigma_override is None:
        sigmas = _round_sigmas(clients, server.T)
    else:
        sigmas = {c.id: float(sigma_override[c.id]) for c in clients}
        # rejects NaN too, which no upload or ledger may take
        if not all(sigmas[c.id] > 0.0 or c.noiseless and sigmas[c.id] == 0.0 for c in clients):
            raise ValueError("sigma_override must be > 0 for a noisy client, >= 0 for the rest")
    selected = sample_clients(len(clients), cfg.K, _selection_rng(cfg.seed, rnd))

    if cfg.weight_mode == "by_size":
        total = sum(len(clients[i].shard) for i in selected)
        weights = [len(clients[i].shard) / total for i in selected]
    else:
        weights = [1.0 / cfg.K] * len(selected)
    _check_weights(weights)
    noisy = [i for i in selected if sigmas[i] != 0.0]  # as add_noise: sigma 0 draws nothing
    rows = st.noise_rows(len(noisy))
    z = dict(zip(noisy, rows))
    # the generators are built on this thread: that work holds the GIL, the fill does not
    rngs = [_noise_rng(cfg.seed, i, rnd) for i in noisy]
    new_params = np.zeros_like(params)
    with _on_helper(rows.nbytes, _draw_noise, rngs, rows) as drawn:
        norms2, grad_sum = _backward(spec, params, st.fwd, st.y, st.sq_norms)
        factors = _clip_factors(norms2, cfg.clip)
        # one full-batch clipped step per client from the global parameters (models.local_update)
        steps = [params - (cfg.eta / len(clients[i].shard)) * grad_sum(factors, st.rows[i])
                 for i in selected]
        drawn.result()
        for i, w, upload in zip(selected, weights, steps):  # rounded as add_noise, then aggregate
            if i in z:
                upload += np.multiply(z[i], sigmas[i], out=z[i])
            new_params += np.multiply(upload, w, out=upload)

    X_test, y_test = test_eval.features, test_eval.labels
    with _on_helper(X_test.nbytes, loss_and_accuracy, spec, new_params, X_test, y_test) as tested:
        st.fill(new_params)
        train_loss = _loss_from_scores(spec, new_params, st.fwd[2], st.y)
        test_loss, test_acc = tested.result()
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
            c.ledger.charge(sigmas[c.id])
    server.global_params = new_params
    server.t = rnd + 1
    server.records.append(record)
    return record


def run_training(
    server: ServerState,
    clients: list,
    cfg: FederationConfig,
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
            record = run_round(server, clients, cfg, test_eval)
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
