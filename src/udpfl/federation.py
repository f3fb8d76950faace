"""Federated training loop: sampling, local updates, noise, aggregation.

One round does, in order: sample K of U clients; charge each ``MomentLedger``
once for the round at the current round budget T (noise scale from
``recalibrate_sigma`` over the ledger's history, which reduces to the
closed-form calibration while T is unchanged); every selected client takes
one full-batch clipped step from the global parameters and adds Gaussian
noise; the server aggregates the uploads by weight and evaluates the new
model on the clients' rows (loss) and on the test set (loss and accuracy).
A run is its ``ServerState``: parameters, round budget T and one ``RoundRecord``
per round run, whose count is t; the training loops return only why they stopped.

Client i is ``clients[i]``.  Per run, the server stacks the clients' rows in
that order with ``data.stack``, which reads every shard as float64 (a ``cut``'s
shards as their gather's own arrays, without a copy), and checks them once.  A
round's train-loss forward pass is the one the next round's local steps start
from, and one backward pass over it serves every selected client.  Each upload
adds its ``sigma * z``, rounded as ``add_noise`` rounds it, and ``aggregate``
folds the uploads in client order.

Each process has one helper thread, made on first use, and none where the
process may use one CPU only.  In a round it draws the noisy clients' standard
normals, from generators the main thread builds, beside the backward pass and
the local steps.  Then both threads forward the new model: the helper evaluates
it on the test set, then takes blocks of clients from the front of the stacked
rows while the main thread takes them from the back (a run's first fill is the
same batch without the test pass).  A batch reading under ``_HELPER_MIN_BYTES``
in all runs inline instead, since waking the helper would cost as much.  A
block is consecutive clients of one shard size, forwarded by one batched
``matmul`` over their ``(clients, rows, ...)`` views: numpy makes each client's
own BLAS call inside it, so each row's bits are those of ``local_update``'s
call, whichever thread ran it.  One GEMV over several clients' rows would
change them where a shard is 1 row or not a multiple of 4 rows (OpenBLAS
0.3.31), and a GEMV of up to 500 rows holds the GIL, so a call per client could
not run on both threads at once (numpy 2.4).  Every job writes only its own
memory, which the main thread reads after joining the helper, so no output
depends on where or when it ran; a round that fails joins the helper before it
raises.  Every fork of the process first stops the helper
(``os.register_at_fork``), so no fork copies a live thread (Python 3.12 warns
of that, and a child would wait forever on the parent's thread); parent and
child each make a new one on their next round.  Checked on Python 3.11 with the
fork start method.

Randomness is drawn from per-purpose streams keyed by ``_stream``: (seed, tag)
for the initial parameters and the partition, (seed, tag, round) for selection
and (seed, tag, client, round) for noise, so results are independent of
execution order and identical under any parallel schedule.

A client budget with ``epsilon == inf`` disables noise entirely: sigma is
0, no ledger entries accrue, and no random draws are consumed, which makes
such runs bit-identical to plain federated gradient descent.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import ConfigError, _is_int
from .accountant import BudgetExhausted, MomentLedger, PrivacyBudget, recalibrate_sigma
from .data import stack
from .models import ModelSpec, _backward, _check_batch, _clip_factors, _forward, _forward_buffers
# accuracy, local_update and loss have no caller here; perfbench/layers.py wraps them by name
from .models import _loss_from_scores, accuracy, local_update, loss, loss_and_accuracy

_TAGS = dict(init=0, select=1, noise=2, partition=11)
WEIGHT_MODES = ("by_size", "equal")
_helpers: list = []  # once made: [this process's one-thread executor, or None on one CPU]
# a smaller helper batch runs inline: waking the helper can cost ~0.1 ms, as much as the work
_HELPER_MIN_BYTES = 1 << 22


@dataclass
class ClientState:
    """One simulated client: data shard and the privacy ledger of its class."""

    shard: object  # Dataset
    ledger: MomentLedger

    def __post_init__(self) -> None:
        if len(self.shard) == 0:
            raise ValueError("empty shard")

    @property
    def budget(self) -> PrivacyBudget:
        return self.ledger.budget

    @property
    def sigma_history(self) -> list:
        """The class ledger's own list of charged noise scales (shared, not a copy)."""
        return self.ledger.sigmas


@dataclass
class ServerState:
    global_params: np.ndarray
    T: int
    records: list = field(default_factory=list)
    _stacked: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= self.t <= self.T):
            raise ValueError(f"need 0 <= t <= T, got t={self.t}, T={self.T}")

    @property
    def t(self) -> int:
        """Rounds run so far: the record count."""
        return len(self.records)


@dataclass
class RoundRecord:
    round: int
    T_at_start: int
    sigma_by_client: dict  # selected client's position -> noise scale used
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
        if not (_is_int(self.K) and self.K >= 1):
            v.append(f"K must be an int >= 1, got {self.K}")
        if not self.eta > 0:
            v.append(f"eta must be > 0, got {self.eta}")
        if not self.clip > 0:
            v.append(f"clip must be > 0, got {self.clip}")
        if self.weight_mode not in WEIGHT_MODES:
            v.append(f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}")
        if v:
            raise ConfigError(v)


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
    """Weighted coordinate-wise average of (weight, params) uploads, summed in order."""
    weights = np.array([w for w, _ in uploads], dtype=float)
    if not weights.size:
        raise ValueError("no uploads to aggregate")
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
    return loss_and_accuracy(spec, params, dataset.float_rows(), dataset.labels)


def _stream(seed: int, tag: str, *ids: int) -> np.random.SeedSequence:
    """The key ``(seed, _TAGS[tag], *ids)`` of one random stream."""
    return np.random.SeedSequence((seed, _TAGS[tag], *ids))


def _selection_rng(seed: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng(_stream(seed, "select", rnd))


def _noise_rng(seed: int, client: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng(_stream(seed, "noise", client, rnd))


def _draw_noise(rngs: list, block: np.ndarray) -> None:
    """Row j of ``block`` gets ``rngs[j]``'s standard normals (``add_noise``'s z)."""
    for rng, row in zip(rngs, block):
        rng.standard_normal(out=row)


def _helper() -> ThreadPoolExecutor | None:
    """This process's helper thread (None on one CPU), made on first use."""
    if not _helpers:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        _helpers.append(ThreadPoolExecutor(1, "udpfl-helper") if (cpus or 1) > 1 else None)
    return _helpers[0]


def _stop_helper() -> None:
    """Join and drop this process's helper, so a fork copies no live thread; the next
    round makes one again."""
    if _helpers and _helpers[0] is not None:
        _helpers[0].shutdown()
    _helpers.clear()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(before=_stop_helper)


@contextmanager
def _on_helper(nbytes: int, job=None, blocks=()):
    """Run ``job()``, then the zero-argument ``blocks``, work reading ``nbytes`` of
    arrays in all, beside the ``with`` body.  On the helper, if it exists and the work
    is worth a thread handoff, ``job`` runs first and then blocks are taken from the
    front, while the yielded function takes them from the back on this thread; else
    all of it runs first, on this thread, in order.  The yielded function returns
    ``job``'s value once every block is done.  The helper is joined, and takes no more
    blocks, before the body's exit goes on, raised or not."""
    queue = deque(blocks)

    def drain(take) -> None:
        while True:
            try:
                block = take()
            except IndexError:  # none left
                return
            block()

    def run():
        value = job() if job is not None else None
        drain(queue.popleft)
        return value

    pool = _helper() if nbytes >= _HELPER_MIN_BYTES else None
    if pool is None:
        future = Future()
        future.set_result(run())
    else:
        future = pool.submit(run)

    def done():
        drain(queue.pop)
        return future.result()

    try:
        yield done
    finally:
        queue.clear()
        wait((future,))


def _noisy_ledgers(clients: list) -> tuple:
    """The classes that take noise: the distinct ledgers of finite epsilon, in client order."""
    return tuple(dict.fromkeys(c.ledger for c in clients if math.isfinite(c.budget.epsilon)))


def _round_sigmas(clients: list, T: int) -> dict:
    """Each noisy class's ledger -> its noise scale this round; raises BudgetExhausted."""
    return {led: recalibrate_sigma(led.budget, led.q, T, led.rounds, led.sigmas, led.dl)
            for led in _noisy_ledgers(clients)}


class _Stacked:
    """Per-run state of ``run_round``: the clients' rows stacked in client order,
    and buffers holding one forward pass over them at ``self.params``."""

    def __init__(self, spec: ModelSpec, params: np.ndarray, clients: list):
        if not clients:
            raise ValueError("a round needs at least one client")
        self.spec, self.shards, self.params = spec, [c.shard for c in clients], None
        whole = stack(self.shards)
        X, self.y = _check_batch(spec, params, whole.float_rows(), whole.labels)
        self.sq_norms = whole.sq_norms
        sizes = [len(s) for s in self.shards]
        ends = np.cumsum(sizes)
        self.rows = [slice(e - n, e) for n, e in zip(sizes, ends)]
        self.fwd = inputs, pre, scores = _forward_buffers(spec, X)
        # a fill block: consecutive clients of one shard size as (clients, rows, ...) views,
        # which one batched matmul forwards with each client's own BLAS call (see the
        # module docstring); each run of them is cut into the fewest parts that read at
        # most _HELPER_MIN_BYTES each
        self.blocks, start = [], 0
        for n, run in itertools.groupby(sizes):
            k = len(list(run))
            parts = min(k, -(-k * n * X[0].nbytes // max(_HELPER_MIN_BYTES, 1)))
            for m in map(len, np.array_split(range(k), parts)):
                r, start = slice(start, start + m * n), start + m * n

                def view(B, r=r, m=m, n=n):
                    return B[r].reshape(m, n, *B.shape[1:])

                self.blocks.append(
                    (view(X), ([*map(view, inputs)], [*map(view, pre)], view(scores)))
                )

    def fill(self, params: np.ndarray, job=None, nbytes: int = 0):
        """Forward every client's rows at ``params`` into its row range, in blocks shared
        with the helper beside ``job`` (reading ``nbytes``); returns ``job``'s value.
        Unfilled (``self.params`` None) unless every block is done."""
        self.params = None
        blocks = [partial(_forward, self.spec, params, x, out) for x, out in self.blocks]
        with _on_helper(nbytes + self.fwd[0][0].nbytes, job, blocks) as done:
            value = done()
        self.params = params.copy()
        return value


def run_round(
    server: ServerState,
    clients: list,
    cfg: FederationConfig,
    test_eval,
    sigma_override: dict | None = None,
) -> RoundRecord:
    """Execute one round; mutates server and client ledgers only on success.

    Client i is ``clients[i]``.  The train loss is over the clients' rows, and
    its forward pass feeds the next round's local steps.  ``sigma_override``
    (class ledger -> noise scale) bypasses the budget recalibration — used by
    externally-scheduled baselines, which check the same ledgers with their own
    halting rule before each round.  Its keys must be exactly the noisy classes'
    ledgers (``_noisy_ledgers``) and its values > 0, or it raises ``ValueError``
    before any draw, charge or parameter change.

    Order: refill the stacked forward if the parameters moved; noise scales
    (may raise ``BudgetExhausted``); selection; the helper draws the noisy
    selected clients' z while this thread runs the backward pass and the
    clipped steps; once the draws are done, each step adds its ``sigma * z``
    and ``aggregate`` folds the steps; the helper evaluates ``test_eval``
    and then forwards blocks of clients' rows from the front while this thread
    forwards them from the back.  The helper is joined before the round goes on or
    raises (the module docstring says why the thread schedule cannot show in the
    outputs).
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
    if sigma_override is None:  # one charge per ledger, shared by the clients of a class
        charges = _round_sigmas(clients, server.T)
    else:
        charges = {led: float(s) for led, s in sigma_override.items()}
        ledgers = set(_noisy_ledgers(clients))
        # > 0 rejects NaN too, which no upload or ledger may take
        if charges.keys() != ledgers or not all(s > 0.0 for s in charges.values()):
            raise ValueError("sigma_override must map the noisy clients' ledgers to sigmas > 0")
    selected = sample_clients(len(clients), cfg.K, _selection_rng(cfg.seed, rnd))
    sigmas = {i: charges.get(clients[i].ledger, 0.0) for i in selected}

    if cfg.weight_mode == "by_size":
        total = sum(len(clients[i].shard) for i in selected)
        weights = [len(clients[i].shard) / total for i in selected]
    else:
        weights = [1.0 / cfg.K] * len(selected)
    noisy = [i for i in selected if sigmas[i] != 0.0]  # as add_noise: sigma 0 draws nothing
    rows = np.empty((len(noisy), len(params)))
    z = dict(zip(noisy, rows))
    # the generators are built on this thread: that work holds the GIL, the fill does not
    rngs = [_noise_rng(cfg.seed, i, rnd) for i in noisy]
    with _on_helper(rows.nbytes, partial(_draw_noise, rngs, rows)) as drawn:
        norms2, grad_sum = _backward(spec, params, st.fwd, st.y, st.sq_norms)
        factors = _clip_factors(norms2, cfg.clip)
        # one full-batch clipped step per client from the global parameters (models.local_update)
        steps = [params - (cfg.eta / len(clients[i].shard)) * grad_sum(factors, st.rows[i])
                 for i in selected]
        drawn()
    for i, upload in zip(selected, steps):  # rounded as add_noise
        if i in z:
            upload += sigmas[i] * z[i]
    new_params = aggregate(list(zip(weights, steps)))

    X_test, y_test = test_eval.float_rows(), test_eval.labels
    test = partial(loss_and_accuracy, spec, new_params, X_test, y_test)
    test_loss, test_acc = st.fill(new_params, test, X_test.nbytes)
    train_loss = _loss_from_scores(spec, new_params, st.fwd[2], st.y)
    if not (math.isfinite(train_loss) and math.isfinite(test_loss)):
        raise RuntimeError(f"non-finite evaluation loss at round {rnd}")

    record = RoundRecord(
        round=rnd,
        T_at_start=server.T,
        sigma_by_client=sigmas,
        train_loss=train_loss,
        test_loss=test_loss,
        test_accuracy=test_acc,
        selected=selected,
    )
    for ledger, sigma in charges.items():
        ledger.charge(sigma)
    server.global_params = new_params
    server.records.append(record)
    return record


def run_training(
    server: ServerState,
    clients: list,
    cfg: FederationConfig,
    test_eval,
    on_round=None,
) -> str:
    """Run rounds until t reaches T (which ``on_round`` may shrink); returns why it
    stopped, ``"completed"`` or ``"budget_exhausted"``.  The run is ``server``'s.

    ``on_round(server, record)`` is called after each round; it may lower
    ``server.T`` (never below ``server.t``) and may set
    ``record.trigger_fired``.
    """
    while server.t < server.T:
        try:
            record = run_round(server, clients, cfg, test_eval)
        except BudgetExhausted:
            return "budget_exhausted"
        if on_round is not None:
            old_T = server.T
            on_round(server, record)
            if server.T > old_T or server.T < server.t:
                raise RuntimeError(
                    f"scheduler moved T illegally: {old_T} -> {server.T} at t={server.t}"
                )
    return "completed"
