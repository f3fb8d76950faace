"""Release acceptance gates.

Each test is one pass/fail verdict on a shipping requirement, checked at the
stated tolerance. The two training-heavy protocols (round-budget U-shape on
the synthetic SVM task, adaptive-discounting dominance on the MNIST MLP task)
run once in session-scoped fixtures and are shared by every gate that reads
them; the privacy-ledger gate audits every run those protocols completed.

Ordered by gate number:
  01 directed-moment ordering on a parameter grid        (< 1 minute)
  02 closed-form bound dominates numeric moments
  03 noise calibration is exact and self-consistent      (1e-12 relative)
  04 per-sample gradients match finite differences       (1e-5 relative)
  05 noiseless federation equals centralized clipped GD  (1e-10)
  06 final loss is U-shaped in the round budget          (< 10 minutes)
  07 adaptive discounting dominates fixed budgets
  08 discounted budget is a staircase, ordered by epsilon
  09 noise/selection sampling statistics
  10 per-client spent noise variance stays within budget
  11 byte-identical reruns, independent of worker count
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from udpfl.accountant import (
    MechanismParams,
    PrivacyBudget,
    calibrate_sigma,
    inverse_variance_budget,
    moment_numeric,
    recalibrate_sigma,
    sensitivity,
    verify_accountant,
)
from udpfl.federation import add_noise, run_training, sample_clients
from udpfl.harness import (
    ExperimentConfig,
    build_simulation,
    load_experiment_data,
    run_experiment,
    run_simulation,
)
from udpfl.models import (
    ModelSpec,
    Sample,
    local_update,
    param_count,
    per_sample_gradient,
)
from udpfl.models import loss as model_loss

from conftest import requires_mnist

DELTA = 0.001
SEEDS = (1, 2, 3, 4, 5)

# Every training run executed by this module reports its worst per-client
# ledger margin (spent inverse variance minus budget) here; gate 10 audits
# the collection.  Entries: (label, scheduler, margin).
LEDGER_AUDIT = []


def _ledger_margin(clients, q, eta, clip, n_samples):
    """Worst client's spent-minus-budget gap; -inf if nobody was charged."""
    worst = -math.inf
    for c in clients:
        if not c.sigma_history:
            continue
        B = inverse_variance_budget(c.budget, q, sensitivity(eta, clip, n_samples))
        spent = math.fsum(1.0 / s**2 for s in c.sigma_history)
        worst = max(worst, spent - B)
    return worst


def _train_once(env, K, eps, T, seed, crd=False):
    cfg, shards, test = env
    scheduler = "crd" if crd else "fixed"
    cfg = dataclasses.replace(cfg, K=K, epsilon_p=eps, T_init=T, scheduler=scheduler)
    server, clients, fcfg = build_simulation(cfg, seed, shards)
    run_simulation(cfg, server, clients, fcfg, test)
    return server, clients


# --- gate 1: directed-moment ordering --------------------------------------

def test_01_moment_ordering_on_grid():
    """mix||base moment >= base||mix moment across a q/sigma/lambda grid."""
    t0 = time.time()
    dl = sensitivity(0.05, 1.0, 800)
    qs = [round(0.1 * i, 1) for i in range(1, 11)]
    worst = -math.inf
    for q, sigma in itertools.product(qs, (0.005, 0.01, 0.05)):
        for lam in range(1, 101):
            m = MechanismParams(q=q, sigma=sigma, sensitivity=dl, lam=lam)
            d10 = moment_numeric(m, "mix||base")
            d01 = moment_numeric(m, "base||mix")
            worst = max(worst, d01 - d10)
    elapsed = time.time() - t0
    assert worst <= 1e-9, f"ordering violated by {worst:.3e}"
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


# --- gate 2: closed-form bound dominance ------------------------------------

def test_02_bound_dominates_numeric_moments():
    """All four report panels: bound >= numeric wherever the bound applies."""
    rows = verify_accountant()
    assert len(rows) == 400
    assert sum(r["ordering_violation"] for r in rows) == 0
    checked = [r for r in rows if r["bound_checked"]]
    assert checked, "no rows inside the bound's small-moment regime"
    assert sum(r["bound_violation"] for r in checked) == 0
    # the regime gate itself: every checked row sits below the cutoff
    assert all(r["regime_ratio"] < 0.1 for r in checked)


# --- gate 3: calibration exactness ------------------------------------------

def test_03_calibration_round_trip_exact():
    """calibrate_sigma inverts the budget relation to 1e-12 relative, and
    recalibration with an unchanged horizon returns the same sigma."""
    rng = np.random.default_rng(np.random.SeedSequence((2026, 3)))
    worst_cal = 0.0
    worst_recal = 0.0
    for _ in range(1000):
        eps = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
        delta = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.05))))
        q = float(rng.uniform(0.05, 1.0))
        T = int(rng.integers(1, 501))
        dl = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.1))))
        b = PrivacyBudget(eps, delta)
        sigma = calibrate_sigma(b, q, T, dl)
        eps_back = dl * math.sqrt(2.0 * q * T * math.log(1.0 / delta)) / sigma
        worst_cal = max(worst_cal, abs(eps_back - eps) / eps)
        t = int(rng.integers(0, T))
        re = recalibrate_sigma(b, q, T, t, [sigma] * t, dl)
        worst_recal = max(worst_recal, abs(re - sigma) / sigma)
    assert worst_cal <= 1e-12, f"calibration off by {worst_cal:.3e}"
    assert worst_recal <= 1e-12, f"recalibration off by {worst_recal:.3e}"


# --- gate 4: gradient correctness -------------------------------------------

def _fd_instance(kind, rng):
    """Draw (spec, params, sample) away from any hinge/ReLU kink so central
    differences are valid."""
    dim = 6
    while True:
        x = rng.normal(size=dim)
        if kind == "logistic":
            spec = ModelSpec("logistic", input_dim=dim, num_classes=3)
            y = int(rng.integers(0, 3))
            params = rng.normal(size=param_count(spec)) * 0.5
            return spec, params, Sample(x, y)
        if kind == "mlp":
            spec = ModelSpec("mlp", input_dim=dim, num_classes=3, hidden_dim=4)
            y = int(rng.integers(0, 3))
            params = rng.normal(size=param_count(spec)) * 0.5
            W1 = params[: dim * 4].reshape(dim, 4)
            b1 = params[dim * 4 : dim * 4 + 4]
            if np.min(np.abs(x @ W1 + b1)) > 1e-3:  # away from ReLU kinks
                return spec, params, Sample(x, y)
        if kind == "svm":
            spec = ModelSpec("svm", input_dim=dim, kappa=1e-2)
            y = int(rng.choice([-1, 1]))
            params = rng.normal(size=param_count(spec)) * 0.5
            if abs(y - x @ params) > 1e-3:  # away from the hinge kink
                return spec, params, Sample(x, y)


def test_04_per_sample_gradient_matches_finite_differences():
    h = 1e-5
    rng = np.random.default_rng(np.random.SeedSequence((2026, 4)))
    worst = 0.0
    for kind in ("logistic", "mlp", "svm"):
        for _ in range(10):
            spec, params, sample = _fd_instance(kind, rng)
            g = per_sample_gradient(spec, params, sample)
            X = sample.features[None, :]
            y = np.array([sample.label])
            coords = rng.choice(len(params), size=min(20, len(params)), replace=False)
            for i in coords:
                e = np.zeros_like(params)
                e[i] = h
                fd = (
                    model_loss(spec, params + e, X, y)
                    - model_loss(spec, params - e, X, y)
                ) / (2 * h)
                denom = max(abs(g[i]), abs(fd))
                if denom < 1e-8:
                    continue
                worst = max(worst, abs(fd - g[i]) / denom)
    assert worst < 1e-5, f"worst relative FD mismatch {worst:.3e}"


# --- gate 5: noiseless oracle equivalence -----------------------------------

def test_05_noiseless_federation_equals_centralized_gd():
    """5 clients x 10 samples, zero noise, full participation: the federated
    average of local clipped steps equals one centralized clipped step."""
    from udpfl.data import PartitionPlan, partition, synth_linear
    from udpfl.models import ModelSpec

    full = synth_linear(150, 10, 1.0, seed=7)
    train = full.subset(np.arange(50))
    test = full.subset(np.arange(50, 150))
    idx = partition(train, PartitionPlan("iid", shard_size=10), 5, np.random.SeedSequence(5))
    shards = [train.subset(i) for i in idx]
    spec = ModelSpec("svm", input_dim=10, kappa=1e-2)
    cfg = ExperimentConfig(
        model_kind="svm", kappa=1e-2, U=5, K=5, T_init=20, epsilon_p=math.inf,
        delta_p=DELTA, eta=0.05, clip_C=0.5,
    )
    server, clients, fcfg = build_simulation(cfg, 3, shards)
    w = server.global_params.copy()
    run_training(server, clients, fcfg, test)

    # independent centralized oracle on the pooled samples, from the same start
    order = np.concatenate(idx)
    Xp, yp = train.features[order], train.labels[order]
    for _ in range(20):
        w = local_update(spec, w, Xp, yp, 0.05, 0.5)
    assert np.max(np.abs(server.global_params - w)) <= 1e-10
    assert all(not c.sigma_history for c in clients)  # nobody charged


# --- gate 6: U-shape in the round budget ------------------------------------

SVM_U = dict(dim=300, margin=1.0, eta=0.1, clip=2.0, kappa=1e-2, shard=128, U=50)


def _svm_env(seed):
    cfg = ExperimentConfig(
        model_kind="svm",
        data_source="synthetic",
        partition_mode="iid",
        shard_size=SVM_U["shard"],
        synth_dim=SVM_U["dim"],
        synth_margin=SVM_U["margin"],
        synth_n_test=1000,
        kappa=SVM_U["kappa"],
        U=SVM_U["U"],
        K=SVM_U["U"],
        T_init=200,
        epsilon_p=6.0,
        delta_p=DELTA,
        eta=SVM_U["eta"],
        clip_C=SVM_U["clip"],
    ).resolved()
    shards, _, test = load_experiment_data(cfg, seed)
    return cfg, shards, test


@pytest.fixture(scope="session")
def u_shape_runs():
    t0 = time.time()
    T_grid = list(range(25, 301, 25))
    envs = {s: _svm_env(s) for s in SEEDS}
    means = {}
    for eps in (6.0, 8.0, 10.0):
        grid_means = []
        for T in T_grid:
            finals = []
            for seed in SEEDS:
                server, clients = _train_once(envs[seed], K=SVM_U["U"], eps=eps, T=T, seed=seed)
                finals.append(server.records[-1].test_loss)
                LEDGER_AUDIT.append((
                    f"svm_T{T}_e{eps}_s{seed}", "fixed",
                    _ledger_margin(clients, 1.0, SVM_U["eta"], SVM_U["clip"], SVM_U["shard"]),
                ))
            grid_means.append(float(np.mean(finals)))
        means[eps] = grid_means
    return {"T_grid": T_grid, "means": means, "elapsed": time.time() - t0}


def test_06_final_loss_u_shaped_in_round_budget(u_shape_runs):
    """Seed-mean final loss has an interior argmin at the tightest budget and
    the argmin never moves left as the budget loosens."""
    T_grid = u_shape_runs["T_grid"]
    argmins = {
        eps: T_grid[int(np.argmin(m))] for eps, m in u_shape_runs["means"].items()
    }
    assert T_grid[0] < argmins[6.0] < T_grid[-1], f"argmin at grid edge: {argmins}"
    assert argmins[6.0] <= argmins[8.0] <= argmins[10.0], f"argmins not ordered: {argmins}"
    assert u_shape_runs["elapsed"] < 600.0, f"protocol took {u_shape_runs['elapsed']:.0f}s"


# --- gates 7 and 8: adaptive discounting on the MNIST MLP task ---------------

MLP_FAST = dict(hidden=32, shard=200, U=50, eta=0.5, clip=3.8094, T_init=200)


def _mnist_env(seed):
    cfg = ExperimentConfig(
        model_kind="mlp",
        hidden_dim=MLP_FAST["hidden"],
        data_source="mnist",
        partition_mode="iid",
        shard_size=MLP_FAST["shard"],
        U=MLP_FAST["U"],
        K=MLP_FAST["U"],
        T_init=MLP_FAST["T_init"],
        epsilon_p=8.0,
        delta_p=DELTA,
        eta=MLP_FAST["eta"],
        clip_C=MLP_FAST["clip"],
    ).resolved()
    shards, _, test = load_experiment_data(cfg, seed)
    return cfg, shards, test


@pytest.fixture(scope="session")
def discounting_runs():
    """CRD vs fixed budgets over K x epsilon cells, five seeds each.

    Grid budgets {50, 100, 200} bracket every realized discounted budget the
    probe runs produced, with T_init itself as the top point.
    """
    fixed_grid = (50, 100, 200)
    runs = {}
    for seed in SEEDS:
        env = _mnist_env(seed)
        for K in (50, 30):
            q = K / MLP_FAST["U"]
            for eps in (8.0, 12.0, 16.0):
                jobs = [("crd", MLP_FAST["T_init"], True)]
                jobs += [(f"f{T}", T, False) for T in fixed_grid]
                for label, T, crd in jobs:
                    server, clients = _train_once(env, K=K, eps=eps, T=T, seed=seed, crd=crd)
                    Ts = [r.T_at_start for r in server.records]
                    runs[(seed, K, eps, label)] = {
                        "final": server.records[-1].test_loss,
                        "realized": server.t,
                        "triggers": sum(r.trigger_fired for r in server.records),
                        "nonincreasing": all(a >= b for a, b in zip(Ts, Ts[1:])),
                    }
                    LEDGER_AUDIT.append((
                        f"mlp_K{K}_e{eps}_{label}_s{seed}",
                        "crd" if crd else "fixed",
                        _ledger_margin(clients, q, MLP_FAST["eta"], MLP_FAST["clip"], MLP_FAST["shard"]),
                    ))
    return {"runs": runs, "fixed_grid": fixed_grid}


def _cell_mean(runs, K, eps, label):
    return float(np.mean([runs[(s, K, eps, label)]["final"] for s in SEEDS]))


@requires_mnist
def test_07_discounting_dominates_fixed_budgets(discounting_runs):
    """Per (K, epsilon) cell: CRD's seed-mean final test loss never exceeds the
    full-budget run and stays within 5% of the best fixed budget on the grid."""
    runs = discounting_runs["runs"]
    grid = discounting_runs["fixed_grid"]
    failures = []
    for K, eps in itertools.product((50, 30), (8.0, 12.0, 16.0)):
        crd = _cell_mean(runs, K, eps, "crd")
        full = _cell_mean(runs, K, eps, f"f{max(grid)}")
        best = min(_cell_mean(runs, K, eps, f"f{T}") for T in grid)
        if crd > full + 1e-9:
            failures.append(f"K={K} eps={eps}: crd {crd:.4f} > full-budget {full:.4f}")
        if crd > 1.05 * best:
            failures.append(f"K={K} eps={eps}: crd {crd:.4f} > 1.05 x best {best:.4f}")
    assert not failures, "; ".join(failures)


@requires_mnist
def test_08_budget_staircase_ordered_by_epsilon(discounting_runs):
    """Every CRD run shrinks its budget monotonically, triggers at the tightest
    epsilon, and realized budgets grow with epsilon in seed-mean."""
    runs = discounting_runs["runs"]
    crd = {k: v for k, v in runs.items() if k[3] == "crd"}
    assert all(v["nonincreasing"] for v in crd.values())
    assert all(v["triggers"] >= 1 for (s, K, e, _), v in crd.items() if e == 8.0)
    for K in (50, 30):
        mean_T = {
            eps: float(np.mean([crd[(s, K, eps, "crd")]["realized"] for s in SEEDS]))
            for eps in (8.0, 12.0, 16.0)
        }
        assert mean_T[8.0] <= mean_T[12.0] <= mean_T[16.0], f"K={K}: {mean_T}"


# --- gate 9: sampling statistics --------------------------------------------

def test_09_noise_and_selection_statistics():
    rng = np.random.default_rng(np.random.SeedSequence((2026, 90)))
    sigma = 0.01
    draws = add_noise(np.zeros(1_000_000), sigma, rng)
    assert abs(float(np.std(draws)) / sigma - 1.0) <= 0.02

    rng = np.random.default_rng(np.random.SeedSequence((2026, 0)))
    U, K, rounds = 50, 30, 100_000
    counts = np.zeros(U)
    for _ in range(rounds):
        for c in sample_clients(U, K, rng):
            counts[c] += 1
    q = K / U
    dev = np.max(np.abs(counts / rounds - q))
    assert dev <= 0.01 * q, f"selection frequency off by {dev:.5f}"


# --- gate 10: ledger soundness ----------------------------------------------

@requires_mnist
def test_10_every_run_stays_within_noise_budget(u_shape_runs, discounting_runs):
    """Spent inverse noise variance <= budget + 1e-9 for every client of every
    completed run, across all three schedulers."""
    # add a linear-decay run so all schedulers are represented
    cfg, shards, test = _svm_env(1)
    cfg = dataclasses.replace(cfg, T_init=60, scheduler="decay")
    server, clients, fcfg = build_simulation(cfg, 1, shards)
    run_simulation(cfg, server, clients, fcfg, test)
    assert server.t > 0
    LEDGER_AUDIT.append((
        "svm_decay_s1", "decay",
        _ledger_margin(clients, 1.0, SVM_U["eta"], SVM_U["clip"], SVM_U["shard"]),
    ))

    assert len(LEDGER_AUDIT) >= 300
    assert {sched for _, sched, _ in LEDGER_AUDIT} == {"fixed", "crd", "decay"}
    bad = [(label, m) for label, _, m in LEDGER_AUDIT if m > 1e-9]
    assert not bad, f"{len(bad)} runs overdrew their budget, worst: {max(bad, key=lambda x: x[1])}"


# --- gate 11: determinism ---------------------------------------------------

def test_11_reruns_byte_identical_across_worker_counts(tmp_path):
    base = dict(
        model_kind="svm",
        data_source="synthetic",
        synth_dim=8,
        synth_margin=1.0,
        synth_n_test=60,
        shard_size=30,
        U=10,
        K=6,
        T_init=12,
        epsilon_p=6.0,
        delta_p=DELTA,
        clip_C=0.5,
        seeds=SEEDS,
    )
    blobs = []
    for name, workers in (("serial", 1), ("again", 1), ("pool", len(SEEDS))):
        cfg = ExperimentConfig.from_dict(
            dict(base, workers=workers, output_dir=str(tmp_path / name))
        )
        manifest = run_experiment(cfg)
        assert not manifest.errors
        blobs.append(
            [
                (tmp_path / name / f"seed_{s}" / "rounds.csv").read_bytes()
                for s in SEEDS
            ]
        )
    assert blobs[0] == blobs[1], "rerun differs"
    assert blobs[0] == blobs[2], "worker pool changes output"
