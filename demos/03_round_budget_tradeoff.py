"""Why there is an optimal number of rounds under a fixed privacy budget.

More rounds mean more optimization progress but also more total injected
noise (per-round sigma is calibrated upward with sqrt(T)). Under a tight
budget the final loss is U-shaped in T; looser budgets push the optimum
right. This is a trimmed-down version of the acceptance protocol — a coarse
grid and two seeds — so it finishes in about a minute.

Run:  python3 demos/03_round_budget_tradeoff.py
"""

import dataclasses

import numpy as np

from udpfl.federation import run_training
from udpfl.harness import (
    ExperimentConfig,
    build_simulation,
    load_experiment_data,
)

U, SHARD = 50, 128
T_GRID = (25, 50, 100, 150, 200, 300)
SEEDS = (1, 2)

CFG = ExperimentConfig(
    model_kind="svm",
    data_source="synthetic",
    shard_size=SHARD,
    synth_dim=300,
    synth_margin=1.0,
    synth_n_test=1000,
    kappa=1e-2,
    U=U,
    K=U,
    epsilon_p=6.0,
    delta_p=1e-3,
    eta=0.1,
    clip_C=2.0,
).resolved()


def make_env(seed):
    shards, _, test = load_experiment_data(CFG, seed)
    return shards, test


def final_loss(env, eps, T, seed):
    shards, test = env
    cfg = dataclasses.replace(CFG, epsilon_p=eps, T_init=T)
    server, clients, fcfg = build_simulation(cfg, seed, shards)
    run_training(server, clients, fcfg, test)
    return server.records[-1].test_loss


envs = {s: make_env(s) for s in SEEDS}
print(f"synthetic SVM, {U} clients x {SHARD} samples, dim 300; seed-mean final test loss")
header = "eps    " + "".join(f"T={T:<8d}" for T in T_GRID) + "argmin"
print(header)
print("-" * len(header))
for eps in (6.0, 10.0):
    means = [
        float(np.mean([final_loss(envs[s], eps, T, s) for s in SEEDS])) for T in T_GRID
    ]
    star = T_GRID[int(np.argmin(means))]
    print(f"{eps:<7.0f}" + "".join(f"{m:<10.4f}" for m in means) + f"T*={star}")
print(
    "\nLoss falls, bottoms out, then rises as noise overtakes progress;\n"
    "the looser budget (eps=10) tolerates a larger round count."
)
