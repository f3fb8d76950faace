"""Adaptive round discounting on the MNIST MLP task.

Start with a generous round budget T. Whenever a round improves test loss by
less than zeta, discount the remaining budget (T <- floor(beta*(T-t)) + t)
and recalibrate the per-round noise downward for the rounds that remain.
The run stops early with less accumulated noise than the fixed-budget run —
and typically a better final model.

Run:   python3 demos/04_adaptive_discounting.py            (784->32->10, ~2 min)
       python3 demos/04_adaptive_discounting.py --full     (784->256->10, slower)

Needs the MNIST IDX files (fetch them once with `udpfl fetch-mnist`).
"""

import argparse
import dataclasses
import sys
import time

from udpfl.harness import (
    ExperimentConfig,
    build_simulation,
    load_experiment_data,
    run_simulation,
)

parser = argparse.ArgumentParser()
parser.add_argument("--full", action="store_true", help="hidden width 256 instead of 32")
parser.add_argument("--epsilon", type=float, default=8.0)
args = parser.parse_args()

HIDDEN = 256 if args.full else 32
U, K, SHARD, T_INIT, SEED = 50, 30, 200, 200, 1
ETA, CLIP = 0.5, 3.8094  # clip = median per-sample gradient norm at init

cfg = ExperimentConfig(
    model_kind="mlp",
    hidden_dim=HIDDEN,
    data_source="mnist",
    shard_size=SHARD,
    U=U,
    K=K,
    T_init=T_INIT,
    epsilon_p=args.epsilon,
    delta_p=1e-3,
    eta=ETA,
    clip_C=CLIP,
    beta=0.9,
    zeta=1e-3,
).resolved()
try:
    shards, _, test = load_experiment_data(cfg, SEED)
except FileNotFoundError as e:
    sys.exit(f"MNIST not found ({e}); run `udpfl fetch-mnist` first")


def run(scheduler):
    run_cfg = dataclasses.replace(cfg, scheduler=scheduler)
    server, clients, fcfg = build_simulation(run_cfg, SEED, shards)
    t0 = time.time()
    run_simulation(run_cfg, server, clients, fcfg, test)
    return server, time.time() - t0


print(f"MNIST MLP 784->{HIDDEN}->10, U={U} K={K}, eps={args.epsilon}, T_init={T_INIT}")

server, dt = run("crd")
print(f"\n[discounted] finished after {server.t} rounds ({dt:.0f}s)")
print("budget staircase (trigger round: discounted T):")
stairs = [
    (r.round, server.records[i + 1].T_at_start if i + 1 < server.t else server.t)
    for i, r in enumerate(server.records)
    if r.trigger_fired
]
line = "  " + "  ".join(f"{rd}:{T}" for rd, T in stairs[:12])
print(line + ("  ..." if len(stairs) > 12 else ""))
sig = sorted(server.records[0].sigma_by_client.values())[0]
sig_end = sorted(server.records[-1].sigma_by_client.values())[0]
print(f"per-round sigma: {sig:.4e} at start -> {sig_end:.4e} at the end")
crd_loss, crd_acc = server.records[-1].test_loss, server.records[-1].test_accuracy

server, dt = run("fixed")
print(f"\n[fixed T={T_INIT}] ran all {server.t} rounds ({dt:.0f}s)")
print(f"\nfinal test loss / accuracy:")
print(f"  discounted  {crd_loss:.4f} / {crd_acc:.4f}")
print(f"  fixed       {server.records[-1].test_loss:.4f} / {server.records[-1].test_accuracy:.4f}")
