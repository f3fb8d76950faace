"""Two smaller tools: the clip-norm pilot and the linearly-decaying-noise
baseline with its accountant-enforced halt.

The pilot runs a short noiseless pass and reports the median per-sample
gradient norm — a principled clip threshold. The decay baseline starts from
the calibrated sigma and shrinks it linearly each round; the moments
accountant halts the run the moment one more round would overdraw the
privacy budget, always strictly before the nominal horizon.

Run:  python3 demos/05_decay_baseline_and_pilot.py
"""

import dataclasses

from udpfl.accountant import inverse_variance_budget
from udpfl.harness import (
    ExperimentConfig,
    build_simulation,
    load_experiment_data,
    pilot_clip,
    run_simulation,
)

cfg = ExperimentConfig(
    model_kind="svm",
    hinge="unit_margin",
    data_source="synthetic",
    shard_size=64,
    synth_dim=50,
    synth_margin=1.0,
    synth_n_test=500,
    kappa=1e-2,
    U=10,
    K=10,
    T_init=80,
    epsilon_p=6.0,
    delta_p=1e-3,
    eta=0.05,
    clip_C=1.0,
    scheduler="decay",
).resolved()

C, log_path = pilot_clip(cfg, seed=1, rounds=3)
print(f"pilot clip recommendation: C = {C:.4f}   (norms logged to {log_path})")

shards, _, test = load_experiment_data(cfg, 1)
cfg = dataclasses.replace(cfg, clip_C=C)
server, clients, fcfg = build_simulation(cfg, 1, shards)

stop = run_simulation(cfg, server, clients, fcfg, test)
print(
    f"\ndecay baseline: sigma_start={server.records[0].sigma_by_client[0]:.4e}, "
    f"nominal horizon 80, ran {server.t} rounds, halt reason: {stop}"
)

# the client's ledger holds its budget, q = K/U, its sensitivity and every sigma charged
ledger = clients[0].ledger
B = inverse_variance_budget(ledger.budget, ledger.q, ledger.dl)
spent = sum(1.0 / s**2 for s in ledger.sigmas)
print(f"client 0 spent {spent:.4e} of inverse-variance budget {B:.4e} ({spent/B:.1%})")
print("shrinking sigma spends the budget faster than the flat schedule it was")
print("calibrated for, so the accountant stops the run early — never over budget.")
