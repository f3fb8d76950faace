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

from udpfl.accountant import PrivacyBudget, inverse_variance_budget, sensitivity
from udpfl.harness import (
    ExperimentConfig,
    build_model_spec,
    build_simulation,
    load_experiment_data,
    pilot_clip,
)
from udpfl.scheduler import linear_decay_baseline

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
).resolved()

C, log_path = pilot_clip(cfg, seed=1, rounds=3)
print(f"pilot clip recommendation: C = {C:.4f}   (norms logged to {log_path})")

shards, train_eval, test = load_experiment_data(cfg, 1)
spec = build_model_spec(cfg, train_eval)
server, clients, fcfg = build_simulation(dataclasses.replace(cfg, clip_C=C), 1, shards, spec)

result = linear_decay_baseline(server, clients, fcfg, train_eval, test)
print(
    f"\ndecay baseline: sigma_start={result.records[0].sigma_by_client[0]:.4e}, "
    f"nominal horizon 80, ran {result.realized_T} rounds, halt reason: {result.stop_reason}"
)

B = inverse_variance_budget(PrivacyBudget(6.0, 1e-3), 1.0, sensitivity(0.05, C, 64))
spent = sum(1.0 / s**2 for s in clients[0].sigma_history)
print(f"client 0 spent {spent:.4e} of inverse-variance budget {B:.4e} ({spent/B:.1%})")
print("shrinking sigma spends the budget faster than the flat schedule it was")
print("calibrated for, so the accountant stops the run early — never over budget.")
