"""The benchmark (``perfbench/``) reaches into the simulator by name: the
traced pass (``layers.py``) wraps functions by attribute, and the run audit
(``checks.py``) keeps a reference to every client's sigma history and checks
it after the run.  A renamed name or a history the audit can no longer see
would otherwise fail only the benchmark's own smoke test, which is not part
of this suite.  Both files are loaded read-only."""

import importlib.util
import sys
from pathlib import Path

import pytest

from udpfl.harness import (
    ExperimentConfig,
    build_model_spec,
    build_simulation,
    load_experiment_data,
    run_simulation,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    layers = _load("layers")
    unresolved = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in layers.SITES
        if not callable(getattr(owner, attr, None))
    ]
    assert layers.SITES
    assert unresolved == []


@pytest.mark.parametrize("scheduler", ["fixed", "crd", "decay"])
def test_ledger_audit_sees_every_charged_round(scheduler):
    checks = _load("checks")
    # unbalanced shards, so clients differ in sensitivity; partial participation
    cfg = ExperimentConfig(
        model_kind="svm", data_source="synthetic", synth_dim=10, synth_n_test=100,
        partition_mode="unbalanced", size_pattern=(10, 20, 30), U=6, K=4, T_init=15,
        epsilon_p=6.0, delta_p=1e-3, clip_C=0.5, zeta=0.01, scheduler=scheduler,
    ).resolved()
    shards, train_eval, test = load_experiment_data(cfg, 1)
    server, clients, fcfg = build_simulation(cfg, 1, shards, build_model_spec(cfg, train_eval))

    # the capture RunLog.replacements makes when a training loop is entered
    run = checks.Run(scheduler, 1, Path("rounds.csv"))
    run.ledgers = [(len(c.shard), c.budget, c.sigma_history) for c in clients]
    run.participation = (fcfg.K, len(clients), fcfg.eta, fcfg.clip)

    result = run_simulation(cfg, server, clients, fcfg, test)
    assert result.realized_T > 0
    assert [len(h) for _, _, h in run.ledgers] == [result.realized_T] * len(clients)
    assert checks.ledger_violations(run) == []
