"""The benchmark (``perfbench/``) reaches into the simulator by name: the
traced pass (``layers.py``) wraps functions by attribute, and the run audit
(``checks.py``) keeps a reference to every client's sigma history and checks
it after the run.  A renamed name, a site no run calls any more or a history
the audit can no longer see would otherwise fail only the benchmark's own
smoke test, which is not part of this suite, or not at all.  The files are
loaded read-only."""

import dataclasses
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from udpfl import _threads, federation, harness
from udpfl.harness import (
    ExperimentConfig,
    build_simulation,
    load_experiment_data,
    run_experiment,
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


# the traced sites that no run calls: each reads 0 in the traced pass, so
# wrapping it shows nothing until the engine calls it again or the site goes
NEVER_CALLED = {
    "federation.accuracy",
    "federation.add_noise",
    "federation.evaluate",
    "federation.local_update",
    "federation.loss",
    "models.predict",
    "scheduler.evaluate",
}


def test_every_other_traced_site_is_called_by_a_run(tmp_path, monkeypatch):
    layers, workloads = _load("layers"), _load("workloads")
    sites = {f"{o.__name__.rpartition('.')[2]}.{attr}": (o, attr) for o, attr, _, _ in layers.SITES}
    assert len(sites) == len(layers.SITES)
    called = set()

    def noting(fn, site):
        def wrapped(*args, **kwargs):
            called.add(site)
            return fn(*args, **kwargs)

        return wrapped

    for site, (owner, attr) in sites.items():
        monkeypatch.setattr(owner, attr, noting(getattr(owner, attr), site))
    monkeypatch.setattr(harness, "_pool", {})  # each data source is loaded, not a pool hit
    svm = ExperimentConfig(
        model_kind="svm", data_source="synthetic", synth_dim=10, synth_n_test=100,
        shard_size=20, U=6, K=4, T_init=8, epsilon_p=6.0, delta_p=1e-3, clip_C=0.5, zeta=0.01,
        seeds=(1,),
    )
    harness.sweep(svm, "T", [3, 5], tmp_path / "sweep")
    for scheduler in ("crd", "decay"):
        out = tmp_path / scheduler
        assert not run_experiment(dataclasses.replace(svm, scheduler=scheduler), out).errors
    mnist = tmp_path / "mnist"
    workloads.write_mnist_like(mnist, 1, n_train=200, n_test=50)
    mlp = ExperimentConfig(
        model_kind="mlp", hidden_dim=4, data_source="mnist", mnist_dir=str(mnist),
        shard_size=20, U=4, K=2, T_init=3, seeds=(1,),
    )
    assert not run_experiment(mlp, tmp_path / "mlp").errors
    assert set(sites) - called == NEVER_CALLED


@pytest.mark.parametrize("scheduler", ["fixed", "crd", "decay"])
def test_ledger_audit_sees_every_charged_round(scheduler):
    checks = _load("checks")
    # unbalanced shards, so clients differ in sensitivity; partial participation
    cfg = ExperimentConfig(
        model_kind="svm", data_source="synthetic", synth_dim=10, synth_n_test=100,
        partition_mode="unbalanced", size_pattern=(10, 20, 30), U=6, K=4, T_init=15,
        epsilon_p=6.0, delta_p=1e-3, clip_C=0.5, zeta=0.01, scheduler=scheduler,
    ).resolved()
    shards, _, test = load_experiment_data(cfg, 1)
    server, clients, fcfg = build_simulation(cfg, 1, shards)

    # the capture RunLog.replacements makes when a training loop is entered
    run = checks.Run(scheduler, 1, Path("rounds.csv"))
    run.ledgers = [(len(c.shard), c.budget, c.sigma_history) for c in clients]
    run.participation = (fcfg.K, len(clients), fcfg.eta, fcfg.clip)

    run_simulation(cfg, server, clients, fcfg, test)
    assert server.t > 0
    assert [len(h) for _, _, h in run.ledgers] == [server.t] * len(clients)
    assert checks.ledger_violations(run) == []


@pytest.mark.parametrize("scheduler", ["fixed", "crd", "decay"])
def test_traced_sites_run_only_on_the_main_thread(scheduler, monkeypatch):
    # the tracer keeps one span stack, so the round's helper thread must call no traced site
    layers = _load("layers")
    threads = []

    def noting(fn, name):
        def site(*args, **kwargs):
            threads.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)

        return site

    monkeypatch.setattr(_threads, "_HELPER_MIN_BYTES", 0)  # every round job to the helper
    for owner, attr, name, _ in layers.SITES:
        monkeypatch.setattr(owner, attr, noting(getattr(owner, attr), name))
    draw = federation._draw_noise
    monkeypatch.setattr(federation, "_draw_noise", noting(draw, "helper._draw_noise"))
    cfg = ExperimentConfig(
        model_kind="svm", data_source="synthetic", synth_dim=10, synth_n_test=100,
        partition_mode="unbalanced", size_pattern=(10, 20, 30), U=6, K=4, T_init=6,
        epsilon_p=6.0, delta_p=1e-3, clip_C=0.5, zeta=0.01, scheduler=scheduler,
    ).resolved()
    shards, _, test = load_experiment_data(cfg, 1)
    server, clients, fcfg = build_simulation(cfg, 1, shards)
    run_simulation(cfg, server, clients, fcfg, test)
    assert server.t > 0
    off_main = sorted({name for name, on_main in threads if not on_main})
    # the helper ran (where the process may use two CPUs), and only the unwrapped seam
    assert off_main == (["helper._draw_noise"] if _threads._helper() else [])
    assert {name for name, _ in threads} >= {"federation.run_round", "federation.sample_clients"}
