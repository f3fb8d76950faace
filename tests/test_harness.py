"""Config, runner, sweep, pilot and CLI tests."""

import collections
import dataclasses
import gc
import json
import math
import multiprocessing
import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udpfl import accountant, cli, data, federation, harness
from udpfl.accountant import MomentLedger, PrivacyBudget
from udpfl.data import Dataset, PartitionPlan, partition, stack, synth_linear
from udpfl.federation import WEIGHT_MODES
from udpfl.harness import (
    ROUNDS_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _csv,
    build_model_spec,
    build_simulation,
    config_hash,
    load_experiment_data,
    pilot_clip,
    rounds_csv_text,
    run_experiment,
    run_simulation,
    run_single_seed,
    sweep,
)
from udpfl.models import HINGE_FORMS, init_params
from udpfl.scheduler import CrdConfig

SVM_BASE = dict(
    model_kind="svm",
    data_source="synthetic",
    synth_dim=8,
    synth_margin=1.0,
    synth_n_test=100,
    shard_size=20,
    U=5,
    K=3,
    T_init=8,
    epsilon_p=6.0,
    delta_p=0.001,
    clip_C=0.5,
    seeds=(1, 2),
)


def svm_cfg(tmp_path, **over):
    d = dict(SVM_BASE, output_dir=str(tmp_path / "out"))
    d.update(over)
    return ExperimentConfig.from_dict(d)


# --- config handling ---


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key: epsilonp"):
        ExperimentConfig.from_dict({"epsilonp": 3})


def test_epsilon_inf_sentinel_roundtrip():
    cfg = ExperimentConfig.from_dict({"epsilon_p": "inf"})
    assert math.isinf(cfg.epsilon_p)
    assert cfg.to_dict()["epsilon_p"] == "inf"
    assert math.isinf(ExperimentConfig.from_dict({"epsilon_p": "Infinity"}).epsilon_p)
    lots = ExperimentConfig.from_dict({"epsilon_p": "lots"})
    assert lots.validate() == ["epsilon_p must be a number, got 'lots'"]


def test_validation_lists_every_violation():
    cfg = ExperimentConfig(
        model_kind="tree", U=5, K=9, delta_p=2.0, scheduler="magic", zeta=-1
    )
    violations = cfg.validate()
    text = "\n".join(violations)
    for frag in ("model_kind", "K <= U", "delta_p", "scheduler", "zeta"):
        assert frag in text
    assert len(violations) >= 5
    with pytest.raises(ConfigError) as err:
        cfg.check()
    assert len(err.value.violations) == len(violations)


@pytest.mark.parametrize("key, allowed", [("weight_mode", WEIGHT_MODES), ("hinge", HINGE_FORMS)])
def test_validation_checks_constructor_constants(key, allowed):
    bogus = ExperimentConfig.from_dict(dict(SVM_BASE, **{key: "bogus"}))
    assert [v for v in bogus.validate() if key in v and "'bogus'" in v]
    for value in allowed:
        assert ExperimentConfig.from_dict(dict(SVM_BASE, **{key: value})).validate() == []


@pytest.mark.parametrize("seed", [1.5, -1, True], ids=["float", "negative", "bool"])
def test_validation_rejects_a_seed_that_is_not_an_int_ge_0(tmp_path, seed):
    cfg = svm_cfg(tmp_path, seeds=[2, seed])
    assert cfg.validate() == [f"seeds must be ints >= 0, got {[seed]}"]
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()
    numpy_seed = [np.int64(2)]
    assert svm_cfg(tmp_path, seeds=[0, *numpy_seed]).validate() == [
        f"seeds must be ints >= 0, got {numpy_seed}"
    ]


def test_validation_rejects_a_repeated_seed(tmp_path):
    cfg = svm_cfg(tmp_path, seeds=[1, 2, 1, 2, 3])
    assert cfg.validate() == ["seeds must be distinct, got [1, 2] more than once"]
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("hidden_dim", 4.0),
        ("shard_size", 10.5),
        ("labels_per_client", 2.5),
        ("size_pattern", (10, 20.5, 30)),
        ("synth_dim", 5.5),
        ("synth_n_test", 100.0),
        ("data_seed", 0.5),
        ("U", 4.0),
        ("K", 1.5),
        ("T_init", 3.5),
        ("workers", 1.5),
    ],
)
def test_validation_rejects_a_non_integer_count(tmp_path, key, value):
    over = {key: value}
    if key == "size_pattern":
        over.update(partition_mode="unbalanced", shard_size=None, U=6)
    cfg = svm_cfg(tmp_path, epsilon_p="inf", **over)
    violations = cfg.validate()
    assert [v for v in violations if v.startswith(f"{key} must ") and " int" in v], violations
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("K", "3", "K must be an int, got '3'"),
        ("eta", "0.1", "eta must be a number or null, got '0.1'"),
        ("epsilon_p", None, "epsilon_p must be a number, got None"),
        ("U", "6", "U must be an int, got '6'"),
        ("clip_C", "1", "clip_C must be a number, got '1'"),
        ("beta", None, "beta must be a number, got None"),
        ("synth_margin", "1", "synth_margin must be a number, got '1'"),
        ("slope_fraction", "x", "slope_fraction must be a number, got 'x'"),
        ("T_init", "15", "T_init must be an int, got '15'"),
        ("shard_size", True, "shard_size must be an int or null, got True"),
        ("model_kind", 3, "model_kind must be a string, got 3"),
        ("mnist_dir", 0, "mnist_dir must be a string or null, got 0"),
        ("seeds", 1, "seeds must be a list, got 1"),
    ],
)
def test_validation_lists_a_field_of_the_wrong_type(tmp_path, key, value, message):
    base = svm_cfg(tmp_path)
    for cfg in (
        ExperimentConfig.from_dict(dict(SVM_BASE, **{key: value}, output_dir=base.output_dir)),
        ExperimentConfig(**dict(dataclasses.asdict(base), **{key: value})),
        dataclasses.replace(base, **{key: value}),
    ):
        assert cfg.validate() == [message]
        with pytest.raises(ConfigError):
            run_experiment(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("K", np.int64(2)),
        ("workers", np.int64(1)),
        ("clip_C", np.int64(1)),
        ("eta", np.float32(0.01)),
        ("seeds", (1, np.int64(2))),
        ("size_pattern", (10, np.int64(20), 30)),
    ],
)
def test_validation_rejects_a_numpy_scalar_that_json_cannot_write(tmp_path, key, value):
    over = {key: value}
    if key == "size_pattern":  # where PartitionPlan reads the pattern and takes numpy ints
        over.update(partition_mode="unbalanced", shard_size=None, U=6)
    cfg = svm_cfg(tmp_path, **over)
    violations = cfg.validate()
    assert [v for v in violations if v.startswith(f"{key} ")], violations
    with pytest.raises(ConfigError):  # not config_hash's TypeError
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_validation_lists_every_field_of_the_wrong_type_and_nothing_else(tmp_path):
    # K > U is a rule violation too, left out while a type is wrong
    cfg = svm_cfg(tmp_path, K="3", beta=None, U=1, hinge=2)
    assert cfg.validate() == [
        "hinge must be a string, got 2", "K must be an int, got '3'",
        "beta must be a number, got None",
    ]


def test_eta_defaults_per_model_kind():
    assert ExperimentConfig(model_kind="svm").resolved().eta == 0.01
    assert ExperimentConfig(model_kind="mlp").resolved().eta == 0.05
    assert ExperimentConfig(model_kind="logistic").resolved().eta == 0.05
    assert ExperimentConfig(model_kind="svm", eta=0.2).resolved().eta == 0.2


UNBALANCED = dict(partition_mode="unbalanced", size_pattern=(10, 20, 30), U=6)


@pytest.mark.parametrize(
    "over, rejected",
    [
        (dict(epsilon_p=5e-324), True),
        # the unbalanced cut never reads shard_size; it charges each pattern entry's class
        (dict(UNBALANCED, shard_size=10**400), False),
        (dict(UNBALANCED, shard_size=None, size_pattern=(10, 10**400, 30)), True),
    ],
    ids=["tiny-epsilon", "unbalanced-huge-shard_size", "unbalanced-huge-pattern-entry"],
)
def test_round_zero_calibration_guard(over, rejected):
    violations = ExperimentConfig.from_dict(dict(SVM_BASE, **over)).validate()
    assert any("round-0" in v for v in violations) if rejected else violations == [], violations


def test_decay_scheduler_needs_finite_epsilon(tmp_path):
    # every seed of such a run would fail: the decay schedule starts at sigma 0
    cfg = svm_cfg(tmp_path, scheduler="decay", epsilon_p="inf")
    assert "scheduler decay needs a finite epsilon_p" in cfg.validate()
    assert svm_cfg(tmp_path, scheduler="fixed", epsilon_p="inf").validate() == []


@pytest.mark.parametrize(
    "over, prefix",
    [
        (dict(partition_mode="unbalanced", size_pattern=(0, 1, 1, 1, 1), shard_size=None),
         "size_pattern"),
        (dict(partition_mode="unbalanced", size_pattern=(), shard_size=None), "size_pattern"),
        (dict(labels_per_client=0), "labels_per_client"),
        (dict(shard_size=None), "synthetic data needs shard_size"),
        (dict(partition_mode="label_skew"), "svm needs binary +1/-1 labels; label_skew"),
        (dict(zeta=math.nan), "zeta"),
        (dict(kappa=math.nan), "kappa"),
        (dict(epsilon_p=math.nan), "epsilon_p"),
        (dict(delta_p=1.0), "delta_p"),
        (dict(clip_C=0.0), "clip_C"),
        (dict(partition_mode="random"), "partition_mode"),
        (dict(synth_margin=0.0), "synth_margin"),
        (dict(synth_margin=math.nan), "synth_margin"),
        (dict(synth_margin=math.inf), "synth_margin"),
        (dict(synth_dim=0), "synth_dim"),
        (dict(synth_dim=-3), "synth_dim"),
        (dict(synth_n_test=0), "synth_n_test"),
    ],
)
def test_validation_reports_component_rules_under_config_keys(over, prefix):
    # a component rule, reported under the config key that sets the field
    violations = ExperimentConfig.from_dict(dict(SVM_BASE, **over)).validate()
    assert [v for v in violations if v.startswith(prefix)], violations


# edge values of every validated field, valid or not
EDGES = dict(
    model_kind=("logistic", "tree"),
    hidden_dim=(0, -1),
    kappa=(0.0, -1.0, math.nan, math.inf),
    hinge=("bogus",),
    data_source=("csv", "mnist", "bogus"),
    partition_mode=("label_skew", "random"),
    shard_size=(0, -1),
    labels_per_client=(0, -1),
    size_pattern=((0, 1, 1, 1, 1), (), (-1,), (1,)),
    synth_dim=(0, -3, 1),
    synth_margin=(0.0, -1.0, math.nan, math.inf, 1e-300),
    synth_n_test=(0, 1),
    U=(0, -1, 5),
    K=(0, 7),
    T_init=(0, -1),
    epsilon_p=(math.inf, 0.0, -1.0, math.nan, 5e-324),
    delta_p=(0.0, 1.0, math.nan, 5e-324),
    eta=(0.0, -1.0, math.nan, math.inf, 1e-300),
    clip_C=(0.0, math.nan, math.inf),
    weight_mode=("bogus",),
    scheduler=("magic",),
    beta=(0.0, 1.0, math.nan),
    zeta=(0.0, -1.0, math.nan),
    slope_fraction=(-0.5, math.nan),
    seeds=((),),
    workers=(0,),
)


@st.composite
def small_svm_configs(draw):
    """A small synthetic SVM config, with up to two fields set to an edge value."""
    U = draw(st.integers(1, 6))
    n_sizes = draw(st.sampled_from([k for k in range(1, U + 1) if U % k == 0]))
    fields = dict(
        model_kind="svm",
        hidden_dim=draw(st.integers(1, 4)),
        kappa=draw(st.floats(1e-3, 1.0)),
        hinge=draw(st.sampled_from(HINGE_FORMS)),
        data_source="synthetic",
        partition_mode=draw(st.sampled_from(("iid", "unbalanced"))),
        shard_size=draw(st.none() | st.integers(1, 8)),
        labels_per_client=draw(st.integers(1, 4)),
        size_pattern=tuple(draw(st.lists(st.integers(1, 8), min_size=n_sizes, max_size=n_sizes))),
        synth_dim=3,
        synth_n_test=10,
        U=U,
        K=draw(st.integers(1, U)),
        T_init=draw(st.integers(1, 10)),
        epsilon_p=draw(st.floats(0.5, 10.0)),
        delta_p=draw(st.floats(1e-5, 0.5)),
        eta=draw(st.none() | st.floats(1e-3, 0.5)),
        clip_C=draw(st.floats(0.1, 2.0)),
        weight_mode=draw(st.sampled_from(WEIGHT_MODES)),
        scheduler=draw(st.sampled_from(("fixed", "crd", "decay"))),
        beta=draw(st.floats(0.05, 0.95)),
        zeta=draw(st.floats(1e-4, 0.1)),
        slope_fraction=draw(st.floats(0.0, 2.0)),
        seeds=(1,),
        workers=1,
    )
    for key in draw(st.sets(st.sampled_from(sorted(EDGES)), max_size=2)):
        fields[key] = draw(st.sampled_from(EDGES[key]))
    return ExperimentConfig(**fields)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(small_svm_configs())
def test_valid_config_builds_every_component(cfg):
    """validate() == [] implies that loading the data and building the run raise
    nothing, apart from the data-dependent eta <= 1/L guard."""
    if cfg.validate():
        return
    cfg = cfg.resolved()
    shards, _, _ = load_experiment_data(cfg, cfg.seeds[0])
    try:
        build_simulation(cfg, cfg.seeds[0], shards)
    except ConfigError as exc:
        assert len(exc.violations) == 1 and "1/L" in exc.violations[0]
    CrdConfig(beta=cfg.beta, zeta=cfg.zeta, T_init=cfg.T_init)


def test_config_hash_tracks_resolved_fields():
    a = ExperimentConfig(model_kind="mlp")
    assert config_hash(a) == config_hash(ExperimentConfig(model_kind="mlp"))
    # materialized default == explicit value
    assert config_hash(a) == config_hash(ExperimentConfig(model_kind="mlp", eta=0.05))
    for change in (
        {"eta": 0.04},
        {"K": 49},
        {"zeta": 0.002},
        {"seeds": (1,)},
        {"output_dir": "elsewhere"},
    ):
        assert config_hash(dataclasses.replace(a, **change)) != config_hash(a)


def test_config_json_file_roundtrip(tmp_path):
    cfg = svm_cfg(tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.from_json(p)
    assert loaded == cfg


# --- runs ---


def read_rounds(path):
    lines = path.read_text().strip().split("\n")
    header = tuple(lines[0].split(","))
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_run_experiment_outputs_and_schema(tmp_path):
    manifest = run_experiment(svm_cfg(tmp_path))
    assert not manifest.errors
    assert set(manifest.outputs) == {"1", "2"}
    header, rows = read_rounds(tmp_path / "out" / "seed_1" / "rounds.csv")
    assert header == ROUNDS_COLUMNS
    assert len(rows) == 8
    assert [r["round"] for r in rows] == [str(i) for i in range(8)]
    assert all(r["seed"] == "1" for r in rows)
    assert all(r["T_current"] == "8" for r in rows)
    assert all(r["trigger_fired"] == "0" for r in rows)
    sel = rows[0]["selected_clients"].split(";")
    assert len(sel) == 3 and sel == sorted(sel, key=int)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest) == {
        "resolved_config", "config_hash", "version", "wall_clock_sec", "outputs", "errors"
    }


def test_summary_is_derivable_from_rounds_csv(tmp_path):
    run_experiment(svm_cfg(tmp_path))
    _, rows = read_rounds(tmp_path / "out" / "seed_2" / "rounds.csv")
    summary = json.loads((tmp_path / "out" / "seed_2" / "summary.json").read_text())
    last = rows[-1]
    assert summary["final_train_loss"] == float(last["train_loss"])
    assert summary["final_test_loss"] == float(last["test_loss"])
    assert summary["final_test_accuracy"] == float(last["test_accuracy"])
    assert summary["realized_T"] == len(rows)
    assert summary["triggers"] == sum(int(r["trigger_fired"]) for r in rows)
    assert summary["sigma_trajectory"] == [r["sigma"] for r in rows]


def test_rerun_is_byte_identical_and_worker_independent(tmp_path):
    texts = {}
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        cfg = svm_cfg(tmp_path, output_dir=str(tmp_path / name), workers=workers)
        run_experiment(cfg)
        texts[name] = [
            (tmp_path / name / f"seed_{s}" / "rounds.csv").read_bytes() for s in (1, 2)
        ]
    assert texts["a"] == texts["b"]
    assert texts["a"] == texts["c"]


def test_rounds_above_the_helper_limit_match_rounds_without_a_helper(tmp_path, monkeypatch):
    # 6,000 stacked rows of 100 floats (4.8 MB): the fills are worth the helper at the
    # product's own limit, so where the process may use two CPUs both threads forward rows
    assert 6000 * 100 * 8 >= federation._HELPER_MIN_BYTES
    cfg = dict(
        SVM_BASE, synth_dim=100, partition_mode="unbalanced", shard_size=None,
        size_pattern=(400, 500, 600, 700, 800), U=10, K=4, T_init=3, seeds=(1,),
    )
    threads, forward = set(), federation._forward

    def noting(*args):
        threads.add(threading.current_thread() is threading.main_thread())
        return forward(*args)

    monkeypatch.setattr(federation, "_forward", noting)
    texts = []
    for name, helpers in (("helper", federation._helpers), ("inline", [None])):
        monkeypatch.setattr(federation, "_helpers", helpers)
        run_experiment(svm_cfg(tmp_path, **cfg, output_dir=str(tmp_path / name)))
        texts.append((tmp_path / name / "seed_1" / "rounds.csv").read_bytes())
        if name == "helper":  # the helper forwarded client rows, if this process has one
            assert threads == ({True, False} if federation._helper() else {True})
            threads.clear()
    assert threads == {True}  # no helper: this thread forwarded every row
    assert texts[0] == texts[1]


def test_workers_forked_after_rounds_in_the_parent_match_the_serial_run(tmp_path, monkeypatch):
    # rounds in this process make its helper thread; every fork stops it first,
    # and each worker makes its own
    monkeypatch.setattr(federation, "_HELPER_MIN_BYTES", 0)  # every round job to the helper
    run_experiment(svm_cfg(tmp_path, output_dir=str(tmp_path / "serial")))
    assert federation._helpers  # made by the serial rounds
    parallel = svm_cfg(tmp_path, output_dir=str(tmp_path / "parallel"), workers=2)
    outcome = []
    job = threading.Thread(target=lambda: outcome.append(run_experiment(parallel)), daemon=True)
    job.start()
    job.join(timeout=120)
    if job.is_alive():
        for child in multiprocessing.active_children():
            child.terminate()
        pytest.fail("workers=2 did not finish within 120 s after rounds in the parent")
    assert outcome and not outcome[0].errors
    assert federation._helpers == []  # no live helper was forked
    for s in (1, 2):
        serial = (tmp_path / "serial" / f"seed_{s}" / "rounds.csv").read_bytes()
        assert (tmp_path / "parallel" / f"seed_{s}" / "rounds.csv").read_bytes() == serial


def test_noiseless_sentinel_run(tmp_path):
    cfg = svm_cfg(tmp_path, epsilon_p="inf", K=5)
    cfg = ExperimentConfig.from_dict(cfg.to_dict())  # exercise sentinel parse
    run_experiment(cfg)
    _, rows = read_rounds(tmp_path / "out" / "seed_1" / "rounds.csv")
    assert all(r["sigma"] == "0.0" for r in rows)
    # losses strictly improve over the run in the noiseless convex case
    assert float(rows[-1]["train_loss"]) < float(rows[0]["train_loss"])


def test_eta_smoothness_guard_recorded_in_manifest(tmp_path):
    manifest = run_experiment(svm_cfg(tmp_path, eta=50.0))
    assert set(manifest.errors) == {"1", "2"}
    assert "1/L" in manifest.errors["1"]


def test_build_simulation_applies_eta_smoothness_guard(tmp_path):
    cfg = svm_cfg(tmp_path, eta=50.0).check()
    shards, _, _ = load_experiment_data(cfg, 1)
    with pytest.raises(ConfigError, match="1/L"):
        build_simulation(cfg, 1, shards)


def test_crd_run_emits_nonincreasing_T(tmp_path):
    cfg = svm_cfg(tmp_path, scheduler="crd", zeta=0.05, T_init=20)
    run_experiment(cfg)
    _, rows = read_rounds(tmp_path / "out" / "seed_1" / "rounds.csv")
    Ts = [int(r["T_current"]) for r in rows]
    assert all(b <= a for a, b in zip(Ts, Ts[1:]))
    assert len(rows) < 20  # this zeta must shrink the budget
    assert any(r["trigger_fired"] == "1" for r in rows)


@pytest.mark.parametrize("scheduler", ["fixed", "crd", "decay"])
def test_build_simulation_reproduces_cli_run(tmp_path, scheduler):
    cfg = svm_cfg(tmp_path, scheduler=scheduler, zeta=0.05, T_init=20, seeds=(1,))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0

    cfg = cfg.check()
    shards, _, test = load_experiment_data(cfg, 1)
    server, clients, fcfg = build_simulation(cfg, 1, shards)
    run_simulation(cfg, server, clients, fcfg, test)
    assert server.t == len(server.records) > 0
    assert any(r.trigger_fired for r in server.records) == (scheduler == "crd")
    cli_rounds = (tmp_path / "out" / "seed_1" / "rounds.csv").read_text()
    assert rounds_csv_text(1, server.records) == cli_rounds


def test_run_simulation_rejects_an_unknown_scheduler_before_anything_runs(tmp_path, monkeypatch):
    cfg = svm_cfg(tmp_path, U=6, T_init=8, seeds=(1,)).check()
    shards, _, test = load_experiment_data(cfg, 1)
    server, clients, fcfg = build_simulation(cfg, 1, shards)
    params = server.global_params.copy()
    evaluated = []
    monkeypatch.setattr(harness, "evaluate", lambda *args: evaluated.append(args))
    message = "scheduler must be fixed|crd|decay, got 'CRD'"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_simulation(dataclasses.replace(cfg, scheduler="CRD"), server, clients, fcfg, test)
    assert evaluated == [] and server.t == 0 and server._stacked is None
    assert np.array_equal(server.global_params, params)
    assert all(c.sigma_history == [] for c in clients)
    assert message in dataclasses.replace(cfg, scheduler="CRD").validate()


def test_clients_of_one_shard_size_share_one_ledger(tmp_path):
    sizes = (4, 6, 8, 10, 12)
    cfg = svm_cfg(
        tmp_path, partition_mode="unbalanced", shard_size=None, size_pattern=sizes, U=50, K=10
    ).check()
    shards, train_eval, test = load_experiment_data(cfg, 1)
    server, clients, fcfg = build_simulation(cfg, 1, shards)
    ledgers = {len(c.shard): c.ledger for c in clients}
    assert sorted(ledgers) == list(sizes) and len({id(c.ledger) for c in clients}) == 5
    for c in clients:
        assert c.ledger is ledgers[len(c.shard)]
        assert c.sigma_history is ledgers[len(c.shard)].sigmas
        assert c.ledger.dl == accountant.sensitivity(cfg.eta, cfg.clip_C, len(c.shard))
    for _ in range(2):
        federation.run_round(server, clients, fcfg, test)
    assert all(led.rounds == 2 for led in ledgers.values())  # one charge per class a round


def _unbalanced_run(tmp_path, scheduler, one_ledger_per_client=False):
    """A run over three shard sizes of two clients each, wired by ``build_simulation``
    or rewired by hand to one ledger per client."""
    cfg = svm_cfg(
        tmp_path, partition_mode="unbalanced", shard_size=None, size_pattern=(10, 20, 30), U=6,
        K=4, scheduler=scheduler, zeta=0.05, T_init=20, seeds=(1,),
    ).check()
    shards, train_eval, test = load_experiment_data(cfg, 1)
    server, clients, fcfg = build_simulation(cfg, 1, shards)
    if one_ledger_per_client:
        for c in clients:
            c.ledger = MomentLedger(c.ledger.budget, c.ledger.q, c.ledger.dl)
    return run_simulation(cfg, server, clients, fcfg, test), server, clients


@pytest.mark.parametrize("scheduler", ["fixed", "crd", "decay"])
def test_shared_class_ledgers_run_bitwise_as_one_ledger_per_client(tmp_path, scheduler):
    stop, shared, clients = _unbalanced_run(tmp_path, scheduler)
    own_stop, own, clients_own = _unbalanced_run(tmp_path, scheduler, one_ledger_per_client=True)
    assert len({id(c.ledger) for c in clients}) == 3
    assert len({id(c.ledger) for c in clients_own}) == 6
    assert shared.records == own.records and stop == own_stop
    assert np.array_equal(shared.global_params, own.global_params)
    for a, b in zip(clients, clients_own):
        assert np.array_equal(np.array(a.sigma_history), np.array(b.sigma_history))
        assert len(a.sigma_history) == shared.t > 0
    assert any(r.trigger_fired for r in shared.records) == (scheduler == "crd")
    if scheduler == "decay":
        assert stop == "accountant_halt"


@pytest.mark.parametrize("scheduler", ["fixed", "crd", "decay"])
def test_each_round_recalibrates_or_previews_each_class_ledger_once(
    tmp_path, scheduler, monkeypatch
):
    recalibrated, previewed = [], collections.Counter()
    recalibrate, within = federation.recalibrate_sigma, MomentLedger.within

    def counting_recalibrate(*args):
        recalibrated.append(args[4])  # the ledger's own sigma list
        return recalibrate(*args)

    def counting_within(self, *args, **kwargs):
        previewed[id(self)] += 1
        return within(self, *args, **kwargs)

    monkeypatch.setattr(federation, "recalibrate_sigma", counting_recalibrate)
    monkeypatch.setattr(MomentLedger, "within", counting_within)
    _, server, clients = _unbalanced_run(tmp_path, scheduler)
    rounds, ledgers = server.t, list(dict.fromkeys(c.ledger for c in clients))
    if scheduler == "decay":
        assert recalibrated == []
        # once per round, and at most once more for the check that halted the run
        assert sorted(previewed) == sorted(id(led) for led in ledgers)
        assert all(rounds <= n <= rounds + 1 for n in previewed.values())
        assert sum(previewed.values()) <= 3 * rounds + 3
    else:
        assert len(recalibrated) == 3 * rounds and not previewed
        for t in range(rounds):  # one call per ledger in round t, none per client
            assert {id(h) for h in recalibrated[3 * t : 3 * t + 3]} == {
                id(led.sigmas) for led in ledgers
            }
    assert all(led.rounds == rounds for led in ledgers)


def test_decay_run_records_halt(tmp_path):
    cfg = svm_cfg(tmp_path, scheduler="decay", slope_fraction=0.0, T_init=30)
    run_experiment(cfg)
    summary = json.loads((tmp_path / "out" / "seed_1" / "summary.json").read_text())
    assert summary["stop_reason"] == "accountant_halt"
    assert 0 < summary["realized_T"] < 30


# --- sweep ---


def test_sweep_rows_and_seed_means(tmp_path):
    cfg = svm_cfg(tmp_path, scheduler="fixed")
    path = sweep(cfg, "T", [4, 8], outdir=tmp_path / "sw")
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("axis,value,seed,final_test_loss")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 4  # 2 values x 2 seeds
    by_value = {}
    for r in rows:
        by_value.setdefault(r[1], []).append(r)
    for value, group in by_value.items():
        losses = [float(r[3]) for r in group]
        mean = sum(losses) / len(losses)
        for r in group:
            assert float(r[6]) == pytest.approx(mean, rel=1e-12)


def test_single_value_sweep_equals_direct_run(tmp_path):
    cfg = svm_cfg(tmp_path, scheduler="fixed")
    sweep(cfg, "T", [6], outdir=tmp_path / "sw")
    direct = run_experiment(
        dataclasses.replace(cfg, T_init=6), tmp_path / "direct"
    )
    sweep_rounds = (tmp_path / "sw" / "T_6" / "seed_1" / "rounds.csv").read_bytes()
    direct_rounds = (tmp_path / "direct" / "seed_1" / "rounds.csv").read_bytes()
    assert sweep_rounds == direct_rounds
    assert not direct.errors


def test_sweep_survives_bad_point(tmp_path):
    cfg = svm_cfg(tmp_path, scheduler="fixed")
    path = sweep(cfg, "epsilon", [6.0, -1.0, 8.0], outdir=tmp_path / "sw")
    lines = path.read_text().strip().split("\n")
    values = {ln.split(",")[1] for ln in lines[1:]}
    assert values == {"6.0", "8.0"}
    errors = json.loads((tmp_path / "sw" / "sweep_errors.json").read_text())
    assert "-1.0" in errors


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ValueError, match="axis"):
        sweep(svm_cfg(tmp_path), "gamma", [1])


@pytest.mark.parametrize(
    "axis, values, typed", [("T", "4,4", [4, 4]), ("epsilon", "6,6.0", [6.0, 6.0])]
)
def test_sweep_rejects_repeated_axis_values_before_any_point(tmp_path, capsys, axis, values, typed):
    message = f"axis {axis} values must be distinct, got {typed}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(svm_cfg(tmp_path), axis, cli._num_list(values))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(svm_cfg(tmp_path).to_dict()))
    assert cli.main(["sweep", "--config", str(cfg_path), "--axis", axis, "--values", values]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"udpfl: error: {message}\n"
    assert not (tmp_path / "out").exists()


# --- report tables ---


def test_csv_cell_formatting():
    row = (8, 8.0, np.float64(0.1), np.float64(2), math.nan, "1;2")
    assert _csv(("i", "f", "np", "np_int", "nan", "s"), [row]) == (
        "i,f,np,np_int,nan,s\n8,8.0,0.1,2.0,nan,1;2\n"
    )


def short_verify(monkeypatch):
    """Make ``udpfl verify-accountant`` report orders 1..3 only."""
    monkeypatch.setattr(cli, "verify_accountant", lambda: accountant.verify_accountant(range(1, 4)))


def test_verify_accountant_csv(tmp_path, monkeypatch):
    short_verify(monkeypatch)
    out = tmp_path / "verify.csv"
    assert cli.main(["verify-accountant", "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[:7] == [
        "panel", "q", "sigma", "lambda", "log_D10", "log_D01", "log_bound",
    ]
    assert len(lines) == 1 + 12


def test_verify_accountant_csv_reports_a_failed_quadrature(tmp_path, monkeypatch, capsys):
    short_verify(monkeypatch)
    numeric = accountant.log_moment_numeric

    def failing(m, direction):
        if m.lam == 2 and direction == accountant.D_BASE_MIX:
            raise accountant.QuadratureError("did not converge")
        return numeric(m, direction)

    monkeypatch.setattr(accountant, "log_moment_numeric", failing)
    out = tmp_path / "verify.csv"
    assert cli.main(["verify-accountant", "--output", str(out)]) == 1
    assert "quadrature failures: 4" in capsys.readouterr().err
    header, *rows = [ln.split(",") for ln in out.read_text().strip().split("\n")]
    failed = [dict(zip(header, r)) for r in rows if r[3] == "2"]
    assert len(failed) == 4 and len(rows) == 12
    for r in failed:
        assert [r[c] for c in ("log_D10", "log_D01", "log_bound")] == ["nan"] * 3
        assert r["ordering_violation"] == r["bound_violation"] == ""
        assert r["bound_checked"] == "1"


def test_cli_calibration_table_csv(capsys):
    # integer inputs, as the command line parses "8" and "1", print as floats
    argv = ["accountant", "--epsilon", "8", "--q", "1", "--T", "100", "--sensitivity", "1"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "epsilon,delta,q,T,sensitivity,sigma"
    assert lines[1].startswith("8.0,0.001,1.0,100,1.0,")


# --- pilot clipping ---


def test_pilot_clip_is_exact_median_of_logged_norms(tmp_path):
    cfg = svm_cfg(tmp_path)
    c1, path = pilot_clip(cfg, rounds=2)
    c2, _ = pilot_clip(cfg, rounds=2)
    assert c1 == c2  # deterministic
    logged = [float(ln.split(",")[2]) for ln in path.read_text().strip().split("\n")[1:]]
    assert c1 == float(np.median(np.array(logged)))
    assert len(logged) == 2 * 5 * 20  # rounds x clients x shard


def test_pilot_clip_constant_norms_on_degenerate_data(tmp_path):
    train = tmp_path / "zeros.csv"
    lines = ["a,b,y"] + ["0.0,0.0,%d" % (i % 2) for i in range(8)]
    train.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig.from_dict(
        dict(
            model_kind="logistic",
            data_source="csv",
            csv_train=str(train),
            U=2,
            K=2,
            shard_size=4,
            T_init=1,
            epsilon_p="inf",
            seeds=(1,),
            output_dir=str(tmp_path / "out"),
        )
    )
    c_value, path = pilot_clip(cfg, rounds=1)
    logged = [float(ln.split(",")[2]) for ln in path.read_text().strip().split("\n")[1:]]
    # zero features + zero-init logistic: every norm is ||p - e_y|| = sqrt(1/2)
    assert all(n == logged[0] for n in logged)
    assert c_value == pytest.approx(math.sqrt(0.5), rel=1e-12)


@pytest.mark.parametrize("rounds", [0, -2])
def test_pilot_clip_rejects_rounds_below_one_before_loading_data(tmp_path, monkeypatch, rounds):
    def load(*args):
        raise AssertionError("data was loaded")

    monkeypatch.setattr(harness, "load_experiment_data", load)
    with pytest.raises(ValueError, match=f"rounds must be >= 1, got {rounds}"):
        pilot_clip(svm_cfg(tmp_path), rounds=rounds)


# --- data pool ---


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty process-level pool slot, restored after the test."""
    monkeypatch.setattr(harness, "_pool", {})


def write_labelled_csv(path, n, shift=0.0):
    rows = [f"{i + shift},{(-1) ** i}" for i in range(n)]
    path.write_text("\n".join(["x,label", *rows, ""]))


def test_data_pool_built_once_per_data_seed(tmp_path, monkeypatch, fresh_pool):
    calls = []

    def counting(*args):
        calls.append(args)
        return synth_linear(*args)

    monkeypatch.setattr(harness, "synth_linear", counting)
    cfg = svm_cfg(tmp_path).resolved()
    first = load_experiment_data(cfg, 1)
    second = load_experiment_data(cfg, 2)
    assert len(calls) == 1
    assert second[2] is first[2]  # the test split is the pooled one
    load_experiment_data(dataclasses.replace(cfg, data_seed=cfg.data_seed + 1), 1)
    assert len(calls) == 2 and len(harness._pool) == 1


def test_csv_rewritten_at_same_path_is_reloaded(tmp_path, fresh_pool):
    path = tmp_path / "train.csv"
    write_labelled_csv(path, 40)
    cfg = svm_cfg(tmp_path, data_source="csv", csv_train=str(path), U=4, shard_size=10).resolved()
    _, _, before = load_experiment_data(cfg, 1)
    write_labelled_csv(path, 60, shift=0.5)
    _, _, after = load_experiment_data(cfg, 1)
    assert len(before) == 40 and len(after) == 60
    assert after.features[0, 0] == 0.5


def test_data_pool_and_shards_are_read_only(tmp_path, fresh_pool):
    cfg = svm_cfg(tmp_path).resolved()
    shards, train_eval, test_eval = load_experiment_data(cfg, 1)
    pool_train, pool_test = harness._data_pool(cfg)
    datasets = [pool_train, pool_test, train_eval, test_eval, *shards]
    for arr in [a for ds in datasets for a in (ds.features, ds.labels)]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize(
    "over",
    [{}, dict(partition_mode="unbalanced", shard_size=None, size_pattern=(10, 20, 30), U=6)],
    ids=["iid", "unbalanced"],
)
def test_shards_are_views_equal_to_per_shard_gathers(tmp_path, fresh_pool, over):
    cfg = svm_cfg(tmp_path, **over).resolved()
    shards, train_eval, test_eval = load_experiment_data(cfg, 3)
    # the layout that gathered each shard on its own from a copied pool
    n_train = len(train_eval)
    full = synth_linear(n_train + cfg.synth_n_test, cfg.synth_dim, cfg.synth_margin, cfg.data_seed)
    train = full.subset(np.arange(n_train))
    plan = PartitionPlan(cfg.partition_mode, cfg.shard_size, size_pattern=cfg.size_pattern)
    idx = partition(train, plan, cfg.U, np.random.SeedSequence((3, 11)))
    assert len(shards) == len(idx) == cfg.U
    for shard, rows in zip(shards, idx):
        want = train.subset(rows)
        assert np.shares_memory(shard.features, train_eval.features)
        assert np.shares_memory(shard.labels, train_eval.labels)
        assert shard.features.tobytes() == want.features.tobytes()
        assert shard.labels.tobytes() == want.labels.tobytes()
    want_eval = train.subset(np.concatenate(idx))
    assert train_eval.features.tobytes() == want_eval.features.tobytes()
    assert test_eval.features.tobytes() == full.features[n_train:].tobytes()


def logistic_mnist_cfg(tmp_path, directory, **over):
    """Logistic regression on MNIST-format files, an iid cut that covers the pool."""
    return svm_cfg(
        tmp_path, model_kind="logistic", data_source="mnist", mnist_dir=str(directory),
        shard_size=None, **over,
    ).check()


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
def test_every_random_stream_draws_as_its_literal_key(tmp_path, fresh_pool, seed):
    """The init (s, 0), partition (s, 11), selection (s, 1, round) and noise
    (s, 2, client, round) streams draw as ``default_rng(SeedSequence(key))``; a bulk
    seeding of them must keep these draws.

    SeedSequence pads a short key with zero words, so (7, 0) draws exactly as
    ``default_rng(7)``: the synthetic pool's stream when ``data_seed`` equals the
    training seed.  That is harmless while synthetic data is SVM-only and SVM
    initial parameters are zero."""

    def literal(*key):
        return np.random.default_rng(np.random.SeedSequence(key))

    X = np.random.default_rng(1).normal(size=(12, 3))
    hand = [Dataset(X[a : a + 4], np.arange(4) % 3, 3) for a in (0, 4, 8)]
    mlp = ExperimentConfig(model_kind="mlp", hidden_dim=4, U=3, K=2).resolved()
    server, _, fcfg = build_simulation(mlp, seed, hand)
    assert server.global_params.tobytes() == init_params(fcfg.spec, literal(seed, 0)).tobytes()

    cfg = svm_cfg(tmp_path).check()
    shards, _, _ = load_experiment_data(cfg, seed)
    pool, _ = harness._data_pool(cfg)
    want = partition(pool, harness._plan(cfg), cfg.U, literal(seed, 11))
    assert [s.features.tobytes() for s in shards] == [pool.features[i].tobytes() for i in want]

    server, clients, fcfg = build_simulation(cfg, seed, shards)
    for rnd in range(2):
        record = federation.run_round(server, clients, fcfg, shards[0])
        want = federation.sample_clients(cfg.U, cfg.K, literal(seed, 1, rnd))
        assert record.selected == want
        for client in (0, 4):
            got = federation._noise_rng(seed, client, rnd).standard_normal(5)
            assert got.tobytes() == literal(seed, 2, client, rnd).standard_normal(5).tobytes()
    assert literal(7, 0).random(5).tobytes() == np.random.default_rng(7).random(5).tobytes()


def test_build_simulation_derives_the_model_from_the_shards(tmp_path, fresh_pool, mnist_like):
    path = tmp_path / "train.csv"
    write_labelled_csv(path, 60)
    mnist = logistic_mnist_cfg(tmp_path, mnist_like, eta=1e-4)
    for cfg in (
        svm_cfg(tmp_path).check(),
        svm_cfg(tmp_path, data_source="csv", csv_train=str(path), U=4, shard_size=10,
                eta=1e-5).check(),
        mnist,
        dataclasses.replace(mnist, model_kind="mlp", hidden_dim=7),
    ):
        shards, train_eval, _ = load_experiment_data(cfg, 1)
        _, _, fcfg = build_simulation(cfg, 1, shards)
        assert fcfg.spec == build_model_spec(cfg, train_eval)
        with pytest.raises(ValueError, match="at least one shard"):
            build_simulation(cfg, 1, [])


def test_mnist_pool_keeps_its_training_images_as_bytes(tmp_path, fresh_pool, mnist_like):
    cfg = logistic_mnist_cfg(tmp_path, mnist_like)
    shards, train_eval, test_eval = load_experiment_data(cfg, 1)
    pool, test = harness._data_pool(cfg)
    assert pool.features.dtype == np.uint8 and pool.features.shape == (300, 784)
    assert test is test_eval and test.features.dtype == np.float64
    assert {ds.features.dtype for ds in (train_eval, *shards)} == {np.dtype(np.float64)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fewer_rows_than_clients_fail_in_the_partition(tmp_path, fresh_pool):
    path = tmp_path / "train.csv"
    write_labelled_csv(path, 3)
    cfg = svm_cfg(tmp_path, data_source="csv", csv_train=str(path), shard_size=None, U=5, K=2)
    assert cfg.validate() == []  # the pool's row count is not known before it loads
    manifest = run_experiment(cfg)
    message = "iid plan needs >= 1 sample for each of U=5 clients, dataset has 3"
    assert manifest.errors == {seed: f"ValueError({message!r})" for seed in ("1", "2")}


def test_missing_data_file_is_not_cached(tmp_path, fresh_pool):
    mnist = svm_cfg(tmp_path, data_source="mnist", mnist_dir=str(tmp_path / "none")).resolved()
    with pytest.raises(FileNotFoundError, match="MNIST files missing"):
        load_experiment_data(mnist, 1)
    path = tmp_path / "train.csv"
    cfg = svm_cfg(tmp_path, data_source="csv", csv_train=str(path), U=4, shard_size=10).resolved()
    with pytest.raises(FileNotFoundError):
        load_experiment_data(cfg, 1)
    assert harness._pool == {}
    write_labelled_csv(path, 40)
    _, train_eval, _ = load_experiment_data(cfg, 1)
    assert len(train_eval) == 40


# --- the pool's memo: row norms and the eta guard's L ---


@pytest.fixture
def gram_calls(monkeypatch):
    """The row count of every Gram the eta guard computes."""
    calls, real = [], data._gram_top

    def spy(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(data, "_gram_top", spy)
    return calls


def per_shard_message(cfg, shards):
    """The guard's message from the shards' own summed Gram: the reference formula."""
    gram = sum(s.features.T @ s.features for s in shards)
    L = float(np.linalg.eigvalsh(gram / sum(len(s) for s in shards)).max()) + cfg.kappa
    return f"eta={cfg.eta} exceeds 1/L={1.0 / L:.6g} estimated from the data"


def guard_message(cfg, shards):
    with pytest.raises(ConfigError) as exc:
        build_simulation(cfg, 1, shards)
    (message,) = exc.value.violations
    return message


@pytest.mark.parametrize(
    "over",
    [{}, dict(partition_mode="unbalanced", shard_size=None, size_pattern=(10, 20, 30), U=6)],
    ids=["iid", "unbalanced"],
)
def test_covering_partition_computes_the_gram_once_per_pool(
    tmp_path, fresh_pool, gram_calls, over
):
    cfg = svm_cfg(tmp_path, eta=50.0, **over).check()
    for seed in (1, 2, 3):
        shards, _, _ = load_experiment_data(cfg, seed)
        assert guard_message(cfg, shards) == per_shard_message(cfg, shards)
    pool, _ = harness._data_pool(cfg)
    assert gram_calls == [len(pool)]  # the first seed's, over the pool; none after


def test_hand_built_shards_compute_their_own_gram(tmp_path, fresh_pool, gram_calls):
    cfg = svm_cfg(tmp_path, eta=50.0).check()
    shards, train_eval, _ = load_experiment_data(cfg, 1)
    pool, _ = harness._data_pool(cfg)
    n, size = len(pool), cfg.shard_size

    def slices(whole):
        return [whole.subset(slice(a, a + size)) for a in range(0, n, size)]

    other = data._read_only(synth_linear(n, cfg.synth_dim, 1.0, cfg.data_seed + 1))
    variants = {
        "other_rows": slices(data._read_only(other.subset(np.arange(n)[::-1]))),
        "repeated_pool_row": slices(data._read_only(pool.subset(np.zeros(n, dtype=np.intp)))),
        "rebuilt": [Dataset(s.features.copy(), s.labels.copy(), 2) for s in shards],
        "reordered": shards[::-1],
        "one_short": shards[:-1],
        "gathered_by_index": [train_eval.subset(np.arange(a, a + size)) for a in range(0, n, size)],
    }
    for name, hand in variants.items():
        before = len(gram_calls)
        assert guard_message(cfg, hand) == per_shard_message(cfg, hand), name
        assert gram_calls[before:] == [sum(map(len, hand))], name
    guard_message(cfg, shards)
    assert gram_calls[len(variants):] == [n]  # the pool's, for the partition itself


def test_eta_guard_reads_a_byte_pools_rows_as_floats(tmp_path, fresh_pool, mnist_like):
    # the reference: the float64 pool's L; a Gram of the uint8 features would wrap around
    x = data.load_idx(*(mnist_like / name for name in data.MNIST_FILES[:2])).features
    gram_top = float(np.linalg.eigvalsh(x.T @ x / len(x)).max())
    L = 0.5 * (gram_top + 1.0)
    for eta, verdict in ((0.999 / L, None), (1.001 / L, f"exceeds 1/L={1.0 / L:.6g}")):
        cfg = logistic_mnist_cfg(tmp_path, mnist_like, eta=eta)
        shards, train_eval, _ = load_experiment_data(cfg, 1)
        pool, _ = harness._data_pool(cfg)
        # the shards stack as their gather, which covers the pool: the guard reads the pool's L
        assert stack(shards) is train_eval and train_eval.memo(data._POOL, None) is pool
        if verdict is None:
            build_simulation(cfg, 1, shards)
        else:
            message = guard_message(cfg, shards)
            assert message == f"eta={eta} {verdict} estimated from the data"
    assert pool.memo("gram_top", None) == gram_top


@pytest.mark.parametrize(
    "rows, per_seed", [(60, True), (40, False)], ids=["spare_rows", "covering"]
)
def test_csv_partition_shares_the_pools_gram_only_if_it_covers_it(
    tmp_path, fresh_pool, gram_calls, rows, per_seed
):
    path = tmp_path / "train.csv"
    write_labelled_csv(path, rows)
    cfg = svm_cfg(
        tmp_path, data_source="csv", csv_train=str(path), U=4, shard_size=10, eta=50.0
    ).check()
    for seed in (1, 2):
        shards, _, _ = load_experiment_data(cfg, seed)
        assert guard_message(cfg, shards) == per_shard_message(cfg, shards)
    assert gram_calls == ([40, 40] if per_seed else [40])


def stacked(spec, shards):
    ledger = MomentLedger(PrivacyBudget(math.inf, 1e-3), 1.0, 1.0)
    clients = [federation.ClientState(s, ledger) for s in shards]
    return federation._Stacked(spec, init_params(spec, np.random.default_rng(0)), clients)


def test_stacked_sq_norms_are_the_shards_row_sums_of_squares(tmp_path, fresh_pool):
    covering = svm_cfg(tmp_path).check()
    path = tmp_path / "train.csv"
    write_labelled_csv(path, 60)
    spare = svm_cfg(tmp_path, data_source="csv", csv_train=str(path), U=4, shard_size=10).check()
    X = np.random.default_rng(4).normal(size=(30, covering.synth_dim))
    signs = np.where(np.arange(30) % 2, 1, -1)
    hand = [
        Dataset(X[:10], signs[:10], 2),
        Dataset(np.asfortranarray(X[10:25]), signs[10:25], 2),
        Dataset(np.rint(X[25:] * 10).astype(np.int64), signs[25:], 2),
    ]
    cases = [load_experiment_data(cfg, 1)[:2] for cfg in (covering, spare)]
    cases.append((hand, Dataset(X, signs, 2)))
    for shards, train_eval in cases:
        st = stacked(build_model_spec(covering, train_eval), shards)
        want = [(x * x).sum(1) for x in (np.asarray(s.features, dtype=float) for s in shards)]
        assert st.sq_norms.tobytes() == np.concatenate(want).tobytes()


def test_stacked_rows_are_the_gathers_own_arrays_else_the_shards_concatenated(
    tmp_path, fresh_pool
):
    cfg = svm_cfg(tmp_path).check()
    shards, train_eval, _ = load_experiment_data(cfg, 1)
    spec = build_model_spec(cfg, train_eval)
    st = stacked(spec, shards)
    assert stack(shards) is train_eval
    assert np.shares_memory(st.fwd[0][0], train_eval.features)
    assert np.shares_memory(st.sq_norms, train_eval.sq_norms)
    X = np.random.default_rng(5).normal(size=(30, cfg.synth_dim))
    signs = np.where(np.arange(30) % 2, 1, -1)
    writable = Dataset(X, signs, 2)
    cases = {
        "hand-built": [Dataset(X[:10], signs[:10], 2), Dataset(X[10:], signs[10:], 2)],
        "reordered": shards[::-1],
        "prefix": shards[:-1],
        "writable": [writable.subset(slice(0, 10)), writable.subset(slice(10, 30))],
    }
    for name, case in cases.items():
        st = stacked(spec, case)
        assert stack(case) is not train_eval, name
        assert st.fwd[0][0].tobytes() == np.concatenate([s.features for s in case]).tobytes()
        assert st.sq_norms.tobytes() == np.concatenate([s.sq_norms for s in case]).tobytes()
        assert np.array_equal(st.y, np.concatenate([s.labels for s in case])), name


def test_eta_guard_errors_match_across_worker_counts(tmp_path, fresh_pool):
    # workers=2 first, so each process computes L from its own pool
    parallel = run_experiment(
        svm_cfg(tmp_path, eta=50.0, seeds=(1, 2, 3), workers=2, output_dir=str(tmp_path / "p"))
    )
    serial = run_experiment(
        svm_cfg(tmp_path, eta=50.0, seeds=(1, 2, 3), output_dir=str(tmp_path / "s"))
    )
    assert set(serial.errors) == {"1", "2", "3"} and not serial.outputs
    assert parallel.errors == serial.errors
    assert len(set(serial.errors.values())) == 1  # one pool, one L, whatever the seed


def test_old_pool_and_its_memo_die_with_the_pool_slot(tmp_path, fresh_pool):
    cfg = svm_cfg(tmp_path).check()
    assert not run_experiment(cfg).errors
    pool, _ = harness._data_pool(cfg)
    shards, train_eval, _ = load_experiment_data(cfg, 3)
    for ds in (pool, train_eval, *shards):
        with pytest.raises(ValueError, match="read-only"):
            ds.sq_norms[0] = 0.0
    assert {"sq_norms", "gram_top"} <= set(pool._memo)
    refs = [weakref.ref(a) for a in (pool, pool.features, pool._memo["sq_norms"], train_eval)]
    del pool, shards, train_eval, ds
    load_experiment_data(dataclasses.replace(cfg, data_seed=cfg.data_seed + 1), 1)
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


# --- cli ---


def test_cli_run_and_verify(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(svm_cfg(tmp_path).to_dict()))
    rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "config hash" in out and "seed 1" in out
    assert (tmp_path / "out" / "seed_1" / "rounds.csv").exists()

    rc = cli.main(
        ["accountant", "--table", "moments", "--lambda-max", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("q,sigma,lambda,log_D10,log_D01,log_bound\n")
    assert len(out.strip().split("\n")) == 4


def test_cli_override_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(svm_cfg(tmp_path).to_dict()))
    rc = cli.main(
        [
            "run", "--config", str(cfg_path), "--seeds", "3",
            "--t-init", "4", "--output-dir", str(tmp_path / "ovr"),
        ]
    )
    assert rc == 0
    _, rows = read_rounds(tmp_path / "ovr" / "seed_3" / "rounds.csv")
    assert len(rows) == 4
    assert rows[0]["T_current"] == "4"

    # every run option lands in its field: flag -> (text, field, value)
    flags = {
        "--scheduler": ("decay", "scheduler", "decay"),
        "--beta": ("0.5", "beta", 0.5),
        "--zeta": ("0.25", "zeta", 0.25),
        "--t-init": ("7", "T_init", 7),
        "--epsilon": ("3.5", "epsilon_p", 3.5),
        "--seeds": ("4,6", "seeds", (4, 6)),
        "--workers": ("2", "workers", 2),
        "--output-dir": ("elsewhere", "output_dir", "elsewhere"),
    }
    for command in ("run", "sweep"):
        parser = cli.build_parser()._subparsers._group_actions[0].choices[command]
        options = {a.option_strings[0] for a in parser._actions if a.option_strings}
        assert options - {"-h", "--config", "--axis", "--values"} == set(flags)
    argv = ["run", "--config", str(cfg_path)]
    argv += [x for flag, (text, _, _) in flags.items() for x in (flag, text)]
    cfg = cli._config_with_overrides(cli.build_parser().parse_args(argv))
    want = {field: value for _, field, value in flags.values()}
    assert cfg == dataclasses.replace(svm_cfg(tmp_path), **want)
    assert all(getattr(svm_cfg(tmp_path), field) != value for field, value in want.items())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--seeds", "1.5,2.9"], "seeds must be ints >= 0, got [1.5, 2.9]"),
        (["run", "--seeds", ""], "seeds must be nonempty"),
        (
            ["accountant", "--table", "calibration"],
            "need --sensitivity or all of --eta/--clip/--n-samples",
        ),
        (["accountant", "--T", "150.5", "--sensitivity", "0.01"], "--T takes integers, got 150.5"),
        (
            ["accountant", "--eta", "0.1", "--clip", "1", "--n-samples", "800,800.5"],
            "--n-samples takes integers, got 800.5",
        ),
        (["sweep", "--axis", "T", "--values", "150.5"], "axis T takes integers, got [150.5]"),
    ],
    ids=[
        "run-seeds", "run-no-seeds", "accountant-no-sensitivity", "accountant-T",
        "accountant-n-samples", "sweep-T",
    ],
)
def test_cli_rejects_bad_arguments(tmp_path, capsys, argv, message):
    if argv[0] != "accountant":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(svm_cfg(tmp_path).to_dict()))
        argv = [*argv, "--config", str(cfg_path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and err.startswith("udpfl: error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shard_size, rc", [(41, 2), (40, 0)])
def test_label_skew_shard_size_off_the_label_multiple_is_rejected_before_any_seed(
    tmp_path, capsys, shard_size, rc
):
    path = tmp_path / "train.csv"
    rows = (f"{i / 400},{i % 7 / 7},{i % 4}" for i in range(400))  # 100 of each of 4 classes
    path.write_text("\n".join(["x1,x2,label", *rows, ""]))
    cfg = svm_cfg(
        tmp_path, model_kind="logistic", data_source="csv", csv_train=str(path),
        partition_mode="label_skew", labels_per_client=2, shard_size=shard_size, U=6,
    )
    message = "shard_size must be a multiple of labels_per_client (2) in label_skew mode, got 41"
    assert cfg.validate() == ([message] if rc else [])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["run", "--config", str(cfg_path)]) == rc
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "FAILED" not in err
    if rc:  # no seed ran
        assert out == "" and err.startswith("udpfl: error: ") and message in err
        assert not (tmp_path / "out").exists()


def test_svm_label_skew_is_rejected_before_any_seed_for_every_data_source(tmp_path, capsys):
    path = tmp_path / "train.csv"
    write_labelled_csv(path, 40)  # +1/-1 labels, which label skew cannot split by class
    message = "svm needs binary +1/-1 labels; label_skew needs class indices"
    for source in dict(), dict(data_source="mnist"), dict(data_source="csv", csv_train=str(path)):
        assert message in svm_cfg(tmp_path, partition_mode="label_skew", **source).validate()
    cfg = svm_cfg(tmp_path, data_source="csv", csv_train=str(path), partition_mode="label_skew",
                  labels_per_client=2, shard_size=4, U=4)
    assert cfg.validate() == [message]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("udpfl: error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_cli_reports_rejected_input_without_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(svm_cfg(tmp_path, K=9, U=4).to_dict()))
    assert cli.main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("udpfl: error: ") and "need K <= U" in err
    assert "Traceback" not in err

    good = tmp_path / "good.json"
    good.write_text(json.dumps(svm_cfg(tmp_path).to_dict()))
    assert cli.main(["pilot-clip", "--config", str(good), "--rounds", "0"]) == 2
    err = capsys.readouterr().err
    assert "udpfl: error: rounds must be >= 1, got 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(SVM_BASE, seeds=1), "seeds must be a list, got 1"),
        (dict(SVM_BASE, size_pattern=400), "size_pattern must be a list, got 400"),
        ([1, 2], "a config must be a JSON object, got list"),
        (dict(SVM_BASE, K="3"), "K must be an int, got '3'"),
    ],
    ids=["scalar-seeds", "scalar-size_pattern", "array", "string-K"],
)
def test_cli_rejects_a_malformed_config_file(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and err.startswith("udpfl: error: ")
