"""Config, runner, sweep, and report-table tests."""

import dataclasses
import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udpfl import cli, federation, harness
from udpfl.accountant import PrivacyBudget, calibrate_sigma
from udpfl.data import PartitionPlan, partition, synth_linear
from udpfl.federation import WEIGHT_MODES
from udpfl.harness import (
    ROUNDS_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _csv,
    build_model_spec,
    build_simulation,
    calibration_csv,
    calibration_table,
    config_hash,
    load_experiment_data,
    moment_csv,
    moment_table,
    pilot_clip,
    rounds_csv_text,
    run_experiment,
    run_simulation,
    run_single_seed,
    sweep,
    verify_accountant,
)
from udpfl.models import HINGE_FORMS
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
    with pytest.raises(ConfigError, match="epsilon_p"):
        ExperimentConfig.from_dict({"epsilon_p": "lots"})


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


def test_eta_defaults_per_model_kind():
    assert ExperimentConfig(model_kind="svm").resolved().eta == 0.01
    assert ExperimentConfig(model_kind="mlp").resolved().eta == 0.05
    assert ExperimentConfig(model_kind="logistic").resolved().eta == 0.05
    assert ExperimentConfig(model_kind="svm", eta=0.2).resolved().eta == 0.2


def test_round_zero_calibration_guard():
    cfg = ExperimentConfig.from_dict(dict(SVM_BASE, epsilon_p=5e-324))
    assert any("round-0" in v for v in cfg.validate())


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
        (dict(partition_mode="label_skew"), "synthetic data is binary +1/-1; label_skew"),
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
    shards, train_eval, _ = load_experiment_data(cfg, cfg.seeds[0])
    spec = build_model_spec(cfg, train_eval)
    try:
        build_simulation(cfg, cfg.seeds[0], shards, spec)
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
    assert (tmp_path / "out" / "manifest.json").exists()


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


def test_workers_forked_after_rounds_in_the_parent_match_the_serial_run(tmp_path, monkeypatch):
    # rounds in this process make its helper thread; it is stopped before the
    # workers are forked, and each worker makes its own
    monkeypatch.setattr(federation, "_HELPER_MIN_BYTES", 0)  # every round job to the helper
    run_experiment(svm_cfg(tmp_path, output_dir=str(tmp_path / "serial")))
    assert federation._helper_of_pid[0] == os.getpid()
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
    assert federation._helper_of_pid == (None, None)  # no live helper was forked
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
    shards, train_eval, _ = load_experiment_data(cfg, 1)
    with pytest.raises(ConfigError, match="1/L"):
        build_simulation(cfg, 1, shards, build_model_spec(cfg, train_eval))


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
    shards, train_eval, test = load_experiment_data(cfg, 1)
    spec = build_model_spec(cfg, train_eval)
    server, clients, fcfg = build_simulation(cfg, 1, shards, spec)
    result = run_simulation(cfg, server, clients, fcfg, test)
    assert any(r.trigger_fired for r in result.records) == (scheduler == "crd")
    cli_rounds = (tmp_path / "out" / "seed_1" / "rounds.csv").read_text()
    assert rounds_csv_text(1, result.records) == cli_rounds


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


# --- report tables ---


def test_csv_cell_formatting():
    row = (8, 8.0, np.float64(0.1), np.float64(2), math.nan, "1;2")
    assert _csv(("i", "f", "np", "np_int", "nan", "s"), [row]) == (
        "i,f,np,np_int,nan,s\n8,8.0,0.1,2.0,nan,1;2\n"
    )


def test_verify_accountant_grid_is_clean():
    rows = verify_accountant(lambdas=range(1, 11))
    assert len(rows) == 40  # 4 panels x 10 orders
    assert all(r["bound_checked"] == 1 for r in rows)
    assert all(r["ordering_violation"] == 0 for r in rows)
    assert all(r["bound_violation"] == 0 for r in rows)
    # the two q=0.9, |D|=800 panels differ only by U, which the moments
    # never see, so their numbers agree exactly
    a = [r for r in rows if r["panel"] == "q0.9_d800_U50"]
    d = [r for r in rows if r["panel"] == "q0.9_d800_U200"]
    for ra, rd in zip(a, d):
        assert ra["log_D10"] == rd["log_D10"]


def test_verify_accountant_csv(tmp_path):
    out = tmp_path / "verify.csv"
    verify_accountant(out_path=out, lambdas=range(1, 4))
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[:7] == [
        "panel", "q", "sigma", "lambda", "log_D10", "log_D01", "log_bound",
    ]
    assert len(lines) == 1 + 12


def test_calibration_table_matches_direct_closed_form():
    rows = calibration_table([6.0, 8.0], [0.001], [0.6], [100], [1.25e-4])
    assert len(rows) == 2
    for r in rows:
        direct = calibrate_sigma(
            PrivacyBudget(r["epsilon"], r["delta"]), r["q"], r["T"], r["sensitivity"]
        )
        assert r["sigma"] == direct
    text = calibration_csv(rows)
    assert text.startswith("epsilon,delta,q,T,sensitivity,sigma\n")
    # integer inputs, as the command line parses "8" and "1", print as floats
    int_rows = calibration_table([8], [0.001], [1], [100], [1])
    assert calibration_csv(int_rows).split("\n")[1].startswith("8.0,0.001,1.0,100,1.0,")


def test_moment_table_columns():
    rows = moment_table(0.9, 0.01, 1.25e-4, range(1, 6))
    assert len(rows) == 5
    assert all(r["log_bound"] >= r["log_D10"] >= r["log_D01"] - 1e-12 for r in rows)
    text = moment_csv(rows)
    assert text.startswith("q,sigma,lambda,log_D10,log_D01,log_bound\n")


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
    idx = partition(train, plan, cfg.U, np.random.SeedSequence((3, harness._TAG_PARTITION)))
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
    assert out.startswith("q,sigma,lambda")
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
