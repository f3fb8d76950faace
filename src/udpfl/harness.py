"""Experiment harness: configs, runners, sweeps, and report tables.

A single JSON config drives everything.  Parameter names follow the
ASCII forms used throughout the package: ``epsilon_p``/``delta_p`` for the
per-client privacy budget, ``beta``/``zeta`` for the round-discounting
scheduler, ``eta`` for the local learning rate, ``clip_C`` for the
gradient clipping threshold, ``T_init``/``U``/``K`` for the round and
population sizes.

Every run emits, per seed, a ``rounds.csv`` with the fixed column order
``seed, round, T_current, sigma, train_loss, test_loss, test_accuracy,
selected_clients, trigger_fired`` and a ``summary.json`` whose entries are
all derivable from the CSV, plus one ``manifest.json`` per run recording
the fully resolved config and its content hash.  Output files are written
atomically and runs are bit-reproducible for a given (config, seed) no
matter how many worker processes execute the seeds, which share one
read-only data pool per process (``load_experiment_data`` gives its key).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ConfigError, __version__
from .accountant import (
    D_BASE_MIX,
    D_MIX_BASE,
    MechanismParams,
    MomentLedger,
    PrivacyBudget,
    QuadratureError,
    calibrate_sigma,
    log_moment_numeric,
    moment_bound,
    regime_ratio,
    sensitivity,
)
from .data import (
    MNIST_FILES,
    Dataset,
    PartitionPlan,
    load_csv_dataset,
    load_mnist,
    mnist_dir,
    partition,
    synth_linear,
)
from .federation import (
    ClientState,
    FederationConfig,
    ServerState,
    TrainingResult,
    _stop_helper,
    evaluate,
    run_round,
    run_training,
)
from .models import ModelSpec, init_params, per_sample_grad_norms
from .scheduler import CrdConfig, CrdScheduler, linear_decay_baseline

ROUNDS_COLUMNS = (
    "seed",
    "round",
    "T_current",
    "sigma",
    "train_loss",
    "test_loss",
    "test_accuracy",
    "selected_clients",
    "trigger_fired",
)

_TAG_INIT = 0
_TAG_PARTITION = 11


# the component fields whose names differ from the config keys that set them
_CONFIG_KEYS = dict(
    kind="model_kind", mode="partition_mode", epsilon="epsilon_p", delta="delta_p", clip="clip_C",
    input_dim="synth_dim",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully describes one experiment; unset fields resolve to defaults."""

    # model
    model_kind: str = "mlp"
    hidden_dim: int = 32
    kappa: float = 1e-2
    hinge: str = "label_threshold"
    # data
    data_source: str = "mnist"
    partition_mode: str = "iid"
    shard_size: int | None = None
    labels_per_client: int = 4
    size_pattern: tuple = (400, 600, 800, 1000, 1200)
    mnist_dir: str | None = None
    synth_dim: int = 20
    synth_margin: float = 1.0
    synth_n_test: int = 1000
    csv_train: str | None = None
    csv_test: str | None = None
    data_seed: int = 0
    # federation
    U: int = 50
    K: int = 50
    T_init: int = 200
    epsilon_p: float = 8.0
    delta_p: float = 0.001
    eta: float | None = None  # default depends on model kind
    clip_C: float = 1.0
    weight_mode: str = "by_size"
    # scheduler
    scheduler: str = "fixed"  # fixed | crd | decay
    beta: float = 0.9
    zeta: float = 0.001
    slope_fraction: float = 1.0
    # execution
    seeds: tuple = (1, 2, 3, 4, 5)
    workers: int = 1
    output_dir: str = "runs"

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError([f"unknown config key: {k}" for k in unknown])
        d = dict(d)
        if isinstance(d.get("epsilon_p"), str):
            if d["epsilon_p"].lower() not in ("inf", "infinity"):
                raise ConfigError([f"epsilon_p must be a number or 'inf', got {d['epsilon_p']!r}"])
            d["epsilon_p"] = math.inf
        for key in ("seeds", "size_pattern"):
            if key in d:
                d[key] = tuple(d[key])
        return ExperimentConfig(**d)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def resolved(self) -> "ExperimentConfig":
        """Materialize every default that depends on other fields."""
        eta = self.eta
        if eta is None:
            eta = 0.01 if self.model_kind == "svm" else 0.05
        return dataclasses.replace(self, eta=eta)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if isinstance(d["epsilon_p"], float) and math.isinf(d["epsilon_p"]):
            d["epsilon_p"] = "inf"
        d["seeds"] = list(self.seeds)
        d["size_pattern"] = list(self.size_pattern)
        return d

    def validate(self) -> list:
        """Return every violation (empty list = valid): each component's own
        rules, under config keys, then the rules no single component can state."""
        v = []
        cfg = self.resolved()
        synthetic = cfg.data_source == "synthetic"
        # the data fixes input_dim (synth_dim for synthetic data) and num_classes
        dim = cfg.synth_dim if synthetic else 1
        for build in (
            lambda: ModelSpec(cfg.model_kind, dim, 2, cfg.hidden_dim, cfg.kappa, cfg.hinge),
            lambda: PartitionPlan(
                cfg.partition_mode, cfg.shard_size, cfg.labels_per_client, cfg.size_pattern
            ),
            lambda: PrivacyBudget(cfg.epsilon_p, cfg.delta_p),
            # no rule reads the spec or the seed, which the data and the run fix
            lambda: FederationConfig(None, cfg.K, cfg.eta, cfg.clip_C, 0, cfg.weight_mode),
            lambda: CrdConfig(cfg.beta, cfg.zeta, cfg.T_init),
        ):
            try:
                build()
            except ConfigError as exc:
                for message in exc.violations:
                    name, rest = message.split(" ", 1)
                    v.append(f"{_CONFIG_KEYS.get(name, name)} {rest}")
        if cfg.data_source not in ("mnist", "synthetic", "csv"):
            v.append(f"data_source must be mnist|synthetic|csv, got {cfg.data_source!r}")
        if cfg.data_source == "csv" and not cfg.csv_train:
            v.append("csv data source needs csv_train")
        if cfg.data_source == "mnist" and cfg.model_kind == "svm":
            v.append("svm needs binary +1/-1 labels; mnist is 10-class")
        if synthetic and not 0 < cfg.synth_margin < math.inf:
            v.append(f"synth_margin must be finite and > 0, got {cfg.synth_margin}")
        if synthetic and cfg.synth_n_test < 1:
            v.append(f"synth_n_test must be >= 1, got {cfg.synth_n_test}")
        if synthetic and cfg.model_kind != "svm":
            v.append("synthetic data is binary +1/-1; use model_kind svm")
        if synthetic and cfg.partition_mode == "label_skew":
            v.append("synthetic data is binary +1/-1; label_skew needs class indices")
        if synthetic and cfg.partition_mode == "iid" and cfg.shard_size is None:
            v.append("synthetic data needs shard_size to size the pool")
        if cfg.partition_mode == "unbalanced" and cfg.U % max(len(cfg.size_pattern), 1):
            v.append(f"unbalanced mode needs U divisible by {len(cfg.size_pattern)}")
        if cfg.U < 1:
            v.append(f"U must be >= 1, got {cfg.U}")
        if cfg.K > cfg.U:
            v.append(f"need K <= U, got K={cfg.K}, U={cfg.U}")
        if cfg.scheduler not in ("fixed", "crd", "decay"):
            v.append(f"scheduler must be fixed|crd|decay, got {cfg.scheduler!r}")
        if cfg.scheduler == "decay" and math.isinf(cfg.epsilon_p):
            # the decay schedule starts at the calibrated sigma, which is 0 here
            v.append("scheduler decay needs a finite epsilon_p")
        if not cfg.slope_fraction >= 0:
            v.append(f"slope_fraction must be >= 0, got {cfg.slope_fraction}")
        if not cfg.seeds:
            v.append("seeds must be nonempty")
        if cfg.workers < 1:
            v.append(f"workers must be >= 1, got {cfg.workers}")
        # round-0 noise calibration must be well-posed before any data loads
        if not v and math.isfinite(cfg.epsilon_p):
            size = cfg.shard_size or (
                min(cfg.size_pattern) if cfg.partition_mode == "unbalanced" else None
            )
            if size is not None:
                try:
                    s0 = calibrate_sigma(
                        PrivacyBudget(cfg.epsilon_p, cfg.delta_p),
                        cfg.K / cfg.U, cfg.T_init, sensitivity(cfg.eta, cfg.clip_C, size),
                    )
                except (ValueError, ArithmeticError) as exc:
                    v.append(f"round-0 calibration failed: {exc}")
                else:
                    if not (s0 > 0 and math.isfinite(s0)):
                        v.append(f"round-0 calibrated sigma not positive/finite: {s0}")
        return v

    def check(self) -> "ExperimentConfig":
        violations = self.validate()
        if violations:
            raise ConfigError(violations)
        return self.resolved()


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.resolved().to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class RunManifest:
    resolved_config: dict
    config_hash: str
    version: str
    wall_clock_sec: float
    outputs: dict = field(default_factory=dict)  # seed -> {rounds, summary}
    errors: dict = field(default_factory=dict)  # seed -> repr(exception)
    extra: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        _atomic_write_text(path, json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True))


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _derived_seed(seed: int, tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, tag))


_pool: dict = {}  # this process's data pool, at most one: {pool key: (train, test)}


def _file_key(path) -> tuple:
    p = Path(path).resolve()
    st = p.stat() if p.exists() else None  # a missing file is left to its loader
    return (str(p),) + ((st.st_size, st.st_mtime_ns, st.st_ino) if st else ())


def _read_only(ds: Dataset) -> Dataset:
    ds.features.flags.writeable = False
    ds.labels.flags.writeable = False
    return ds


def _data_pool(cfg: ExperimentConfig) -> tuple:
    """The seed-independent (train, test) pool, built once per key per process."""
    if cfg.data_source == "synthetic":
        if cfg.partition_mode == "unbalanced":
            n_train = sum(cfg.size_pattern) * (cfg.U // len(cfg.size_pattern))
        else:
            n_train = cfg.U * cfg.shard_size
        synth_args = (cfg.synth_dim, cfg.synth_margin, cfg.data_seed)
        key = (n_train, cfg.synth_n_test) + synth_args
    elif cfg.data_source == "mnist":
        key = tuple(_file_key(mnist_dir(cfg.mnist_dir) / name) for name in MNIST_FILES)
    else:
        key = (_file_key(cfg.csv_train), cfg.csv_test and _file_key(cfg.csv_test))
    key = (cfg.data_source, key)
    if key not in _pool:
        _pool.clear()  # drop the old pool before the next one is built
        if cfg.data_source == "synthetic":
            full = synth_linear(n_train + cfg.synth_n_test, *synth_args)
            pool = full.subset(slice(n_train)), full.subset(slice(n_train, None))
        elif cfg.data_source == "mnist":
            pool = load_mnist(cfg.mnist_dir)
        else:
            train = load_csv_dataset(cfg.csv_train)
            pool = train, load_csv_dataset(cfg.csv_test) if cfg.csv_test else train
        _pool[key] = tuple(_read_only(ds) for ds in pool)
    return _pool[key]


def load_experiment_data(cfg: ExperimentConfig, seed: int):
    """Build (shards, train_eval, test_eval) for one seed.

    One read-only (train, test) pool is kept per process, keyed by every input
    that shapes it: the synthetic training size, ``synth_n_test``, ``synth_dim``,
    ``synth_margin`` and ``data_seed``, or each file's resolved path, size, inode
    and mtime (as with CPython's .pyc check, a rewrite that keeps all three is
    not reloaded).  Per seed, ``train_eval`` gathers the shard rows once,
    read-only, and each shard is a row-range view of it.
    """
    train, test = _data_pool(cfg)
    plan = PartitionPlan(
        cfg.partition_mode,
        shard_size=cfg.shard_size,
        labels_per_client=cfg.labels_per_client,
        size_pattern=tuple(cfg.size_pattern),
    )
    part_seed = _derived_seed(seed, _TAG_PARTITION)
    shard_idx = partition(train, plan, cfg.U, part_seed)
    train_eval = _read_only(train.subset(np.concatenate(shard_idx)))
    ends = np.cumsum([len(idx) for idx in shard_idx])
    shards = [train_eval.subset(slice(e - len(idx), e)) for idx, e in zip(shard_idx, ends)]
    return shards, train_eval, test


def build_model_spec(cfg: ExperimentConfig, train: Dataset) -> ModelSpec:
    """The model the config asks for; each kind reads only the fields it uses."""
    return ModelSpec(
        cfg.model_kind, train.feature_dim, train.num_classes, cfg.hidden_dim, cfg.kappa, cfg.hinge
    )


def _check_eta_against_smoothness(cfg: ExperimentConfig, spec: ModelSpec, shards):
    # the convergence theory needs eta <= 1/L; only the convex models have a
    # cheaply estimable L (top Gram eigenvalue + ridge), so gate on those
    if spec.kind == "mlp" or spec.input_dim > 2000:
        return
    gram = sum(s.features.T @ s.features for s in shards)
    gram_top = float(np.linalg.eigvalsh(gram / sum(len(s) for s in shards)).max())
    L = gram_top + (cfg.kappa if spec.kind == "svm" else 0.0)
    if spec.kind == "logistic":
        L = 0.5 * (gram_top + 1.0)  # bias-augmented, softmax curvature <= 1/2
    if cfg.eta > 1.0 / L:
        raise ConfigError(
            [f"eta={cfg.eta} exceeds 1/L={1.0 / L:.6g} estimated from the data"]
        )


def _cell(x) -> str:
    # repr(np.float64) is "np.float64(...)" on numpy >= 2, so convert first
    return repr(float(x)) if isinstance(x, float) else str(x)


def _csv(columns, rows) -> str:
    """CSV text: a header line, then one line per row of cells."""
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _sigma_cell(sigma_by_client: dict) -> str:
    distinct = sorted(set(sigma_by_client.values()))
    return ";".join(repr(float(s)) for s in distinct)


def rounds_csv_text(seed: int, records) -> str:
    rows = (
        (
            seed, r.round, r.T_at_start, _sigma_cell(r.sigma_by_client),
            r.train_loss, r.test_loss, r.test_accuracy,
            ";".join(str(i) for i in r.selected), int(r.trigger_fired),
        )
        for r in records
    )
    return _csv(ROUNDS_COLUMNS, rows)


def build_simulation(cfg: ExperimentConfig, seed: int, shards, spec: ModelSpec):
    """Wire one run of a resolved config over already-loaded client shards.

    Returns ``(server, clients, federation config)``: every client holds a
    ``MomentLedger`` with the budget ``(epsilon_p, delta_p)``, ``q = K/U``
    and the sensitivity of its shard, and the server starts at round budget
    ``T_init`` from parameters drawn from the seed's initialization stream.
    Raises ``ConfigError`` if a convex model's ``eta`` exceeds 1/L of the shards.
    """
    _check_eta_against_smoothness(cfg, spec, shards)
    budget, q = PrivacyBudget(cfg.epsilon_p, cfg.delta_p), cfg.K / len(shards)
    clients = [
        ClientState(i, shard, MomentLedger(budget, q, sensitivity(cfg.eta, cfg.clip_C, len(shard))))
        for i, shard in enumerate(shards)
    ]
    fcfg = FederationConfig(
        spec=spec, K=cfg.K, eta=cfg.eta, clip=cfg.clip_C, seed=seed,
        weight_mode=cfg.weight_mode,
    )
    params0 = init_params(spec, np.random.default_rng(_derived_seed(seed, _TAG_INIT)))
    return ServerState(global_params=params0, T=cfg.T_init), clients, fcfg


def run_simulation(
    cfg: ExperimentConfig, server, clients, fcfg: FederationConfig, test_eval
) -> TrainingResult:
    """Train a wired simulation under the config's ``scheduler``.

    ``fixed`` runs to the round budget.  ``crd`` discounts the budget by
    ``beta`` whenever the test loss improves by less than ``zeta``, starting
    from the initial model's test loss.  ``decay`` shrinks the noise linearly
    (``slope_fraction``) until the moment accountant halts the run.  Every
    round's train loss is over the clients' shards; ``test_eval`` is the test set.
    """
    if cfg.scheduler == "decay":
        return linear_decay_baseline(
            server, clients, fcfg, test_eval, slope_fraction=cfg.slope_fraction
        )
    on_round = None
    if cfg.scheduler == "crd":
        v0, _ = evaluate(fcfg.spec, server.global_params, test_eval)
        on_round = CrdScheduler(CrdConfig(beta=cfg.beta, zeta=cfg.zeta, T_init=cfg.T_init), v0)
    return run_training(server, clients, fcfg, test_eval, on_round=on_round)


def run_single_seed(cfg: ExperimentConfig, seed: int, outdir) -> dict:
    """Run one seed end-to-end and write rounds.csv + summary.json."""
    cfg = cfg.resolved()
    outdir = Path(outdir)
    shards, train_eval, test_eval = load_experiment_data(cfg, seed)
    spec = build_model_spec(cfg, train_eval)
    server, clients, fcfg = build_simulation(cfg, seed, shards, spec)
    result = run_simulation(cfg, server, clients, fcfg, test_eval)
    records, stop = result.records, result.stop_reason

    if not records:
        raise RuntimeError(f"seed {seed}: run produced no rounds ({stop})")
    rounds_path = outdir / f"seed_{seed}" / "rounds.csv"
    _atomic_write_text(rounds_path, rounds_csv_text(seed, records))
    last = records[-1]
    summary = {
        "seed": seed,
        "final_train_loss": last.train_loss,
        "final_test_loss": last.test_loss,
        "final_test_accuracy": last.test_accuracy,
        "realized_T": len(records),
        "stop_reason": stop,
        "triggers": sum(int(r.trigger_fired) for r in records),
        "sigma_trajectory": [_sigma_cell(r.sigma_by_client) for r in records],
        "train_samples": int(len(train_eval)),
        "test_samples": int(len(test_eval)),
    }
    summary_path = outdir / f"seed_{seed}" / "summary.json"
    _atomic_write_text(summary_path, json.dumps(summary, indent=2, sort_keys=True))
    return summary


def _seed_job(cfg_dict: dict, seed: int, outdir: str):
    cfg = ExperimentConfig.from_dict(cfg_dict)
    try:
        return seed, run_single_seed(cfg, seed, outdir), None
    except Exception as exc:  # noqa: BLE001 - reported in the manifest
        return seed, None, repr(exc)


def run_experiment(cfg: ExperimentConfig, outdir=None) -> RunManifest:
    """Run every seed (possibly in parallel) and write a manifest."""
    cfg = cfg.check()
    outdir = Path(outdir if outdir is not None else cfg.output_dir)
    started = time.monotonic()
    results = []
    if cfg.workers > 1 and len(cfg.seeds) > 1:
        _stop_helper()
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [
                pool.submit(_seed_job, cfg.to_dict(), seed, str(outdir))
                for seed in cfg.seeds
            ]
            results = [f.result() for f in futures]
    else:
        results = [_seed_job(cfg.to_dict(), seed, str(outdir)) for seed in cfg.seeds]

    manifest = RunManifest(
        resolved_config=cfg.to_dict(),
        config_hash=config_hash(cfg),
        version=__version__,
        wall_clock_sec=time.monotonic() - started,
    )
    for seed, summary, err in results:
        if err is not None:
            manifest.errors[str(seed)] = err
        else:
            manifest.outputs[str(seed)] = {
                "rounds": str(outdir / f"seed_{seed}" / "rounds.csv"),
                "summary": str(outdir / f"seed_{seed}" / "summary.json"),
                "final_test_loss": summary["final_test_loss"],
                "realized_T": summary["realized_T"],
            }
    manifest.write(outdir / "manifest.json")
    return manifest


SWEEP_AXES = ("T", "epsilon", "beta", "T_init")
SWEEP_COLUMNS = (
    "axis", "value", "seed", "final_test_loss", "final_test_accuracy", "rounds",
    "mean_final_test_loss", "mean_final_test_accuracy", "mean_rounds",
)


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "T":
        # fixed-T sweep: the round budget is pinned, no adaptive discounting
        return dataclasses.replace(cfg, scheduler="fixed", T_init=int(value))
    if axis == "epsilon":
        return dataclasses.replace(cfg, epsilon_p=float(value))
    if axis == "beta":
        return dataclasses.replace(cfg, beta=float(value))
    if axis == "T_init":
        return dataclasses.replace(cfg, T_init=int(value))
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


def sweep(cfg: ExperimentConfig, axis: str, values, outdir=None) -> Path:
    """Run the config once per axis value; emit one curve CSV.

    One row per (value, seed) plus seed-mean columns repeated on each row;
    failed points are recorded in the sweep manifest and skipped in the CSV.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    cfg = cfg.check()
    outdir = Path(outdir if outdir is not None else cfg.output_dir)
    rows, errors = [], {}
    for value in values:
        try:
            sub = _apply_axis(cfg, axis, value)
            manifest = run_experiment(sub, outdir / f"{axis}_{value}")
        except Exception as exc:  # noqa: BLE001 - per-point failures must not abort
            errors[str(value)] = repr(exc)
            continue
        errors.update(
            {f"{value}/{k}": e for k, e in manifest.errors.items()}
        )
        per_seed = []
        for seed in sub.seeds:
            info = manifest.outputs.get(str(seed))
            if info is None:
                continue
            with open(info["summary"]) as fh:
                per_seed.append(json.load(fh))
        if not per_seed:
            continue
        mean_loss = sum(s["final_test_loss"] for s in per_seed) / len(per_seed)
        mean_acc = sum(s["final_test_accuracy"] for s in per_seed) / len(per_seed)
        mean_rounds = sum(s["realized_T"] for s in per_seed) / len(per_seed)
        rows.extend(
            (
                axis, value, s["seed"], s["final_test_loss"], s["final_test_accuracy"],
                s["realized_T"], mean_loss, mean_acc, mean_rounds,
            )
            for s in per_seed
        )
    path = outdir / "sweep.csv"
    _atomic_write_text(path, _csv(SWEEP_COLUMNS, rows))
    if errors:
        _atomic_write_text(
            outdir / "sweep_errors.json", json.dumps(errors, indent=2, sort_keys=True)
        )
    return path


# --- report tables ---

# the four standard verification panels: (label, q, local samples, U)
VERIFY_PANELS = (
    ("q0.9_d800_U50", 0.9, 800, 50),
    ("q0.1_d800_U50", 0.1, 800, 50),
    ("q0.9_d400_U50", 0.9, 400, 50),
    ("q0.9_d800_U200", 0.9, 800, 200),
)
VERIFY_SIGMA = 0.01
VERIFY_ETA = 0.05
VERIFY_CLIP = 1.0
REGIME_CUTOFF = 0.1
VERIFY_COLUMNS = (
    "panel", "q", "sigma", "lambda", "log_D10", "log_D01", "log_bound",
    "regime_ratio", "bound_checked", "ordering_violation", "bound_violation",
)


def verify_accountant(out_path=None, lambdas=range(1, 101)) -> list:
    """Compare numeric moments against the closed-form bound on the four
    standard panels; returns one row dict per (panel, lambda)."""
    rows = []
    for label, q, n_local, _U in VERIFY_PANELS:
        dl = sensitivity(VERIFY_ETA, VERIFY_CLIP, n_local)
        for lam in lambdas:
            m = MechanismParams(q=q, sigma=VERIFY_SIGMA, sensitivity=dl, lam=lam)
            ratio = regime_ratio(m)
            row = {
                "panel": label,
                "q": q,
                "sigma": VERIFY_SIGMA,
                "lambda": lam,
                "regime_ratio": ratio,
                "bound_checked": int(ratio < REGIME_CUTOFF),
            }
            try:
                log_d10 = log_moment_numeric(m, D_MIX_BASE)
                log_d01 = log_moment_numeric(m, D_BASE_MIX)
            except QuadratureError as exc:
                row["error"] = repr(exc)
                rows.append(row)
                continue
            bound = moment_bound(m)
            row.update(
                log_D10=log_d10,
                log_D01=log_d01,
                log_bound=bound,
                ordering_violation=int(not log_d10 >= log_d01 - 1e-9),
                bound_violation=int(
                    ratio < REGIME_CUTOFF and not bound >= log_d10
                ),
            )
            rows.append(row)
    if out_path is not None:
        # rows whose quadrature failed have no moments: NaN moments, empty flags
        cells = (
            [r.get(c, math.nan if c.startswith("log_") else "") for c in VERIFY_COLUMNS]
            for r in rows
        )
        _atomic_write_text(Path(out_path), _csv(VERIFY_COLUMNS, cells))
    return rows


CALIBRATION_COLUMNS = ("epsilon", "delta", "q", "T", "sensitivity", "sigma")
MOMENT_COLUMNS = ("q", "sigma", "lambda", "log_D10", "log_D01", "log_bound")


def calibration_table(epsilons, deltas, qs, Ts, sensitivities) -> list:
    """Cross-product noise-calibration table with the pinned column set."""
    rows = []
    for eps in epsilons:
        for delta in deltas:
            for q in qs:
                for T in Ts:
                    for dl in sensitivities:
                        rows.append(
                            {
                                "epsilon": float(eps),
                                "delta": float(delta),
                                "q": float(q),
                                "T": T,
                                "sensitivity": float(dl),
                                "sigma": calibrate_sigma(
                                    PrivacyBudget(eps, delta), q, T, dl
                                ),
                            }
                        )
    return rows


def calibration_csv(rows) -> str:
    return _csv(CALIBRATION_COLUMNS, ([r[c] for c in CALIBRATION_COLUMNS] for r in rows))


def moment_table(q, sigma, dl, lambdas) -> list:
    rows = []
    for lam in lambdas:
        m = MechanismParams(q=q, sigma=sigma, sensitivity=dl, lam=lam)
        rows.append(
            {
                "q": float(q),
                "sigma": float(sigma),
                "lambda": lam,
                "log_D10": log_moment_numeric(m, D_MIX_BASE),
                "log_D01": log_moment_numeric(m, D_BASE_MIX),
                "log_bound": moment_bound(m),
            }
        )
    return rows


def moment_csv(rows) -> str:
    return _csv(MOMENT_COLUMNS, ([r[c] for c in MOMENT_COLUMNS] for r in rows))


def pilot_clip(cfg: ExperimentConfig, seed: int | None = None, rounds: int = 1, outdir=None):
    """Median per-sample gradient norm from a short noiseless pass.

    Runs ``rounds`` noiseless full-participation rounds, logging every
    client's unclipped per-sample gradient norms at the parameters each
    round begins with.  Returns (recommended C, norms file path).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    cfg = cfg.check()
    seed = seed if seed is not None else cfg.seeds[0]
    outdir = Path(outdir if outdir is not None else cfg.output_dir)
    shards, train_eval, test_eval = load_experiment_data(cfg, seed)
    spec = build_model_spec(cfg, train_eval)
    pilot = dataclasses.replace(cfg, epsilon_p=math.inf, K=cfg.U, T_init=rounds)
    server, clients, fcfg = build_simulation(pilot, seed, shards, spec)
    rows, norms_all = [], []
    for r in range(rounds):
        for c in clients:
            norms = per_sample_grad_norms(
                spec, server.global_params, c.shard.features, c.shard.labels
            )
            norms_all.append(norms)
            rows.extend((r, c.id, n) for n in norms)
        run_round(server, clients, fcfg, test_eval)
    path = outdir / "pilot_norms.csv"
    _atomic_write_text(path, _csv(("round", "client", "norm"), rows))
    c_value = float(np.median(np.concatenate(norms_all)))
    return c_value, path
