"""Experiment harness: configs, data pool, runners, sweeps and the clip-norm pilot.

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
read-only data pool per process, which ``data`` partitions and cuts per seed.
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

from . import ConfigError, __version__, _is_int
from .accountant import MomentLedger, PrivacyBudget, calibrate_sigma, sensitivity
from .data import (
    MNIST_FILES,
    Dataset,
    PartitionPlan,
    _read_only,
    cut,
    load_csv_dataset,
    load_mnist,
    mnist_dir,
    partition,
    pool_of,
    synth_linear,
)
from .federation import (
    ClientState,
    FederationConfig,
    ServerState,
    TrainingResult,
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
# each annotation's values, as JSON writes them: no bool, no numpy scalar (np.float64 is a float)
_FIELD_TYPES = dict(str=(str, "a string"), int=(int, "an int"), float=((int, float), "a number"),
                    tuple=((tuple, list), "a list"))


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
        if not isinstance(d, dict):
            raise ConfigError([f"a config must be a JSON object, got {type(d).__name__}"])
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError([f"unknown config key: {k}" for k in unknown])
        d = dict(d)  # validate() reports any other value of the wrong type
        if isinstance(d.get("epsilon_p"), str) and d["epsilon_p"].lower() in ("inf", "infinity"):
            d["epsilon_p"] = math.inf
        d.update({k: tuple(d[k]) for k in ("seeds", "size_pattern") if isinstance(d.get(k), list)})
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
        """Return every violation (empty list = valid): every field of the wrong type,
        if any; else each component's rules, under config keys, then the rest."""
        v = []
        for f in dataclasses.fields(self):
            x, (kind, *none) = getattr(self, f.name), f.type.split(" | ")
            types, name = _FIELD_TYPES[kind]
            if not (none and x is None or isinstance(x, types) and not isinstance(x, bool)):
                v.append(f"{f.name} must be {name}{' or null' * len(none)}, got {x!r}")
        if v:
            return v
        cfg = self.resolved()
        synthetic = cfg.data_source == "synthetic"
        # the data fixes input_dim (synth_dim for synthetic data) and num_classes
        dim = cfg.synth_dim if synthetic else 1
        for build in (
            lambda: ModelSpec(cfg.model_kind, dim, 2, cfg.hidden_dim, cfg.kappa, cfg.hinge),
            lambda: _plan(cfg).sizes(cfg.U),  # the plan's rules, and U's fit to its pattern
            lambda: PrivacyBudget(cfg.epsilon_p, cfg.delta_p),
            # no rule reads the spec or the seed, which the data and the run fix
            lambda: FederationConfig(None, cfg.K, cfg.eta, cfg.clip_C, 0, cfg.weight_mode),
            lambda: CrdConfig(cfg.beta, cfg.zeta, cfg.T_init),
        ):
            try:
                build()
            except ValueError as exc:  # a ConfigError lists its rules under component fields
                for message in getattr(exc, "violations", [str(exc)]):
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
        if synthetic and not cfg.synth_n_test >= 1:
            v.append(f"synth_n_test must be an int >= 1, got {cfg.synth_n_test}")
        if not cfg.data_seed >= 0:  # as SeedSequence
            v.append(f"data_seed must be an int >= 0, got {cfg.data_seed}")
        if synthetic and cfg.model_kind != "svm":
            v.append("synthetic data is binary +1/-1; use model_kind svm")
        if synthetic and cfg.partition_mode == "label_skew":
            v.append("synthetic data is binary +1/-1; label_skew needs class indices")
        if synthetic and cfg.partition_mode == "iid" and cfg.shard_size is None:
            v.append("synthetic data needs shard_size to size the pool")
        if not cfg.U >= 1:
            v.append(f"U must be an int >= 1, got {cfg.U}")
        if cfg.K > cfg.U:
            v.append(f"need K <= U, got K={cfg.K}, U={cfg.U}")
        if cfg.scheduler not in ("fixed", "crd", "decay"):
            v.append(f"scheduler must be fixed|crd|decay, got {cfg.scheduler!r}")
        if cfg.scheduler == "decay" and math.isinf(cfg.epsilon_p):
            # the decay schedule starts at the calibrated sigma, which is 0 here
            v.append("scheduler decay needs a finite epsilon_p")
        if not cfg.slope_fraction >= 0:
            v.append(f"slope_fraction must be >= 0, got {cfg.slope_fraction}")
        bad_sizes = [n for n in cfg.size_pattern if type(n) is not int]  # as JSON writes
        if bad_sizes:
            v.append(f"size_pattern entries must be ints, got {bad_sizes}")
        if not cfg.seeds:
            v.append("seeds must be nonempty")
        bad_seeds = [s for s in cfg.seeds if not (type(s) is int and s >= 0)]  # as SeedSequence
        if bad_seeds:
            v.append(f"seeds must be ints >= 0, got {bad_seeds}")
        elif len(set(cfg.seeds)) < len(cfg.seeds):  # each seed writes its own seed_<n>/
            repeated = sorted({s for s in cfg.seeds if cfg.seeds.count(s) > 1})
            v.append(f"seeds must be distinct, got {repeated} more than once")
        if not cfg.workers >= 1:
            v.append(f"workers must be an int >= 1, got {cfg.workers}")
        # round-0 noise calibration must be well-posed for every class before any data loads
        sizes = set(_plan(cfg).sizes(cfg.U)) if not v and math.isfinite(cfg.epsilon_p) else {None}
        if None not in sizes:
            budget = PrivacyBudget(cfg.epsilon_p, cfg.delta_p)
            try:
                s0 = [calibrate_sigma(budget, cfg.K / cfg.U, cfg.T_init,
                                      sensitivity(cfg.eta, cfg.clip_C, n)) for n in sorted(sizes)]
                v.extend(f"round-0 calibrated sigma not positive/finite: {s}"
                         for s in s0 if not (s > 0 and math.isfinite(s)))
            except (ValueError, ArithmeticError) as exc:
                v.append(f"round-0 calibration failed: {exc}")
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


def _plan(cfg: ExperimentConfig) -> PartitionPlan:
    return PartitionPlan(
        cfg.partition_mode, cfg.shard_size, cfg.labels_per_client, cfg.size_pattern
    )


_pool: dict = {}  # this process's data pool, at most one: {pool key: (train, test)}


def _file_key(path) -> tuple:
    p = Path(path).resolve()
    st = p.stat() if p.exists() else None  # a missing file is left to its loader
    return (str(p),) + ((st.st_size, st.st_mtime_ns, st.st_ino) if st else ())


def _data_pool(cfg: ExperimentConfig) -> tuple:
    """The seed-independent (train, test) pool, built once per key per process."""
    if cfg.data_source == "synthetic":
        n_train = sum(_plan(cfg).sizes(cfg.U))
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
    """Build (shards, train_eval, test_eval) for one seed: partition the pool, then cut it.

    One read-only (train, test) pool is kept per process, keyed by every input
    that shapes it: the synthetic training size, ``synth_n_test``, ``synth_dim``,
    ``synth_margin`` and ``data_seed``, or each file's resolved path, size, inode
    and mtime (as with CPython's .pyc check, a rewrite that keeps all three is
    not reloaded).  Per seed, ``train_eval`` is the cut's gather of the shard rows.
    An MNIST training pool holds the image bytes, and the gather converts only
    its own rows, so every dataset returned here has float64 features.

    The pool's row norms and the eta guard's L are computed on first use, not
    here, and kept with the pool (``Dataset.sq_norms``, ``Dataset.memo``), so
    every later seed reuses them.  Only a partition that covers every pool row
    shares the pool's L: every synthetic pool is sized to its partition, while
    MNIST and CSV partitions with rows to spare pay for their own.
    """
    train, test = _data_pool(cfg)
    shard_idx = partition(train, _plan(cfg), cfg.U, _derived_seed(seed, _TAG_PARTITION))
    train_eval, shards = cut(train, shard_idx)
    return shards, train_eval, test


def build_model_spec(cfg: ExperimentConfig, train: Dataset) -> ModelSpec:
    """The model the config asks for; each kind reads only the fields it uses."""
    return ModelSpec(
        cfg.model_kind, train.feature_dim, train.num_classes, cfg.hidden_dim, cfg.kappa, cfg.hinge
    )


def _gram_top(datasets) -> float:
    """Top eigenvalue of the datasets' summed row Gram matrix over their row count."""
    gram = sum(x.T @ x for x in (d.float_rows() for d in datasets))
    return float(np.linalg.eigvalsh(gram / sum(len(d) for d in datasets)).max())


def _check_eta_against_smoothness(cfg: ExperimentConfig, spec: ModelSpec, shards):
    # the convergence theory needs eta <= 1/L; only the convex models have a
    # cheaply estimable L (top Gram eigenvalue + ridge), so gate on those.
    # Shards holding every pool row share the pool's value, in pool row order,
    # so it is computed once per pool and is the same for every seed.
    if spec.kind == "mlp" or spec.input_dim > 2000:
        return
    pool = pool_of(shards)
    if pool is None:
        gram_top = _gram_top(shards)
    else:
        gram_top = pool.memo("gram_top", lambda ds: _gram_top([ds]))
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

    Returns ``(server, clients, federation config)``: the clients of one shard size
    (a class) share a ``MomentLedger`` with the budget ``(epsilon_p, delta_p)``,
    ``q = K/U`` and that size's sensitivity, and the server starts at round budget
    ``T_init`` from parameters drawn from the seed's initialization stream.
    Raises ``ConfigError`` if a convex model's ``eta`` exceeds 1/L of the shards.
    """
    _check_eta_against_smoothness(cfg, spec, shards)
    budget, q = PrivacyBudget(cfg.epsilon_p, cfg.delta_p), cfg.K / len(shards)
    ledgers = {n: MomentLedger(budget, q, sensitivity(cfg.eta, cfg.clip_C, n))
               for n in {len(shard) for shard in shards}}
    clients = [ClientState(i, shard, ledgers[len(shard)]) for i, shard in enumerate(shards)]
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
    if cfg.workers > 1 and len(cfg.seeds) > 1:
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


# each sweep axis: the config field it sets and that field's type
_SWEEP_FIELDS = dict(T=("T_init", int), epsilon=("epsilon_p", float), beta=("beta", float),
                     T_init=("T_init", int))
SWEEP_AXES = tuple(_SWEEP_FIELDS)
SWEEP_COLUMNS = (
    "axis", "value", "seed", "final_test_loss", "final_test_accuracy", "rounds",
    "mean_final_test_loss", "mean_final_test_accuracy", "mean_rounds",
)


def sweep(cfg: ExperimentConfig, axis: str, values, outdir=None) -> Path:
    """Run the config once per axis value; emit one curve CSV.

    One row per (value, seed) plus seed-mean columns repeated on each row;
    failed points are recorded in the sweep manifest and skipped in the CSV.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    name, kind = _SWEEP_FIELDS[axis]
    values = list(values)
    bad = [x for x in values if kind is int and not _is_int(x)]  # a float would be truncated
    if bad:
        raise ValueError(f"axis {axis} takes integers, got {bad}")
    cfg = cfg.check()
    if axis == "T":  # fixed-T sweep: the round budget is pinned, no adaptive discounting
        cfg = dataclasses.replace(cfg, scheduler="fixed")
    outdir = Path(outdir if outdir is not None else cfg.output_dir)
    rows, errors = [], {}
    for value in values:
        try:
            sub = dataclasses.replace(cfg, **{name: kind(value)})
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
