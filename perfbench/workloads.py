"""The benchmark's workloads: configs, generated inputs and one timed unit each.

Every workload drives the simulator only through its public entry points
(``harness.sweep``, ``harness.run_experiment``, ``harness.load_experiment_data``,
``harness.build_model_spec``).  Calls go through the ``harness`` module
attribute at call time, so the wrappers the benchmark installs for the traced
pass see every call.

A workload's inputs are a pure function of the ``--seed`` argument: the
training seeds of every unit, the synthetic data pool of every unit and the
MNIST-format IDX files.  ``size="tiny"`` shrinks each workload for the smoke test.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from udpfl import harness
from udpfl.harness import ExperimentConfig

DELTA = 1e-3

# svm_sweep: the gate-06 per-run shape (dim 300, iid shards of 128, U=K=50,
# eps 6, eta 0.1, clip 2.0) over short to long fixed round budgets.
SVM_SWEEP = {
    "full": dict(dim=300, shard=128, U=50, n_test=1000, T=(50, 150, 300)),
    "tiny": dict(dim=20, shard=16, U=10, n_test=100, T=(3, 6)),
}

# mlp_mnist_crd: the paper's MLP task on MNIST-format files, with CRD.
MLP_CRD = {
    "full": dict(n_train=60000, n_test=10000, U=50, K=30, shard=200, T_init=40),
    "tiny": dict(n_train=2000, n_test=300, U=10, K=6, shard=40, T_init=6),
}

# svm_unbalanced_decay: five shard sizes, partial participation, decay
# scheduler halted by the moment ledger; many short runs per unit.
SVM_DECAY = {
    "full": dict(dim=100, U=50, K=20, T_init=30, pattern=(400, 600, 800, 1000, 1200), seeds=10),
    "tiny": dict(dim=10, U=5, K=2, T_init=8, pattern=(40, 60, 80, 100, 120), seeds=2),
}

# The ten class prototypes are fixed, so every --seed poses a task of the same
# difficulty; the seed draws the labels and the per-image noise.
_PROTOTYPE_SEED = 20200302
_IMAGE_NOISE = 1.0
_IDX_CHUNK = 5000


@dataclass(frozen=True)
class Workload:
    """One workload: its setup config, its timed unit and the runs per unit.

    ``unit(seeds, outdir)`` runs one timed unit with the given training seeds;
    ``prepare()`` writes any input files before anything is timed.
    """

    setup_cfg: ExperimentConfig
    unit: Callable[[tuple, Path], object]
    seeds_per_unit: int
    prepare: Callable[[], None] = lambda: None


def run_key(cfg: ExperimentConfig) -> str:
    """Reference key of one training run: its scheduler and round budget."""
    return f"{cfg.scheduler}-T{cfg.T_init}"


def training_seeds(seed: int, unit: int, count: int) -> tuple:
    """Training seeds of one unit; distinct across units and workload seeds."""
    return tuple(seed * 100_000 + unit * 100 + j for j in range(count))


def unit_config(cfg: ExperimentConfig, seeds: tuple) -> ExperimentConfig:
    """A synthetic workload's config for one unit: its seeds and its own data pool.

    Drawing a fresh pool per unit averages the pool-to-pool spread of the
    final loss over the units of a pass.
    """
    return dataclasses.replace(cfg, seeds=seeds, data_seed=seeds[0])


def setup(cfg: ExperimentConfig, seed: int) -> None:
    """The one-time set-up a user pays before the first run of a config."""
    cfg = cfg.check()
    _, train_eval, _ = harness.load_experiment_data(cfg, seed)
    harness.build_model_spec(cfg, train_eval)


def svm_sweep(size: str, seed: int, inputs_dir: Path) -> Workload:
    p = SVM_SWEEP[size]
    cfg = ExperimentConfig(
        model_kind="svm",
        data_source="synthetic",
        partition_mode="iid",
        shard_size=p["shard"],
        synth_dim=p["dim"],
        synth_n_test=p["n_test"],
        data_seed=seed,
        U=p["U"],
        K=p["U"],
        T_init=p["T"][0],
        epsilon_p=6.0,
        delta_p=DELTA,
        eta=0.1,
        clip_C=2.0,
        scheduler="fixed",
        workers=1,
    )

    def unit(seeds, outdir):
        return harness.sweep(unit_config(cfg, seeds), "T", p["T"], outdir)

    return Workload(cfg, unit, seeds_per_unit=1)


def mlp_mnist_crd(size: str, seed: int, inputs_dir: Path) -> Workload:
    p = MLP_CRD[size]
    mnist = inputs_dir / "mnist"
    cfg = ExperimentConfig(
        model_kind="mlp",
        hidden_dim=32,
        data_source="mnist",
        mnist_dir=str(mnist),
        partition_mode="label_skew",
        shard_size=p["shard"],
        U=p["U"],
        K=p["K"],
        T_init=p["T_init"],
        epsilon_p=8.0,
        delta_p=DELTA,
        eta=0.5,
        clip_C=4.0,
        scheduler="crd",
        beta=0.9,
        zeta=1e-3,
        workers=1,
    )

    def unit(seeds, outdir):
        return harness.run_experiment(dataclasses.replace(cfg, seeds=seeds), outdir)

    def prepare():
        write_mnist_like(mnist, seed, p["n_train"], p["n_test"])

    return Workload(cfg, unit, seeds_per_unit=1, prepare=prepare)


def svm_unbalanced_decay(size: str, seed: int, inputs_dir: Path) -> Workload:
    p = SVM_DECAY[size]
    cfg = ExperimentConfig(
        model_kind="svm",
        data_source="synthetic",
        partition_mode="unbalanced",
        size_pattern=p["pattern"],
        synth_dim=p["dim"],
        synth_n_test=1000,
        data_seed=seed,
        U=p["U"],
        K=p["K"],
        T_init=p["T_init"],
        epsilon_p=6.0,
        delta_p=DELTA,
        eta=0.05,
        clip_C=1.0,
        scheduler="decay",
        workers=1,
    )

    def unit(seeds, outdir):
        return harness.run_experiment(unit_config(cfg, seeds), outdir)

    return Workload(cfg, unit, seeds_per_unit=p["seeds"])


WORKLOADS = {
    "svm_sweep": svm_sweep,
    "mlp_mnist_crd": mlp_mnist_crd,
    "svm_unbalanced_decay": svm_unbalanced_decay,
}


def _write_idx(path: Path, dims: tuple, chunks) -> None:
    """Write a uint8 IDX file (magic 0x08, ndim) from an iterator of chunks."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", 0x0800 | len(dims)))
        fh.write(struct.pack(f">{len(dims)}I", *dims))
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk, dtype=np.uint8).tobytes())


def write_mnist_like(directory: Path, seed: int, n_train: int, n_test: int) -> None:
    """Write the four MNIST IDX files: 28x28 uint8 class prototypes plus noise.

    Each prototype is a sum of four Gaussian blobs; an image is its class
    prototype plus N(0, 1) pixel noise, clipped to [0, 1] and quantized
    to 0..255.  Labels are uniform over the ten classes.
    """
    directory.mkdir(parents=True, exist_ok=True)
    proto_rng = np.random.default_rng(_PROTOTYPE_SEED)
    yy, xx = np.mgrid[0:28, 0:28]
    protos = np.zeros((10, 784))
    for c in range(10):
        img = np.zeros((28, 28))
        for _ in range(4):
            cy, cx = proto_rng.uniform(6.0, 22.0, 2)
            s = proto_rng.uniform(2.0, 5.0)
            img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * s * s))
        protos[c] = (img / img.max()).ravel()

    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    for split, n in (("train", n_train), ("t10k", n_test)):
        labels = rng.integers(0, 10, n).astype(np.uint8)

        def images(labels=labels):
            for start in range(0, len(labels), _IDX_CHUNK):
                y = labels[start : start + _IDX_CHUNK]
                x = protos[y] + _IMAGE_NOISE * rng.standard_normal((len(y), 784))
                yield np.rint(np.clip(x, 0.0, 1.0) * 255.0)

        _write_idx(directory / f"{split}-images-idx3-ubyte", (n, 28, 28), images())
        _write_idx(directory / f"{split}-labels-idx1-ubyte", (n,), [labels])
