"""Run the reference configs and print one sha256 per output file.

A pure refactor proves itself by printing the same hashes as its parent
commit, run with the same output directory:

    python3 tools/reference_outputs.py /tmp/ref > parent.txt   # parent checkout
    python3 tools/reference_outputs.py /tmp/ref --check parent.txt   # changed checkout

``--check FILE`` still prints the hashes, then names on standard error every
output whose hash differs from FILE's or that only one side has, and exits 1
if there is one.

The set covers every scheduler (fixed, crd, decay), both SVM hinges, the
unbalanced partition with equal weights, logistic regression on CSV files,
the MLP on MNIST-format IDX files (with noise and without) and the clip-norm
pilot.  Inputs are generated under ``<dir>/inputs``; outputs go to
``<dir>/runs``, emptied first.  ``manifest.json`` holds wall times: not hashed.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import write_mnist_like  # noqa: E402
from udpfl.harness import ExperimentConfig, pilot_clip, run_experiment  # noqa: E402

SVM = dict(
    model_kind="svm", data_source="synthetic", synth_dim=10, synth_n_test=100,
    shard_size=20, U=6, K=4, T_init=15, epsilon_p=6.0, delta_p=1e-3, clip_C=0.5, seeds=(1, 2),
)
UNBALANCED = dict(
    SVM, partition_mode="unbalanced", shard_size=None, size_pattern=(10, 20, 30),
    weight_mode="equal",
)
LOGISTIC = dict(
    model_kind="logistic", data_source="csv", shard_size=40, U=6, K=4, T_init=15,
    epsilon_p=10.0, delta_p=1e-3, eta=0.2, clip_C=3.0, seeds=(1, 2),
)
MLP = dict(
    model_kind="mlp", hidden_dim=16, data_source="mnist", shard_size=60, U=5, K=3,
    T_init=12, epsilon_p=8.0, delta_p=1e-3, eta=0.5, clip_C=3.8, zeta=0.01, seeds=(1,),
)

# name -> config: 16 seed runs in all
RUNS = {
    "svm_fixed": SVM,
    "svm_crd_unit_margin": dict(SVM, scheduler="crd", hinge="unit_margin", zeta=0.003),
    "svm_decay": dict(SVM, scheduler="decay"),
    "svm_unbalanced_fixed": UNBALANCED,
    "svm_unbalanced_decay": dict(UNBALANCED, scheduler="decay", slope_fraction=0.5),
    "logistic_crd_label_skew": dict(
        LOGISTIC, scheduler="crd", partition_mode="label_skew", labels_per_client=2, zeta=0.02,
    ),
    "logistic_decay": dict(LOGISTIC, scheduler="decay"),
    "mlp_crd": dict(MLP, scheduler="crd"),
    "mlp_noiseless": dict(MLP, epsilon_p="inf", K=5),
}


def write_csv(directory: Path, sizes: dict) -> None:
    """A four-class Gaussian mixture in 6 dimensions: one CSV file per split."""
    rng = np.random.default_rng(1)
    centers = rng.normal(size=(4, 6))
    for split, n in sizes.items():
        labels = rng.integers(0, 4, n)
        feats = centers[labels] + 0.8 * rng.normal(size=(n, 6))
        rows = (",".join([*map(repr, x.tolist()), str(y)]) for x, y in zip(feats, labels))
        (directory / f"{split}.csv").write_text("\n".join(["x0,x1,x2,x3,x4,x5,label", *rows, ""]))


def main(outdir: Path) -> list:
    """Run every reference config; print and return one ``"<sha256> <path>"`` per output."""
    inputs, runs = outdir / "inputs", outdir / "runs"
    inputs.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(runs, ignore_errors=True)
    write_csv(inputs, dict(train=400, test=200))
    write_mnist_like(inputs / "mnist", seed=1, n_train=600, n_test=200)
    paths = {f"csv_{s}": str(inputs / f"{s}.csv") for s in ("train", "test")}
    paths["mnist_dir"] = str(inputs / "mnist")
    for name, fields in RUNS.items():
        cfg = ExperimentConfig.from_dict(dict(fields, **paths, output_dir=str(runs / name)))
        manifest = run_experiment(cfg)
        if manifest.errors:
            sys.exit(f"{name}: {manifest.errors}")
    pilot_clip(ExperimentConfig.from_dict(dict(MLP, **paths)), rounds=2, outdir=runs / "pilot")
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(runs)}"
        for path in sorted(runs.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    ]
    print("\n".join(lines))
    return lines


def differing(lines: list, expected: list) -> list:
    """Output paths whose hash differs between the two listings, or that one lacks."""
    ours, theirs = (
        dict(reversed(line.split(" ", 1)) for line in listing if line)
        for listing in (lines, expected)
    )
    return sorted(p for p in ours.keys() | theirs.keys() if ours.get(p) != theirs.get(p))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path, help="inputs go to OUTDIR/inputs, runs to OUTDIR/runs")
    parser.add_argument("--check", type=Path, metavar="FILE", help="an earlier listing to compare")
    args = parser.parse_args()
    lines = main(args.outdir)
    if args.check is not None:
        diff = differing(lines, args.check.read_text().splitlines())
        for path in diff:
            print(f"differs: {path}", file=sys.stderr)
        sys.exit(1 if diff else 0)
