"""Run the reference configs and print one sha256 per output file.

A pure refactor proves itself by printing the same hashes as its parent
commit, run with the same output directory:

    python3 tools/reference_outputs.py /tmp/ref > parent.txt   # parent checkout
    python3 tools/reference_outputs.py /tmp/ref --check parent.txt   # changed checkout

``--check FILE`` still prints the hashes, then names on standard error every
output whose hash differs from FILE's or that only one side has, and exits 1
if there is one.

A change that is meant to move the numbers a little shows how far with
``--against OLD_OUTDIR``, an output directory the parent checkout filled:

    python3 tools/reference_outputs.py /tmp/new --against /tmp/ref

For every CSV or JSON output that differs, it prints on standard error the
largest relative difference of each numeric field (a CSV column, or a JSON key
path whose list items share the name ``key[]``) and names every other field
that changed; it exits 1 if any output differs.

The set covers every scheduler (fixed, crd, decay), both SVM hinges, the
unbalanced partition with equal weights (once with stacked rows above the
round's 4 MiB helper limit), logistic regression on CSV files,
the MLP on MNIST-format IDX files (with noise and without) and the clip-norm
pilot.  Inputs are generated under ``<dir>/inputs``; outputs go to
``<dir>/runs``, emptied first.  ``manifest.json`` holds wall times: not hashed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
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

# stacked rows of 6,000 x 100 floats (4.8 MB): above the round's 4 MiB helper limit,
# so where the process may use two CPUs its fills run on both threads
WIDE = dict(
    UNBALANCED, synth_dim=100, size_pattern=(400, 500, 600, 700, 800), U=10, T_init=5,
    seeds=(1,),
)

# name -> config: 17 seed runs in all
RUNS = {
    "svm_fixed": SVM,
    "svm_crd_unit_margin": dict(SVM, scheduler="crd", hinge="unit_margin", zeta=0.003),
    "svm_decay": dict(SVM, scheduler="decay"),
    "svm_unbalanced_fixed": UNBALANCED,
    "svm_unbalanced_decay": dict(UNBALANCED, scheduler="decay", slope_fraction=0.5),
    "svm_unbalanced_wide_decay": dict(WIDE, scheduler="decay", slope_fraction=0.5),
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


def _fields(path: Path) -> dict:
    """A CSV output's columns, or a JSON output's key paths, each with its values in order."""
    if path.suffix == ".csv":
        header, *rows = csv.reader(path.read_text().splitlines())
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    fields = {}

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            for v in value:
                walk(v, f"{key}[]")
        else:
            fields.setdefault(key, []).append(value)

    walk(json.loads(path.read_text()), "")
    return fields


def _number(value):
    """``value`` as a float if it is a number or a numeric string, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _rel_diff(a: float, b: float) -> float:
    if a == b or math.isnan(a) and math.isnan(b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def field_report(new: Path, old: Path) -> list:
    """One line per field of two versions of a CSV or JSON output: the largest relative
    difference of a numeric field, or the name of any other field that changed."""
    ours, theirs = _fields(new), _fields(old)
    lines = []
    for name in [*theirs, *(k for k in ours if k not in theirs)]:
        a, b = ours.get(name), theirs.get(name)
        if a is None or b is None or len(a) != len(b):
            lines.append(f"{name}: changed ({len(b or ())} -> {len(a or ())} values)")
            continue
        pairs = [(_number(x), _number(y)) for x, y in zip(a, b)]
        if all(x is not None and y is not None for x, y in pairs):
            worst = max((_rel_diff(x, y) for x, y in pairs), default=0.0)
            lines.append(f"{name}: max rel diff {worst:.3g}")
        elif a != b:
            lines.append(f"{name}: changed")
    return lines


def against(outdir: Path, old: Path) -> list:
    """A report on every output under ``outdir/runs`` that differs from ``old/runs``."""
    ours, theirs = outdir / "runs", old / "runs"
    names = {
        p.relative_to(root)
        for root in (ours, theirs)
        for p in root.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    lines = []
    for name in sorted(names):
        new, prev = ours / name, theirs / name
        if not (new.is_file() and prev.is_file()):
            lines.append(f"{name}: only in {ours if new.is_file() else theirs}")
        elif new.read_bytes() != prev.read_bytes():
            lines.append(f"{name}:")
            if new.suffix in (".csv", ".json"):
                lines += [f"  {line}" for line in field_report(new, prev)]
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path, help="inputs go to OUTDIR/inputs, runs to OUTDIR/runs")
    parser.add_argument("--check", type=Path, metavar="FILE", help="an earlier listing to compare")
    parser.add_argument(
        "--against", type=Path, metavar="OLD_OUTDIR", help="an earlier output directory to diff"
    )
    args = parser.parse_args()
    lines, report = main(args.outdir), []
    if args.check is not None:
        report += [
            f"differs: {path}" for path in differing(lines, args.check.read_text().splitlines())
        ]
    if args.against is not None:
        report += against(args.outdir, args.against)
    print("\n".join(report), file=sys.stderr, end="\n" if report else "")
    sys.exit(1 if report else 0)
