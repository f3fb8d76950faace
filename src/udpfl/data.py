"""Dataset loading, synthesis, and client partitioning.

Datasets are immutable feature/label array pairs.  MNIST is read from the
IDX binary files on disk (located via an explicit path or the MNIST_DIR
environment variable); nothing here downloads data implicitly — see
``fetch_mnist`` for the explicit opt-in download.

Partitioning supports three client layouts:

* ``iid`` — seeded shuffle, equal consecutive shards;
* ``label_skew`` — every client holds exactly ``labels_per_client``
  distinct classes (default 4), equal counts per class, with the class
  subsets distinct across clients;
* ``unbalanced`` — clients split into five equal groups whose shard sizes
  follow a 400:600:800:1000:1200 pattern.
"""

from __future__ import annotations

import gzip
import hashlib
import itertools
import os
import struct
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ConfigError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

# canonical md5 checksums of the raw (uncompressed) IDX files
MNIST_MD5 = {
    "train-images-idx3-ubyte": "6bbc9ace898e44ae57da46a324031adb",
    "train-labels-idx1-ubyte": "a25bea736e30d166cdddb491f175f624",
    "t10k-images-idx3-ubyte": "2646ac647ad5339dbf082846283269ea",
    "t10k-labels-idx1-ubyte": "27ae3e4e09519cfbb04c329615203637",
}

MNIST_MIRROR = "https://ossci-datasets.s3.amazonaws.com/mnist/"

DEFAULT_MNIST_DIR = Path.home() / ".cache" / "udpfl" / "mnist"


class IdxParseError(ValueError):
    """Malformed IDX file; the message carries the failing byte offset."""


@dataclass(frozen=True)
class Dataset:
    """Immutable supervised dataset.

    ``labels`` are either class indices 0..num_classes-1 or, for binary
    margin models, the values +1/-1 (num_classes == 2 in that case).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    provenance: str = "unknown"

    def __post_init__(self) -> None:
        f, l = self.features, self.labels
        if f.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {f.shape}")
        if l.shape != (len(f),):
            raise ValueError(f"labels shape {l.shape} != ({len(f)},)")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        signed = np.all(np.isin(l, (-1, 1)))
        if not signed and (l.min() < 0 or l.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.labels[indices],
            self.num_classes,
            self.provenance,
        )


@dataclass(frozen=True)
class PartitionPlan:
    """How to split a dataset across U clients.

    ``shard_size`` is the per-client sample count for iid/label_skew
    (None = equal split of the whole dataset).  ``size_pattern`` gives the
    per-group sizes for the unbalanced mode; U must be a multiple of the
    pattern length and consecutive client groups get consecutive sizes.
    """

    mode: str
    shard_size: int | None = None
    labels_per_client: int = 4
    size_pattern: tuple[int, ...] = (400, 600, 800, 1000, 1200)

    def __post_init__(self) -> None:
        v = []
        if self.mode not in ("iid", "label_skew", "unbalanced"):
            v.append(f"mode must be iid|label_skew|unbalanced, got {self.mode!r}")
        if self.shard_size is not None and self.shard_size < 1:
            v.append(f"shard_size must be >= 1, got {self.shard_size}")
        if self.labels_per_client < 1:
            v.append(f"labels_per_client must be >= 1, got {self.labels_per_client}")
        if self.mode == "unbalanced" and not (self.size_pattern and min(self.size_pattern) >= 1):
            v.append(f"size_pattern must be nonempty, entries >= 1, got {self.size_pattern}")
        if v:
            raise ConfigError(v)


def _read_exact(buf: bytes, offset: int, count: int, what: str) -> bytes:
    if offset + count > len(buf):
        raise IdxParseError(
            f"truncated IDX file: needed {count} bytes for {what} at byte "
            f"{offset}, file has {len(buf)}"
        )
    return buf[offset : offset + count]


def _parse_idx(raw: bytes, expect_magic: int, path: str) -> np.ndarray:
    magic = struct.unpack(">I", _read_exact(raw, 0, 4, "magic"))[0]
    if magic != expect_magic:
        raise IdxParseError(
            f"{path}: bad magic 0x{magic:08x} at byte 0 "
            f"(expected 0x{expect_magic:08x})"
        )
    ndim = magic & 0xFF
    dims = struct.unpack(
        f">{ndim}I", _read_exact(raw, 4, 4 * ndim, "dimension header")
    )
    start = 4 + 4 * ndim
    count = int(np.prod(dims))
    data = _read_exact(raw, start, count, "payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a flattened unit-scaled dataset."""
    images = _parse_idx(Path(images_path).read_bytes(), IDX_MAGIC_IMAGES, str(images_path))
    labels = _parse_idx(Path(labels_path).read_bytes(), IDX_MAGIC_LABELS, str(labels_path))
    if len(images) != len(labels):
        raise IdxParseError(
            f"image/label count mismatch: {len(images)} images vs "
            f"{len(labels)} labels"
        )
    feats = images.reshape(len(images), -1).astype(np.float64) / 255.0
    y = labels.astype(np.int64)
    return Dataset(feats, y, num_classes=int(y.max()) + 1, provenance="mnist")


def mnist_dir(explicit: str | None = None) -> Path:
    """Resolve the MNIST directory: explicit arg > MNIST_DIR env > cache default."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("MNIST_DIR")
    if env:
        return Path(env)
    return DEFAULT_MNIST_DIR


def load_mnist(directory: str | None = None) -> tuple[Dataset, Dataset]:
    """Load the train and test splits from raw IDX files on disk."""
    d = mnist_dir(directory)
    missing = [name for name in MNIST_FILES if not (d / name).exists()]
    if missing:
        raise FileNotFoundError(
            f"MNIST files missing under {d}: {', '.join(missing)}. "
            "Point MNIST_DIR at the IDX files or run the fetch-mnist command."
        )
    train = load_idx(d / MNIST_FILES[0], d / MNIST_FILES[1])
    test = load_idx(d / MNIST_FILES[2], d / MNIST_FILES[3])
    return train, test


def fetch_mnist(directory: str | None = None, base_url: str = MNIST_MIRROR) -> Path:
    """Explicitly download the four MNIST IDX files and verify checksums."""
    d = mnist_dir(directory)
    d.mkdir(parents=True, exist_ok=True)
    for name in MNIST_FILES:
        target = d / name
        if target.exists() and _md5(target) == MNIST_MD5[name]:
            continue
        url = base_url + name + ".gz"
        with urllib.request.urlopen(url) as resp:
            raw = gzip.decompress(resp.read())
        digest = hashlib.md5(raw).hexdigest()
        if digest != MNIST_MD5[name]:
            raise IOError(f"checksum mismatch for {name}: {digest}")
        tmp = target.with_suffix(".tmp")
        tmp.write_bytes(raw)
        os.replace(tmp, target)
    return d


def _md5(path: Path) -> str:
    return hashlib.md5(path.read_bytes()).hexdigest()


def load_csv_dataset(path) -> Dataset:
    """Load a CSV with a header row, float feature columns, final label column."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column and a label")
    feats = rows[:, :-1].astype(np.float64)
    raw = rows[:, -1]
    labels = raw.astype(np.int64)
    if not np.all(labels == raw):
        raise ValueError(f"{path}: label column must be integral")
    if np.all(np.isin(labels, (-1, 1))):
        return Dataset(feats, labels, num_classes=2, provenance="csv")
    return Dataset(feats, labels, num_classes=int(labels.max()) + 1, provenance="csv")


def synth_linear(n: int, dim: int, margin: float, seed: int) -> Dataset:
    """Linearly separable two-class Gaussian data with a fixed margin.

    Every sample sits at signed distance >= margin/2 from the separating
    hyperplane through the origin, so the class gap is at least ``margin``.
    Class labels are +1/-1, balanced to within one sample.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if margin <= 0:
        raise ValueError(f"margin must be > 0, got {margin}")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    y = np.concatenate([np.ones(n // 2 + n % 2, dtype=np.int64), -np.ones(n // 2, dtype=np.int64)])
    rng.shuffle(y)
    z = rng.normal(size=(n, dim))
    z -= np.outer(z @ u, u)  # component orthogonal to the separator normal
    along = y * (margin / 2.0 + np.abs(rng.normal(size=n)))
    feats = z + np.outer(along, u)
    return Dataset(feats, y, num_classes=2, provenance="synthetic")


def _skew_subsets(num_classes: int, labels_per_client: int, U: int, rng) -> list[tuple]:
    """U distinct label subsets with balanced class coverage where possible."""
    if num_classes == 10 and labels_per_client == 4 and U <= 50:
        # five rotation-inequivalent offset shapes x ten rotations: 50
        # distinct subsets in which every class appears equally often
        shapes = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 3, 5), (0, 2, 4, 6)]
        subsets = [
            tuple(sorted((r + o) % 10 for o in shape))
            for shape in shapes
            for r in range(10)
        ]
        return subsets[:U]
    pool = list(itertools.combinations(range(num_classes), labels_per_client))
    if U > len(pool):
        raise ValueError(
            f"cannot give {U} clients distinct {labels_per_client}-label "
            f"subsets of {num_classes} classes (only {len(pool)} exist)"
        )
    rng.shuffle(pool)
    return pool[:U]


def partition(dataset: Dataset, plan: PartitionPlan, U: int, seed: int) -> list[np.ndarray]:
    """Split a dataset into U disjoint client index arrays per the plan."""
    if U < 1:
        raise ValueError(f"U must be >= 1, got {U}")
    n = len(dataset)
    rng = np.random.default_rng(seed)

    if plan.mode == "iid":
        size = plan.shard_size if plan.shard_size is not None else n // U
        if size * U > n:
            raise ValueError(f"iid plan needs {size * U} samples, dataset has {n}")
        order = rng.permutation(n)
        return [order[i * size : (i + 1) * size] for i in range(U)]

    if plan.mode == "unbalanced":
        if U % len(plan.size_pattern) != 0:
            raise ValueError(
                f"unbalanced mode needs U divisible by {len(plan.size_pattern)}, got U={U}"
            )
        per_group = U // len(plan.size_pattern)
        sizes = [plan.size_pattern[i // per_group] for i in range(U)]
        if sum(sizes) > n:
            raise ValueError(f"unbalanced plan needs {sum(sizes)} samples, dataset has {n}")
        order = rng.permutation(n)
        shards, start = [], 0
        for s in sizes:
            shards.append(order[start : start + s])
            start += s
        return shards

    # label_skew
    if np.any(dataset.labels < 0):
        raise ValueError("label_skew needs nonnegative class labels")
    lpc = plan.labels_per_client
    size = plan.shard_size if plan.shard_size is not None else (n // U) // lpc * lpc
    if size < lpc or size % lpc != 0:
        raise ValueError(
            f"label_skew shard size must be a positive multiple of {lpc}, got {size}"
        )
    per_class = size // lpc
    subsets = _skew_subsets(dataset.num_classes, lpc, U, rng)
    pools = {
        c: list(rng.permutation(np.flatnonzero(dataset.labels == c)))
        for c in range(dataset.num_classes)
    }
    shards = []
    for subset in subsets:
        take = []
        for c in subset:
            if len(pools[c]) < per_class:
                raise ValueError(
                    f"class {c} exhausted: need {per_class} more samples, "
                    f"have {len(pools[c])}"
                )
            take.extend(pools[c][:per_class])
            del pools[c][:per_class]
        shards.append(np.array(take, dtype=np.intp))
    return shards

