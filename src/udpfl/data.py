"""Dataset loading, synthesis, client partitioning, each seed's cut and its rows.

Datasets are immutable feature/label array pairs.  MNIST is read from the
IDX binary files on disk (located via an explicit path or the MNIST_DIR
environment variable); nothing here downloads data implicitly — see
``fetch_mnist`` for the explicit opt-in download.

A dataset with read-only features keeps what is computed from its rows in
its memo, freed with it; its rows' squared norms are kept there, and a subset
of it gathers or slices them instead of reading its rows again.  MNIST's
training pool keeps its features as the parsed image bytes: only the rows
that a subset gathers are converted to float64, ``x / 255``.

A ``PartitionPlan`` states each shard size (``sizes``) in one of three layouts:

* ``iid`` — seeded shuffle, equal consecutive shards;
* ``label_skew`` — every client holds exactly ``labels_per_client``
  distinct classes (default 4), equal counts per class, with the class
  subsets distinct across clients;
* ``unbalanced`` — consecutive equal client groups whose shard sizes
  follow ``size_pattern`` (default 400:600:800:1000:1200).

``partition`` draws a seed's index arrays and ``cut`` gathers their rows; only this
module reads ``features``, the others read float64 rows (``float_rows``, ``stack``).
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

from . import ConfigError, _is_int

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

_POOL = "covered_pool"  # memo name of a cut's gather: the pool it holds every row of, or None


class IdxParseError(ValueError):
    """Malformed IDX file; the message carries the failing byte offset."""


@dataclass(frozen=True)
class Dataset:
    """Immutable supervised dataset.

    ``labels`` are either class indices 0..num_classes-1 or, for binary
    margin models, the values +1/-1 (num_classes == 2 in that case).

    A ``subset`` of read-only data records ``rows_of = (source, rows)``: the
    dataset its rows were taken from and the index array or slice that took
    them; ``stack`` reads it to find the gather that a list of shards slices.
    ``memo`` keeps values computed from the rows with the dataset, so they live
    as long as it does.

    Every row read from ``features`` (``float_rows``, ``subset``, ``sq_norms``)
    is float64; uint8 ``features`` are image bytes, read as ``x / 255``.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    rows_of: tuple | None = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f, l = self.features, self.labels
        if f.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {f.shape}")
        if l.shape != (len(f),):
            raise ValueError(f"labels shape {l.shape} != ({len(f)},)")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        signed = (np.abs(l) == 1).all()
        if not signed and (l.min() < 0 or l.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def float_rows(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The features of ``rows`` as float64 (float64 features as they are); image
        bytes are ``x / 255`` (bitwise ``x.astype(np.float64) / 255.0``)."""
        x = self.features[rows]
        return np.divide(x, 255.0, dtype=float) if x.dtype == np.uint8 else np.asarray(x, float)

    def subset(self, indices: np.ndarray | slice) -> "Dataset":
        return Dataset(
            self.float_rows(indices),
            self.labels[indices],
            self.num_classes,
            rows_of=None if self.features.flags.writeable else (self, indices),
        )

    def memo(self, name: str, compute):
        """``compute(self)``, called on the first request for ``name`` only; the
        caller keeps it valid, as it is for read-only features."""
        if name not in self._memo:
            self._memo[name] = compute(self)
        return self._memo[name]

    @property
    def sq_norms(self) -> np.ndarray:
        """Each row's squared norm, bitwise ``(x * x).sum(1)`` of the float rows;
        read-only.

        Read-only features are taken never to change: they keep it in the
        memo, and a read-only subset of read-only data gathers or slices its
        source's, which are computed once, in row blocks, for every row of the
        source.  Writable features may change, so theirs is computed on each
        request.
        """
        if self.features.flags.writeable:
            return _sq_norms(self)
        return self.memo("sq_norms", _sq_norms)


def _read_only(ds: Dataset) -> Dataset:
    ds.features.flags.writeable = False
    ds.labels.flags.writeable = False
    return ds


def cut(pool: Dataset, shard_idx) -> tuple[Dataset, list[Dataset]]:
    """``(gather, shards)``: the read-only gather of the index arrays' rows of
    ``pool``, in order, and each shard as a row-range view of it."""
    rows = np.concatenate(shard_idx)
    gather = _read_only(pool.subset(rows))
    # as many rows as the pool holds, none twice, are every pool row
    covers = len(rows) == len(pool) and np.bincount(rows, minlength=len(pool)).max() == 1
    gather.memo(_POOL, lambda _: pool if covers else None)
    ends = np.cumsum([len(idx) for idx in shard_idx])
    return gather, [gather.subset(slice(e - len(idx), e)) for idx, e in zip(shard_idx, ends)]


def stack(shards) -> Dataset:
    """The shards' rows, in order, as one read-only float64 dataset: a ``cut``'s gather
    itself if they are its slices in order, else their ``float_rows`` concatenated with
    their own ``sq_norms`` (a Fortran-ordered or writable shard's are ``local_update``'s)."""
    gather, at = shards[0].rows_of[0] if shards and shards[0].rows_of else None, 0
    for s in shards:
        source, rows = s.rows_of or (None, None)
        if source is not gather or not isinstance(rows, slice) or rows != slice(at, at + len(s)):
            break
        at += len(s)
    else:
        if gather is not None and at == len(gather) and _POOL in gather._memo:
            return gather
    rows = _read_only(Dataset(np.concatenate([s.float_rows() for s in shards]),
                              np.concatenate([s.labels for s in shards]),
                              max(s.num_classes for s in shards)))
    rows._memo["sq_norms"] = norms = np.concatenate([s.sq_norms for s in shards])
    norms.flags.writeable = False
    return rows


def gram_top(rows: Dataset) -> float:
    """The top eigenvalue of a ``stack``'s row Gram over its row count, kept in its
    memo; a ``cut`` covering its pool reads the pool's, in pool row order."""
    return (rows._memo.get(_POOL) or rows).memo("gram_top", _gram_top)


def _gram_top(ds: Dataset) -> float:
    gram = sum(x.T @ x for x in map(ds.float_rows, _row_blocks(len(ds), ds.feature_dim)))
    return float(np.linalg.eigvalsh(gram / len(ds)).max())


def _row_blocks(n: int, dim: int):
    """Slices covering rows 0..n-1 in blocks of about 1 MiB of float64."""
    step = max(1, (1 << 20) // (8 * max(dim, 1)))
    return (slice(a, a + step) for a in range(0, n, step))


def _sq_norms(ds: Dataset) -> np.ndarray:
    if ds.rows_of is not None and not ds.features.flags.writeable:
        source, rows = ds.rows_of
        norms = source.sq_norms[rows]
    else:
        norms = np.empty(len(ds))
        for r in _row_blocks(len(ds), ds.feature_dim):
            np.sum(np.square(ds.float_rows(r)), axis=1, out=norms[r])
    norms.flags.writeable = False
    return norms


@dataclass(frozen=True)
class PartitionPlan:
    """How to split a dataset across U clients.

    ``shard_size`` is the per-client sample count for iid/label_skew (None =
    equal split of the whole dataset; for label_skew, a multiple of
    ``labels_per_client``).  Unbalanced mode gives consecutive equal client groups
    the consecutive ``size_pattern`` sizes; U must be a multiple of its length.
    """

    mode: str
    shard_size: int | None = None
    labels_per_client: int = 4
    size_pattern: tuple[int, ...] = (400, 600, 800, 1000, 1200)

    def __post_init__(self) -> None:
        v = []
        if self.mode not in ("iid", "label_skew", "unbalanced"):
            v.append(f"mode must be iid|label_skew|unbalanced, got {self.mode!r}")
        if self.shard_size is not None and not (_is_int(self.shard_size) and self.shard_size >= 1):
            v.append(f"shard_size must be an int >= 1, got {self.shard_size}")
        lpc = self.labels_per_client
        if not (_is_int(lpc) and lpc >= 1):
            v.append(f"labels_per_client must be an int >= 1, got {lpc}")
        elif self.mode == "label_skew" and _is_int(self.shard_size) and self.shard_size % lpc:
            v.append(f"shard_size must be a multiple of labels_per_client ({lpc}) "
                     f"in label_skew mode, got {self.shard_size}")
        sizes = self.size_pattern
        if self.mode == "unbalanced" and not (sizes and all(_is_int(n) and n >= 1 for n in sizes)):
            v.append(f"size_pattern must be nonempty, entries ints >= 1, got {sizes}")
        if v:
            raise ConfigError(v)

    def sizes(self, U: int, n: int | None = None) -> list:
        """The U shard sizes over ``n`` pool rows; one that depends on n is None without it."""
        if self.mode == "unbalanced":
            groups = len(self.size_pattern)
            if U % groups != 0:
                raise ValueError(f"unbalanced mode needs U divisible by {groups}, got U={U}")
            return [size for size in self.size_pattern for _ in range(U // groups)]
        size = self.shard_size
        if size is None and n is not None:
            lpc = self.labels_per_client if self.mode == "label_skew" else 1
            size = (n // U) // lpc * lpc
        return [size] * U


def _read_exact(buf: bytes, offset: int, count: int, what: str) -> np.ndarray:
    """The ``count`` bytes at ``offset``, as a read-only uint8 view of ``buf``."""
    if offset + count > len(buf):
        raise IdxParseError(
            f"truncated IDX file: needed {count} bytes for {what} at byte "
            f"{offset}, file has {len(buf)}"
        )
    return np.frombuffer(buf, np.uint8, count, offset)


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
    return _read_exact(raw, start, count, "payload").reshape(dims)


def load_idx(images_path, labels_path, as_bytes: bool = False) -> Dataset:
    """Parse an IDX image/label file pair into a flattened unit-scaled dataset;
    with ``as_bytes``, its features are the file's image bytes (see ``Dataset``)."""
    images = _parse_idx(Path(images_path).read_bytes(), IDX_MAGIC_IMAGES, str(images_path))
    labels = _parse_idx(Path(labels_path).read_bytes(), IDX_MAGIC_LABELS, str(labels_path))
    if len(images) != len(labels):
        raise IdxParseError(
            f"image/label count mismatch: {len(images)} images vs "
            f"{len(labels)} labels"
        )
    y = labels.astype(np.int64)
    pool = Dataset(images.reshape(len(images), -1), y, num_classes=int(y.max()) + 1)
    return pool if as_bytes else Dataset(pool.float_rows(), y, pool.num_classes)


def mnist_dir(explicit: str | None = None) -> Path:
    """Resolve the MNIST directory: explicit arg > MNIST_DIR env > cache default."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("MNIST_DIR")
    if env:
        return Path(env)
    return DEFAULT_MNIST_DIR


def load_mnist(directory: str | None = None) -> tuple[Dataset, Dataset]:
    """Load the train and test splits from raw IDX files on disk.

    The training split keeps its image bytes, of which each seed gathers a few
    rows; the test split, which every round evaluates, is float64."""
    d = mnist_dir(directory)
    missing = [name for name in MNIST_FILES if not (d / name).exists()]
    if missing:
        raise FileNotFoundError(
            f"MNIST files missing under {d}: {', '.join(missing)}. "
            "Point MNIST_DIR at the IDX files or run the fetch-mnist command."
        )
    train = load_idx(d / MNIST_FILES[0], d / MNIST_FILES[1], as_bytes=True)
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
    if (np.abs(labels) == 1).all():
        return Dataset(feats, labels, num_classes=2)
    return Dataset(feats, labels, num_classes=int(labels.max()) + 1)


def synth_linear(n: int, dim: int, margin: float, seed: int) -> Dataset:
    """Linearly separable two-class Gaussian data with a fixed margin.

    Every sample sits at signed distance >= margin/2 from the separating
    hyperplane through the origin, so the class gap is at least ``margin``.
    Class labels are +1/-1, balanced to within one sample.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 < margin < np.inf:
        raise ValueError(f"margin must be finite and > 0, got {margin}")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    y = np.concatenate([np.ones(n // 2 + n % 2, dtype=np.int64), -np.ones(n // 2, dtype=np.int64)])
    rng.shuffle(y)
    feats = rng.normal(size=(n, dim))
    across = feats @ u
    along = y * (margin / 2.0 + np.abs(rng.normal(size=n)))
    # in place, a row block at a time, the same bits as z - outer(z @ u, u) + outer(along, u)
    for r in _row_blocks(n, dim):
        feats[r] -= np.outer(across[r], u)  # component orthogonal to the separator normal
        feats[r] += np.outer(along[r], u)
    return Dataset(feats, y, num_classes=2)


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
    sizes = plan.sizes(U, n)

    if plan.mode in ("iid", "unbalanced"):  # one permutation, cut at the shard sizes
        if min(sizes) < 1:
            raise ValueError(f"{plan.mode} plan needs >= 1 sample for each of U={U} clients, "
                             f"dataset has {n}")
        if sum(sizes) > n:
            raise ValueError(f"{plan.mode} plan needs {sum(sizes)} samples, dataset has {n}")
        return np.split(rng.permutation(n), np.cumsum(sizes))[:U]

    if np.any(dataset.labels < 0):
        raise ValueError("label_skew needs nonnegative class labels")
    lpc, size = plan.labels_per_client, sizes[0]
    if size < lpc:  # the plan's sizes are multiples of lpc, so only 0 is left
        raise ValueError(
            f"label_skew shard size must be a positive multiple of {lpc}, got {size}"
        )
    per_class = size // lpc
    subsets = _skew_subsets(dataset.num_classes, lpc, U, rng)
    pools = [rng.permutation(np.flatnonzero(dataset.labels == c))
             for c in range(dataset.num_classes)]
    taken = [0] * dataset.num_classes  # each class pool's cursor
    shards = []
    for subset in subsets:
        take = []
        for c in subset:
            have = len(pools[c]) - taken[c]
            if have < per_class:
                raise ValueError(
                    f"class {c} exhausted: need {per_class} more samples, have {have}"
                )
            take.append(pools[c][taken[c] : taken[c] + per_class])
            taken[c] += per_class
        shards.append(np.concatenate(take))
    return shards

