"""Data loading, synthesis, and partitioning tests."""

import struct

import numpy as np
import pytest

from conftest import requires_mnist
from udpfl.data import (
    MNIST_FILES,
    Dataset,
    IdxParseError,
    PartitionPlan,
    _read_only,
    _skew_subsets,
    cut,
    gram_top,
    load_csv_dataset,
    load_idx,
    load_mnist,
    partition,
    stack,
    synth_linear,
)
from udpfl.models import ModelSpec, accuracy, local_update, loss


def make_idx_fixture(tmp_path):
    """Two 2x2 'images' with known bytes, labels 3 and 7."""
    pixels = bytes([0, 51, 102, 153, 204, 255, 10, 20])
    images = struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixels
    labels = struct.pack(">II", 0x00000801, 2) + bytes([3, 7])
    ip = tmp_path / "imgs"
    lp = tmp_path / "lbls"
    ip.write_bytes(images)
    lp.write_bytes(labels)
    return ip, lp, pixels


def test_idx_fixture_roundtrip(tmp_path):
    ip, lp, pixels = make_idx_fixture(tmp_path)
    ds = load_idx(ip, lp)
    assert len(ds) == 2 and ds.feature_dim == 4
    want = np.frombuffer(pixels, dtype=np.uint8).reshape(2, 4) / 255.0
    assert np.array_equal(ds.features, want)
    assert list(ds.labels) == [3, 7]
    assert ds.num_classes == 8  # max label + 1


def test_idx_bad_magic_mentions_offset(tmp_path):
    ip, lp, _ = make_idx_fixture(tmp_path)
    bad = tmp_path / "bad"
    bad.write_bytes(b"\x00\x00\x09\x99" + ip.read_bytes()[4:])
    with pytest.raises(IdxParseError, match="byte 0"):
        load_idx(bad, lp)


def test_idx_truncation_mentions_offset(tmp_path):
    ip, lp, _ = make_idx_fixture(tmp_path)
    cut = tmp_path / "cut"
    cut.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(IdxParseError, match="byte"):
        load_idx(cut, lp)


def test_idx_count_mismatch(tmp_path):
    ip, _, _ = make_idx_fixture(tmp_path)
    one = tmp_path / "one_label"
    one.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([3]))
    with pytest.raises(IdxParseError, match="mismatch"):
        load_idx(ip, one)


@requires_mnist
def test_mnist_shapes_and_ranges():
    train, test = load_mnist()
    assert len(train) == 60000 and len(test) == 10000
    assert train.feature_dim == 784 and train.num_classes == 10
    assert train.features.dtype == np.uint8  # the stored bytes, 0..255
    gathered = train.subset(np.arange(len(train))).features
    assert gathered.dtype == np.float64 and gathered.min() >= 0.0 and gathered.max() <= 1.0
    assert test.features.dtype == np.float64
    assert test.features.min() >= 0.0 and test.features.max() <= 1.0
    assert np.array_equal(np.unique(train.labels), np.arange(10))


def test_byte_pool_gathers_the_float_pools_rows_and_norms(mnist_like):
    every_byte = np.arange(256, dtype=np.uint8)
    as_read = Dataset(every_byte[None, :], np.zeros(1, dtype=np.int64), 2).float_rows()
    assert as_read.tobytes() == (every_byte.astype(np.float64) / 255.0).tobytes()
    images, labels = (mnist_like / name for name in MNIST_FILES[:2])
    pool = _read_only(load_idx(images, labels, as_bytes=True))
    assert pool.features.dtype == np.uint8 and pool.features.shape == (300, 784)
    # the float64 pool as it was parsed before the training pool kept its bytes
    pixels = np.frombuffer(images.read_bytes(), np.uint8, offset=16).reshape(300, 784)
    floats = _read_only(Dataset(pixels.astype(np.float64) / 255.0, pool.labels, 10))
    rows = np.random.default_rng(0).permutation(len(pool))[:120]
    gather, shards = cut(pool, [rows[:50], rows[50:]])
    assert gather.features.dtype == np.float64
    assert gather.features.tobytes() == floats.features[rows].tobytes()
    assert shards[1].features.tobytes() == floats.features[rows[50:]].tobytes()
    x = floats.features[rows]
    assert gather.sq_norms.tobytes() == (x * x).sum(1).tobytes()
    assert pool.sq_norms.tobytes() == floats.sq_norms.tobytes()
    # the training split stays bytes; the test split, which every round reads, is float64
    train, test = load_mnist(str(mnist_like))
    assert train.features.tobytes() == pool.features.tobytes()
    test_files = (mnist_like / name for name in MNIST_FILES[2:])
    assert test.features.tobytes() == load_idx(*test_files).features.tobytes()


def test_csv_loader(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n0.5,1.5,1\n-0.5,2.0,-1\n")
    ds = load_csv_dataset(p)
    assert ds.num_classes == 2 and list(ds.labels) == [1, -1]
    assert np.allclose(ds.features, [[0.5, 1.5], [-0.5, 2.0]])
    p2 = tmp_path / "m.csv"
    p2.write_text("a,y\n1.0,0\n2.0,2\n3.0,1\n")
    ds2 = load_csv_dataset(p2)
    assert ds2.num_classes == 3
    p3 = tmp_path / "frac.csv"
    p3.write_text("a,y\n1.0,0.5\n")
    with pytest.raises(ValueError, match="integral"):
        load_csv_dataset(p3)


@pytest.mark.parametrize(
    "y",
    [
        np.array([1, -1, 1]),
        np.array([1.0, -1.0]),
        np.array([True, True]),
        np.array([True, False]),
        np.array([1, 0]),
        np.array([2, -1]),
        np.array([-2, 1]),
        np.array([1.0, np.nan]),
        np.array([], dtype=np.int64),
    ],
    ids=["int", "float", "bool_true", "bool_mixed", "zero", "two", "minus_two", "nan", "empty"],
)
def test_signed_label_check_matches_isin(y):
    signed = bool(np.all(np.isin(y, (-1, 1))))
    assert bool((np.abs(y) == 1).all()) == signed
    if len(y) == 0:
        return
    spec = ModelSpec("svm", 1, kappa=0.01)
    X = np.ones((len(y), 1))
    if signed:
        loss(spec, np.zeros(1), X, y)
        assert Dataset(X, y, num_classes=2).num_classes == 2
    else:
        with pytest.raises(ValueError, match="svm labels must be"):
            loss(spec, np.zeros(1), X, y)


def test_synth_linear_balance_and_determinism():
    ds = synth_linear(101, 8, margin=0.5, seed=3)
    assert len(ds) == 101
    pos = int((ds.labels == 1).sum())
    assert abs(pos - (101 - pos)) <= 1
    ds2 = synth_linear(101, 8, margin=0.5, seed=3)
    assert np.array_equal(ds.features, ds2.features)
    assert np.array_equal(ds.labels, ds2.labels)
    ds3 = synth_linear(101, 8, margin=0.5, seed=4)
    assert not np.array_equal(ds.features, ds3.features)


def test_synth_linear_is_separable_by_training():
    ds = synth_linear(200, 10, margin=1.0, seed=5)
    spec = ModelSpec("svm", input_dim=10, kappa=1e-4, hinge="unit_margin")
    w = np.zeros(10)
    for _ in range(300):
        w = local_update(spec, w, ds.features, ds.labels, eta=0.05, clip=1e9)
    assert accuracy(spec, w, ds.features, ds.labels) == 1.0


def synth_linear_outer(n, dim, margin, seed):
    """The generator's formula with two full-size outer products: the reference."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    y = np.concatenate([np.ones(n // 2 + n % 2, dtype=np.int64), -np.ones(n // 2, dtype=np.int64)])
    rng.shuffle(y)
    z = rng.normal(size=(n, dim))
    z -= np.outer(z @ u, u)
    along = y * (margin / 2.0 + np.abs(rng.normal(size=n)))
    return z + np.outer(along, u), y


@pytest.mark.parametrize("n, dim", [(2, 1), (7, 3), (5000, 100), (600, 784)])
def test_synth_linear_in_place_matches_outer_product_formula(n, dim):
    # the larger shapes span several row blocks
    ds = synth_linear(n, dim, margin=0.7, seed=n + dim)
    feats, labels = synth_linear_outer(n, dim, 0.7, n + dim)
    assert ds.features.tobytes() == feats.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "make",
    [
        lambda X: X,
        lambda X: read_only(X),
        lambda X: read_only(np.asfortranarray(X)),
        lambda X: np.rint(X * 10).astype(np.int64),
        lambda X: read_only(X[:, :1].copy()),
    ],
    ids=["writable", "read_only", "fortran", "int", "one_column"],
)
def test_sq_norms_are_bitwise_row_sums_of_squares(make):
    # 3000 rows of 100 floats span three row blocks
    feats = make(np.random.default_rng(0).normal(size=(3000, 100)))
    ds = Dataset(feats, np.ones(3000, dtype=np.int64), 2)
    x = np.asarray(feats, dtype=float)
    assert ds.sq_norms.tobytes() == (x * x).sum(1).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        ds.sq_norms[0] = 0.0


def test_sq_norms_are_kept_only_for_read_only_rows():
    X = np.random.default_rng(1).normal(size=(50, 4))
    writable = Dataset(X, np.ones(50, dtype=np.int64), 2)
    before = writable.sq_norms
    X[0] *= 2.0
    assert writable.sq_norms[0] == 4.0 * before[0]  # computed again from the new rows
    assert writable.subset(slice(10)).rows_of is None
    frozen = Dataset(read_only(X.copy()), np.ones(50, dtype=np.int64), 2)
    assert frozen.sq_norms is frozen.sq_norms


def test_read_only_subsets_take_their_sources_sq_norms(monkeypatch):
    X = read_only(np.random.default_rng(2).normal(size=(40, 6)))
    source = Dataset(X, np.ones(40, dtype=np.int64), 2)
    rows = np.random.default_rng(3).permutation(40)[:25]
    gathered = source.subset(rows)
    gathered.features.flags.writeable = False
    view = gathered.subset(slice(5, 15))
    assert gathered.rows_of[0] is source and view.rows_of[0] is gathered
    assert view.sq_norms.tobytes() == (view.features * view.features).sum(1).tobytes()
    # the source computed its norms once, for every row; the subsets took theirs from it
    assert source._memo["sq_norms"].tobytes() == (X * X).sum(1).tobytes()
    assert np.shares_memory(view.sq_norms, gathered.sq_norms)
    assert gathered.sq_norms.tobytes() == source.sq_norms[rows].tobytes()


def make_multiclass(n_per_class, num_classes, seed=0):
    rng = np.random.default_rng(seed)
    n = n_per_class * num_classes
    feats = rng.normal(size=(n, 3))
    labels = np.repeat(np.arange(num_classes), n_per_class)
    order = rng.permutation(n)
    return Dataset(feats[order], labels[order], num_classes)


def assert_disjoint(shards):
    all_ids = np.concatenate(shards)
    assert len(np.unique(all_ids)) == len(all_ids)


def test_partition_iid_equal_shards():
    ds = make_multiclass(10, 10)  # 100 samples
    shards = partition(ds, PartitionPlan("iid"), U=10, seed=1)
    assert len(shards) == 10
    assert all(len(s) == 10 for s in shards)
    assert_disjoint(shards)
    again = partition(ds, PartitionPlan("iid"), U=10, seed=1)
    assert all(np.array_equal(a, b) for a, b in zip(shards, again))


def test_partition_iid_explicit_size_and_infeasible():
    ds = make_multiclass(10, 10)
    shards = partition(ds, PartitionPlan("iid", shard_size=7), U=5, seed=1)
    assert all(len(s) == 7 for s in shards)
    assert_disjoint(shards)
    with pytest.raises(ValueError, match="needs"):
        partition(ds, PartitionPlan("iid", shard_size=30), U=5, seed=1)
    # fewer rows than clients: no client may get an empty shard
    with pytest.raises(ValueError, match=r"iid plan needs >= 1 sample for each of U=101"):
        partition(ds, PartitionPlan("iid"), U=101, seed=1)


def test_partition_unbalanced_ratio():
    ds = make_multiclass(10, 10)
    plan = PartitionPlan("unbalanced", size_pattern=(4, 6, 8, 10, 12))
    shards = partition(ds, plan, U=10, seed=2)
    sizes = [len(s) for s in shards]
    assert sizes == [4, 4, 6, 6, 8, 8, 10, 10, 12, 12]
    assert_disjoint(shards)
    with pytest.raises(ValueError, match="divisible"):
        partition(ds, plan, U=7, seed=2)


def test_partition_label_skew_four_labels_each():
    # 10 classes x 200 each; 50 clients x 40 samples = perfect class packing
    ds = make_multiclass(200, 10, seed=9)
    plan = PartitionPlan("label_skew", shard_size=40)
    shards = partition(ds, plan, U=50, seed=3)
    assert len(shards) == 50
    assert_disjoint(shards)
    label_sets = []
    for s in shards:
        labels = ds.labels[s]
        values, counts = np.unique(labels, return_counts=True)
        assert len(values) == 4
        assert np.all(counts == 10)  # equal per-class counts
        label_sets.append(tuple(values))
    assert len(set(label_sets)) == 50  # all subsets distinct


def test_partition_label_skew_infeasible_class_pool():
    ds = make_multiclass(5, 10, seed=9)  # only 5 samples per class
    plan = PartitionPlan("label_skew", shard_size=40)
    with pytest.raises(ValueError, match="exhausted"):
        partition(ds, plan, U=50, seed=3)


def label_skew_lists(dataset, plan, U, seed):
    """The label-skew cut as Python lists of each class's permutation: the reference."""
    rng = np.random.default_rng(seed)
    per_class = plan.sizes(U, len(dataset))[0] // plan.labels_per_client
    subsets = _skew_subsets(dataset.num_classes, plan.labels_per_client, U, rng)
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
                    f"class {c} exhausted: need {per_class} more samples, have {len(pools[c])}"
                )
            take.extend(pools[c][:per_class])
            del pools[c][:per_class]
        shards.append(np.array(take, dtype=np.intp))
    return shards


@pytest.mark.parametrize(
    "per_class, classes, plan, U",
    [
        (200, 10, PartitionPlan("label_skew", shard_size=40), 50),
        (37, 10, PartitionPlan("label_skew"), 9),
        (30, 5, PartitionPlan("label_skew", shard_size=6, labels_per_client=3), 10),
        (5, 10, PartitionPlan("label_skew", shard_size=40), 50),  # a class runs out
    ],
    ids=["packed", "spare", "shuffled-subsets", "exhausted"],
)
def test_label_skew_partition_matches_the_list_reference(per_class, classes, plan, U):
    ds = make_multiclass(per_class, classes, seed=9)
    for seed in (3, 4):
        try:
            want = label_skew_lists(ds, plan, U, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                partition(ds, plan, U, seed)
            continue
        got = partition(ds, plan, U, seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_partition_is_pure_function_of_seed():
    ds = make_multiclass(200, 10, seed=9)
    plan = PartitionPlan("label_skew", shard_size=40)
    a = partition(ds, plan, U=20, seed=5)
    b = partition(ds, plan, U=20, seed=5)
    c = partition(ds, plan, U=20, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_plan_validation():
    with pytest.raises(ValueError, match="mode"):
        PartitionPlan("random")
    with pytest.raises(ValueError, match="shard_size"):
        PartitionPlan("iid", shard_size=0)
    # a label-skew shard holds equal counts of its labels, so its size is their multiple
    with pytest.raises(ValueError, match=r"shard_size must be a multiple of .* \(2\)"):
        PartitionPlan("label_skew", shard_size=41, labels_per_client=2)
    assert PartitionPlan("iid", shard_size=41, labels_per_client=2).shard_size == 41


@pytest.mark.parametrize(
    "plan, U",
    [
        (PartitionPlan("iid"), 7),
        (PartitionPlan("iid", shard_size=9), 7),
        (PartitionPlan("unbalanced", size_pattern=(4, 6, 8, 10, 12)), 10),
        (PartitionPlan("label_skew"), 10),  # 30 rows each, cut to 28 = 7 per label
        (PartitionPlan("label_skew", shard_size=12), 20),
    ],
    ids=["iid", "iid-shard_size", "unbalanced", "label_skew", "label_skew-shard_size"],
)
def test_plan_sizes_are_the_partitions_shard_lengths(plan, U):
    ds = make_multiclass(30, 10, seed=4)  # 300 rows
    assert plan.sizes(U, len(ds)) == [len(idx) for idx in partition(ds, plan, U, seed=2)]
    # without the pool's row count, exactly the sizes that depend on it are unknown
    depends_on_n = plan.mode != "unbalanced" and plan.shard_size is None
    assert plan.sizes(U) == ([None] * U if depends_on_n else plan.sizes(U, len(ds)))


@pytest.mark.parametrize(
    "shard_idx, covers",
    [
        ([np.arange(5), np.arange(5)], False),  # as many rows as the pool, 5 of them distinct
        ([np.arange(5, 10), np.arange(3), np.arange(3, 5)], True),
        ([np.arange(4), np.arange(6, 10)], False),
    ],
    ids=["repeated", "every_row", "short"],
)
def test_a_cut_shares_its_pools_gram_only_if_it_holds_every_pool_row(shard_idx, covers):
    X = np.random.default_rng(6).normal(size=(10, 3))
    pool = _read_only(Dataset(X, np.where(np.arange(10) % 2, 1, -1), 2))
    gather, shards = cut(pool, shard_idx)
    assert stack(shards) is gather
    x = (pool if covers else gather).float_rows()
    assert gram_top(stack(shards)) == float(np.linalg.eigvalsh(x.T @ x / len(x)).max())
    assert ("gram_top" in pool._memo) is covers and ("gram_top" in gather._memo) is not covers
