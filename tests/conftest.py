import importlib.util
import math
import sys
from pathlib import Path

import pytest

from udpfl.accountant import inverse_variance_budget
from udpfl.data import MNIST_FILES, mnist_dir


def mnist_present() -> bool:
    d = mnist_dir()
    return all((d / name).exists() for name in MNIST_FILES)


requires_mnist = pytest.mark.skipif(
    not mnist_present(),
    reason="MNIST IDX files not found (set MNIST_DIR or run the fetch-mnist command)",
)


@pytest.fixture
def mnist_like(tmp_path):
    """A directory of MNIST-format IDX files, 300 training and 50 test images,
    written by the benchmark's generator (``perfbench/workloads.py``, loaded read-only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    workloads.write_mnist_like(tmp_path / "mnist", 1, n_train=300, n_test=50)
    return tmp_path / "mnist"


def assert_within_inverse_variance_budget(hist, budget, q, dl):
    """The inverse noise variance spent over ``hist`` is within the budget + 1e-9."""
    spent = math.fsum(1.0 / (s * s) for s in hist)
    assert spent <= inverse_variance_budget(budget, q, dl) + 1e-9
