import math

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


def assert_within_inverse_variance_budget(hist, budget, q, dl):
    """The inverse noise variance spent over ``hist`` is within the budget + 1e-9."""
    spent = math.fsum(1.0 / (s * s) for s in hist)
    assert spent <= inverse_variance_budget(budget, q, dl) + 1e-9
