"""Probes of the numpy and BLAS properties that the round engine's bit-identity rests on.

Each test checks one property of the platform (numpy 2.4, OpenBLAS 0.3.31 when
written) and its failure message names the engine code that needs it, so that an
upgrade that breaks one shows here by name rather than as a bitwise mismatch in
the engine's own tests.
"""

import numpy as np
import pytest

# (rows, fan_out) deltas times a (fan_in, fan_out) layer's transposed weights, as the
# softmax network's backward multiplies them; the MNIST network's 10 x 32 among them
LAYERS = [(1, 1), (2, 1), (3, 4), (4, 5), (2, 7), (10, 32), (10, 100)]
# row ranges of a 97-row batch, each of two rows or more: numpy sends a lone row to gemv
RANGES = [(0, 2), (2, 5), (5, 9), (9, 17), (17, 48), (48, 97), (1, 96), (0, 97)]


@pytest.mark.parametrize("fan_out, fan_in", LAYERS)
def test_row_major_gemm_rows_do_not_depend_on_the_rows_per_call(fan_out, fan_in):
    rng = np.random.default_rng(fan_out * 1000 + fan_in)
    P = rng.normal(size=(97, fan_out))
    W = rng.normal(size=(fan_in, fan_out))
    whole = P @ W.T
    need = (
        "federation.run_round runs models._backward once per run of consecutive selected "
        "clients and relies on a row-major GEMM row keeping its bits whatever the rows "
        "beside it, so that each client's step equals local_update's over its own rows"
    )
    for a, b in RANGES:
        part = P[a:b] @ W.T
        where = f"rows {a}:{b} of a ({fan_out}, {fan_in}) layer"
        assert part.tobytes() == whole[a:b].tobytes(), f"{where}: {need}"
    # models._backward doubles a lone row to keep it on the gemm path
    for i in (0, 50, 96):
        doubled = np.repeat(P[i : i + 1], 2, axis=0) @ W.T
        assert doubled[0].tobytes() == whole[i].tobytes(), f"doubled row {i}: {need}"
