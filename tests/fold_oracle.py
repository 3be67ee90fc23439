"""Test-only oracle for count folds: one slice add over the whole output per
summand, with the same int64/object guard as counting._fold."""

import numpy as np

from partitio.counting import _INT64_MAX


def fold(acc: np.ndarray, values: np.ndarray, N: int) -> np.ndarray:
    """out[m] = sum over v in values, v <= N, of acc[m - v], in any order of
    values; int64 widens to object dtype where max(acc) times the number of
    values v <= N passes 2**63 - 1, and bool += is logical or."""
    values = values[values <= N]
    if acc.dtype != object and int(acc.max()) * len(values) > _INT64_MAX:
        acc = acc.astype(object)
    out = np.zeros(N + 1, dtype=acc.dtype)
    for v in values.tolist():
        out[v : v + len(acc)] += acc[: N + 1 - v]
    return out
