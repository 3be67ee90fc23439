"""Test-only oracle for count folds: one slice add over the whole output per
summand, on the same ladder of dtypes as counting._fold."""

import numpy as np

from partitio.counting import _INT64_MAX

_LADDER = [(np.int8, 127), (np.int16, 32767), (np.int32, 2147483647), (np.int64, _INT64_MAX)]


def fold(acc: np.ndarray, values: np.ndarray, N: int) -> np.ndarray:
    """out[m] = sum over v in values, v <= N, of acc[m - v], in any order of
    values.  An integer acc is cast to the first of int8, int16, int32 and
    int64 whose maximum is at least max(acc) times the number of values
    v <= N, or to object dtype past them all; object stays object, and bool
    += is logical or."""
    values = values[values <= N]
    if acc.dtype.kind == "i":
        bound = int(acc.max()) * len(values)
        fits = [t for t, most in _LADDER if bound <= most]
        acc = acc.astype(fits[0] if fits else object)
    out = np.zeros(N + 1, dtype=acc.dtype)
    for v in values.tolist():
        out[v : v + len(acc)] += acc[: N + 1 - v]
    return out
