"""Test-only oracle for zero sets: boolean folds of the y-values, then a sieve
of an int64 candidate list by the x-values, with no table over the x fold."""

import numpy as np

from partitio.counting import _fold, _summands


def sieve_zero_set(k: int, s: int, N: int, **kwargs) -> list[int]:
    """All n in [1, N] with no representation, under the keyword conventions
    of representation_counts.  Builds no count table: the sums of s y-values
    are marked in a boolean array, then each x-value in ascending order
    strikes the candidates n >= x with n - x marked."""
    kernel, xv = _summands(k, s, N, **kwargs)
    reach = np.zeros(N + 1, dtype=bool)
    reach[0] = True
    for _ in range(s):
        reach = _fold(reach, kernel, N)  # bool += is logical or
    if xv is None:
        return (np.flatnonzero(~reach[1:]) + 1).tolist()
    cand = np.arange(1, N + 1, dtype=np.int64)
    for v in xv.tolist():
        i = int(np.searchsorted(cand, v))
        upper = cand[i:]
        cand = np.concatenate([cand[:i], upper[~reach[upper - v]]])
        if i == len(cand):  # every candidate lies below v and the later x-values
            break
    return cand.tolist()
