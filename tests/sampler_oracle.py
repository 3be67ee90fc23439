"""Test-only oracles for the slice sampler and the major-arc moment, one
denominator at a time: one coprime mask per q (trial division over every
integer up to sqrt(rest)) and one ``rng.choice`` from its listed residues.
The library's array passes must match them bit for bit, generator state
included."""

import math

import numpy as np

from partitio.arcs import Dissection
from partitio.counting import _arc_integrals


def trial_division_mask(q: int) -> np.ndarray:
    """mask[a] is gcd(a, q) == 1 for a = 0..q, striding out each prime factor."""
    mask, rest, p = np.ones(q + 1, dtype=bool), q, 2
    while rest > 1:
        p = p if p * p <= rest else rest  # no factor up to sqrt(rest): rest is prime
        if rest % p == 0:
            mask[::p] = False
            while rest % p == 0:
                rest //= p
        p += 1
    return mask


def _coprime_residues(q: int, rng: np.random.Generator) -> np.ndarray:
    """The a in [0, q] coprime to q, thinned to 4 random ones."""
    a = np.flatnonzero(trial_division_mask(q))
    return rng.choice(a, size=4, replace=False) if len(a) > 4 else a


def sample_slice_alphas(n: int, Q: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """The stratified sample from N(Q), one denominator at a time."""
    d = Dissection(n)
    qlo = int(math.floor(Q / 4))
    qhi = max(1, int(math.floor(min(Q, d.full_height))))

    if qhi - qlo <= 80:
        qs = np.arange(qlo + 1, qhi + 1)
    else:
        qs = np.unique(qlo + 1 + rng.choice(qhi - qlo, size=80, replace=False))
    offsets = np.array([0.0, 0.25, -0.25, 0.625, -0.625, 0.875, -0.875])
    pieces = [np.empty(0)]
    for q in qs:
        q = int(q)
        deltas = offsets * (d.cap(Q) / (q * n)) * 0.999
        pieces.append(((_coprime_residues(q, rng) / q)[:, None] + deltas).ravel())

    vlo, vhi = d.cap(Q / 4), d.cap(Q)
    if qlo >= 1 and vhi > vlo * 1.001:
        if qlo <= 40:
            rim_qs = np.arange(1, qlo + 1)
        else:
            rim_qs = np.unique(
                np.concatenate([np.arange(1, 9), 1 + rng.choice(qlo, size=32, replace=False)])
            )
        rim_vs = np.geomspace(vlo * 1.02, vhi * 0.999, 4)
        steps = np.multiply.outer(rim_vs, (1.0, -1.0)).ravel()
        for q in rim_qs:
            q = int(q)
            pieces.append(((_coprime_residues(q, rng) / q)[:, None] + steps / (q * n)).ravel())

    cand = np.concatenate(pieces)
    cand = cand[(0.0 <= cand) & (cand <= 1.0)]
    out = cand[d.in_slice_many(cand, Q)]

    draws = rng.random(max(8, int(count * 0.25)) * 4)
    need = count * 4 - len(out)
    if need > 0:
        out = np.concatenate([out, draws[d.in_slice_many(draws, Q)][:need]])

    arr = np.sort(out)
    if len(arr) > count:
        idx = np.unique(np.round(np.linspace(0, len(arr) - 1, count)).astype(int))
        arr = arr[idx]
    return arr


def major_arc_moment(w, t: int, Q: float, n: int, exact_q: int = 48, band_q_samples: int = 40,
                     band_a_samples: int = 16, seed: int = 0) -> float:
    """The |W|^t integral over M(Q), one denominator at a time."""
    d = Dissection(n)
    qmax = int(math.floor(min(Q, d.full_height)))
    cap = d.cap(Q)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = 0.0

    for q in range(1, min(exact_q, qmax) + 1):
        a_values = np.flatnonzero(trial_division_mask(q))
        total += float(_arc_integrals(w, t, n, q, a_values, cap / q).sum())

    lo = exact_q
    while lo < qmax:
        hi = min(qmax, 2 * lo)
        qs_all = np.arange(lo + 1, hi + 1)
        qs = qs_all
        if len(qs_all) > band_q_samples:
            qs = qs_all[np.unique(np.linspace(0, len(qs_all) - 1, band_q_samples).astype(int))]
        per_q = []
        for q in qs.tolist():
            coprime = np.flatnonzero(trial_division_mask(q))
            totient = len(coprime)
            if totient > band_a_samples:
                coprime = sorted(rng.choice(coprime, size=band_a_samples, replace=False))
            vals = _arc_integrals(w, t, n, q, coprime, cap / q)
            per_q.append(totient * float(vals.mean()))
        total += float(np.mean(per_q)) * len(qs_all)
        lo = hi
    return total
