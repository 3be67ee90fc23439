"""Test-only oracles for exponential sums: the dense phase-matrix kernel with
one libm cos and one sin per term, and W(a/q + beta) from phases reduced
exactly in integers and rounded once."""

import numpy as np


def dense_cos_sin(m, values, t):
    """sum_m values e(t m) per point t: the phases t m, reduced by
    x - rint(x), then cos(2 pi x) @ values + i sin(2 pi x) @ values."""
    out = np.empty(len(t), dtype=complex)
    for i, point in enumerate(t):
        x = point * m
        x = 2 * np.pi * (x - np.rint(x))
        out[i] = np.cos(x) @ values + 1j * (np.sin(x) @ values)
    return out


def exact_arcs(w, q, a_values, betas):
    """W(a/q + beta) per (a, beta), with phase (a m phase mod q)/q + beta m
    phase mod 1 formed exactly (beta read as the binary fraction it is)."""
    mp = [int(m) * w.phase for m in w.support]
    out = np.zeros((len(a_values), len(betas)), dtype=complex)
    for j, beta in enumerate(betas):
        num, den = float(beta).as_integer_ratio()
        for i, a in enumerate(a_values):
            phases = [((int(a) * x % q) * den + q * (num * x % den)) % (q * den) / (q * den)
                      for x in mp]
            out[i, j] = np.sum(w.values * np.exp(2j * np.pi * np.array(phases, dtype=float)))
    return out
