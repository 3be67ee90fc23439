"""Test-only oracle for the Gauss-sum layer: S(q, a) at one a, and the table of
A_m(q) by the FFT at every q, with no closed form at any prime power."""

from math import gcd

import numpy as np

from partitio.arith import coprime_mask
from partitio.singular import _gauss_sums_all


def gauss_sum(q: int, a: int, k: int) -> complex:
    """S(q, a) = sum_{x=1..q} e(a x^k / q), with (a, q) = 1."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if gcd(a, q) != 1:
        raise ValueError(f"a and q must be coprime, got ({a}, {q})")
    return complex(_gauss_sums_all(q, k)[a % q])


def fft_table(q: int, k: int, s: int) -> np.ndarray:
    """A_m(q), m = 0..q-1: the DFT of S(q, a)^s over a coprime to q, its
    imaginary residue checked against a q**s-scaled tolerance and dropped."""
    S = _gauss_sums_all(q, k)
    A = np.fft.fft(np.where(coprime_mask(q)[:q], S**s, 0))
    worst = np.abs(A.imag).max()
    if worst > 1e-9 * max(1.0, float(q) ** s):
        raise ArithmeticError(f"A_m({q}) imaginary part {worst} too large")
    return A.real.copy()
