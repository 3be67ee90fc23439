"""Test-only oracle for the Farey walk: the scalar continued-fraction walk on
alpha taken as an exact ``Fraction``, one point at a time."""

from fractions import Fraction
from typing import Union

from partitio.arcs import RationalApprox


def fraction_approx(alpha: Union[float, Fraction], q_max: int) -> RationalApprox:
    """Best rational approximation with denominator at most q_max.

    Walks the continued-fraction convergents of alpha (taken exactly, floats
    are converted to their binary rational); the last convergent with q <=
    q_max minimises |q*alpha - a| over all q <= q_max, and satisfies
    |q*alpha - a| <= 1/q_max.
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    x = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    if not 0 <= x <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {float(x)}")

    a0 = x.numerator // x.denominator
    p_prev, q_prev = 1, 0
    p_cur, q_cur = a0, 1
    rem = x - a0
    while rem != 0:
        x2 = 1 / rem
        a_i = x2.numerator // x2.denominator
        p_next = a_i * p_cur + p_prev
        q_next = a_i * q_cur + q_prev
        if q_next > q_max:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
        rem = x2 - a_i
    err = abs(q_cur * x - p_cur)
    return RationalApprox(a=int(p_cur), q=int(q_cur), err=float(err))
