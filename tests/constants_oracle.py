"""Test-only oracles for ``partitio.constants``: a vectorised eta and the grid
minimisation that ``e_closed`` is checked against."""

import math

import numpy as np


def eta_array(t: np.ndarray) -> np.ndarray:
    """Vectorised ``constants.eta`` (same Newton scheme, fixed iteration count)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("all t must be positive")
    c = 1.0 - t
    y = np.minimum(1.0, np.exp(np.minimum(c, 0.0)))
    for _ in range(25):  # monotone from the right; quadratic well before 25
        f = y + np.log(y) - c
        y = y - f * y / (y + 1.0)
    return y


def e_oracle(sigma: float, phi: float, zeta: float, grid_step: float) -> float:
    """Grid minimisation of tau/gamma + 2*eta(sigma + tau)/phi over tau >= 0.

    The scan runs past gamma up to gamma + 1 + log((2*gamma + 1)/phi), which
    dominates any stationary point of the objective, so the grid minimum is
    the global one to within the grid resolution.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    gamma = sigma - zeta
    if gamma <= 0:
        raise ValueError("sigma - zeta must be positive")
    tau_stop = gamma + 1.0 + max(0.0, math.log((2.0 * gamma + 1.0) / phi))
    taus = np.arange(0.0, tau_stop + grid_step, grid_step)
    values = taus / gamma + 2.0 * eta_array(sigma + taus) / phi
    return float(values.min())
