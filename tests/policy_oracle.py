"""Posterior-sampling reference for the Thompson policy: tests compare its
Monte Carlo estimate with the closed form in `banditstop.policies`.
"""

from __future__ import annotations

import numpy as np

from banditstop import RunningSums
from banditstop.linalg import inverse_spd


def thompson_sampled_probability(
    sums: RunningSums,
    x: np.ndarray,
    sigma_prior: float,
    rng: np.random.Generator,
    draws: int = 100_000,
) -> float:
    """Posterior-sampling estimate of P(x'b1_draw > x'b0_draw)."""
    b0 = sums.arm0.ols_estimate()
    b1 = sums.arm1.ols_estimate()
    if b0 is None or b1 is None:
        return 0.5
    x = np.asarray(x, dtype=float)
    mean_gap = float(x @ (b1 - b0))
    var = sigma_prior**2 * float(
        x @ inverse_spd(sums.arm0.xx) @ x + x @ inverse_spd(sums.arm1.xx) @ x
    )
    if var <= 0:
        return 1.0 if mean_gap > 0 else (0.0 if mean_gap < 0 else 0.5)
    gaps = mean_gap + np.sqrt(var) * rng.standard_normal(draws)
    return float(np.mean(gaps > 0))
