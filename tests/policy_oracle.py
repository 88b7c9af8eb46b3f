"""Posterior-sampling reference for the Thompson policy: tests compare its
Monte Carlo estimate with the closed form in `banditstop.policies`.
"""

from __future__ import annotations

import numpy as np

from banditstop import RunningSums
from banditstop.linalg import inverse_spd, is_invertible_gram, solve_spd


def thompson_sampled_probability(
    sums: RunningSums,
    x: np.ndarray,
    sigma_prior: float,
    rng: np.random.Generator,
    draws: int = 100_000,
) -> float:
    """Posterior-sampling estimate of P(x'b1_draw > x'b0_draw)."""
    if not is_invertible_gram(sums.xx).all():
        return 0.5
    b0, b1 = solve_spd(sums.xx[0], sums.xy[0]), solve_spd(sums.xx[1], sums.xy[1])
    x = np.asarray(x, dtype=float)
    mean_gap = float(x @ (b1 - b0))
    var = sigma_prior**2 * float(
        x @ inverse_spd(sums.xx[0]) @ x + x @ inverse_spd(sums.xx[1]) @ x
    )
    if var <= 0:
        return 1.0 if mean_gap > 0 else (0.0 if mean_gap < 0 else 0.5)
    gaps = mean_gap + np.sqrt(var) * rng.standard_normal(draws)
    return float(np.mean(gaps > 0))
