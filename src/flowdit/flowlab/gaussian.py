"""Closed-form Gaussian flows: exact marginal velocities for solver studies.

The linear interpolation x_t = (1-t) x0 + t x1 between x0 ~ N(0, I) and an
independent x1 ~ N(m, s^2 I) has Gaussian marginals N(t m, q(t) I) with
q(t) = (1-t)^2 + (t s)^2, and the marginal velocity field

    v(x, t) = m + g(t) (x - t m),   g(t) = (t s^2 - (1 - t)) / q(t),

which integrates noise into N(m, s^2 I) exactly. Because everything is in
closed form, these flows serve as ground truth for step-size schedules,
solver orders, and truncation-error profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianFlowSpec:
    """Target N(mean, std^2 I); the source is always standard normal."""

    mean: tuple
    std: float

    def __post_init__(self):
        if not 0.0 < self.std < np.inf:
            raise ValueError(f"target std must be positive and finite, got {self.std}")
        if self.mean_vec.size == 0:
            raise ValueError("target mean needs at least one coordinate")
        if not np.isfinite(self.mean_vec).all():
            raise ValueError(f"target mean must be finite, got {self.mean}")

    @property
    def mean_vec(self) -> np.ndarray:
        return np.asarray(self.mean, dtype=float)


def marginal_variance(spec: GaussianFlowSpec, t) -> np.ndarray:
    """q(t) = (1-t)^2 + (t s)^2, the per-coordinate marginal variance."""
    t = np.asarray(t, dtype=float)
    return (1.0 - t) ** 2 + (t * spec.std) ** 2


def velocity(spec: GaussianFlowSpec):
    """The marginal velocity field as a callable v(x, t)."""
    m = spec.mean_vec
    s2 = spec.std * spec.std

    def v(x, t):
        x = np.asarray(x, dtype=float)
        g = (t * s2 - (1.0 - t)) / marginal_variance(spec, t)
        return m + g * (x - t * m)

    return v


def source_sample(spec: GaussianFlowSpec, n: int, seed: int = 0) -> np.ndarray:
    """n draws from the source N(0, I)."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, spec.mean_vec.size))

