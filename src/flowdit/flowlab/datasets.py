"""Deterministic 2-d toy distributions for flow-matching experiments."""

from __future__ import annotations

import numpy as np

DATASETS = ("eight_gaussians", "two_moons", "checkerboard")

# mode centres on a radius-4 circle, counter-clockwise from (4, 0)
EIGHT_CENTERS = 4.0 * np.stack(
    [np.cos(2.0 * np.pi * np.arange(8) / 8), np.sin(2.0 * np.pi * np.arange(8) / 8)],
    axis=-1,
)
EIGHT_STD = 0.2


def _eight_gaussians(n: int, rng: np.random.Generator) -> np.ndarray:
    comp = rng.integers(0, 8, n)
    return EIGHT_CENTERS[comp] + EIGHT_STD * rng.standard_normal((n, 2))


def _two_moons(n: int, rng: np.random.Generator) -> np.ndarray:
    # interleaved half circles, doubled so the spread matches the other toys
    lower = rng.integers(0, 2, n).astype(bool)
    ang = rng.uniform(0.0, np.pi, n)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    pts[lower] = np.stack([1.0 - np.cos(ang[lower]), 0.5 - np.sin(ang[lower])], axis=-1)
    return 2.0 * (pts + 0.1 * rng.standard_normal((n, 2)))


def _checkerboard(n: int, rng: np.random.Generator) -> np.ndarray:
    # 8 of the 16 cells of a 4x4 board over [-4, 4]^2, even (row+col) kept
    row = rng.integers(0, 4, n)
    col = 2 * rng.integers(0, 2, n) + row % 2
    u = rng.uniform(0.0, 1.0, (n, 2))
    return np.stack([-4.0 + 2.0 * (col + u[:, 0]), -4.0 + 2.0 * (row + u[:, 1])], axis=-1)


def toy_dataset(name: str, n: int, seed: int = 0) -> np.ndarray:
    """n points from a named toy distribution; identical for identical seeds."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    rng = np.random.default_rng(seed)
    if name == "eight_gaussians":
        return _eight_gaussians(n, rng)
    if name == "two_moons":
        return _two_moons(n, rng)
    if name == "checkerboard":
        return _checkerboard(n, rng)
    raise ValueError(f"unknown dataset {name!r}; choose from {DATASETS}")

