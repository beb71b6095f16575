"""Flow-matching experiment lab: exact Gaussian flows, 2-d toys, training."""

from .datasets import DATASETS, EIGHT_CENTERS, EIGHT_STD, toy_dataset
from .gaussian import GaussianFlowSpec, marginal_variance, source_sample, velocity
from .metrics import energy_distance
from .training import (
    DivergenceError,
    TrainConfig,
    cfm_loss,
    generate,
    grad,
    point_model_config,
    point_velocity,
    train,
    wrap_parameters,
)

__all__ = [
    "DATASETS",
    "EIGHT_CENTERS",
    "EIGHT_STD",
    "DivergenceError",
    "GaussianFlowSpec",
    "TrainConfig",
    "cfm_loss",
    "energy_distance",
    "generate",
    "grad",
    "marginal_variance",
    "point_model_config",
    "point_velocity",
    "source_sample",
    "toy_dataset",
    "train",
    "velocity",
    "wrap_parameters",
]
