"""Conditional flow-matching training for point-cloud toys.

2-d points ride through the image model as single-pixel two-channel images,
so the full transformer stack (embedding, attention, modulation, output
head) is exercised end to end. Gradients come from the built-in reverse-mode
tape. `train` works on one copy of the caller's parameter vector
(wrap_parameters), whose views are the tape's leaf Vars. Every step re-tapes
the forward pass from those Vars, copies their gradients into one flat
gradient, and updates the working vector in place with one optimiser
expression; at the end one copy writes it into the caller's vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from .. import dit, sampler

OPTIMIZERS = ("adam", "sgd")
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class DivergenceError(RuntimeError):
    """Raised when the training loss, a parameter gradient or an updated parameter stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch_size: int = 256
    lr: float = 2e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("steps", "batch_size"):  # a bool is an int
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")


def point_model_config(d_model: int = 32, n_layers: int = 2) -> dit.ModelConfig:
    """Model that treats a 2-d point as a 1x1 two-channel image (one token)."""
    if d_model < 1 or d_model % 4:
        raise ValueError(f"d_model must be a positive multiple of 4, got {d_model}")
    n_heads = math.gcd(4, d_model // 4)  # unread by one-token attention; keeps d_head a multiple of 4 (two rotary axes)
    return dit.ModelConfig(
        d_model=d_model,
        n_layers=n_layers,
        n_q_heads=n_heads,
        n_kv_heads=n_heads,
        patch=1,
        in_channels=2,
    )


def point_velocity(model: dit.ModelParams, points, t):
    """Velocity prediction on [batch, 2] points (scalar or per-sample t)."""
    batch = ad.val(points).shape[0]
    images = ad.reshape(points, (batch, 1, 1, 2))
    out = dit.forward_velocity(model, images, t)
    return ad.reshape(out, (batch, 2))


def cfm_loss(model: dit.ModelParams, x1_batch, t_batch, noise_batch):
    """Mean squared flow-matching error on one batch.

    x_t = (1-t) noise + t x1 and the regression target is x1 - noise; the
    loss is the batch mean of the squared L2 norm of the residual.
    """
    x1 = np.asarray(x1_batch, dtype=float)
    t = np.asarray(t_batch, dtype=float)
    noise = np.asarray(noise_batch, dtype=float)
    x_t = (1.0 - t)[:, None] * noise + t[:, None] * x1
    target = x1 - noise
    diff = ad.add(point_velocity(model, x_t, t), -target)
    return ad.mean(ad.sum_(ad.mul(diff, diff), axis=-1))


def wrap_parameters(model: dit.ModelParams) -> dit.ModelParams:
    """The same model on its own copy of the parameter vector, with every
    entry a tape Var around its view of that copy: train's working copy."""
    flat = model.flat.copy()
    views = dit.parameter_views(flat, model.params)
    return dit.ModelParams(model.config, flat, {name: ad.Var(view) for name, view in views.items()})


def grad(model: dit.ModelParams, loss: ad.Var) -> dict[str, np.ndarray]:
    """Backpropagate a scalar loss; returns name -> gradient for every leaf.

    The model must be Var-wrapped (wrap_parameters) and the loss built from
    it. Leaves the tape didn't reach get zero gradients.
    """
    if not isinstance(loss, ad.Var):
        raise TypeError("loss is not on the tape; build it from a wrapped model")
    leaves = dit.named_parameters(model)
    for _, leaf in leaves:
        if not isinstance(leaf, ad.Var):
            raise TypeError("model is not wrapped; call wrap_parameters first")
        leaf.grad = None
    loss.backward()
    return {
        name: np.zeros_like(leaf.value) if leaf.grad is None else leaf.grad
        for name, leaf in leaves
    }


def train(model: dit.ModelParams, data: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Optimise the model on a fixed dataset in place; returns the loss curve.

    Every step draws batch indices, fresh noise, and uniform t from one
    generator seeded by config.seed, so runs are reproducible bit for bit.
    The optimiser holds no per-parameter state: the gradient, Adam's m and
    v, and the working parameters are one vector each, in the model's
    layout, and each step runs its update once over them. Every update is
    elementwise, so it gives the bits of a per-parameter loop. The caller's
    vector is written once, after the last step, so a run that raises
    DivergenceError leaves the model as it was.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 1:
        raise ValueError(f"expected [n, 2] training points with n >= 1, got {data.shape}")
    rng = np.random.default_rng(config.seed)
    wrapped = wrap_parameters(model)
    flat = wrapped.flat  # every leaf Var's value is a view of it
    g, m, v = np.empty_like(flat), np.zeros_like(flat), np.zeros_like(flat)
    losses = np.empty(config.steps)
    for step in range(config.steps):
        idx = rng.integers(0, data.shape[0], config.batch_size)
        x1 = data[idx]
        noise = rng.standard_normal(x1.shape)
        t = rng.uniform(0.0, 1.0, config.batch_size)
        loss = cfm_loss(wrapped, x1, t, noise)
        loss_value = float(loss.value)
        if not np.isfinite(loss_value):
            raise DivergenceError(f"loss became {loss_value} at step {step}")
        losses[step] = loss_value
        grads = grad(wrapped, loss)
        np.concatenate([leaf_grad.ravel() for leaf_grad in grads.values()], out=g)
        if config.optimizer == "sgd":
            flat -= config.lr * g
        else:
            m = _BETA1 * m + (1.0 - _BETA1) * g
            v = _BETA2 * v + (1.0 - _BETA2) * g * g
            m_hat = m / (1.0 - _BETA1 ** (step + 1))
            v_hat = v / (1.0 - _BETA2 ** (step + 1))
            flat -= config.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        if not np.isfinite(flat).all():
            # a non-finite gradient always makes a non-finite value, under either optimizer
            name = next(name for name, leaf in wrapped.params.items() if not np.isfinite(leaf.value).all())
            cause = f"gradient of {name}" if not np.isfinite(grads[name]).all() else name
            raise DivergenceError(f"{cause} became non-finite at step {step}")
    model.flat[...] = flat
    return losses


def generate(model: dit.ModelParams, n: int, spec: sampler.ScheduleSpec, solver: str = "midpoint", seed: int = 0) -> np.ndarray:
    """Integrate n noise points through the learned field to t=1."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n, 2))
    return sampler.sample_flow(lambda x, t: point_velocity(model, x, t), x0, spec, solver)
