"""Timestep schedules and explicit ODE solvers for flow-matching sampling.

Time runs from 0 (noise) to 1 (data). A schedule warps the uniform grid
i/N through a monotone reparameterisation; solvers then integrate
dx/dt = v(x, t) across consecutive grid nodes. `sample_flow` runs every
solver through the generic Runge-Kutta driver on its tableau. The
dedicated Euler and midpoint loops are kept as references: the driver
reproduces them bit for bit because it forms the products h*A[i,j] and
h*b[i] the same way and skips zero entries outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("uniform", "rational", "sigmoid")
SCHEDULE_FORMS = ("paper_literal", "endpoint_normalized")


@dataclass(frozen=True)
class ScheduleSpec:
    """A warp of the uniform grid over [0, 1].

    rational: low-sigma spends steps near t=0 (noise side), high sigma near
    t=1. sigmoid: a piecewise logistic with separate left/right sharpness
    alpha, beta around the crossover mu; both branches equal 1/2 at t=mu.
    """

    kind: str = "uniform"
    n_steps: int = 50
    form: str = "endpoint_normalized"
    sigma: float = 1.0
    mu: float = 0.6
    alpha: float = 6.0
    beta: float = 20.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.form not in SCHEDULE_FORMS:
            raise ValueError(f"unknown schedule form {self.form!r}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")
        if self.kind == "rational":
            if self.form == "paper_literal" and self.sigma <= 0.5:
                # t/(sigma + t*(sigma-1)) has a pole in [0,1] at sigma <= 1/2
                raise ValueError(f"rational warp needs sigma > 0.5, got {self.sigma}")
            if self.sigma <= 0.0:
                raise ValueError(f"rational warp needs sigma > 0, got {self.sigma}")
        if self.kind == "sigmoid":
            if not 0.0 < self.mu < 1.0:
                raise ValueError(f"mu must lie inside (0,1), got {self.mu}")
            if self.alpha <= 0.0 or self.beta <= 0.0:
                raise ValueError("sigmoid sharpness alpha, beta must be positive")


def rational_warp(t, sigma: float, form: str = "endpoint_normalized"):
    """The rational grid warp. sigma=1 is the identity bitwise in both forms."""
    t = np.asarray(t, dtype=float)
    if form == "paper_literal":
        return t / (sigma + t * (sigma - 1.0))
    return sigma * t / (1.0 + (sigma - 1.0) * t)


def sigmoid_warp(t, mu: float, alpha: float, beta: float):
    """Piecewise-logistic warp; both branches take the value 1/2 at t=mu."""
    t = np.asarray(t, dtype=float)
    left = 1.0 / (1.0 + np.exp(-alpha * (t - mu)))
    right = 1.0 - 1.0 / (1.0 + np.exp(beta * (t - mu)))
    return np.where(t < mu, left, right)


def schedule_points(spec: ScheduleSpec) -> np.ndarray:
    """The N+1 grid nodes t_0 < ... < t_N produced by the warp."""
    t = np.arange(spec.n_steps + 1, dtype=float) / spec.n_steps
    if spec.kind == "uniform":
        out = t
    elif spec.kind == "rational":
        out = rational_warp(t, spec.sigma, spec.form)
    else:
        out = sigmoid_warp(t, spec.mu, spec.alpha, spec.beta)
        if spec.form == "endpoint_normalized":
            lo = sigmoid_warp(0.0, spec.mu, spec.alpha, spec.beta)
            hi = sigmoid_warp(1.0, spec.mu, spec.alpha, spec.beta)
            out = (out - lo) / (hi - lo)
    if not np.all(np.diff(out) > 0.0):
        raise ValueError(f"schedule is not strictly increasing: {spec}")
    return out


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """An explicit Runge-Kutta method (A strictly lower triangular)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def validate(self) -> None:
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        stages = b.shape[0]
        if a.shape != (stages, stages) or c.shape != (stages,):
            raise ValueError(f"inconsistent tableau shapes {a.shape}, {b.shape}, {c.shape}")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("tableau is not explicit: A has entries on or above the diagonal")
        if abs(b.sum() - 1.0) > 1e-12:
            raise ValueError(f"tableau weights sum to {b.sum()!r}, not 1")
        if np.max(np.abs(c - a.sum(axis=1))) > 1e-12:
            raise ValueError("tableau nodes c_i do not match row sums of A")


EULER = ButcherTableau(
    a=np.array([[0.0]]),
    b=np.array([1.0]),
    c=np.array([0.0]),
)

MIDPOINT = ButcherTableau(
    a=np.array([[0.0, 0.0], [0.5, 0.0]]),
    b=np.array([0.0, 1.0]),
    c=np.array([0.0, 0.5]),
)

RK4 = ButcherTableau(
    a=np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    ),
    b=np.array([1.0, 2.0, 2.0, 1.0]) / 6.0,
    c=np.array([0.0, 0.5, 0.5, 1.0]),
)

TABLEAUS = {"euler": EULER, "midpoint": MIDPOINT, "rk4": RK4}


def euler_sample(v, x0, ts: np.ndarray):
    """N forward-Euler steps across the grid; N velocity evaluations."""
    x = np.asarray(x0, dtype=float)
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        x = x + h * v(x, ts[i])
    return x


def midpoint_sample(v, x0, ts: np.ndarray):
    """Explicit midpoint: half step to probe, full step with the probe slope.

    2N velocity evaluations for N intervals.
    """
    x = np.asarray(x0, dtype=float)
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        k1 = v(x, ts[i])
        xm = x + (h * 0.5) * k1
        k2 = v(xm, ts[i] + 0.5 * h)
        x = x + h * k2
    return x


def rk_sample(tableau: ButcherTableau, v, x0, ts: np.ndarray):
    """Generic explicit Runge-Kutta driver over the schedule grid.

    Zero tableau entries are skipped, so degenerate tableaus reproduce the
    dedicated loops bit for bit (no spurious +0.0*k terms).
    """
    tableau.validate()
    a, b, c = tableau.a, tableau.b, tableau.c
    stages = len(b)
    x = np.asarray(x0, dtype=float)
    for i in range(len(ts) - 1):
        t0 = ts[i]
        h = ts[i + 1] - t0
        ks = []
        for si in range(stages):
            xi = x
            for sj in range(si):
                if a[si, sj] != 0.0:
                    xi = xi + (h * a[si, sj]) * ks[sj]
            ti = t0 if c[si] == 0.0 else t0 + c[si] * h
            ks.append(v(xi, ti))
        for si in range(stages):
            if b[si] != 0.0:
                x = x + (h * b[si]) * ks[si]
    return x


def sample_flow(v, x0, spec: ScheduleSpec, solver: str = "midpoint"):
    """Integrate from noise (t=0) to data (t=1) on the warped grid."""
    ts = schedule_points(spec)
    if solver not in TABLEAUS:
        raise ValueError(f"unknown solver {solver!r}")
    return rk_sample(TABLEAUS[solver], v, x0, ts)


def cfg_velocity(v_cond, v_uncond, guidance: float):
    """Classifier-free guidance mix: vu + w * (vc - vu)."""
    def mixed(x, t):
        vu = v_uncond(x, t)
        return vu + guidance * (v_cond(x, t) - vu)

    return mixed


def dense_trajectory(v, x0, ts: np.ndarray, substeps: int = 100) -> list:
    """States at every grid node, integrated with `substeps` Euler substeps
    per interval. The reference path for the error diagnostics below."""
    if substeps < 1:
        raise ValueError(f"need at least one substep, got {substeps}")
    x = np.asarray(x0, dtype=float)
    nodes = [x]
    for i in range(len(ts) - 1):
        h = (ts[i + 1] - ts[i]) / substeps
        for j in range(substeps):
            x = x + h * v(x, ts[i] + j * h)
        nodes.append(x)
    return nodes


def _batch_mean_norm(d: np.ndarray) -> float:
    d = np.asarray(d, dtype=float)
    if d.ndim == 1:
        return float(np.linalg.norm(d))
    return float(np.mean(np.linalg.norm(d.reshape(d.shape[0], -1), axis=1)))


def truncation_error_profile(v, x0, n_anchor: int = 50, substeps: int = 100) -> np.ndarray:
    """Per-step one-Euler-step error against the dense reference path.

    tau_i = batch-mean L2 distance between the dense solution at t_{i+1}
    and a single Euler step launched from the dense state at t_i. Scales
    as O(h^2) under grid refinement. Large early values flag noise-side
    curvature that a step-size warp should absorb.

    For a Gaussian target N(m, s^2 I) the profile peaks at t* = 1/(1+s^2),
    so contracting targets (s < 1) peak at the data end, not the noise end.
    """
    if n_anchor < 1:
        raise ValueError(f"need at least one anchor interval, got {n_anchor}")
    ts = np.arange(n_anchor + 1, dtype=float) / n_anchor
    nodes = dense_trajectory(v, x0, ts, substeps)
    taus = np.empty(n_anchor)
    for i in range(n_anchor):
        h = ts[i + 1] - ts[i]
        xhat = nodes[i] + h * v(nodes[i], ts[i])
        taus[i] = _batch_mean_norm(nodes[i + 1] - xhat)
    return taus


def curvature_profile(v, x0, n_anchor: int = 50, substeps: int = 100) -> np.ndarray:
    """Second-difference curvature of the dense path at interior anchors.

    kappa_i = batch-mean L2 norm of x_i - (x_{i+1} + x_{i-1})/2 for
    i = 1 .. N-1; exactly zero for straight-line trajectories.
    """
    if n_anchor < 3:
        raise ValueError(f"need at least 3 anchor intervals, got {n_anchor}")
    ts = np.arange(n_anchor + 1, dtype=float) / n_anchor
    nodes = dense_trajectory(v, x0, ts, substeps)
    kappas = np.empty(n_anchor - 1)
    for i in range(1, n_anchor):
        mid = 0.5 * (nodes[i + 1] + nodes[i - 1])
        kappas[i - 1] = _batch_mean_norm(nodes[i] - mid)
    return kappas
