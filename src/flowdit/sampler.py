"""Timestep schedules and explicit ODE solvers for flow-matching sampling.

Time runs from 0 (noise) to 1 (data). A schedule warps the uniform grid
i/N through a monotone reparameterisation; solvers then integrate
dx/dt = v(x, t) across consecutive grid nodes. `rk_sample`, the generic
Runge-Kutta driver, is the only integrator: `sample_flow` runs every
solver through it on the solver's tableau, and `error_profiles` crosses
its dense reference path and takes its one-step probes with it on the
Euler tableau. The dedicated Euler and midpoint loops live in the tests
as oracles; the driver reproduces them bit for bit because it forms the
products h*A[i,j] and h*b[i] the same way and skips zero entries outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# what each warp kind reads, ignoring the rest: ScheduleSpec fields, and form, a schedule_points argument
SCHEDULE_FIELDS = {"uniform": (), "rational": ("form", "sigma"), "sigmoid": ("form", "mu", "alpha", "beta")}
SCHEDULE_KINDS = tuple(SCHEDULE_FIELDS)
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
    sigma: float = 1.0
    mu: float = 0.6
    alpha: float = 6.0
    beta: float = 20.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # a fractional count would carry the grid past t = 1; a bool is an int
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        if self.kind == "rational" and not 0.0 < self.sigma < np.inf:
            raise ValueError(f"rational warp needs a finite sigma > 0, got {self.sigma}")
        if self.kind == "sigmoid":
            if not 0.0 < self.mu < 1.0:
                raise ValueError(f"mu must lie inside (0,1), got {self.mu}")
            if not (0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf):
                raise ValueError(f"sigmoid alpha, beta must be finite and > 0, got {self.alpha}, {self.beta}")


def rational_warp(t, sigma: float, form: str = "endpoint_normalized"):
    """The rational grid warp. sigma=1 is the identity bitwise in both forms."""
    t = np.asarray(t, dtype=float)
    if form == "paper_literal":
        return t / (sigma + t * (sigma - 1.0))
    # sigma*t / (1 + (sigma-1)*t) rearranged so that t = 1 maps to exactly 1;
    # sigma - 1 is inexact below sigma = 0.5
    return sigma * t / (sigma * t + (1.0 - t))


def sigmoid_warp(t, mu: float, alpha: float, beta: float):
    """Piecewise-logistic warp; both branches take the value 1/2 at t=mu."""
    t = np.asarray(t, dtype=float)
    left = 1.0 / (1.0 + np.exp(-alpha * (t - mu)))
    right = 1.0 - 1.0 / (1.0 + np.exp(beta * (t - mu)))
    return np.where(t < mu, left, right)


def schedule_points(spec: ScheduleSpec, form: str = "endpoint_normalized") -> np.ndarray:
    """The N+1 grid nodes t_0 < ... < t_N produced by the warp.

    The endpoint-normalized grid, the one `sample_flow` integrates, runs from
    exactly 0.0 to exactly 1.0. form="paper_literal" gives the published
    rational and sigmoid warps verbatim: the rational grid ends at 1/(2 sigma - 1)
    and needs sigma > 0.5, the sigmoid grid starts after 0 and ends before 1.
    """
    if form not in SCHEDULE_FORMS:
        raise ValueError(f"unknown schedule form {form!r}")
    if form == "paper_literal" and spec.kind == "rational" and spec.sigma <= 0.5:
        # t/(sigma + t*(sigma-1)) has a pole in [0,1] at sigma <= 1/2
        raise ValueError(f"rational warp needs sigma > 0.5, got {spec.sigma}")
    t = np.arange(spec.n_steps + 1, dtype=float) / spec.n_steps
    if spec.kind == "uniform":
        out = t
    elif spec.kind == "rational":
        out = rational_warp(t, spec.sigma, form)
    else:
        out = sigmoid_warp(t, spec.mu, spec.alpha, spec.beta)
        if form == "endpoint_normalized":
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

    def __post_init__(self):
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


def rk_sample(tableau: ButcherTableau, v, x0, ts: np.ndarray):
    """Generic explicit Runge-Kutta driver over the schedule grid.

    Zero tableau entries are skipped, so degenerate tableaus reproduce the
    dedicated loops bit for bit (no spurious +0.0*k terms). A velocity
    evaluation that is not finite everywhere raises FloatingPointError
    naming its step and time.
    """
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
            k = v(xi, ti)
            # the extremes carry any NaN or inf and, unlike isfinite(k).all(), need
            # no k-sized temporary: one per NFE measurably slowed image NFEs.
            # initial=0.0 keeps an empty batch legal
            if not (np.isfinite(np.min(k, initial=0.0)) and np.isfinite(np.max(k, initial=0.0))):
                raise FloatingPointError(f"non-finite velocity at step {i}, t={float(ti)!r}")
            ks.append(k)
        for si in range(stages):
            if b[si] != 0.0:
                x = x + (h * b[si]) * ks[si]
    return x


def sample_flow(v, x0, spec: ScheduleSpec, solver: str = "midpoint"):
    """Integrate from noise (t=0) to data (t=1) on the warp's endpoint-normalized grid."""
    if solver not in TABLEAUS:
        raise ValueError(f"unknown solver {solver!r}")
    return rk_sample(TABLEAUS[solver], v, x0, schedule_points(spec))


def cfg_velocity(v_cond, v_uncond, guidance: float):
    """Classifier-free guidance mix: vu + w * (vc - vu)."""
    def mixed(x, t):
        vu = v_uncond(x, t)
        return vu + guidance * (v_cond(x, t) - vu)

    return mixed


def dense_trajectory(v, x0, ts: np.ndarray, substeps: int = 100) -> list:
    """States at every grid node, each interval crossed by `substeps` Euler
    steps of `rk_sample`. The reference path for `error_profiles`."""
    if substeps < 1:
        raise ValueError(f"need at least one substep, got {substeps}")
    nodes = [np.asarray(x0, dtype=float)]
    for t0, t1 in zip(ts[:-1], ts[1:]):
        nodes.append(rk_sample(EULER, v, nodes[-1], np.linspace(t0, t1, substeps + 1)))
    return nodes


def _batch_mean_norm(d: np.ndarray) -> float:
    """Mean L2 norm of the rows of d [n, dim]."""
    return float(np.mean(np.linalg.norm(d, axis=1)))


def error_profiles(v, x0, n_anchor: int = 50, substeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Truncation-error and curvature profiles of one dense reference path.

    x0 is [n, dim]; the path is integrated once on n_anchor uniform anchor
    intervals. tau_i (i = 0 .. N-1) is the batch-mean L2 distance between
    the dense state at t_{i+1} and a single Euler step launched from the
    dense state at t_i; it scales as O(h^2) under grid refinement, and
    large early values flag noise-side curvature that a step-size warp
    should absorb. kappa_i (i = 1 .. N-1) is the batch-mean L2 norm of
    x_i - (x_{i+1} + x_{i-1})/2, exactly zero for straight trajectories.

    For a Gaussian target N(m, s^2 I) the tau profile peaks at
    t* = 1/(1+s^2), so contracting targets (s < 1) peak at the data end,
    not the noise end. A tau or kappa that is not finite raises
    FloatingPointError naming its anchor.
    """
    if n_anchor < 3:
        raise ValueError(f"need at least 3 anchor intervals, got {n_anchor}")
    if substeps < 2:  # one substep makes the reference path the Euler probe: every tau 0
        raise ValueError(f"need at least 2 substeps per anchor, got {substeps}")
    ts = np.arange(n_anchor + 1, dtype=float) / n_anchor
    nodes = dense_trajectory(v, x0, ts, substeps)
    taus = np.array([
        _batch_mean_norm(nodes[i + 1] - rk_sample(EULER, v, nodes[i], ts[i : i + 2])) for i in range(n_anchor)
    ])
    kappas = np.array([
        _batch_mean_norm(nodes[i] - 0.5 * (nodes[i + 1] + nodes[i - 1])) for i in range(1, n_anchor)
    ])
    for i in range(n_anchor):
        if not np.isfinite(taus[i]):
            raise FloatingPointError(f"non-finite tau at anchor {i}, t={float(ts[i])!r}")
        if i and not np.isfinite(kappas[i - 1]):
            raise FloatingPointError(f"non-finite kappa at anchor {i}, t={float(ts[i])!r}")
    return taus, kappas
