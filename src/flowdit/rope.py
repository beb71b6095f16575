"""Multi-axis rotary position embeddings and resolution-extrapolation scaling.

The head dimension is split into `axes` contiguous chunks (time, height,
width); each chunk is rotated as complex pairs by angle coord * theta_d, so
attention logits depend on coordinates only through their differences.

Every axis uses the one frequency curve theta_d = base^(-(2*axes)*d/d_head)
for d = 0 .. d_head/(2*axes)-1. Scaling strategies come in two conventions:
`consistent` (default) restores the per-axis factor 2*axes in every exponent
so the advertised equivalences hold exactly (interpolation is the floor,
extrapolation the ceiling, and the time-conditioned table moves between
interpolation at t=0 and NTK at t=1); `paper_literal` keeps the verbatim
published exponents for fidelity runs and claims no equivalences.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad

# the ScaleSpec fields each strategy reads; it ignores the others
STRATEGY_FIELDS = {
    "extrapolate": (),
    "interpolate": ("s", "convention"),
    "ntk": ("s", "convention"),
    "freq_aware": ("s", "train_extent", "convention"),
    "time_aware": ("s", "t", "convention"),
}
STRATEGIES = tuple(STRATEGY_FIELDS)
CONVENTIONS = ("paper_literal", "consistent")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RopeFreqs:
    """The frequency curve theta[d], d in [0, d_head/(2*axes)), shared by every axis."""

    axes: int
    d_head: int
    base: float
    theta: np.ndarray

    @property
    def dims_per_axis(self) -> int:
        return self.d_head // (2 * self.axes)


@dataclass(frozen=True)
class ScaleSpec:
    """How to extend a trained positional range by factor s >= 1.

    s and train_extent are single numbers shared by every axis.
    train_extent is the maximal trained extent L in tokens (needed by
    freq_aware); t is the diffusion time in [0,1] (needed by time_aware);
    convention picks the scaling exponents (see the module docstring).
    """

    strategy: str
    s: float = 1.0
    train_extent: float | None = None
    t: float | None = None
    convention: str = "consistent"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        for name, value in (("scale factor", self.s), ("training extent", self.train_extent)):
            if value is not None and not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be one number, got {value!r}")
        if not (math.isfinite(self.s) and self.s >= 1.0):
            raise ValueError(f"scale factor must be finite and >= 1, got {self.s}")
        if self.train_extent is not None and not math.isfinite(self.train_extent):
            raise ValueError(f"training extent must be finite, got {self.train_extent}")
        if self.strategy == "time_aware" and (self.t is None or not 0.0 <= self.t <= 1.0):
            raise ValueError("time_aware needs t in [0,1]")
        if self.strategy == "freq_aware" and self.train_extent is None:
            raise ValueError("freq_aware needs the max training extent")


def freq_matrix(base: float, d_head: int, axes: int) -> RopeFreqs:
    """Build the curve theta_d = base^(-(2*axes)*d/d_head) shared by every axis."""
    if axes not in (1, 2, 3):
        raise ValueError(f"axes must be 1, 2, or 3, got {axes}")
    if not 1.0 < base < math.inf:
        raise ValueError(f"rotary base must be finite and exceed 1, got {base}")
    if d_head < 2 * axes or d_head % (2 * axes) != 0:
        raise ValueError(f"d_head={d_head} must be positive and divisible by 2*axes={2*axes}")
    theta = base ** (-(2.0 * axes) * np.arange(d_head // (2 * axes)) / d_head)
    return RopeFreqs(axes, d_head, float(base), theta)


def wavelength(freqs: RopeFreqs) -> np.ndarray:
    """lambda_d = 2*pi / theta_d, shape [d_head/(2*axes)]."""
    return TWO_PI / freqs.theta


def d_target(base: float, d_head: int, axes: int, train_extent: float, convention: str = "consistent") -> float:
    """The real-valued dimension whose wavelength equals the training extent.

    Solves lambda_d = L. Never rounded to an index.
    """
    if train_extent <= TWO_PI:
        raise ValueError(f"training extent must exceed 2*pi, got {train_extent}")
    logs = math.log(train_extent / TWO_PI) / math.log(base)
    if convention == "paper_literal":
        return d_head * logs
    if convention == "consistent":
        return (d_head / (2 * axes)) * logs
    raise ValueError(f"unknown convention {convention!r}")


def scaled_theta(freqs: RopeFreqs, spec: ScaleSpec, d) -> np.ndarray:
    """Evaluate the scaled frequency curve, shared by every axis, at (possibly real) d."""
    d = np.asarray(d, dtype=float)
    base, d_head, axes = freqs.base, freqs.d_head, freqs.axes
    n = freqs.dims_per_axis
    s = float(spec.s)  # a Python float: its ** raises OverflowError, numpy's returns inf
    theta = base ** (-(2.0 * axes) * d / d_head)
    if spec.strategy == "extrapolate":
        return theta
    if spec.convention == "paper_literal":
        # verbatim published forms; no equivalence claims in this mode
        if spec.strategy == "interpolate":
            return theta * s
        if spec.strategy == "ntk":
            return (base * s) ** (-(2.0 * axes) * d / d_head)
        if spec.strategy == "freq_aware":
            L = float(spec.train_extent)
            pivot = d_target(base, d_head, axes, L, "paper_literal")
            bp = base * s ** (d_head / pivot)
            return np.maximum(bp ** (-(2.0 * axes) * d / d_head), theta * s)
        if spec.strategy == "time_aware":
            d_t = (d_head - 1.0) * spec.t + 1.0
            bp = base * s ** (d_head / d_t)
            return np.maximum(bp ** (-(2.0 * axes) * d / d_head), theta * s)
    else:
        if spec.strategy == "interpolate":
            return theta / s
        if spec.strategy == "ntk":
            if n < 2:
                raise ValueError("ntk scaling needs at least 2 dims per axis")
            bp = base * s ** (d_head / (d_head - 2.0 * axes))
            return bp ** (-(2.0 * axes) * d / d_head)
        if spec.strategy == "freq_aware":
            L = float(spec.train_extent)
            pivot = d_target(base, d_head, axes, L, "consistent")
            bp = base * s ** (d_head / (2.0 * axes * pivot))
            return np.maximum(bp ** (-(2.0 * axes) * d / d_head), theta / s)
        if spec.strategy == "time_aware":
            # log-linear blend: interpolation at t=0, NTK at t=1, exact at
            # both ends for every dim including d=0 (a pure base rescale
            # cannot move theta_0, so the published max-form cannot)
            if n < 2:
                raise ValueError("time_aware scaling needs at least 2 dims per axis")
            exponent = (1.0 - spec.t) + spec.t * d / (n - 1.0)
            return theta * s ** (-exponent)
    raise ValueError(f"unknown strategy {spec.strategy!r}")


def scaled_freqs(freqs: RopeFreqs, spec: ScaleSpec) -> RopeFreqs:
    """Apply one extrapolation strategy: one scaled curve for every axis.

    A theta or wavelength 2*pi/theta that is not finite, as when an extreme
    base or scale factor over- or underflows the arithmetic, raises
    FloatingPointError naming the strategy.
    """
    message = f"non-finite {spec.strategy} frequency table"
    try:
        theta = scaled_theta(freqs, spec, np.arange(freqs.dims_per_axis, dtype=float))
    except OverflowError as err:  # Python float ** raises where numpy returns inf
        raise FloatingPointError(message) from err
    if not (np.isfinite(theta).all() and np.isfinite(TWO_PI / theta).all()):
        raise FloatingPointError(message)
    return replace(freqs, theta=theta)


def rope_angles(coords, freqs: RopeFreqs) -> np.ndarray:
    """Per-token rotation angles of coords [n, axes], shape [n, d_head/2]:
    axis a's chunk is coords[:, a] * theta."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != freqs.axes:
        raise ValueError(f"coords must be [n, {freqs.axes}] for {freqs.axes} axes, got shape {coords.shape}")
    return (coords[:, :, None] * freqs.theta).reshape(len(coords), -1)


def rope_tables(coords, freqs: RopeFreqs) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of rope_angles(coords, freqs), each [n, d_head/2]."""
    ang = rope_angles(coords, freqs)
    return np.cos(ang), np.sin(ang)


def apply_rope(x, tables):
    """Rotate the complex channel pairs of x by coord-proportional angles.

    x has shape [..., n, d_head]; tables is rope_tables(coords, freqs) for
    coords [n, axes], built once and shared by every array on those
    coordinates. Accepts autodiff Vars transparently (angles are
    constants). A pure rotation, so per-token L2 norms are preserved.
    """
    shape = ad.val(x).shape
    cos, sin = tables
    if shape[-1] != 2 * cos.shape[-1]:
        raise ValueError(f"x last axis {shape[-1]} != d_head {2 * cos.shape[-1]} of the tables")
    if cos.shape[0] != shape[-2]:
        raise ValueError(f"{cos.shape[0]} coords for {shape[-2]} tokens")
    return ad.rotate_pairs(x, cos, sin)


def rope_attention_logits(q, k, tables_q, tables_k):
    """Unscaled logits Re[sum_pairs q k* e^{i Theta (delta coord)}].

    tables_q and tables_k are rope_tables of the queries' and the keys'
    coordinates (the same tables when keys sit on the queries' tokens).
    Computed as rotate-then-dot, rotated_logits of apply_rope of each; equals
    the relative complex form exactly in exact arithmetic, so logits depend
    only on coordinate differences.
    """
    return rotated_logits(apply_rope(q, tables_q), apply_rope(k, tables_k))


def rotated_logits(qr, kr):
    """qr @ kr^T over the last two axes: the logits of queries and keys that
    apply_rope has rotated, so one rotation can serve several products."""
    # non-negative axes: transpose's VJP inverts them with argsort
    lead = ad.val(kr).ndim - 2
    return ad.matmul(qr, ad.transpose(kr, (*range(lead), lead + 1, lead)))


def scaled_fourier_features(p, theta, t: float, s: float):
    """Time-scaled Fourier features for point clouds.

    p [n, k] positions, theta [F, k] frequency directions. Frequencies are
    scaled up by s^(F/d_t) with d_t = (F-1)*t + 1 (verbatim published form;
    note this is the opposite direction of the rotary base rescale, and no
    equivalence claim constrains it). Output [n, 2F]: cos/sin interleaved
    per frequency row.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0,1], got {t}")
    if s < 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or p.ndim != 2 or theta.shape[1] != p.shape[1]:
        raise ValueError(f"incompatible shapes p{p.shape}, theta{theta.shape}")
    n_freq = theta.shape[0]
    d_t = (n_freq - 1.0) * t + 1.0
    scaled = theta * s ** (n_freq / d_t)
    args = TWO_PI * (p @ scaled.T)
    return np.stack([np.cos(args), np.sin(args)], axis=-1).reshape(p.shape[0], 2 * n_freq)


def freq_table_rows(freqs: RopeFreqs, strategy: str) -> list[tuple]:
    """CSV-ready rows (strategy, axis, d, theta, lambda)."""
    curve = list(enumerate(zip(freqs.theta.tolist(), wavelength(freqs).tolist())))
    return [(strategy, a, d, theta, lam) for a in range(freqs.axes) for d, (theta, lam) in curve]
