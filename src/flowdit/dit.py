"""Diffusion transformer on patch tokens with sandwich blocks and AdaLN gates.

Blocks follow y = x + tanh(gate) * postnorm(branch(modulate(prenorm(x)))):
the post-branch RMS norm pins every residual contribution to unit scale
before its gate, and all shift/scale/gate modulation comes from a
zero-initialised projection of the conditioning vector, so a fresh block
is exactly the identity map. Attention is grouped-query with per-head
QK RMS normalisation and multi-axis rotary phases on the patch grid;
there are no long skip connections between distant layers.

Two modes share the trunk: `generative` predicts per-patch velocities
through a zero-initialised output head (a fresh model outputs exactly 0);
`recognition` swaps AdaLN for per-branch scalar gates and reads logits off
a masked-mean class token.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import contextdrop
from . import numkernel as nk
from . import rope

MODES = ("generative", "recognition")
BLOCK_STYLES = ("sandwich", "prenorm")


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_layers: int = 2
    n_q_heads: int = 4
    n_kv_heads: int = 4
    patch: int = 2
    in_channels: int = 2
    axes: int = 2
    rope_base: float = 10000.0
    mlp_ratio: int = 4
    time_dim: int = 64
    n_classes: int = 0
    mode: str = "generative"
    block_style: str = "sandwich"
    eps: float = 1e-6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.block_style not in BLOCK_STYLES:
            raise ValueError(f"unknown block style {self.block_style!r}")
        if self.n_layers < 1:
            raise ValueError(f"need at least one layer, got {self.n_layers}")
        if self.d_model % self.n_q_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by {self.n_q_heads} query heads")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ValueError(f"{self.n_q_heads} query heads not divisible by {self.n_kv_heads} kv heads")
        if self.d_head % (2 * self.axes) != 0:
            raise ValueError(f"head dim {self.d_head} not divisible by 2*axes={2 * self.axes}")
        if self.time_dim % 2 != 0 or self.time_dim < 2:
            raise ValueError(f"time_dim must be a positive even number, got {self.time_dim}")
        if self.mode == "recognition" and self.n_classes < 1:
            raise ValueError("recognition mode needs n_classes >= 1")
        if min(self.patch, self.in_channels, self.mlp_ratio) < 1:
            raise ValueError("patch, in_channels, and mlp_ratio must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_q_heads

    @property
    def d_kv(self) -> int:
        return self.n_kv_heads * self.d_head

    @property
    def token_dim(self) -> int:
        return self.patch * self.patch * self.in_channels


@dataclass(eq=False)
class AttentionParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    q_gain: np.ndarray  # [d_head], shared across heads
    k_gain: np.ndarray
    n_q_heads: int = 1
    n_kv_heads: int = 1


@dataclass(eq=False)
class BlockParams:
    attn: AttentionParams
    pre_attn_gain: np.ndarray
    post_attn_gain: np.ndarray
    pre_mlp_gain: np.ndarray
    post_mlp_gain: np.ndarray
    w_mlp1: np.ndarray
    w_mlp2: np.ndarray
    w_mod: np.ndarray | None  # generative: cond -> [shift|scale|gate] x2
    b_mod: np.ndarray | None
    gates: np.ndarray | None  # recognition: scalar gate per branch


@dataclass(eq=False)
class ModelParams:
    config: ModelConfig
    w_embed: np.ndarray
    b_embed: np.ndarray
    blocks: list
    time_w1: np.ndarray | None = None
    time_b1: np.ndarray | None = None
    time_w2: np.ndarray | None = None
    time_b2: np.ndarray | None = None
    label_embed: np.ndarray | None = None
    w_final_mod: np.ndarray | None = None
    b_final_mod: np.ndarray | None = None
    w_out: np.ndarray | None = None
    b_out: np.ndarray | None = None
    head_w1: np.ndarray | None = None
    head_b1: np.ndarray | None = None
    head_w2: np.ndarray | None = None
    head_b2: np.ndarray | None = None


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """N(0, std^2) with draws beyond 2 sigma resampled, not clipped."""
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return std * x


def init_model(config: ModelConfig, seed: int = 0, weight_std: float = 0.02) -> ModelParams:
    """Fresh parameters: truncated-normal projections, unit norm gains,
    zeroed modulation and output head."""
    rng = np.random.default_rng(seed)
    d = config.d_model
    blocks = []
    for _ in range(config.n_layers):
        attn = AttentionParams(
            wq=_trunc_normal(rng, (d, d), weight_std),
            wk=_trunc_normal(rng, (d, config.d_kv), weight_std),
            wv=_trunc_normal(rng, (d, config.d_kv), weight_std),
            wo=_trunc_normal(rng, (d, d), weight_std),
            q_gain=np.ones(config.d_head),
            k_gain=np.ones(config.d_head),
            n_q_heads=config.n_q_heads,
            n_kv_heads=config.n_kv_heads,
        )
        hidden = config.mlp_ratio * d
        generative = config.mode == "generative"
        blocks.append(
            BlockParams(
                attn=attn,
                pre_attn_gain=np.ones(d),
                post_attn_gain=np.ones(d),
                pre_mlp_gain=np.ones(d),
                post_mlp_gain=np.ones(d),
                w_mlp1=_trunc_normal(rng, (d, hidden), weight_std),
                w_mlp2=_trunc_normal(rng, (hidden, d), weight_std),
                w_mod=np.zeros((d, 2 * (2 * d + 1))) if generative else None,
                b_mod=np.zeros(2 * (2 * d + 1)) if generative else None,
                gates=None if generative else np.zeros(2),
            )
        )
    model = ModelParams(
        config=config,
        w_embed=_trunc_normal(rng, (config.token_dim, d), weight_std),
        b_embed=np.zeros(d),
        blocks=blocks,
    )
    if config.mode == "generative":
        model.time_w1 = _trunc_normal(rng, (config.time_dim, d), weight_std)
        model.time_b1 = np.zeros(d)
        model.time_w2 = _trunc_normal(rng, (d, d), weight_std)
        model.time_b2 = np.zeros(d)
        if config.n_classes > 0:
            # one extra row: the null embedding for unconditional passes
            model.label_embed = _trunc_normal(rng, (config.n_classes + 1, d), weight_std)
        model.w_final_mod = np.zeros((d, d))
        model.b_final_mod = np.zeros(d)
        model.w_out = np.zeros((d, config.token_dim))
        model.b_out = np.zeros(config.token_dim)
    else:
        model.head_w1 = _trunc_normal(rng, (d, d), weight_std)
        model.head_b1 = np.zeros(d)
        model.head_w2 = _trunc_normal(rng, (d, config.n_classes), weight_std)
        model.head_b2 = np.zeros(config.n_classes)
    return model


@lru_cache(maxsize=None)
def _cached_freqs(base: float, d_head: int, axes: int) -> rope.RopeFreqs:
    return rope.freq_matrix(base, d_head, axes)


def model_freqs(config: ModelConfig) -> rope.RopeFreqs:
    return _cached_freqs(config.rope_base, config.d_head, config.axes)


def _split_heads(x, n_heads: int):
    """[..., n, h*dh] -> [..., h, n, dh]"""
    shape = ad.val(x).shape
    x = ad.reshape(x, shape[:-1] + (n_heads, shape[-1] // n_heads))
    return ad.swapaxes(x, -3, -2)


def _merge_heads(x):
    """[..., h, n, dh] -> [..., n, h*dh]"""
    x = ad.swapaxes(x, -3, -2)
    shape = ad.val(x).shape
    return ad.reshape(x, shape[:-2] + (shape[-2] * shape[-1],))


def gqa_attention(x, params: AttentionParams, freqs: rope.RopeFreqs, coords, mask=None, kv_pool=None, eps: float = 1e-6):
    """Grouped-query attention with QK RMS norm and rotary phases.

    x [..., n, d_model]; coords [n, axes]. mask marks valid keys (True =
    attend), shape [n] or [batch, n]; every row must keep at least one key.
    kv_pool = (grid, window) average-pools projected keys/values and their
    coordinates before normalisation and rotation; pooled keys have no
    per-token identity, so kv_pool and mask are mutually exclusive. A
    (1, 1) window is a no-op, bit-identical to kv_pool=None.
    """
    if mask is not None and kv_pool is not None:
        raise ValueError("kv_pool merges keys across tokens; a key mask cannot apply")
    d_head = ad.val(x).shape[-1] // params.n_q_heads
    q = ad.matmul(x, params.wq)
    k = ad.matmul(x, params.wk)
    v = ad.matmul(x, params.wv)
    coords_k = coords
    if kv_pool is not None:
        k, v, coords_k = contextdrop.pool_kv(k, v, coords, *kv_pool)
    q = _split_heads(q, params.n_q_heads)
    k = _split_heads(k, params.n_kv_heads)
    v = _split_heads(v, params.n_kv_heads)
    q = ad.rms_norm(q, params.q_gain, eps)
    k = ad.rms_norm(k, params.k_gain, eps)
    q = rope.apply_rope(q, coords, freqs)
    k = rope.apply_rope(k, coords_k, freqs)
    group = params.n_q_heads // params.n_kv_heads
    if group > 1:
        k = ad.repeat(k, group, axis=-3)
        v = ad.repeat(v, group, axis=-3)
    logits = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / math.sqrt(d_head))
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        if not keep.any(axis=-1).all():
            raise ValueError("mask leaves a sample with no valid keys")
        keep = keep.reshape(keep.shape[:-1] + (1, 1, keep.shape[-1]))
        logits = ad.mask_fill(logits, keep, -np.inf)
    out = ad.matmul(ad.softmax(logits, axis=-1), v)
    return ad.matmul(_merge_heads(out), params.wo)


def _with_token_axis(u):
    """[..., d] -> [..., 1, d] so per-sample modulation broadcasts over tokens."""
    shape = ad.val(u).shape
    return ad.reshape(u, shape[:-1] + (1, shape[-1]))


def _modulation(cond, block: BlockParams, d: int):
    """Zero-initialised AdaLN projection, split into two (shift, scale, gate)."""
    mod = ad.add(ad.matmul(ad.silu(cond), block.w_mod), block.b_mod)
    bounds = np.cumsum([0, d, d, 1, d, d, 1])
    parts = [_with_token_axis(mod[..., bounds[i] : bounds[i + 1]]) for i in range(6)]
    return parts  # shift_a, scale_a, gate_a, shift_m, scale_m, gate_m


def sandwich_block(x, cond, block: BlockParams, config: ModelConfig, freqs, coords, mask=None, kv_pool=None):
    """One residual block; exact identity at zero-initialised modulation.

    Generative blocks modulate with cond-derived shift/scale/gate; recognition
    blocks (cond None) use bare scalar gates. block_style `prenorm` drops the
    post-branch norm, leaving branch scale unpinned.
    """
    sandwich = config.block_style == "sandwich"
    if cond is not None:
        shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = _modulation(cond, block, config.d_model)
    else:
        gate_a, gate_m = block.gates[0:1], block.gates[1:2]

    h = ad.rms_norm(x, block.pre_attn_gain, config.eps)
    if cond is not None:
        h = ad.add(ad.mul(h, ad.add(scale_a, 1.0)), shift_a)
    h = gqa_attention(h, block.attn, freqs, coords, mask=mask, kv_pool=kv_pool, eps=config.eps)
    if sandwich:
        h = ad.rms_norm(h, block.post_attn_gain, config.eps)
    x = ad.add(x, ad.mul(ad.tanh(gate_a), h))

    h = ad.rms_norm(x, block.pre_mlp_gain, config.eps)
    if cond is not None:
        h = ad.add(ad.mul(h, ad.add(scale_m, 1.0)), shift_m)
    h = ad.matmul(ad.silu(ad.matmul(h, block.w_mlp1)), block.w_mlp2)
    if sandwich:
        h = ad.rms_norm(h, block.post_mlp_gain, config.eps)
    return ad.add(x, ad.mul(ad.tanh(gate_m), h))


def time_embedding(model: ModelParams, t_batch) -> np.ndarray:
    """Sinusoidal features of 1000*t pushed through a two-layer SiLU MLP."""
    half = model.config.time_dim // 2
    freqs_t = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = 1000.0 * np.asarray(t_batch, dtype=float)[..., None] * freqs_t
    feats = np.concatenate([np.cos(args), np.sin(args)], axis=-1)
    h = ad.silu(ad.add(ad.matmul(feats, model.time_w1), model.time_b1))
    return ad.add(ad.matmul(h, model.time_w2), model.time_b2)


def patchify(x, patch: int):
    """[..., H, W, C] -> ([..., n, patch^2*C], coords [n, 2], (rows, cols))."""
    shape = ad.val(x).shape
    if len(shape) not in (3, 4):
        raise ValueError(f"expected [H,W,C] or [B,H,W,C], got shape {shape}")
    height, width, channels = shape[-3:]
    if height % patch or width % patch:
        raise ValueError(f"{height}x{width} image not divisible by patch {patch}")
    rows, cols = height // patch, width // patch
    lead = shape[:-3]
    t = ad.reshape(x, lead + (rows, patch, cols, patch, channels))
    perm = tuple(range(len(lead))) + tuple(i + len(lead) for i in (0, 2, 1, 3, 4))
    t = ad.transpose(t, perm)
    tokens = ad.reshape(t, lead + (rows * cols, patch * patch * channels))
    return tokens, nk.grid_coords((rows, cols)), (rows, cols)


def unpatchify(tokens, grid: tuple[int, int], patch: int, channels: int):
    """Inverse of patchify for a known grid."""
    shape = ad.val(tokens).shape
    rows, cols = grid
    lead = shape[:-2]
    t = ad.reshape(tokens, lead + (rows, cols, patch, patch, channels))
    perm = tuple(range(len(lead))) + tuple(i + len(lead) for i in (0, 2, 1, 3, 4))
    t = ad.transpose(t, perm)
    return ad.reshape(t, lead + (rows * patch, cols * patch, channels))


def forward_velocity(model: ModelParams, x_t, t, label=None, kv_pool=None, capture=None):
    """Predicted flow velocity for images x_t at time t.

    x_t is [H, W, C] or [B, H, W, C]; t a scalar or per-sample vector.
    label is an int array of class ids (None uses the null embedding when
    the model is conditional). kv_pool = (grid, window) pools attention
    context in every block. capture, if a list, receives each block's
    output token array (values only, no tape).
    """
    config = model.config
    if config.mode != "generative":
        raise ValueError("forward_velocity needs a generative-mode model")
    arr = ad.val(x_t)
    single = arr.ndim == 3
    if single:
        x_t = x_t[None] if isinstance(x_t, ad.Var) else arr[None]
    batch = ad.val(x_t).shape[0]
    t_arr = np.full(batch, float(t)) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
    if t_arr.shape != (batch,):
        raise ValueError(f"t has shape {t_arr.shape}, expected ({batch},)")

    tokens, coords, grid = patchify(x_t, config.patch)
    h = ad.add(ad.matmul(tokens, model.w_embed), model.b_embed)
    cond = time_embedding(model, t_arr)
    if model.label_embed is not None:
        if label is None:
            idx = np.full(batch, config.n_classes)
        else:
            idx = np.asarray(label)
            if idx.shape != (batch,) or idx.min() < 0 or idx.max() >= config.n_classes:
                raise ValueError(f"labels must be {batch} ids below {config.n_classes}")
        cond = ad.add(cond, model.label_embed[idx])
    elif label is not None:
        raise ValueError("model has no label table")

    freqs = model_freqs(config)
    for block in model.blocks:
        h = sandwich_block(h, cond, block, config, freqs, coords, kv_pool=kv_pool)
        if capture is not None:
            capture.append(np.array(ad.val(h)))

    h = ad.rms_norm(h, np.asarray(1.0), config.eps)
    scale = ad.add(ad.matmul(ad.silu(cond), model.w_final_mod), model.b_final_mod)
    h = ad.mul(h, ad.add(_with_token_axis(scale), 1.0))
    out = ad.add(ad.matmul(h, model.w_out), model.b_out)
    out = unpatchify(out, grid, config.patch, config.in_channels)
    return out[0] if single else out


def recognition_forward(model: ModelParams, tokens, coords, mask=None):
    """Class logits from a masked mean of the final token states.

    tokens [n, token_dim] or [B, n, token_dim]; mask True = real token.
    With all gates at zero initialisation the trunk is the identity, so
    logits equal head(mean of embedded tokens) exactly.
    """
    config = model.config
    if config.mode != "recognition":
        raise ValueError("recognition_forward needs a recognition-mode model")
    single = ad.val(tokens).ndim == 2
    if single:
        tokens = tokens[None] if isinstance(tokens, ad.Var) else ad.val(tokens)[None]
    if mask is None:
        mask_arr = np.ones(ad.val(tokens).shape[:-1], dtype=bool)
    else:
        mask_arr = np.asarray(mask, dtype=bool)
        if single and mask_arr.ndim == 1:
            mask_arr = mask_arr[None]
    if not mask_arr.any(axis=-1).all():
        raise ValueError("a sample has no valid tokens")

    h = ad.add(ad.matmul(tokens, model.w_embed), model.b_embed)
    freqs = model_freqs(config)
    for block in model.blocks:
        h = sandwich_block(h, None, block, config, freqs, coords, mask=mask_arr)
    weights = mask_arr / mask_arr.sum(axis=-1, keepdims=True)
    pooled = ad.sum_(ad.mul(h, weights[..., None]), axis=-2)
    h1 = ad.silu(ad.add(ad.matmul(pooled, model.head_w1), model.head_b1))
    logits = ad.add(ad.matmul(h1, model.head_w2), model.head_b2)
    return logits[0] if single else logits


def activation_probe(model: ModelParams, image_hw: tuple[int, int], timesteps, n_samples: int = 8, seed: int = 0) -> list[tuple]:
    """Hidden-state RMS per layer on standard-normal inputs.

    Returns rows (layer, t, rms_mean, rms_max): per-token RMS of each
    block's output, averaged / maximised over tokens and samples.
    """
    config = model.config
    rng = np.random.default_rng(seed)
    rows = []
    for t in timesteps:
        x = rng.standard_normal((n_samples, image_hw[0], image_hw[1], config.in_channels))
        states: list[np.ndarray] = []
        forward_velocity(model, x, float(t), capture=states)
        for layer, h in enumerate(states):
            rms = np.sqrt(np.mean(h * h, axis=-1))
            rows.append((layer, float(t), float(rms.mean()), float(rms.max())))
    return rows


def _leaf_slots(obj, prefix: str = ""):
    """Yield (holder, key, name) for every array leaf in a params tree."""
    for f in dataclasses.fields(obj):
        child = getattr(obj, f.name)
        name = f"{prefix}{f.name}"
        if isinstance(child, (np.ndarray, ad.Var)):
            yield obj, f.name, name
        elif isinstance(child, list):
            for i, item in enumerate(child):
                yield from _leaf_slots(item, f"{name}.{i}.")
        elif dataclasses.is_dataclass(child) and not isinstance(child, ModelConfig):
            yield from _leaf_slots(child, f"{name}.")


def _get_leaf(holder, key):
    return getattr(holder, key)


def named_parameters(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Deterministic (name, array) manifest of every parameter."""
    return [(name, _get_leaf(holder, key)) for holder, key, name in _leaf_slots(model)]


def set_parameter(model: ModelParams, name: str, value) -> None:
    for holder, key, leaf_name in _leaf_slots(model):
        if leaf_name == name:
            setattr(holder, key, value)
            return
    raise KeyError(f"no parameter named {name!r}")


CHECKPOINT_FORMAT = "flowdit-checkpoint-v1"


def save_model(dirpath, model: ModelParams) -> None:
    """Write a checkpoint directory: manifest.json plus one .nkt per tensor.

    The files are written into a sibling temporary directory that is then
    renamed into place, so an interrupted write leaves any previous
    checkpoint intact; that one is moved aside first and removed last.
    """
    dirpath = Path(dirpath)
    dirpath.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{dirpath.name}.", dir=dirpath.parent))
    staged = work / "new"
    try:
        staged.mkdir()  # unlike mkdtemp's 0700, this honours the umask
        names = []
        for holder, key, name in _leaf_slots(model):
            leaf = ad.val(_get_leaf(holder, key))
            nk.save_tensor(staged / f"{name}.nkt", np.asarray(leaf, dtype=np.float64))
            names.append(name)
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "config": dataclasses.asdict(model.config),
            "tensors": names,
        }
        (staged / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    if dirpath.exists():
        dirpath.rename(work / "old")
    staged.rename(dirpath)
    shutil.rmtree(work)


def load_model(dirpath) -> ModelParams:
    """Rebuild a model from a checkpoint directory."""
    dirpath = Path(dirpath)
    manifest = json.loads((dirpath / "manifest.json").read_text())
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{dirpath}: unknown checkpoint format {manifest.get('format')!r}")
    config = ModelConfig(**manifest["config"])
    model = init_model(config, seed=0)
    slots = {name: (holder, key) for holder, key, name in _leaf_slots(model)}
    if set(slots) != set(manifest["tensors"]):
        raise ValueError(f"{dirpath}: tensor manifest does not match the architecture")
    for name in manifest["tensors"]:
        arr = nk.load_tensor(dirpath / f"{name}.nkt")
        holder, key = slots[name]
        current = _get_leaf(holder, key)
        if arr.shape != current.shape:
            raise ValueError(f"{name}: stored shape {arr.shape} != expected {current.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name}: stored tensor has non-finite values")
        setattr(holder, key, arr)
    return model
