"""Diffusion transformer on patch tokens with sandwich blocks and AdaLN gates.

Blocks follow y = x + tanh(gate) * postnorm(branch(modulate(prenorm(x)))):
the post-branch RMS norm pins every residual contribution to unit scale
before its gate, and all shift/scale/gate modulation comes from a
zero-initialised projection of the conditioning vector, so a fresh block
is exactly the identity map. Attention is grouped-query with per-head
QK RMS normalisation and rotary phases on each token's (row, col) grid
position; there are no long skip connections between distant layers.
Next-DiT fixes the design values, so no config sets them: ROPE_AXES = 2,
ROPE_BASE = 10000 (RoFormer's), MLP_RATIO = 4 and the timestep embedder's
sinusoidal width TIME_DIM = 64 here, and the RMS-norm epsilon
autodiff.EPS = 1e-6 beside the op that adds it.

Two modes share the trunk: `generative` predicts per-patch velocities
through a zero-initialised output head (a fresh model outputs exactly 0);
`recognition` swaps AdaLN for per-branch scalar gates and reads logits off
a masked-mean class token.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import math
import os
import shutil
import struct
import tempfile
from concurrent.futures import ThreadPoolExecutor, wait
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
ROPE_AXES, ROPE_BASE, MLP_RATIO, TIME_DIM = 2, 10000.0, 4, 64
# checkpoints name the fixed values under the config keys older flowdit versions read
FIXED_MANIFEST_CONFIG = {"axes": ROPE_AXES, "rope_base": ROPE_BASE, "mlp_ratio": MLP_RATIO, "eps": ad.EPS,
                         "time_dim": TIME_DIM}
# the timestep embedder's sinusoid frequencies, TIME_DIM // 2 of them
_TIME_FREQS = np.exp(-math.log(10000.0) * np.arange(TIME_DIM // 2) / (TIME_DIM // 2))


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_layers: int = 2
    n_q_heads: int = 4
    n_kv_heads: int = 4
    patch: int = 2
    in_channels: int = 2
    n_classes: int = 0
    mode: str = "generative"
    block_style: str = "sandwich"

    def __post_init__(self):
        for field in dataclasses.fields(self):  # exact types: a bool is an int, and a float may be integral
            if type(value := getattr(self, field.name)) is not type(field.default):
                raise TypeError(f"{field.name} must be {type(field.default).__name__}, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.block_style not in BLOCK_STYLES:
            raise ValueError(f"unknown block style {self.block_style!r}")
        if self.n_layers < 1:
            raise ValueError(f"need at least one layer, got {self.n_layers}")
        if min(self.d_model, self.n_q_heads, self.n_kv_heads, self.patch, self.in_channels) < 1:
            raise ValueError("d_model, n_q_heads, n_kv_heads, patch, and in_channels must be positive")
        if self.d_model % self.n_q_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by {self.n_q_heads} query heads")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ValueError(f"{self.n_q_heads} query heads not divisible by {self.n_kv_heads} kv heads")
        if self.d_head % (2 * ROPE_AXES) != 0:
            raise ValueError(f"head dim {self.d_head} not divisible by {2 * ROPE_AXES} ({ROPE_AXES} rotary axes)")
        least = 1 if self.mode == "recognition" else 0
        if self.n_classes < least:
            raise ValueError(f"{self.mode} mode needs n_classes >= {least}, got {self.n_classes}")

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
class ModelParams:
    """A config plus every weight, stored in one contiguous f64 vector.

    `flat` is that vector, and `params` maps each checkpoint name
    (`w_embed`, `blocks.0.attn.wq`, ...) to its view of it. The order is
    the checkpoint manifest's: embedding, then each block, then the mode's
    time/label/output or classifier head entries, each view starting where
    the one before ends (parameter_views). Entries a mode does not use are
    absent, not None. Writing a view writes the vector; set_parameter does
    so after a shape check. Training's working copy
    (flowlab.wrap_parameters) is a model of the same layout on its own
    vector, with a tape Var around each view.
    """

    config: ModelConfig
    flat: np.ndarray
    params: dict


def parameter_views(flat: np.ndarray, like: dict) -> dict:
    """Name -> view of the 1-d flat, shaped as like[name] (an array or a
    Var), laid end to end in like's order from flat's first entry."""
    views, start = {}, 0
    for name, leaf in like.items():
        shape = np.shape(ad.val(leaf))
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """N(0, std^2) with draws beyond 2 sigma resampled, not clipped."""
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return std * x


def modulation_slices(d: int) -> dict[str, slice]:
    """Where each AdaLN part sits in a generative block's w_mod/b_mod columns.

    [shift|scale|gate] for attention (`_a`), then the same for the MLP
    (`_m`); shifts and scales are d wide, each gate is one column.
    """
    widths = {"shift_a": d, "scale_a": d, "gate_a": 1, "shift_m": d, "scale_m": d, "gate_m": 1}
    out, start = {}, 0
    for name, width in widths.items():
        out[name] = slice(start, start + width)
        start += width
    return out


def init_model(config: ModelConfig, seed: int = 0, weight_std: float = 0.02) -> ModelParams:
    """Fresh parameters: truncated-normal projections, unit norm gains,
    zeroed modulation and output head, drawn tensor by tensor and then
    copied into the model's one vector."""
    if not np.isfinite(weight_std):
        raise ValueError(f"weight_std must be finite, got {weight_std}")
    if weight_std < 0:
        raise ValueError(f"weight_std must be nonnegative, got {weight_std}")
    rng = np.random.default_rng(seed)
    params = _fresh_tensors(config, lambda *shape: _trunc_normal(rng, shape, weight_std))
    flat = np.concatenate([a.ravel() for a in params.values()])
    return ModelParams(config, flat, parameter_views(flat, params))


def _fresh_tensors(config: ModelConfig, normal) -> dict:
    """Every tensor of a fresh model, by name in manifest order, with
    normal(*shape) making each projection, called in init_model's draw order
    (the blocks first, then the embedding and the heads)."""
    d, hidden = config.d_model, MLP_RATIO * config.d_model
    generative = config.mode == "generative"
    blocks = {}
    for i in range(config.n_layers):
        b = f"blocks.{i}."
        blocks[b + "attn.wq"] = normal(d, d)
        blocks[b + "attn.wk"] = normal(d, config.d_kv)
        blocks[b + "attn.wv"] = normal(d, config.d_kv)
        blocks[b + "attn.wo"] = normal(d, d)
        blocks[b + "attn.q_gain"] = np.ones(config.d_head)  # shared across heads
        blocks[b + "attn.k_gain"] = np.ones(config.d_head)
        for name in ("pre_attn_gain", "post_attn_gain", "pre_mlp_gain", "post_mlp_gain"):
            blocks[b + name] = np.ones(d)
        blocks[b + "w_mlp1"] = normal(d, hidden)
        blocks[b + "w_mlp2"] = normal(hidden, d)
        if generative:  # cond -> [shift|scale|gate] x2
            width = modulation_slices(d)["gate_m"].stop
            blocks[b + "w_mod"] = np.zeros((d, width))
            blocks[b + "b_mod"] = np.zeros(width)
        else:  # a scalar gate per branch
            blocks[b + "gates"] = np.zeros(2)
    params = {"w_embed": normal(config.token_dim, d), "b_embed": np.zeros(d), **blocks}
    if generative:
        params["time_w1"] = normal(TIME_DIM, d)
        params["time_b1"] = np.zeros(d)
        params["time_w2"] = normal(d, d)
        params["time_b2"] = np.zeros(d)
        if config.n_classes > 0:
            # one extra row: the null embedding for unconditional passes
            params["label_embed"] = normal(config.n_classes + 1, d)
        params["w_final_mod"] = np.zeros((d, d))
        params["b_final_mod"] = np.zeros(d)
        params["w_out"] = np.zeros((d, config.token_dim))
        params["b_out"] = np.zeros(config.token_dim)
    else:
        params["head_w1"] = normal(d, d)
        params["head_b1"] = np.zeros(d)
        params["head_w2"] = normal(d, config.n_classes)
        params["head_b2"] = np.zeros(config.n_classes)
    return params


def prefixed(params: dict, prefix: str) -> dict:
    """The entries whose names start with prefix, keyed by the rest of the name.

    The arrays are shared, not copied: `prefixed(model.params, "blocks.0.")`
    is block 0's entries, and `prefixed(block, "attn.")` is what
    gqa_attention takes; _blocks builds both once per call.
    """
    return {name[len(prefix) :]: value for name, value in params.items() if name.startswith(prefix)}


@lru_cache(maxsize=None)
def model_freqs(config: ModelConfig) -> rope.RopeFreqs:
    return rope.freq_matrix(ROPE_BASE, config.d_head, ROPE_AXES)


def _split_heads(x, d_head: int, group: int = 1):
    """[..., n, h*d_head] -> [..., h/group, group, n, d_head]"""
    *lead, n, _ = ad.val(x).shape
    x = ad.reshape(x, (*lead, n, -1, group, d_head))
    b = len(lead)
    return ad.transpose(x, (*range(b), b + 1, b + 2, b, b + 3))


def _merge_heads(x):
    """[..., h, group, n, dh] -> [..., n, h*group*dh]"""
    *lead, h, group, n, dh = ad.val(x).shape
    b = len(lead)
    x = ad.transpose(x, (*range(b), b + 2, b, b + 1, b + 3))
    return ad.reshape(x, (*lead, n, h * group * dh))


def attention_tables(coords, freqs: rope.RopeFreqs, kv_pool=None, mask=None):
    """(rope_q, pool, rope_k, bias), the plan every gqa_attention call of one
    forward shares: the queries' rope.rope_tables, contextdrop.pool_plan's
    matrix under kv_pool (else None), the pooled keys' tables (else rope_q),
    and the -inf bias of a key mask (else None): [n] or [batch, n] for the
    n = len(coords) keys, True = attend, a key in every row, no kv_pool."""
    bias = None
    if mask is not None:
        if kv_pool is not None:
            raise ValueError("kv_pool merges keys across tokens; a key mask cannot apply")
        keep = np.asarray(mask, dtype=bool)
        if keep.shape[-1:] != (len(coords),):
            raise ValueError(f"mask shape {keep.shape} does not end in the {len(coords)} keys of coords {np.shape(coords)}")
        if not keep.any(axis=-1).all():
            raise ValueError("mask leaves a sample with no valid keys")
        bias = np.where(keep, 0.0, -np.inf)[..., None, None, None, :]
    rope_q = rope.rope_tables(coords, freqs)
    pool, coords_k = (None, coords) if kv_pool is None else contextdrop.pool_plan(coords, *kv_pool)
    return rope_q, pool, rope_q if pool is None else rope.rope_tables(coords_k, freqs), bias


def gqa_attention(x, params: dict, tables, *, kv_pool=None):
    """Grouped-query attention with QK RMS norm and rotary phases.

    params holds wq [d_model, h_q*d_head], wk and wv [d_model, h_kv*d_head],
    wo and the gains q_gain and k_gain [d_head], whose shapes give the head
    counts. x [..., n, d_model]; tables is attention_tables of the tokens'
    coordinates [n, axes], which pools keys/values and masks keys; kv_pool
    only names the pooling they were built for, and a mismatch is refused.

    The scores are rope.rope_attention_logits of the normalised queries and
    keys (contiguous head-major rows, which rms_norm makes), scaled by
    1/sqrt(d_head) through the query gain (exact when d_head is a power of
    4), plus the tables' mask bias if any. The QK norm bounds every logit by
    B = sqrt(d_head) * max|q_gain| * max|k_gain|, so ad.attend exponentiates
    them with no row max taken while B is within ad.EXP_LIMIT, and divides
    the AV product by the row sums. Untracked, the logits GEMM makes the one
    scores-sized array and attend writes into it (a mask bias's ad.add makes
    a second); taped, attend is one node, and both paths agree bit for bit.
    Kv heads broadcast over their query groups, never copied: queries are
    [..., n_kv, group, n, d_head], keys and values [..., n_kv, 1, m, d_head].
    Under MHA, one token (the point model) attends to its one key with
    weight exactly 1.0: the output is its value row through wo, bitwise as
    the general path, and wq, wk, q_gain and k_gain (exact-zero gradient
    through one key) stay off the tape. One-token GQA runs the general path.
    """
    rope_q, pool, rope_k, bias = tables
    if (pool is not None) != (kv_pool is not None and tuple(kv_pool[1]) != (1, 1)):
        raise ValueError(f"tables built for another kv_pool than {kv_pool}")
    d_head = ad.val(params["q_gain"]).shape[-1]
    group = ad.val(params["wq"]).shape[-1] // ad.val(params["wk"]).shape[-1]
    v = ad.matmul(x, params["wv"])
    if ad.val(x).shape[-2] == 1 and group == 1:
        return ad.matmul(v, params["wo"])
    q = ad.matmul(x, params["wq"])
    k, v = contextdrop.pool_kv(ad.matmul(x, params["wk"]), v, pool)
    q = _split_heads(q, d_head, group)
    k = _split_heads(k, d_head)
    v = _split_heads(v, d_head)
    q_gain = ad.mul(params["q_gain"], 1.0 / math.sqrt(d_head))
    q = ad.rms_norm(q, q_gain)
    k = ad.rms_norm(k, params["k_gain"])
    # normalised rows have norm below sqrt(d_head) and RoPE keeps norms
    bound = d_head * np.abs(ad.val(q_gain)).max() * np.abs(ad.val(params["k_gain"])).max()
    logits = rope.rope_attention_logits(q, k, rope_q, rope_k)
    if bias is not None:
        logits = ad.add(logits, bias)
    out = ad.attend(logits, v, bound)
    return ad.matmul(_merge_heads(out), params["wo"])


def block_modulation(cond, block: dict, d: int) -> list:
    """A generative block's zero-initialised AdaLN projection of cond
    [..., 1, d], split into the parts of `modulation_slices`, in its order,
    each [..., 1, width], as sandwich_block applies them: each shift as it
    is, each scale as 1 + scale and each gate as tanh(gate). One conditioning
    row builds them once for every part of the batch."""
    mod = ad.add(ad.matmul(ad.silu(cond), block["w_mod"]), block["b_mod"])
    shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = (mod[..., part] for part in modulation_slices(d).values())
    return [shift_a, ad.add(scale_a, 1.0), ad.tanh(gate_a), shift_m, ad.add(scale_m, 1.0), ad.tanh(gate_m)]


def sandwich_block(x, mod, block: dict, config: ModelConfig, tables, kv_pool=None):
    """One residual block; exact identity at zero-initialised modulation.

    block is one entry of _blocks(model): the block's entries without
    their `blocks.<i>.` prefix, and its attention dict under "attn";
    tables is the call's attention_tables, kv_pool as in gqa_attention.
    Generative blocks modulate with mod = block_modulation(cond, block, d),
    the shifts, 1 + scales and tanh gates; recognition blocks (mod None)
    use tanh of bare scalar gates. block_style `prenorm` drops the
    post-branch norm, leaving branch scale unpinned.

    Each norm, projection and activation makes a fresh array, so
    ad.modulate writes into it when untracked, the AdaLN modulation and
    the gated residual h * gate + x alike, and _mlp writes its row tiles
    back into its input: one block serves both paths, and neither writes
    x, mod or a parameter.
    """
    sandwich = config.block_style == "sandwich"
    if mod is not None:
        shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = mod
    else:
        gate_a, gate_m = ad.tanh(block["gates"][0:1]), ad.tanh(block["gates"][1:2])

    h = ad.rms_norm(x, block["pre_attn_gain"])
    if mod is not None:
        h = ad.modulate(h, scale_a, shift_a)
    h = gqa_attention(h, block["attn"], tables, kv_pool=kv_pool)
    if sandwich:
        h = ad.rms_norm(h, block["post_attn_gain"])
    x = ad.modulate(h, gate_a, x)

    h = ad.rms_norm(x, block["pre_mlp_gain"])
    if mod is not None:
        h = ad.modulate(h, scale_m, shift_m)
    h = _mlp(h, block["w_mlp1"], block["w_mlp2"])
    if sandwich:
        h = ad.rms_norm(h, block["post_mlp_gain"])
    return ad.modulate(h, gate_m, x)


def _mlp(h, w1, w2):
    """silu(h @ w1) @ w2, the block's MLP, d -> hidden -> d over h's last
    axis. Untracked (no Var among h, w1 and w2), it runs in the row tiles of
    _mlp_tiles, and each tile's GEMM -> SiLU -> GEMM is written back over
    its own rows of h, read before they are written; so h must be an array
    the caller has just made, as ad.modulate's n is. The part rules keep
    the bytes of the whole expression."""
    def mlp(x):
        return ad.matmul(ad.silu(ad.matmul(x, w1)), w2)

    if any(isinstance(v, ad.Var) for v in (h, w1, w2)):
        return mlp(h)
    rows = h.reshape(-1, h.shape[-1])
    cuts = _mlp_tiles(len(rows), *w1.shape)
    if len(cuts) == 2:
        return mlp(h)
    for start, stop in zip(cuts, cuts[1:]):
        rows[start:stop] = mlp(rows[start:stop])
    return rows.reshape(h.shape)


def time_embedding(model: ModelParams, t_batch) -> np.ndarray:
    """Sinusoidal features of 1000*t pushed through a two-layer SiLU MLP."""
    args = 1000.0 * np.asarray(t_batch, dtype=float)[..., None] * _TIME_FREQS
    feats = np.concatenate([np.cos(args), np.sin(args)], axis=-1)
    p = model.params
    h = ad.silu(ad.add(ad.matmul(feats, p["time_w1"]), p["time_b1"]))
    return ad.add(ad.matmul(h, p["time_w2"]), p["time_b2"])


# swaps the patch-row and grid-column axes; its own inverse
_PATCH_PERM = (0, 1, 3, 2, 4, 5)


def patchify(x, patch: int):
    """[B, H, W, C] -> ([B, n, patch^2*C], coords [n, 2], (rows, cols))."""
    shape = ad.val(x).shape
    if len(shape) != 4:
        raise ValueError(f"expected [B,H,W,C], got shape {shape}")
    batch, height, width, channels = shape
    if height % patch or width % patch:
        raise ValueError(f"{height}x{width} image not divisible by patch {patch}")
    rows, cols = height // patch, width // patch
    t = ad.reshape(x, (batch, rows, patch, cols, patch, channels))
    t = ad.transpose(t, _PATCH_PERM)
    tokens = ad.reshape(t, (batch, rows * cols, patch * patch * channels))
    return tokens, nk.grid_coords((rows, cols)), (rows, cols)


def unpatchify(tokens, grid: tuple[int, int], patch: int, channels: int):
    """Inverse of patchify for a known grid: [B, n, patch^2*C] -> [B, H, W, C]."""
    batch = ad.val(tokens).shape[0]
    rows, cols = grid
    t = ad.reshape(tokens, (batch, rows, cols, patch, patch, channels))
    t = ad.transpose(t, _PATCH_PERM)
    return ad.reshape(t, (batch, rows * patch, cols * patch, channels))


def _blocks(model: ModelParams) -> list[dict]:
    """Each block's entries without their `blocks.<i>.` prefix, in block
    order, with its attention entries also under "attn" without `attn.`."""
    blocks = [prefixed(model.params, f"blocks.{i}.") for i in range(model.config.n_layers)]
    for block in blocks:
        block["attn"] = prefixed(block, "attn.")
    return blocks


def _trunk(model: ModelParams, blocks, tokens, mods, tables, kv_pool=None, capture=None):
    """Token embedding and the block loop under both heads; blocks is
    _blocks(model), mods holds each block's block_modulation (None for
    recognition blocks), tables is the call's attention_tables (key mask
    included), kv_pool as in gqa_attention, capture as in forward_velocity."""
    p, config = model.params, model.config
    h = ad.add(ad.matmul(tokens, p["w_embed"]), p["b_embed"])
    for i, block in enumerate(blocks):
        mod = None if mods is None else mods[i]
        h = sandwich_block(h, mod, block, config, tables, kv_pool=kv_pool)
        if capture is not None:
            capture.append(np.array(ad.val(h)))
    return h


# An untracked forward with one conditioning row runs in parts of whole
# images spread over the usable CPUs, and each part equals the same images
# of the one-part call bit for bit. Two rules keep it so, measured on 2 CPUs
# (Intel Xeon with AVX-512, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread):
# - No part holds a single GEMM row: numpy hands a 1-row operand to GEMV.
#   Cutting the point checkpoint's 4096-token forward after row 1 or 4095
#   moved bits (up to 6.7e-16); cuts after rows 2, 3, 5, 7, 8, 15, 16, 33,
#   37, 63, 834, 1000, 1365, 4090 and 4094 gave the same bytes. Images of
#   one token split only past _PART_TOKENS, so their parts hold hundreds.
# - Every GEMM a part runs is a multiple of _PART_WIDTH columns wide. Plain
#   GEMMs of 4096 rows and widths 8, 16, 24, 32, 40, 48, 64, 72, 96, 128
#   and 256 gave the same bytes at every cut tried; widths 2, 12, 130, 250
#   and 258 did not, since narrower column tails take other bits on
#   OpenBLAS's small-matrix path (M*N*K <= 1e6) than on its blocked one. So
#   the conditioning GEMMs (4d+2 wide) and the output projection run on the
#   whole batch.
# A batch gets about one part per _PART_TOKENS tokens. A 4096-point
# evaluation of the point checkpoint took 15.8 ms in 1024-token parts
# against 29.4 ms in one (median p50 of 10 perfbench gen_point runs), and
# 2048-token halves were 3% faster still. With the MLP in tiles, gen_point's
# peak RSS reads 64.2 MB in one part, +1.6% in 1024-token parts and +2.6%
# in 2048-token halves (two 6 s runs each). Images of
# _PART_IMAGE_TOKENS tokens or more also get at least one part per usable
# CPU. Against the one-part call, alternated call by call over 6 rounds on
# two images of perfbench's gen_image model, two parts changed a call by
# +8% / +25% at 128 tokens (no kv pooling / a (2, 2) window), -8% / +8% at
# 160, -20% / -6% at 192 and -30% / -15% at 256. Two parts of 512 points
# were 29% slower than one.
_PART_TOKENS = 1024
_PART_IMAGE_TOKENS = 192
_PART_WIDTH = 8
# Inside a part, the untracked MLP runs in row tiles on the same rules, each
# tile's hidden array at most _MLP_TILE_VALUES values (256 KB): 256 rows of
# the point model's 128-wide hidden, 128 of gen_image's 256-wide one.
# Whole, a 1024-point part's hidden array and SiLU buffer were 1 MB each;
# glibc gave their pages back to the kernel when the call freed them, and
# the next call faulted them in again. A 4096-point point_velocity call
# read 4224 minor faults on 2 CPUs and 4320 on one (glibc 2.36, no MALLOC_*
# settings); in tiles it reads 0 and 480.
_MLP_TILE_VALUES = 32768


def _near_equal_cuts(n: int, parts: int) -> list[int]:
    """[0, ..., n]: range(n) cut into `parts` runs whose sizes differ by at most one."""
    return [n * i // parts for i in range(parts + 1)]


def _part_bounds(config: ModelConfig, batch: int, tokens: int) -> list[int]:
    """Image indices cutting a batch of images of `tokens` tokens into
    near-equal parts on the rules above; [0, batch] is one part."""
    if config.d_model % _PART_WIDTH or config.d_kv % _PART_WIDTH:
        return [0, batch]
    n_parts = -(-batch * tokens // _PART_TOKENS)
    if tokens >= _PART_IMAGE_TOKENS:
        n_parts = max(n_parts, 1 + _pool(os.getpid())[1])
    return _near_equal_cuts(batch, min(n_parts, batch))


def _mlp_tiles(rows: int, d: int, hidden: int) -> list[int]:
    """Row indices cutting an untracked MLP of `rows` rows, d -> hidden -> d,
    into near-equal tiles of at most _MLP_TILE_VALUES hidden values, none of
    one row; [0, rows] is one tile, as is every MLP off the multiple of
    _PART_WIDTH."""
    if d % _PART_WIDTH or hidden % _PART_WIDTH:
        return [0, rows]
    n_tiles = min(-(-rows // max(1, _MLP_TILE_VALUES // hidden)), rows // 2)
    return _near_equal_cuts(rows, max(n_tiles, 1))


@lru_cache(maxsize=None)
def _pool(pid: int):
    """(executor, workers) for process pid: one worker thread per usable CPU
    beyond the caller's, made on first use. Keyed by pid, so a forked child,
    whose copy of the parent's pool has no threads, makes its own."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return (ThreadPoolExecutor(cpus - 1, thread_name_prefix="flowdit-part") if cpus > 1 else None), cpus - 1


def _run_parts(fn, jobs: list) -> list:
    """[fn(job) for job in jobs]: the leading len(jobs) // cpus jobs (at least
    one) on the calling thread, and one pool future per other job, run in a
    copy of the caller's context (so np.errstate carries over). Every job
    finishes before this returns or raises; the first exception in job order
    wins. The caller runs its share rather than waits: an idle caller beside
    one worker per CPU cost gen_point +5% peak RSS (a third malloc arena)."""
    executor, workers = _pool(os.getpid())
    own = max(1, len(jobs) // (1 + workers))
    futures = [executor.submit(contextvars.copy_context().run, fn, job) for job in jobs[own:]]
    try:
        outs = [fn(job) for job in jobs[:own]]
    finally:
        wait(futures)
    return outs + [future.result() for future in futures]


def forward_velocity(model: ModelParams, x_t, t, label=None, kv_pool=None, capture=None):
    """Predicted flow velocity for images x_t at time t.

    x_t is [B, H, W, C] and so is the result; t a scalar or a [B] vector.
    A scalar t gives one conditioning row (time MLP, modulation and final
    scale computed once) that broadcasts over the batch; it equals the
    per-sample call with np.full(B, t) to rounding, not bitwise. cond is
    [T, 1, d] (T = 1 or B) as made, so it broadcasts over the tokens.
    label is an int array of class ids (None uses the null embedding when
    the model is conditional). kv_pool = (grid, window), grid the patch
    grid, pools attention context in every block; attention_tables are
    built once per call for every block and part, and kept by none.
    capture, if a list, receives each block's output token array (values
    only, no tape).

    Inference splits batches across the usable CPUs, bitwise: an untracked
    call (neither x_t nor any parameter a tape Var) with one conditioning
    row (scalar t, no labels) and no capture runs its blocks in parts of
    whole images on the calling thread and worker threads, about one part
    per 1024 tokens (_PART_TOKENS) and, for images of at least 192 tokens
    (_PART_IMAGE_TOKENS), at least one per usable CPU. No part is a single
    GEMM row and every part GEMM is a multiple of 8 columns wide, so the
    result equals the one-part call bit for bit; on the same rules, each
    block's MLP runs in row tiles within a part (_mlp). Every other call
    runs as one part on the calling thread.
    """
    config, p = model.config, model.params
    if config.mode != "generative":
        raise ValueError("forward_velocity needs a generative-mode model")
    tokens, coords, grid = patchify(x_t, config.patch)
    batch = ad.val(x_t).shape[0]
    if np.ndim(t) == 0:  # one conditioning row, broadcast over the batch
        t_arr = np.full(1, float(t))
    else:
        t_arr = np.asarray(t, dtype=float)
        if t_arr.shape != (batch,):
            raise ValueError(f"t has shape {t_arr.shape}, expected ({batch},)")
    if kv_pool is not None and tuple(kv_pool[0]) != grid:
        raise ValueError(f"kv_pool grid {tuple(kv_pool[0])} is not the patch grid {grid}")
    cond = time_embedding(model, t_arr[:, None])
    if "label_embed" in p:
        if label is None:
            idx = np.full(len(t_arr), config.n_classes)
        else:
            idx = np.asarray(label)
            if idx.shape != (batch,) or idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= config.n_classes:
                raise ValueError(f"labels must be {batch} ids below {config.n_classes}")
        cond = ad.add(cond, p["label_embed"][idx[:, None]])
    elif label is not None:
        raise ValueError("model has no label table")
    blocks = _blocks(model)
    tables = attention_tables(coords, model_freqs(config), kv_pool)
    mods = [block_modulation(cond, block, config.d_model) for block in blocks]
    scale = ad.add(ad.add(ad.matmul(ad.silu(cond), p["w_final_mod"]), p["b_final_mod"]), 1.0)

    def head_input(tokens):
        h = _trunk(model, blocks, tokens, mods, tables, kv_pool=kv_pool, capture=capture)
        return ad.rms_norm(h, scale)  # the final norm takes the scale as its gain

    # the tape is single-threaded, and parts share mods and scale, which must be one broadcast row
    untracked = not any(isinstance(v, ad.Var) for v in (x_t, *p.values()))
    bounds = [0, batch]
    if untracked and np.ndim(t) == 0 and label is None and capture is None:
        bounds = _part_bounds(config, batch, grid[0] * grid[1])
    if len(bounds) == 2:
        h = head_input(tokens)
    else:
        spans = list(zip(bounds, bounds[1:]))
        h = np.concatenate(_run_parts(lambda span: head_input(tokens[span[0] : span[1]]), spans))
    out = ad.add(ad.matmul(h, p["w_out"]), p["b_out"])
    return unpatchify(out, grid, config.patch, config.in_channels)


def recognition_forward(model: ModelParams, tokens, coords, mask=None):
    """Class logits from a masked mean of the final token states.

    tokens [B, n, token_dim], coords [n, 2], mask [B, n] with True for a
    real token, one at least per sample, or None (no attention bias, bitwise
    as an all-True mask); the result is [B, n_classes].
    With all gates at zero initialisation the trunk is the identity, so
    logits equal head(mean of embedded tokens) exactly.
    """
    config = model.config
    if config.mode != "recognition":
        raise ValueError("recognition_forward needs a recognition-mode model")
    if ad.val(tokens).ndim != 3:
        raise ValueError(f"tokens must be [B,n,token_dim], got shape {ad.val(tokens).shape}")
    mask_arr = np.ones(ad.val(tokens).shape[:-1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask_arr.shape != ad.val(tokens).shape[:-1]:
        raise ValueError(f"mask shape {mask_arr.shape} is not the tokens' {ad.val(tokens).shape[:-1]}")

    p = model.params
    h = _trunk(model, _blocks(model), tokens, None, attention_tables(coords, model_freqs(config), mask=mask))
    weights = mask_arr / mask_arr.sum(axis=-1, keepdims=True)
    pooled = ad.sum_(ad.mul(h, weights[..., None]), axis=-2)
    h1 = ad.silu(ad.add(ad.matmul(pooled, p["head_w1"]), p["head_b1"]))
    return ad.add(ad.matmul(h1, p["head_w2"]), p["head_b2"])


def activation_probe(model: ModelParams, image_hw: tuple[int, int], timesteps, n_samples: int = 8, seed: int = 0) -> list[tuple]:
    """Hidden-state RMS per layer on standard-normal inputs.

    Returns rows (layer, t, rms_mean, rms_max): per-token RMS of each
    block's output, averaged / maximised over tokens and samples. An RMS
    that is not finite raises FloatingPointError naming its layer and t.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if len(timesteps) == 0:
        raise ValueError("need at least one timestep")
    for t in timesteps:
        if not 0.0 <= t <= 1.0:  # also false for NaN
            raise ValueError(f"timesteps must lie in [0, 1], got {t}")
    config = model.config
    rng = np.random.default_rng(seed)
    rows = []
    for t in timesteps:
        x = rng.standard_normal((n_samples, image_hw[0], image_hw[1], config.in_channels))
        states: list[np.ndarray] = []
        forward_velocity(model, x, float(t), capture=states)
        for layer, h in enumerate(states):
            rms = np.sqrt(np.mean(h * h, axis=-1))
            if not np.isfinite(rms).all():
                raise FloatingPointError(f"non-finite block output RMS at layer {layer}, t={float(t)!r}")
            rows.append((layer, float(t), float(rms.mean()), float(rms.max())))
    return rows


def named_parameters(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Deterministic (name, view) manifest of every parameter."""
    return list(model.params.items())


def set_parameter(model: ModelParams, name: str, value) -> None:
    """Write value, as f64, into the named parameter's view of the model's
    vector. Any other shape is refused, so a [d] row cannot broadcast into
    every row of a [k, d] parameter."""
    if name not in model.params:
        raise KeyError(f"no parameter named {name!r}")
    view = ad.val(model.params[name])
    value = np.asarray(value, dtype=np.float64)
    if value.shape != view.shape:
        raise ValueError(f"parameter {name} has shape {view.shape}; got a value of shape {value.shape}")
    view[...] = value


CHECKPOINT_FORMAT = "flowdit-checkpoint-v1"
# each tensor file is magic "NKT1", u8 dtype tag (2 = f64, the only one),
# u32 rank, one u64 per dim, then the raw little-endian row-major buffer
_NKT_MAGIC = b"NKT1"
_NKT_F64_TAG = 2
_F64 = np.dtype("<f8")


def _save_tensor(path, x: np.ndarray) -> None:
    """Write one f64 tensor to an NKT1 file."""
    x = np.asarray(x)
    if x.ndim:  # ascontiguousarray would silently promote rank 0 to rank 1
        x = np.ascontiguousarray(x)
    if x.dtype != np.float64:
        raise ValueError(f"unsupported dtype {x.dtype}; only f64 serializes")
    with open(path, "wb") as f:
        f.write(_NKT_MAGIC)
        f.write(struct.pack("<BI", _NKT_F64_TAG, x.ndim))
        f.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        f.write(x.astype(_F64, copy=False).tobytes())


def _load_tensor(path) -> np.ndarray:
    """Read one f64 tensor from an NKT1 file."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _NKT_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 9:
        raise ValueError(f"{path}: truncated header")
    tag, rank = struct.unpack_from("<BI", raw, 4)
    if tag != _NKT_F64_TAG:
        raise ValueError(f"{path}: dtype tag {tag} is not {_NKT_F64_TAG} (f64), the only dtype NKT1 holds")
    start = 9 + 8 * rank
    if len(raw) < start:
        raise ValueError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{rank}Q", raw, 9)
    # exact integers: a numpy product wraps silently past int64
    if math.prod(d for d in dims if d) * _F64.itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"{path}: shape {dims} is too large")
    count = math.prod(dims)
    expected = start + count * _F64.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=_F64, count=count, offset=start).reshape(dims).astype(np.float64)


def check_save_target(dirpath) -> None:
    """Refuse to replace anything but a checkpoint (a directory with manifest.json) or an empty directory."""
    dirpath = Path(dirpath)
    replaceable = dirpath.is_dir() and ((dirpath / "manifest.json").is_file() or not any(dirpath.iterdir()))
    if dirpath.exists() and not replaceable:
        raise FileExistsError(f"{dirpath} exists and is neither a checkpoint nor an empty directory; not replacing it")


def save_model(dirpath, model: ModelParams) -> None:
    """Write a checkpoint directory: manifest.json plus one NKT1 .nkt file per tensor.

    The files are written into a sibling temporary directory that is then
    renamed into place, so an interrupted write leaves a previous checkpoint
    intact (check_save_target refuses to replace anything else); that one is
    moved aside first and removed last.
    """
    dirpath = Path(dirpath)
    check_save_target(dirpath)
    dirpath.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{dirpath.name}.", dir=dirpath.parent))
    staged = work / "new"
    try:
        staged.mkdir()  # unlike mkdtemp's 0700, this honours the umask
        for name, leaf in model.params.items():
            _save_tensor(staged / f"{name}.nkt", np.asarray(ad.val(leaf), dtype=np.float64))
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "config": {**dataclasses.asdict(model.config), **FIXED_MANIFEST_CONFIG},
            "tensors": list(model.params),
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
    """Rebuild a model from a checkpoint directory, each tensor read into its
    view of the model's one vector, laid out from the config's shapes with
    no weight drawn."""
    dirpath = Path(dirpath)
    path = dirpath / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except ValueError as err:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {err}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{dirpath}: unknown checkpoint format {manifest.get('format')!r}")
    if not isinstance(manifest.get("config"), dict) or not isinstance(manifest.get("tensors"), list):
        raise ValueError(f"{path}: expected a `config` object and a `tensors` list")
    config = dict(manifest["config"])
    for key, fixed in FIXED_MANIFEST_CONFIG.items():
        if (value := config.pop(key, fixed)) != fixed:
            raise ValueError(f"{dirpath}: config {key} is {value!r}; flowdit fixes it at {fixed!r}")
    try:
        config = ModelConfig(**config)
        layout = _fresh_tensors(config, lambda *shape: np.empty(shape))  # the shapes alone: no draw
    except (TypeError, ValueError) as err:  # an unknown key, or a value of the wrong type
        raise ValueError(f"{path}: {err}") from None
    names = manifest["tensors"]
    if not all(isinstance(name, str) for name in names) or sorted(names) != sorted(layout):
        raise ValueError(f"{path}: tensor manifest does not match the architecture's {len(layout)} names, each once")
    flat = np.empty(sum(a.size for a in layout.values()))
    model = ModelParams(config, flat, parameter_views(flat, layout))
    for name in names:  # the names are the layout's, each once, so every entry of flat is written
        arr = _load_tensor(dirpath / f"{name}.nkt")
        view = model.params[name]
        if arr.shape != view.shape:
            raise ValueError(f"{name}: stored shape {arr.shape} != expected {view.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name}: stored tensor has non-finite values")
        view[...] = arr
    return model
