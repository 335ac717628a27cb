"""Transformer-encoder detector for differentially encoded OFDM symbol pairs.

The model maps a normalized complex window (window_len x 2 reals) to the
(+-1 +-1j) symbol that relates the window's two center positions. Structure:

* dimension-raising affine embed of each (re, im) pair,
* trapezoidal positional encoding, flat across the two center rows,
* a denoising row: a learned projection of fresh Gaussian noise appended as
  an extra token inside layer 1 only,
* encoder layers with DeepNorm residuals (LN(alpha*x + sublayer(x))) and a
  Mish feed-forward block,
* multi-head attention over a heads axis: per layer, one (d, d) weight each
  for Q, K and V and one scaled dot-product over (batch, heads, rows, rows),
* interactive attention: layers are grouped; a non-first group member stacks
  the group's cached attention maps with its own as conv channels, applies a
  3x3 kernel per head (one grouped convolution), and re-normalizes with a
  softmax. Kernels (heads, position-in-group, 3, 3) are shared across groups,
  which keeps the overhead at h * sum(position sizes) * 9 weights.
* output: the two center rows concatenated, one affine map, tanh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .params import make_ones, make_param, make_stacked_param, make_zeros


def trapezoid_encoding(window_len: int) -> np.ndarray:
    """Per-row encoding rising linearly to 1 at the two center rows, then mirrored."""
    if window_len < 4 or window_len % 2:
        raise ValueError(f"window_len must be even and >= 4, got {window_len}")
    half = window_len // 2
    ramp = 2.0 * np.arange(1, half + 1) / window_len
    return np.concatenate([ramp, ramp[::-1]])


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    window_len: int = 16
    n_heads: int = 4
    n_layers: int = 6
    d_ff: int | None = None
    fusion_groups: tuple = ((1, 3, 4), (2, 5, 6))
    dns_enabled: bool = True
    dns_noise_dim: int = 16
    tpe_enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "fusion_groups", tuple(tuple(int(i) for i in g) for g in self.fusion_groups))
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.window_len < 4 or self.window_len % 2:
            raise ValueError(f"window_len must be even and >= 4, got {self.window_len}")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.dns_enabled and self.dns_noise_dim < 1:
            raise ValueError("dns_noise_dim must be >= 1 when the denoising row is enabled")
        seen = set()
        for g in self.fusion_groups:
            if not g:
                raise ValueError("empty fusion group")
            if list(g) != sorted(g) or len(set(g)) != len(g):
                raise ValueError(f"fusion group must be strictly increasing, got {g}")
            if g[0] < 1 or g[-1] > self.n_layers:
                raise ValueError(f"fusion group {g} outside layers 1..{self.n_layers}")
            if seen & set(g):
                raise ValueError(f"fusion groups overlap at layers {sorted(seen & set(g))}")
            seen |= set(g)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model

    @property
    def residual_alpha(self) -> float:
        return float((2.0 * self.n_layers) ** 0.25)

    @property
    def init_gain(self) -> float:
        return float((8.0 * self.n_layers) ** -0.25)

    def group_of(self, layer: int):
        for g in self.fusion_groups:
            if layer in g:
                return g
        return None


class TransDetector:
    def __init__(self, cfg: ModelConfig, params: dict):
        self.cfg = cfg
        self.params = params

    # ---- construction ----

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int, dtype=np.float32) -> "TransDetector":
        d, dk, dff = cfg.d_model, cfg.head_dim, cfg.ffn_dim
        beta = cfg.init_gain
        p = {}

        def w(key, shape, fan_in, fan_out, gain=1.0):
            p[key] = make_param(seed, "trans." + key, shape, fan_in, fan_out, gain, dtype)

        def heads(prefix, leaf, shape, fan_in, fan_out, axis, gain=1.0):
            # head j's slice comes from the stream of "<prefix>.h<j>.<leaf>", with
            # a single head's fan-in and fan-out
            names = [f"trans.{prefix}.h{j}.{leaf}" for j in range(cfg.n_heads)]
            p[f"{prefix}.{leaf}"] = make_stacked_param(seed, names, shape, fan_in, fan_out, gain, dtype, axis)

        w("embed.w", (2, d), 2, d)
        p["embed.b"] = make_zeros((d,), dtype)
        if cfg.dns_enabled:
            w("dns.w", (cfg.dns_noise_dim, d), cfg.dns_noise_dim, d)
            p["dns.b"] = make_zeros((d,), dtype)
        for i in range(1, cfg.n_layers + 1):
            heads(f"te{i}", "wq", (d, dk), d, dk, axis=1)
            heads(f"te{i}", "wk", (d, dk), d, dk, axis=1)
            heads(f"te{i}", "wv", (d, dk), d, dk, axis=1, gain=beta)
            for nm in ("bq", "bk", "bv"):
                p[f"te{i}.{nm}"] = make_zeros((d,), dtype)
            w(f"te{i}.wo", (d, d), d, d, beta)
            p[f"te{i}.bo"] = make_zeros((d,), dtype)
            w(f"te{i}.ffn.w1", (d, dff), d, dff, beta)
            p[f"te{i}.ffn.b1"] = make_zeros((dff,), dtype)
            w(f"te{i}.ffn.w2", (dff, d), dff, d, beta)
            p[f"te{i}.ffn.b2"] = make_zeros((d,), dtype)
            for ln in ("ln1", "ln2"):
                p[f"te{i}.{ln}.g"] = make_ones((d,), dtype)
                p[f"te{i}.{ln}.b"] = make_zeros((d,), dtype)
        for pos in range(2, max((len(g) for g in cfg.fusion_groups), default=1) + 1):
            heads(f"fusion.p{pos}", "k", (1, pos, 3, 3), pos * 9, 9, axis=0)
        w("head.w", (2 * d, 2), 2 * d, 2)
        p["head.b"] = make_zeros((2,), dtype)
        return cls(cfg, p)

    # ---- forward ----

    def draw_noise(self, rng: np.random.Generator, batch: int) -> np.ndarray | None:
        """The (batch, dns_noise_dim) denoising-row input forward draws; None without the row."""
        cfg = self.cfg
        if not cfg.dns_enabled:
            return None
        return rng.standard_normal((batch, cfg.dns_noise_dim))

    def forward(
        self,
        tape: ad.Tape,
        windows,
        params: dict | None = None,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
        collect_attention: bool = False,
    ):
        """windows: (batch, window_len, 2) -> (batch, 2) in [-1, 1].

        With dns enabled, the per-sample noise vector is drawn from rng unless
        given explicitly; with collect_attention, also returns the finalized
        attention maps per layer as (batch, n_heads, rows, rows) arrays.
        """
        cfg = self.cfg
        p = self.params if params is None else params
        dtype = next(iter(p.values())).dtype
        if not isinstance(windows, ad.Tensor):
            windows = ad.Tensor(np.asarray(windows), dtype=dtype)
        if windows.ndim != 3 or windows.shape[1:] != (cfg.window_len, 2):
            raise ad.DimensionError(
                f"expected windows (batch, {cfg.window_len}, 2), got {windows.shape}"
            )
        batch = windows.shape[0]

        x = ad.linear(tape, windows, p["embed.w"], p["embed.b"])
        if cfg.tpe_enabled:
            pe = trapezoid_encoding(cfg.window_len).astype(dtype)
            pe_mat = np.repeat(pe[:, None], cfg.d_model, axis=1)
            x = ad.add(tape, x, ad.Tensor(pe_mat, dtype=dtype))
        if cfg.dns_enabled:
            if noise is None:
                if rng is None:
                    raise ValueError("dns is enabled: pass rng= or an explicit noise= batch")
                noise = self.draw_noise(rng, batch)
            noise = np.asarray(noise, dtype=dtype)
            if noise.shape != (batch, cfg.dns_noise_dim):
                raise ad.DimensionError(
                    f"noise must be (batch, {cfg.dns_noise_dim}), got {noise.shape}"
                )
            row = ad.linear(tape, ad.Tensor(noise, dtype=dtype), p["dns.w"], p["dns.b"])
            row = ad.reshape(tape, row, (batch, 1, cfg.d_model))
            x = ad.concat_rows(tape, [x, row])

        cache = {}  # group -> its finalized attention maps so far
        records = [] if collect_attention else None
        for i in range(1, cfg.n_layers + 1):
            x = self._te_layer(tape, p, x, i, cache, records)
            if cfg.dns_enabled and i == 1:
                x = ad.slice_rows(tape, x, 0, cfg.window_len)

        half = cfg.window_len // 2
        pooled = ad.slice_rows(tape, x, half - 1, half + 1)
        feat = ad.reshape(tape, pooled, (batch, 2 * cfg.d_model))
        out = ad.tanh_op(tape, ad.linear(tape, feat, p["head.w"], p["head.b"]))
        if collect_attention:
            return out, records
        return out

    def _te_layer(self, tape, p, x, i, cache: dict, records):
        cfg = self.cfg
        alpha = cfg.residual_alpha
        merged = self._attention(tape, p, x, i, cache, records)
        x = ad.layer_norm(
            tape, ad.add(tape, ad.scale(tape, x, alpha), merged),
            p[f"te{i}.ln1.g"], p[f"te{i}.ln1.b"],
        )
        inner = ad.mish(tape, ad.linear(tape, x, p[f"te{i}.ffn.w1"], p[f"te{i}.ffn.b1"]))
        ffn = ad.linear(tape, inner, p[f"te{i}.ffn.w2"], p[f"te{i}.ffn.b2"])
        return ad.layer_norm(
            tape, ad.add(tape, ad.scale(tape, x, alpha), ffn),
            p[f"te{i}.ln2.g"], p[f"te{i}.ln2.b"],
        )

    def _attention(self, tape, p, x, i, cache: dict, records):
        """Multi-head attention of layer i with map fusion, through the output projection.

        A method of its own so that its (batch, heads, rows, rows) temporaries
        are freed before the feed-forward block runs."""
        cfg = self.cfg
        batch, rows, d = x.shape
        split = (batch, rows, cfg.n_heads, cfg.head_dim)
        group = cfg.group_of(i)

        def project(name, axes):
            y = ad.linear(tape, x, p[f"te{i}.w{name}"], p[f"te{i}.b{name}"])
            return ad.transpose(tape, ad.reshape(tape, y, split), axes)

        q = project("q", (0, 2, 1, 3))   # (batch, heads, rows, head_dim)
        kt = project("k", (0, 2, 3, 1))  # (batch, heads, head_dim, rows)
        v = project("v", (0, 2, 1, 3))
        a = ad.softmax_rows(tape, ad.scale(tape, ad.matmul(tape, q, kt), cfg.head_dim**-0.5))
        if group is not None and i != group[0]:
            chans = cache[group] + [a]
            fused = ad.conv2d_same(tape, ad.stack_channels(tape, chans), p[f"fusion.p{len(chans)}.k"])
            a = ad.softmax_rows(tape, fused)
        if group is not None and i != group[-1]:
            entry = a
            if rows != cfg.window_len:
                # layer-1 maps carry the denoising row; crop to window rows and
                # re-normalize so later fusions see a row-stochastic map
                entry = ad.slice_rows(tape, a, 0, cfg.window_len)
                entry = ad.slice_cols(tape, entry, 0, cfg.window_len)
                entry = ad.normalize_rows(tape, entry)
            cache.setdefault(group, []).append(entry)
        if records is not None:
            records.append(a.data.copy())
        heads = ad.transpose(tape, ad.matmul(tape, a, v), (0, 2, 1, 3))
        return ad.linear(tape, ad.reshape(tape, heads, (batch, rows, d)), p[f"te{i}.wo"], p[f"te{i}.bo"])
