"""Fully-connected baseline detector: flattened window in, symbol estimate out."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .params import make_param, make_zeros


@dataclass(frozen=True)
class DnnConfig:
    window_len: int = 16
    hidden: tuple = (128, 256, 512, 256, 128)

    def __post_init__(self):
        if self.window_len < 2 or self.window_len % 2:
            raise ValueError(f"window_len must be even and >= 2, got {self.window_len}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")

    @property
    def widths(self) -> tuple:
        return (2 * self.window_len,) + self.hidden + (2,)


class DnnDetector:
    """Stack of affine layers, Mish between hidden layers, tanh on the output pair."""

    def __init__(self, cfg: DnnConfig, params: dict):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: DnnConfig, seed: int, dtype=np.float32) -> "DnnDetector":
        params = {}
        widths = cfg.widths
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            params[f"fc{i}.w"] = make_param(seed, f"dnn.fc{i}.w", (n_in, n_out), n_in, n_out, 1.0, dtype)
            params[f"fc{i}.b"] = make_zeros((n_out,), dtype)
        return cls(cfg, params)

    def forward(self, tape: ad.Tape, windows, params: dict | None = None, rng=None) -> ad.Tensor:
        """windows: (batch, window_len, 2) -> (batch, 2) in [-1, 1]."""
        p = self.params if params is None else params
        if not isinstance(windows, ad.Tensor):
            windows = ad.Tensor(windows, dtype=next(iter(p.values())).dtype)
        if windows.ndim != 3 or windows.shape[1:] != (self.cfg.window_len, 2):
            raise ad.DimensionError(
                f"expected windows (batch, {self.cfg.window_len}, 2), got {windows.shape}"
            )
        n_layers = len(self.cfg.widths) - 1
        x = ad.reshape(tape, windows, (windows.shape[0], 2 * self.cfg.window_len))
        for i in range(n_layers):
            x = ad.linear(tape, x, p[f"fc{i}.w"], p[f"fc{i}.b"])
            x = ad.mish(tape, x) if i < n_layers - 1 else ad.tanh_op(tape, x)
        return x
