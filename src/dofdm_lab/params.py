"""Parameter containers and deterministic per-name initialization."""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import Tensor


def name_rng(seed: int, name: str) -> np.random.Generator:
    """RNG stream keyed by (seed, parameter name).

    Keying on the name means a given tensor initializes identically no matter
    which other tensors a config happens to allocate, so ablated variants
    share weights bit-for-bit with their full counterparts.
    """
    digest = hashlib.sha256(name.encode()).digest()
    return np.random.default_rng(np.random.SeedSequence([int(seed), int.from_bytes(digest[:8], "little")]))


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def make_param(seed: int, name: str, shape, fan_in: int, fan_out: int, gain: float, dtype) -> Tensor:
    data = xavier_uniform(name_rng(seed, name), shape, fan_in, fan_out, gain)
    return Tensor(data.astype(dtype), requires_grad=True)


def make_stacked_param(seed: int, names, shape, fan_in: int, fan_out: int, gain: float, dtype, axis: int) -> Tensor:
    """One `shape` slice per name, each drawn as make_param draws it, joined along axis."""
    parts = [xavier_uniform(name_rng(seed, name), shape, fan_in, fan_out, gain) for name in names]
    return Tensor(np.concatenate(parts, axis=axis).astype(dtype), requires_grad=True)


def make_zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def make_ones(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def parameter_count(params: dict) -> int:
    return int(sum(t.size for t in params.values()))


def zero_all_grads(params: dict) -> None:
    for t in params.values():
        t.zero_grad()
