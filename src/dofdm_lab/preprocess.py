"""Turn demodulated subcarrier values into normalized detector windows.

Both stages work on any leading axes, such as (frames, symbols). Per OFDM
symbol, unfold_normalize turns the K complex values into 2K reals (re, im
interleaved), shift-normalized by the spread of the ten largest minus ten
smallest values, and flags a symbol with no spread as degenerate. For each
detectable subcarrier k (1..K-1), window_samples then cuts a window_len x 2
window of consecutive complex positions, zero-padded at the sequence edges
(window_pad_counts gives how many rows), with y_{k-1} and y_k on the two
center rows. The dataset leaves degenerate symbols out; evaluation masks
them and scores zero outputs there. Targets are the differential ratios in
+-1 +-1j form. Splits are assigned per frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .baseband import FrameSim, qpsk_point
from .checkpoint import atomic_write

DATASET_MAGIC = b"DOFD"
DATASET_VERSION = 1
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)
SPREAD_RANK = 10
DEGENERATE_EPS = 1e-12


def unfold_normalize(demods: np.ndarray) -> tuple:
    """(..., K) complex values -> ((..., 2K) normalized reals, (...) degenerate mask).

    Each symbol's values are shifted by their mean and scaled by (mean of the
    10 largest - mean of the 10 smallest). A spread below 1e-12 marks the
    symbol degenerate and its row is zeros.
    """
    y = np.asarray(demods)
    if y.ndim < 1:
        raise ValueError(f"expected subcarrier values on the last axis, got shape {y.shape}")
    reals = np.empty(y.shape[:-1] + (2 * y.shape[-1],), dtype=np.float64)
    reals[..., 0::2] = y.real
    reals[..., 1::2] = y.imag
    rank = min(SPREAD_RANK, reals.shape[-1])
    srt = np.sort(reals, axis=-1)
    spread = srt[..., -rank:].mean(axis=-1) - srt[..., :rank].mean(axis=-1)
    degenerate = spread < DEGENERATE_EPS
    normalized = np.zeros_like(reals)
    np.divide(
        reals - reals.mean(axis=-1, keepdims=True), spread[..., None],
        out=normalized, where=~degenerate[..., None],
    )
    return normalized, degenerate


def window_samples(normalized: np.ndarray, window_len: int) -> np.ndarray:
    """(..., 2K) normalized reals -> (..., K-1, window_len, 2) float32 windows, k = 1..K-1.

    Window rows are consecutive complex positions; rows window_len/2 and
    window_len/2 + 1 (1-indexed) hold positions k-1 and k. The sequence is
    padded with window_len/2 - 1 complex zeros on each side, so the first and
    last windows carry that many zero rows (see window_pad_counts).
    """
    x = np.asarray(normalized)
    if x.ndim < 1 or x.shape[-1] % 2:
        raise ValueError(f"expected interleaved re/im values, got shape {x.shape}")
    if window_len < 4 or window_len % 2:
        raise ValueError(f"window_len must be even and >= 4, got {window_len}")
    k_total = x.shape[-1] // 2
    if k_total < 2:
        raise ValueError("need at least two subcarriers to form windows")
    pad = window_len // 2 - 1
    padded = np.zeros(x.shape[:-1] + (k_total + 2 * pad, 2), dtype=np.float32)
    padded[..., pad : pad + k_total, :] = x.reshape(x.shape[:-1] + (k_total, 2))
    view = np.lib.stride_tricks.sliding_window_view(padded, window_len, axis=-2)
    return np.ascontiguousarray(np.swapaxes(view, -1, -2))


def window_pad_counts(subcarrier: int, n_subcarriers: int, window_len: int) -> tuple:
    """(leading, trailing) zero-padded rows of subcarrier k's window."""
    half = window_len // 2
    lead = max(0, half - subcarrier)
    trail = max(0, subcarrier + half - n_subcarriers)
    return lead, trail


@dataclass(frozen=True)
class Dataset:
    window_len: int
    windows: np.ndarray   # (n, window_len, 2) float32
    targets: np.ndarray   # (n, 2) float32
    meta: np.ndarray      # (n, 3) uint32: frame, symbol, subcarrier k
    split_of_frame: dict  # frame id -> 'train' | 'val' | 'test'

    @property
    def n_samples(self) -> int:
        return int(self.windows.shape[0])

    def indices(self, split: str) -> np.ndarray:
        frames = {f for f, s in self.split_of_frame.items() if s == split}
        mask = np.isin(self.meta[:, 0], sorted(frames))
        return np.flatnonzero(mask)


def assign_splits(n_frames: int, split_seed: int) -> dict:
    """Frame-level 80/10/10 split, deterministic in the seed."""
    if n_frames < 1:
        raise ValueError("need at least one frame to split")
    order = np.random.default_rng(split_seed).permutation(n_frames)
    n_train = int(round(SPLIT_FRACTIONS[0] * n_frames))
    n_val = int(round(SPLIT_FRACTIONS[1] * n_frames))
    n_train = min(n_train, n_frames - 1) if n_frames > 1 else n_frames
    out = {}
    for pos, frame in enumerate(order):
        if pos < n_train:
            out[int(frame)] = "train"
        elif pos < n_train + n_val:
            out[int(frame)] = "val"
        else:
            out[int(frame)] = "test"
    return out


def build_dataset(sims: list, window_len: int, split_seed: int) -> Dataset:
    """FrameSim list -> windows, +-1 +-1j targets and a frame-level split.

    Degenerate symbols are left out; every other (frame, symbol) gives K-1
    windows, in (frame, symbol, k) order.
    """
    if not sims:
        raise ValueError("no frames to build a dataset from")
    wrong = [type(s).__name__ for s in sims if not isinstance(s, FrameSim)]
    if wrong:
        raise TypeError(f"expected FrameSim entries, got {wrong[0]}")
    normalized, degenerate = unfold_normalize(np.stack([s.demod for s in sims]))
    keep = ~degenerate
    frames, symbols = np.nonzero(keep)
    if frames.size == 0:
        raise ValueError("every symbol was degenerate; nothing to train on")
    win = window_samples(normalized[keep], window_len)
    n_per_symbol = win.shape[1]
    bits = np.stack([s.frame.bits for s in sims])[keep]
    tgt_c = qpsk_point(bits).astype(np.complex64).ravel()
    tgt = np.stack([tgt_c.real, tgt_c.imag], axis=-1).astype(np.float32)
    meta = np.column_stack([
        np.repeat(frames, n_per_symbol),
        np.repeat(symbols, n_per_symbol),
        np.tile(np.arange(1, n_per_symbol + 1), frames.size),
    ]).astype(np.uint32)
    return Dataset(
        window_len, win.reshape(-1, window_len, 2), tgt, meta,
        assign_splits(len(sims), split_seed),
    )


# ---- binary persistence ----

_HEADER = struct.Struct("<4sIIQ")


def _record_dtype(window_len: int) -> np.dtype:
    return np.dtype(
        [
            ("window", "<f4", (2 * window_len,)),
            ("target", "<f4", (2,)),
            ("frame", "<u4"),
            ("symbol", "<u4"),
            ("subcarrier", "<u4"),
        ]
    )


def save_dataset(path, ds: Dataset) -> None:
    rec = np.empty(ds.n_samples, dtype=_record_dtype(ds.window_len))
    rec["window"] = ds.windows.reshape(ds.n_samples, -1)
    rec["target"] = ds.targets
    rec["frame"], rec["symbol"], rec["subcarrier"] = ds.meta[:, 0], ds.meta[:, 1], ds.meta[:, 2]
    with atomic_write(path) as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, ds.window_len, ds.n_samples))
        fh.write(rec.tobytes())


def load_dataset(path, split_seed: int, n_frames: int | None = None) -> Dataset:
    """Read a dataset file; the split is recomputed from (n_frames, split_seed)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, window_len, count = _HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise ValueError(f"{path}: not a dataset file (magic {magic!r})")
        if version != DATASET_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        raw = fh.read()
    dtype = _record_dtype(window_len)
    if len(raw) != count * dtype.itemsize:
        raise ValueError(f"{path}: expected {count} records, file holds {len(raw) // dtype.itemsize}")
    rec = np.frombuffer(raw, dtype=dtype)
    frames = rec["frame"].astype(np.uint32)
    if n_frames is None:
        n_frames = int(frames.max()) + 1 if count else 0
    return Dataset(
        int(window_len),
        rec["window"].reshape(count, window_len, 2).copy(),
        rec["target"].copy(),
        np.column_stack([frames, rec["symbol"], rec["subcarrier"]]).astype(np.uint32),
        assign_splits(n_frames, split_seed),
    )
