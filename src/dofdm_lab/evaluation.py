"""Detector evaluation: BER and MSE over simulated frames, attention averaging."""

from __future__ import annotations

import ctypes
import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .baseband import single_fft_detect
from .checkpoint import atomic_write
from .preprocess import unfold_normalize, window_samples

EVAL_BATCH = 256

# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def predict(model, windows: np.ndarray, batch_size: int = EVAL_BATCH, seed: int = 0) -> np.ndarray:
    """Forward a window array in eval mode, batches spread over the usable cores.

    Denoising-row noise is drawn here, batch by batch in order from a
    fixed-seed rng, so the output does not depend on the worker count. At
    most one batch per worker is in flight, and OpenBLAS runs single-threaded
    meanwhile; without a known OpenBLAS the batches run serially.
    """
    rng = np.random.default_rng(seed)
    draw = getattr(model, "draw_noise", None)

    def jobs():
        for i in range(0, windows.shape[0], batch_size):
            chunk = windows[i : i + batch_size]
            yield chunk, None if draw is None else draw(rng, chunk.shape[0])

    def run(chunk, noise):
        kwargs = {} if noise is None else {"noise": noise}
        return model.forward(ad.Tape(recording=False), chunk, **kwargs).data

    workers = min(_usable_cores(), -(-windows.shape[0] // batch_size))
    controls = _openblas_controls()
    if workers <= 1 or controls is None:
        outs = [run(*job) for job in jobs()]
    else:
        outs = []
        with _blas_single_threaded(controls), ThreadPoolExecutor(workers) as pool:
            pending = deque()
            for job in jobs():
                if len(pending) == workers:
                    outs.append(pending.popleft().result())
                pending.append(pool.submit(run, *job))
            outs.extend(f.result() for f in pending)
    return np.concatenate(outs) if outs else np.zeros((0, 2), dtype=np.float32)


def _usable_cores() -> int:
    """Cores in this process's CPU affinity (all cores where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded in the process, or None."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:  # Linux: the mapped files, path last
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        return None
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls) or None


@contextmanager
def _blas_single_threaded(controls):
    """Run the body with every given OpenBLAS at 1 thread, then restore the old counts."""
    old = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, old):
            set_(count)


def evaluate_mse_db(pred: np.ndarray, target: np.ndarray) -> float:
    """10*log10 of the mean squared complex error; -inf when the error is zero."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2 or pred.shape[-1] != 2:
        raise ValueError(f"expected matching (n, 2) arrays, got {pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise ValueError("no pairs to score")
    total = float(np.sum((pred - target) ** 2))
    if total == 0.0:
        return -math.inf
    return 10.0 * math.log10(total / pred.shape[0])


def bits_from_pairs(pairs: np.ndarray) -> np.ndarray:
    """(n, 2) detector outputs -> (n, 2) hard bits by component sign."""
    p = np.asarray(pairs)
    return np.stack([(p[..., 0] < 0), (p[..., 1] < 0)], axis=-1).astype(np.uint8)


@dataclass(frozen=True)
class MetricsRow:
    detector: str
    snr_db: float
    doppler_alpha: float
    ber: float
    mse_db: float
    n_bits: int
    bit_errors: int


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple

    def row(self, detector: str, snr_db, doppler_alpha) -> MetricsRow:
        for r in self.rows:
            if (
                r.detector == detector
                and _same(r.snr_db, snr_db)
                and _same(r.doppler_alpha, doppler_alpha)
            ):
                return r
        raise KeyError((detector, snr_db, doppler_alpha))


def _same(a, b) -> bool:
    a = math.inf if a is None else a
    b = math.inf if b is None else b
    return a == b


def evaluate_frames(sims: list, models: dict, window_len: int, seed: int = 0) -> MetricsReport:
    """Score single_fft plus each named model over FrameSim batches.

    sims may mix (snr, alpha) cells; metrics aggregate per cell per detector.
    Degenerate symbols are scored, not skipped: a model's output there is
    zero pairs (decided as 00), so BER stays honest.
    """
    if not sims:
        raise ValueError("no frames to evaluate")
    cells = {}
    for sim in sims:
        cells.setdefault((sim.snr_db, sim.doppler_alpha), []).append(sim)

    rows = []
    for (snr_db, alpha), group in sorted(
        cells.items(), key=lambda kv: (_inf(kv[0][0]), kv[0][1])
    ):
        demods = np.stack([s.demod for s in group])
        true_bits = np.stack([s.frame.bits for s in group]).reshape(-1, 2)
        diff = np.stack([s.frame.diff_symbols for s in group]).ravel()
        targets = np.stack([diff.real, diff.imag], axis=-1) * math.sqrt(2.0)
        soft, _ = single_fft_detect(demods)
        outputs = {"single_fft": np.stack([soft.real, soft.imag], axis=-1)}
        if models:
            normalized, degenerate = unfold_normalize(demods)
            windows = window_samples(normalized[~degenerate], window_len)
            for name, model in models.items():
                pairs = np.zeros(degenerate.shape + (demods.shape[-1] - 1, 2), dtype=np.float32)
                pairs[~degenerate] = predict(
                    model, windows.reshape(-1, window_len, 2), seed=seed
                ).reshape(-1, *pairs.shape[-2:])
                outputs[name] = pairs
        for name, pairs in outputs.items():
            pairs = pairs.reshape(-1, 2)
            errs = int((bits_from_pairs(pairs) != true_bits).sum())
            rows.append(
                MetricsRow(
                    name,
                    math.inf if snr_db is None else float(snr_db),
                    float(alpha),
                    errs / true_bits.size,
                    evaluate_mse_db(pairs, targets),
                    true_bits.size,
                    errs,
                )
            )
    return MetricsReport(tuple(rows))


def _inf(x):
    return math.inf if x is None else x


# ---- attention averaging ----


def attention_average(model, sims: list, subcarrier: int, n_detections: int, seed: int = 0):
    """Mean attention map per layer over heads and n_detections symbol windows.

    Window rows for the requested subcarrier come from successive symbols
    across the given frames. Returns (list of per-layer (rows, rows) arrays,
    number of detections actually used).
    """
    if not sims:
        raise ValueError("no frames to read attention from")
    window_len = model.cfg.window_len
    k_total = sims[0].demod.shape[1]
    if not (1 <= subcarrier <= k_total - 1):
        raise IndexError(f"subcarrier must be in 1..{k_total - 1}, got {subcarrier}")
    if n_detections < 1:
        raise ValueError("n_detections must be >= 1")
    normalized, degenerate = unfold_normalize(np.stack([s.demod for s in sims]))
    rows = np.flatnonzero(~degenerate)[:n_detections]
    if rows.size == 0:
        raise ValueError("no usable symbols in the given frames")
    flat = normalized.reshape(-1, normalized.shape[-1])
    # a copy, so the windows of the other subcarriers are freed before the forward
    batch = window_samples(flat[rows], window_len)[:, subcarrier - 1].copy()
    rng = np.random.default_rng(seed)
    _, records = model.forward(
        ad.Tape(recording=False), batch, rng=rng, collect_attention=True
    )
    return [r.mean(axis=(0, 1)) for r in records], rows.size


# ---- text artifacts ----


def write_metrics_csv(path, report: MetricsReport, manifest_hash: str | None = None) -> None:
    with atomic_write(path, "w", newline="") as fh:
        if manifest_hash:
            fh.write(f"# manifest {manifest_hash}\n")
        fh.write("detector,snr_db,alpha,ber,mse_db,n_bits\n")
        for r in report.rows:
            fh.write(
                f"{r.detector},{_fmt(r.snr_db)},{_fmt(r.doppler_alpha)},"
                f"{_fmt(r.ber)},{_fmt(r.mse_db)},{r.n_bits}\n"
            )


def write_loss_csv(path, curve, manifest_hash: str | None = None) -> None:
    with atomic_write(path, "w", newline="") as fh:
        if manifest_hash:
            fh.write(f"# manifest {manifest_hash}\n")
        fh.write("step,loss,lr\n")
        for step, loss, lr in curve:
            fh.write(f"{step},{_fmt(loss)},{_fmt(lr)}\n")


def write_attention_matrix(path, matrix: np.ndarray, header: dict | None = None) -> None:
    """Space-separated rows; '#' header lines carry provenance metadata."""
    with atomic_write(path, "w") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key} {value}\n")
        for row in np.asarray(matrix):
            fh.write(" ".join(f"{v:.8e}" for v in row) + "\n")


def read_attention_matrix(path) -> tuple:
    """Inverse of write_attention_matrix: (matrix, header dict of strings)."""
    header, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(" ")
                header[key] = value
            else:
                rows.append([float(v) for v in line.split()])
    return np.asarray(rows, dtype=np.float64), header


def _fmt(x: float) -> str:
    if x != x:
        return "nan"
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return f"{x:.10g}"
