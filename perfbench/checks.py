"""Output checks that recompute each workload's result by independent means.

Every check returns a list of failure messages; an empty list passes. The
reference computations here share no code with the package beyond the
public calls named in each docstring, so a fault in the package's own
windowing, tallies or gradients shows as a disagreement.
"""

from __future__ import annotations

import math

import numpy as np

SPREAD_RANK = 10
DEGENERATE_EPS = 1e-12
# stored windows are float32 copies of float64 values
WINDOW_ATOL = 1e-6
WINDOW_RTOL = 1e-6
# the realized in-band noise power over N complex bins deviates from its
# calibrated mean by 1/sqrt(N) (one sigma): 0.044 dB on the default frame's
# ~9,700 in-band bins; the bound is six sigma, 0.26 dB there
SNR_SIGMAS = 6.0
BODY_POWER_TOL = 1e-9
# float64 central differences of the loss along one random unit direction
GRAD_REL_TOL = 1e-6
GRAD_STEP = 1e-5
MSE_DB_TOL = 1e-9


# ---- windows ----


def reference_normalize(demod: np.ndarray) -> tuple:
    """(..., K) complex -> ((..., K, 2) normalized pairs, (...) degenerate mask).

    Shift by the mean of the 2K interleaved reals, scale by the mean of the
    10 largest minus the mean of the 10 smallest, found with np.partition.
    """
    y = np.asarray(demod, dtype=np.complex128)
    reals = np.stack([y.real, y.imag], axis=-1).reshape(*y.shape[:-1], -1)
    n = reals.shape[-1]
    rank = min(SPREAD_RANK, n)
    part = np.partition(reals, (rank - 1, n - rank), axis=-1)
    spread = part[..., n - rank :].mean(axis=-1) - part[..., :rank].mean(axis=-1)
    degenerate = spread < DEGENERATE_EPS
    safe = np.where(degenerate, 1.0, spread)
    norm = (reals - reals.mean(axis=-1, keepdims=True)) / safe[..., None]
    return norm.reshape(*y.shape, 2), degenerate


def check_windows(windows: np.ndarray, meta: np.ndarray, demods: np.ndarray, label: str) -> list:
    """Record count and center rows of every window against the reference.

    demods: (frames, symbols, K) complex; meta rows are (frame, symbol, k).
    """
    errors = []
    pairs, degenerate = reference_normalize(demods)
    n_frames, n_sym, k_total = demods.shape
    expected = int((~degenerate).sum()) * (k_total - 1)
    if windows.shape[0] != expected or meta.shape[0] != expected:
        errors.append(
            f"{label}: {windows.shape[0]} windows, expected {n_frames} frames x {n_sym} symbols "
            f"x {k_total - 1} minus {int(degenerate.sum())} degenerate symbols = {expected}"
        )
        return errors
    f, s, k = (meta[:, i].astype(np.int64) for i in range(3))
    if np.any(degenerate[f, s]):
        errors.append(f"{label}: windows present for degenerate symbols")
    half = windows.shape[1] // 2
    for row, pos in ((half - 1, k - 1), (half, k)):
        ref = pairs[f, s, pos]
        got = windows[:, row, :].astype(np.float64)
        bad = np.abs(got - ref) > WINDOW_ATOL + WINDOW_RTOL * np.abs(ref)
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=-1))[0])
            errors.append(
                f"{label}: window row {row} of record {i} (frame {f[i]}, symbol {s[i]}, k {k[i]}) "
                f"is {got[i]}, reference {ref[i]}"
            )
    return errors


def check_dataset_roundtrip(loaded, held, label: str) -> list:
    errors = []
    for field in ("windows", "targets", "meta"):
        a, b = getattr(loaded, field), getattr(held, field)
        if a.shape != b.shape or not np.array_equal(a, b):
            errors.append(f"{label}: {field} read back from disk differ from the ones in memory")
    return errors


# ---- baseband ----


def inband_power(x: np.ndarray, sample_rate_hz: float, band: tuple) -> tuple:
    """(sum of |X_k|^2 over the band's rfft bins, number of those bins)."""
    spec = np.fft.rfft(np.asarray(x, dtype=np.float64))
    freqs = np.arange(spec.size) * (sample_rate_hz / x.size)
    sel = (freqs >= band[0]) & (freqs <= band[1])
    return float(np.sum(np.abs(spec[sel]) ** 2)), int(sel.sum())


def check_snr(clean: np.ndarray, noisy: np.ndarray, snr_db: float, sample_rate_hz: float, band: tuple, label: str) -> list:
    """In-band power of clean against (noisy - clean) must give the cell's SNR."""
    n = min(clean.size, noisy.size)
    p_sig, _ = inband_power(clean[:n], sample_rate_hz, band)
    p_noise, bins = inband_power(noisy[:n] - clean[:n], sample_rate_hz, band)
    measured = 10.0 * math.log10(p_sig / p_noise)
    bound = SNR_SIGMAS * 10.0 / math.log(10.0) / math.sqrt(bins)
    if abs(measured - snr_db) > bound:
        return [f"{label}: in-band SNR {measured:.3f} dB, cell SNR {snr_db} dB (bound {bound:.3f} dB)"]
    return []


def check_body_power(waveform: np.ndarray, n_sym: int, symbol_samples: int, body_samples: int, label: str) -> list:
    bodies = np.asarray(waveform)[: n_sym * symbol_samples].reshape(n_sym, symbol_samples)[:, :body_samples]
    power = (bodies**2).mean(axis=-1)
    worst = float(np.max(np.abs(power - 1.0)))
    if worst > BODY_POWER_TOL:
        return [f"{label}: symbol body power {power.tolist()} is not 1 (off by {worst:.3g})"]
    return []


# ---- training ----


def check_losses(curve: list, label: str) -> list:
    bad = [(step, loss) for step, loss, _ in curve if not math.isfinite(loss)]
    return [f"{label}: non-finite losses {bad[:3]}"] if bad else []


def directional_error(loss_fn, params: dict, grads: dict, seed: int) -> float:
    """Relative gap between grad . v and a central difference of loss_fn along v.

    params: name -> float64 array; loss_fn(params) -> float; v is a random
    unit direction over all parameters.
    """
    rng = np.random.default_rng(seed)
    v = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in v.values()))
    v = {k: d / norm for k, d in v.items()}
    analytic = sum(float(np.sum(grads[k] * v[k])) for k in params)
    plus = loss_fn({k: p + GRAD_STEP * v[k] for k, p in params.items()})
    minus = loss_fn({k: p - GRAD_STEP * v[k] for k, p in params.items()})
    numeric = (plus - minus) / (2.0 * GRAD_STEP)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-30)


def check_gradient(rel_err: float, label: str) -> list:
    if not rel_err <= GRAD_REL_TOL:
        return [f"{label}: directional derivative off by {rel_err:.3g} relative (bound {GRAD_REL_TOL})"]
    return []


# ---- evaluation ----


def _pairs(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag], axis=-1)


def _bits(pairs: np.ndarray) -> np.ndarray:
    return (np.asarray(pairs) < 0).astype(np.uint8)


def conj_product_errors(demod: np.ndarray, bits: np.ndarray) -> int:
    """Bit errors of sign decisions on y_k * conj(y_{k-1})."""
    z = demod[..., 1:] * np.conj(demod[..., :-1])
    return int((_bits(_pairs(z)) != bits).sum())


def check_eval(report, sims: list, detectors: list, captured: list, label: str) -> list:
    """Bit counts, single-FFT errors and model tallies of one evaluate_frames call.

    captured: (windows, pred) per predict call, in evaluate_frames' order:
    cells sorted by (snr, alpha), then detectors in the given order.
    """
    errors = []
    cells = {}
    for sim in sims:
        cells.setdefault((sim.snr_db, sim.doppler_alpha), []).append(sim)
    calls = iter(captured)
    for key in sorted(cells):
        group = cells[key]
        demods = np.stack([s.demod for s in group])
        bits = np.stack([s.frame.bits for s in group])
        targets = math.sqrt(2.0) * _pairs(np.stack([s.frame.diff_symbols for s in group]))
        n_frames, n_sym, k_total = demods.shape
        n_bits = n_frames * n_sym * (k_total - 1) * 2
        where = f"{label} cell {key}"
        for name in ["single_fft", *detectors]:
            row = report.row(name, key[0], key[1])
            if row.n_bits != n_bits:
                errors.append(f"{where} {name}: {row.n_bits} bits, expected {n_bits}")
        fft_errs = conj_product_errors(demods, bits)
        if report.row("single_fft", *key).bit_errors != fft_errs:
            errors.append(
                f"{where}: single_fft counts {report.row('single_fft', *key).bit_errors} errors, "
                f"conj-product detector {fft_errs}"
            )
        pairs, degenerate = reference_normalize(demods)
        meta = np.array([(f, s, k) for f in range(n_frames) for s in range(n_sym) if not degenerate[f, s]
                         for k in range(1, k_total)], dtype=np.int64).reshape(-1, 3)
        for name in detectors:
            try:
                windows, pred = next(calls)
            except StopIteration:
                errors.append(f"{where} {name}: no predict call captured")
                return errors
            errors += check_windows(windows, meta, demods, f"{where} {name} predict input")
            full = np.zeros((n_frames, n_sym, k_total - 1, 2))
            if pred.shape[0] == meta.shape[0]:
                full[~degenerate] = np.asarray(pred, dtype=np.float64).reshape(-1, k_total - 1, 2)
            n_err = int((_bits(full) != bits).sum())
            mse_db = 10.0 * math.log10(float(np.sum((full - targets) ** 2)) / (full.size // 2))
            row = report.row(name, *key)
            if row.bit_errors != n_err:
                errors.append(f"{where} {name}: report counts {row.bit_errors} errors, predict outputs give {n_err}")
            if not abs(row.mse_db - mse_db) <= MSE_DB_TOL:
                errors.append(f"{where} {name}: report MSE {row.mse_db} dB, predict outputs give {mse_db} dB")
    return errors
