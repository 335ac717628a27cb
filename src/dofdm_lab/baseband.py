"""Baseband simulation chain for differentially encoded OFDM over a shallow
underwater acoustic waveguide.

Signal path: QPSK-map random bits, differentially encode across subcarriers,
place the symbols on a passband DFT grid (zero-padded guard between symbols),
run the real waveform through an image-method tapped-delay channel, compress
time by the Doppler factor, add band-calibrated AWGN, and demodulate each
symbol body with an FFT.

The carrier is snapped to the nearest subcarrier-spacing multiple so the
modulate->demodulate round trip is exact on a clean channel; the snap is a
0.012% shift for the default configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
from scipy.signal import resample

SQRT2 = math.sqrt(2.0)
BOTTOM_LOSS = 0.8  # reflection magnitude per bottom bounce
UNIT_TOL = 1e-6


class FramingError(ValueError):
    """Received buffer cannot be split into the configured symbol slots."""


# ---- configuration ----


@dataclass(frozen=True)
class FrameConfig:
    n_subcarriers: int = 1024
    bandwidth_hz: float = 12_000.0
    center_freq_hz: float = 32_000.0
    sample_rate_hz: float = 192_000.0
    guard_ms: float = 16.0
    symbols_per_frame: int = 8
    diff_seed: complex = 1.0 + 0.0j

    def __post_init__(self):
        k, bw, fs = self.n_subcarriers, self.bandwidth_hz, self.sample_rate_hz
        if k < 8 or k % 2:
            raise ValueError(f"n_subcarriers must be even and >= 8, got {k}")
        if self.symbols_per_frame < 1:
            raise ValueError("symbols_per_frame must be >= 1")
        if self.guard_ms < 0:
            raise ValueError("guard_ms must be >= 0")
        if bw <= 0 or fs <= 0:
            raise ValueError("bandwidth and sample rate must be positive")
        if abs(fs / bw - round(fs / bw)) > 1e-9:
            raise ValueError(f"sample_rate/bandwidth must be an integer, got {fs / bw}")
        if abs(abs(self.diff_seed) - 1.0) > UNIT_TOL:
            raise ValueError(f"diff_seed must be unit modulus, got {self.diff_seed}")
        lo_bin = self.carrier_bin - k // 2
        hi_bin = self.carrier_bin + k // 2 - 1
        if lo_bin < 1 or hi_bin >= self.body_samples // 2:
            raise ValueError("occupied band does not fit between DC and Nyquist")

    @property
    def oversample(self) -> int:
        return int(round(self.sample_rate_hz / self.bandwidth_hz))

    @property
    def body_samples(self) -> int:
        return self.n_subcarriers * self.oversample

    @property
    def guard_samples(self) -> int:
        return int(round(self.guard_ms * self.sample_rate_hz / 1000.0))

    @property
    def symbol_samples(self) -> int:
        return self.body_samples + self.guard_samples

    @property
    def frame_samples(self) -> int:
        return self.symbols_per_frame * self.symbol_samples

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.bandwidth_hz / self.n_subcarriers

    @property
    def carrier_bin(self) -> int:
        return int(round(self.center_freq_hz / self.subcarrier_spacing_hz))

    @property
    def band_hz(self) -> tuple:
        half = self.n_subcarriers // 2
        df = self.subcarrier_spacing_hz
        return ((self.carrier_bin - half) * df, (self.carrier_bin + half - 1) * df)

    @property
    def _amp(self) -> float:
        # unit mean power over a symbol body (Parseval with conjugate bins)
        return self.body_samples / math.sqrt(2.0 * self.n_subcarriers)


@dataclass(frozen=True)
class WaveguideGeometry:
    depth_m: float = 15.0
    tx_height_m: float = 7.5
    rx_height_m: float = 7.5
    range_m: float = 2000.0
    c_water: float = 1500.0
    spread_factor: float = 1.5

    def __post_init__(self):
        if not (0 < self.tx_height_m < self.depth_m and 0 < self.rx_height_m < self.depth_m):
            raise ValueError("transducer heights must sit inside the water column")
        if self.range_m <= 0 or self.c_water <= 0:
            raise ValueError("range and sound speed must be positive")


@dataclass(frozen=True)
class ChannelConfig:
    geometry: WaveguideGeometry = field(default_factory=WaveguideGeometry)
    num_paths: int = 19

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")


@dataclass(frozen=True)
class ChannelRealization:
    tap_delays_s: np.ndarray
    tap_gains: np.ndarray
    doppler_alpha: float
    noise_seed: int

    def __post_init__(self):
        d = np.asarray(self.tap_delays_s, dtype=np.float64)
        g = np.asarray(self.tap_gains, dtype=np.complex128)
        if d.ndim != 1 or g.shape != d.shape or d.size == 0:
            raise ValueError("tap arrays must be one-dimensional and equal length")
        if not self.doppler_alpha > -1.0:
            raise ValueError(f"doppler_alpha must be > -1, got {self.doppler_alpha}")
        if np.any(d < 0) or np.any(np.diff(d) < 0):
            raise ValueError("tap delays must be non-negative and sorted ascending")
        total = float(np.sum(np.abs(g) ** 2))
        if total <= 0:
            raise ValueError("tap gains are all zero")
        object.__setattr__(self, "tap_delays_s", d)
        object.__setattr__(self, "tap_gains", g / math.sqrt(total))


# ---- symbol mapping ----


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray map bit pairs (..., 2) to unit-modulus points; 00 -> (1+1j)/sqrt(2)."""
    bits = np.asarray(bits)
    if bits.shape[-1] != 2:
        raise ValueError(f"expected bit pairs on the last axis, got shape {bits.shape}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    return ((1.0 - 2.0 * bits[..., 0]) + 1j * (1.0 - 2.0 * bits[..., 1])) / SQRT2


def qpsk_point(bits: np.ndarray) -> np.ndarray:
    """Same map in the +-1 +-1j form the detector networks regress."""
    return qpsk_map(bits) * SQRT2


def qpsk_demap(symbols: np.ndarray) -> np.ndarray:
    """Sign-based hard decision back to bit pairs; scale-invariant."""
    z = np.asarray(symbols)
    return np.stack([(z.real < 0).astype(np.uint8), (z.imag < 0).astype(np.uint8)], axis=-1)


def differential_encode(ratios: np.ndarray, seed: complex) -> np.ndarray:
    """Turn per-subcarrier ratios b_k into transmitted d, d_k = b_k * d_{k-1}."""
    b = np.asarray(ratios, dtype=np.complex128)
    if abs(abs(seed) - 1.0) > UNIT_TOL:
        raise ValueError(f"differential seed must be unit modulus, got {seed}")
    if np.any(np.abs(np.abs(b) - 1.0) > UNIT_TOL):
        raise ValueError("differential ratios must be unit modulus")
    d = np.empty(b.shape[:-1] + (b.shape[-1] + 1,), dtype=np.complex128)
    d[..., 0] = seed
    np.cumprod(b, axis=-1, out=d[..., 1:])
    d[..., 1:] *= seed
    return d


# ---- OFDM modulation ----


def ofdm_modulate(symbols: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Symbols (n_sym, K) -> real passband waveform with zero-padded guards."""
    d = np.atleast_2d(np.asarray(symbols, dtype=np.complex128))
    if d.shape[-1] != cfg.n_subcarriers:
        raise ValueError(f"expected {cfg.n_subcarriers} subcarriers per symbol, got {d.shape[-1]}")
    nfft = cfg.body_samples
    lo = cfg.carrier_bin - cfg.n_subcarriers // 2
    out = np.zeros(d.shape[0] * cfg.symbol_samples, dtype=np.float64)
    for s in range(d.shape[0]):
        spec = np.zeros(nfft // 2 + 1, dtype=np.complex128)
        spec[lo : lo + cfg.n_subcarriers] = d[s] * cfg._amp
        out[s * cfg.symbol_samples : s * cfg.symbol_samples + nfft] = np.fft.irfft(spec, nfft)
    return out


def fft_demod(received: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Real waveform -> per-symbol subcarrier values (n_sym, K).

    Assumes ideal frame synchronization: sample 0 is the first symbol's first
    sample. Doppler compression may shorten the tail by less than one guard;
    missing samples are treated as zeros. Anything shorter is a framing error.
    """
    x = np.asarray(received, dtype=np.float64)
    if x.ndim != 1:
        raise FramingError(f"expected a one-dimensional waveform, got shape {x.shape}")
    n_need = cfg.frame_samples
    if x.size < n_need - cfg.guard_samples:
        raise FramingError(
            f"waveform has {x.size} samples; need at least {n_need - cfg.guard_samples}"
        )
    if x.size < n_need:
        x = np.concatenate([x, np.zeros(n_need - x.size)])
    nfft = cfg.body_samples
    lo = cfg.carrier_bin - cfg.n_subcarriers // 2
    y = np.empty((cfg.symbols_per_frame, cfg.n_subcarriers), dtype=np.complex128)
    for s in range(cfg.symbols_per_frame):
        body = x[s * cfg.symbol_samples : s * cfg.symbol_samples + nfft]
        y[s] = np.fft.rfft(body)[lo : lo + cfg.n_subcarriers] / cfg._amp
    return y


# ---- channel ----


def make_channel(cfg: ChannelConfig, doppler_alpha: float = 0.0, noise_seed: int = 0) -> ChannelRealization:
    """Image-method taps for the waveguide; deterministic in the geometry.

    Paths are enumerated by bounce count, alternating surface/bottom: each
    surface bounce flips the sign, each bottom bounce multiplies by the 0.8
    loss; gains decay as path_length^(spread_factor/2). noise_seed feeds the
    AWGN stream of this realization.
    """
    geo = cfg.geometry
    depth, rng_m = geo.depth_m, geo.range_m
    z_src = depth - geo.tx_height_m
    z_rcv = depth - geo.rx_height_m

    paths = [(abs(z_src - z_rcv), 0, 0)]  # (vertical distance, surface bounces, bottom bounces)
    max_bounces = cfg.num_paths + 2
    for j in range(1, max_bounces + 1):
        updown = 2.0 * depth * (j // 2)
        v_up = z_src + updown + (z_rcv if j % 2 else -z_rcv)
        paths.append((v_up, (j + 1) // 2, j // 2))
        v_dn = (depth - z_src) + updown + ((depth - z_rcv) if j % 2 else -(depth - z_rcv))
        paths.append((v_dn, j // 2, (j + 1) // 2))

    entries = []
    for v, n_surf, n_bot in paths:
        length = math.hypot(rng_m, v)
        gain = ((-1.0) ** n_surf) * (BOTTOM_LOSS**n_bot) / length ** (geo.spread_factor / 2.0)
        entries.append((length / geo.c_water, gain))
    entries.sort(key=lambda e: e[0])
    entries = entries[: cfg.num_paths]
    delays = np.array([e[0] for e in entries])
    gains = np.array([e[1] for e in entries], dtype=np.complex128)
    return ChannelRealization(delays, gains, doppler_alpha, noise_seed)


def load_taps(path, doppler_alpha: float = 0.0, noise_seed: int = 0) -> ChannelRealization:
    """Read 'delay_seconds gain_real gain_imag' lines into a realization."""
    delays, gains = [], []
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 'delay gain_re gain_im', got {raw!r}")
            delays.append(float(parts[0]))
            gains.append(float(parts[1]) + 1j * float(parts[2]))
    if not delays:
        raise ValueError(f"{path}: no taps found")
    order = np.argsort(delays)
    return ChannelRealization(
        np.asarray(delays)[order], np.asarray(gains)[order], doppler_alpha, noise_seed
    )


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    spec = np.fft.fft(x)
    h = np.zeros(x.size)
    h[0] = 1.0
    if x.size % 2 == 0:
        h[x.size // 2] = 1.0
        h[1 : x.size // 2] = 2.0
    else:
        h[1 : (x.size + 1) // 2] = 2.0
    return np.fft.ifft(spec * h)


def _inband_power(x: np.ndarray, sample_rate_hz: float, band: tuple) -> float:
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, d=1.0 / sample_rate_hz)
    sel = (freqs >= band[0]) & (freqs <= band[1])
    return float(2.0 * np.sum(np.abs(spec[sel]) ** 2) / x.size**2)


def channel_apply(
    waveform: np.ndarray,
    ch: ChannelRealization,
    sample_rate_hz: float,
    snr_db: float | None = None,
    band: tuple | None = None,
) -> np.ndarray:
    """Taps, then Doppler time-compression, then AWGN.

    Tap delays are applied relative to the first arrival (ideal sync), rounded
    to the sample grid. snr_db of None or +inf means no noise; otherwise noise
    is scaled so signal/noise power over `band` (default: everything below
    Nyquist) matches snr_db.
    """
    x = np.asarray(waveform, dtype=np.float64)
    shifts = np.round((ch.tap_delays_s - ch.tap_delays_s[0]) * sample_rate_hz).astype(int)
    complex_taps = bool(np.any(np.abs(ch.tap_gains.imag) > 0))
    base = _analytic_signal(x) if complex_taps else x
    y = np.zeros(x.size + int(shifts[-1]), dtype=base.dtype)
    for shift, gain in zip(shifts, ch.tap_gains):
        y[shift : shift + x.size] += (gain if complex_taps else gain.real) * base
    if complex_taps:
        y = y.real.copy()

    if ch.doppler_alpha != 0.0:
        n_out = int(round(y.size / (1.0 + ch.doppler_alpha)))
        y = resample(y, n_out)

    if snr_db is not None and math.isfinite(snr_db):
        if band is None:
            band = (0.0, sample_rate_hz / 2.0)
        p_sig = _inband_power(y, sample_rate_hz, band)
        bw = band[1] - band[0]
        if bw <= 0 or p_sig <= 0:
            raise ValueError("cannot calibrate noise for an empty band or silent signal")
        noise_var = p_sig * (sample_rate_hz / 2.0) / bw / (10.0 ** (snr_db / 10.0))
        rng = np.random.default_rng(ch.noise_seed)
        y = y + rng.normal(0.0, math.sqrt(noise_var), size=y.size)
    return y


def measure_snr_db(clean: np.ndarray, noisy: np.ndarray, sample_rate_hz: float, band: tuple) -> float:
    """Post-hoc in-band SNR of noisy against the known clean waveform."""
    n = min(clean.size, noisy.size)
    p_sig = _inband_power(clean[:n], sample_rate_hz, band)
    p_noise = _inband_power(noisy[:n] - clean[:n], sample_rate_hz, band)
    return 10.0 * math.log10(p_sig / p_noise)


# ---- detector and frame assembly ----


def single_fft_detect(demod: np.ndarray) -> tuple:
    """Adjacent-subcarrier ratio detector.

    demod: (..., K) complex subcarrier values. Returns (soft, hard): the raw
    ratios scaled by sqrt(2) into the +-1 +-1j constellation, and the hard
    decisions to the nearest constellation point. Zero denominators yield a
    zero soft value (decided as 00).
    """
    y = np.asarray(demod, dtype=np.complex128)
    num, den = y[..., 1:], y[..., :-1]
    soft = np.zeros_like(num)
    np.divide(num, den, out=soft, where=np.abs(den) > 1e-300)
    soft = soft * SQRT2
    hard = qpsk_point(qpsk_demap(soft))
    return soft, hard


@dataclass(frozen=True)
class DofdmFrame:
    bits: np.ndarray          # (n_sym, K-1, 2) uint8
    diff_symbols: np.ndarray  # (n_sym, K-1) complex, unit modulus
    tx_symbols: np.ndarray    # (n_sym, K) complex
    waveform: np.ndarray      # real passband samples


def make_frame(cfg: FrameConfig, rng: np.random.Generator) -> DofdmFrame:
    """Draw random bits and build one transmitted frame."""
    n_sym, k = cfg.symbols_per_frame, cfg.n_subcarriers
    bits = rng.integers(0, 2, size=(n_sym, k - 1, 2), dtype=np.uint8)
    b = qpsk_map(bits)
    d = differential_encode(b, cfg.diff_seed)
    return DofdmFrame(bits, b, d, ofdm_modulate(d, cfg))


@dataclass(frozen=True)
class FrameSim:
    frame: DofdmFrame
    realization: ChannelRealization
    snr_db: float | None
    doppler_alpha: float
    demod: np.ndarray  # (n_sym, K) complex at the receiver


def simulate_frame(
    frame_cfg: FrameConfig,
    chan_cfg: ChannelConfig,
    doppler_alpha: float,
    snr_db: float | None,
    seed: int,
    realization: ChannelRealization | None = None,
) -> FrameSim:
    """One frame through the channel; fully deterministic in `seed`."""
    root = np.random.SeedSequence(int(seed))
    bits_ss, noise_ss = root.spawn(2)
    frame = make_frame(frame_cfg, np.random.default_rng(bits_ss))
    noise_seed = int(noise_ss.generate_state(1)[0])
    if realization is None:
        ch = make_channel(chan_cfg, doppler_alpha, noise_seed)
    else:
        ch = ChannelRealization(
            realization.tap_delays_s, realization.tap_gains, doppler_alpha, noise_seed
        )
    rx = channel_apply(frame.waveform, ch, frame_cfg.sample_rate_hz, snr_db, frame_cfg.band_hz)
    return FrameSim(frame, ch, snr_db, doppler_alpha, fft_demod(rx, frame_cfg))
