"""Modem chain: mapping, framing, channel, detection."""

import math

import numpy as np
import pytest

from dofdm_lab import baseband as bb

SMALL = bb.FrameConfig(
    n_subcarriers=64,
    bandwidth_hz=12_000.0,
    sample_rate_hz=96_000.0,
    guard_ms=8.0,
    symbols_per_frame=2,
)


def test_qpsk_map_demap_round_trip():
    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    pts = bb.qpsk_map(bits)
    assert np.allclose(np.abs(pts), 1.0)
    assert pts[0] == pytest.approx((1 + 1j) / bb.SQRT2)
    np.testing.assert_array_equal(bb.qpsk_demap(pts), bits)


def test_qpsk_point_is_sqrt2_scaled_map():
    bits = np.random.default_rng(0).integers(0, 2, size=(50, 2), dtype=np.uint8)
    np.testing.assert_allclose(bb.qpsk_point(bits), bb.qpsk_map(bits) * bb.SQRT2)
    assert np.all(np.abs(bb.qpsk_point(bits).real) == 1.0)


def test_qpsk_map_rejects_bad_bits():
    with pytest.raises(ValueError):
        bb.qpsk_map(np.array([[0, 2]]))
    with pytest.raises(ValueError):
        bb.qpsk_map(np.array([0, 1, 0]))


def test_differential_encode_ratio_recovers_data():
    rng = np.random.default_rng(1)
    b = bb.qpsk_map(rng.integers(0, 2, size=(5, 31, 2), dtype=np.uint8))
    d = bb.differential_encode(b, 1.0 + 0.0j)
    assert d.shape == (5, 32)
    np.testing.assert_allclose(d[:, 1:] / d[:, :-1], b, atol=1e-12)
    np.testing.assert_allclose(np.abs(d), 1.0, atol=1e-12)


def test_differential_encode_rejects_non_unit_inputs():
    with pytest.raises(ValueError, match="seed"):
        bb.differential_encode(np.ones(4, dtype=complex), 2.0)
    with pytest.raises(ValueError, match="unit modulus"):
        bb.differential_encode(np.array([1.0, 0.5]), 1.0)


class TestFrameConfig:
    def test_default_carrier_snaps_to_subcarrier_grid(self):
        cfg = bb.FrameConfig()
        assert cfg.carrier_bin == 2731
        snapped = cfg.carrier_bin * cfg.subcarrier_spacing_hz
        assert snapped == pytest.approx(32_003.90625)

    def test_sample_budget(self):
        assert SMALL.oversample == 8
        assert SMALL.body_samples == 512
        assert SMALL.guard_samples == 768
        assert SMALL.frame_samples == 2 * (512 + 768)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_subcarriers=63),
            dict(n_subcarriers=4),
            dict(sample_rate_hz=100_000.0),  # not an integer multiple of bw
            dict(center_freq_hz=500.0),      # band would cross DC
            dict(symbols_per_frame=0),
            dict(guard_ms=-1.0),
            dict(diff_seed=0.5),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            bb.FrameConfig(**kwargs)


def test_modulate_demodulate_round_trip_is_exact():
    rng = np.random.default_rng(2)
    frame = bb.make_frame(SMALL, rng)
    got = bb.fft_demod(frame.waveform, SMALL)
    err = np.max(np.abs(got - frame.tx_symbols))
    assert err < 1e-9


def test_waveform_body_has_unit_mean_power():
    frame = bb.make_frame(SMALL, np.random.default_rng(3))
    body = frame.waveform[: SMALL.body_samples]
    assert np.mean(body**2) == pytest.approx(1.0, rel=1e-9)


def test_fft_demod_rejects_truncated_buffer():
    frame = bb.make_frame(SMALL, np.random.default_rng(4))
    short = frame.waveform[: SMALL.frame_samples - SMALL.guard_samples - 1]
    with pytest.raises(bb.FramingError):
        bb.fft_demod(short, SMALL)


class TestChannel:
    def test_image_method_tap_inventory(self):
        ch = bb.make_channel(bb.ChannelConfig())
        assert ch.tap_delays_s.size == 19
        assert ch.tap_delays_s[0] == pytest.approx(2000.0 / 1500.0)
        assert np.all(np.diff(ch.tap_delays_s) >= 0)
        assert np.sum(np.abs(ch.tap_gains) ** 2) == pytest.approx(1.0)
        # surface bounces flip sign somewhere in the inventory
        assert np.any(ch.tap_gains.real < 0)

    def test_delay_spread_spans_milliseconds(self):
        ch = bb.make_channel(bb.ChannelConfig())
        spread = ch.tap_delays_s[-1] - ch.tap_delays_s[0]
        assert 1e-3 < spread < 10e-3

    def test_realization_rejects_unsorted_or_negative_delays(self):
        with pytest.raises(ValueError):
            bb.ChannelRealization(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 0.0, 0)
        with pytest.raises(ValueError):
            bb.ChannelRealization(np.array([-1.0]), np.array([1.0]), 0.0, 0)
        with pytest.raises(ValueError):
            bb.ChannelRealization(np.array([0.0]), np.array([0.0]), 0.0, 0)

    @pytest.mark.parametrize("alpha", [-1.0, -3.0, float("nan")])
    def test_realization_rejects_doppler_at_or_below_minus_one(self, alpha):
        with pytest.raises(ValueError, match="doppler_alpha"):
            bb.ChannelRealization(np.array([0.0]), np.array([1.0]), alpha, 0)

    def test_make_channel_carries_doppler_and_noise_seed(self):
        ch = bb.make_channel(bb.ChannelConfig(), 2e-4, 7)
        assert (ch.doppler_alpha, ch.noise_seed) == (2e-4, 7)
        np.testing.assert_array_equal(ch.tap_gains, bb.make_channel(bb.ChannelConfig()).tap_gains)

    def test_load_taps_parses_sorts_and_normalizes(self, tmp_path):
        p = tmp_path / "taps.txt"
        p.write_text(
            "# measured channel\n"
            "0.002  0.5 0.0\n"
            "\n"
            "0.000  1.0 0.0   # direct\n"
            "0.001 -0.25 0.1\n"
        )
        ch = bb.load_taps(p, doppler_alpha=1e-4, noise_seed=9)
        np.testing.assert_allclose(ch.tap_delays_s, [0.0, 0.001, 0.002])
        assert ch.doppler_alpha == 1e-4
        assert ch.noise_seed == 9
        assert np.sum(np.abs(ch.tap_gains) ** 2) == pytest.approx(1.0)

    def test_load_taps_rejects_malformed_lines(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.0 1.0\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            bb.load_taps(p)
        p.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no taps"):
            bb.load_taps(p)

    def test_doppler_compresses_duration(self):
        frame = bb.make_frame(SMALL, np.random.default_rng(5))
        flat = bb.ChannelRealization(np.array([0.0]), np.array([1.0]), 3e-4, 0)
        rx = bb.channel_apply(frame.waveform, flat, SMALL.sample_rate_hz)
        expect = round(frame.waveform.size / (1.0 + 3e-4))
        assert rx.size == expect

    def test_noise_calibration_hits_requested_snr(self):
        frame = bb.make_frame(SMALL, np.random.default_rng(6))
        flat = bb.ChannelRealization(np.array([0.0]), np.array([1.0]), 0.0, 11)
        rx = bb.channel_apply(frame.waveform, flat, SMALL.sample_rate_hz, 15.0, SMALL.band_hz)
        got = bb.measure_snr_db(
            bb.channel_apply(frame.waveform, flat, SMALL.sample_rate_hz),
            rx, SMALL.sample_rate_hz, SMALL.band_hz,
        )
        assert got == pytest.approx(15.0, abs=0.5)


def test_single_fft_flat_noiseless_is_error_free():
    errors = 0
    total = 0
    for seed in range(3):
        sim = _flat_sim(seed)
        _, hard = bb.single_fft_detect(sim.demod)
        errors += int((bb.qpsk_demap(hard) != sim.frame.bits).sum())
        total += sim.frame.bits.size
    assert total > 500
    assert errors == 0


def _flat_sim(seed):
    flat = bb.ChannelRealization(np.array([0.0]), np.array([1.0]), 0.0, seed)
    return bb.simulate_frame(SMALL, bb.ChannelConfig(), 0.0, None, seed, realization=flat)


def test_single_fft_soft_outputs_sit_on_unit_square_grid():
    sim = _flat_sim(7)
    soft, hard = bb.single_fft_detect(sim.demod)
    np.testing.assert_allclose(soft, bb.qpsk_point(sim.frame.bits), atol=1e-6)
    np.testing.assert_allclose(hard, soft, atol=1e-6)


def test_single_fft_zero_denominator_yields_zero_soft():
    y = np.array([[0.0 + 0j, 1.0 + 0j, 1.0 + 1j]])
    soft, hard = bb.single_fft_detect(y)
    assert soft[0, 0] == 0
    np.testing.assert_array_equal(bb.qpsk_demap(hard)[0, 0], [0, 0])


def test_simulate_frame_deterministic_in_seed():
    a = bb.simulate_frame(SMALL, bb.ChannelConfig(), 1e-4, 20.0, 42)
    b = bb.simulate_frame(SMALL, bb.ChannelConfig(), 1e-4, 20.0, 42)
    c = bb.simulate_frame(SMALL, bb.ChannelConfig(), 1e-4, 20.0, 43)
    np.testing.assert_array_equal(a.demod, b.demod)
    np.testing.assert_array_equal(a.frame.bits, b.frame.bits)
    assert not np.array_equal(a.frame.bits, c.frame.bits)


def test_simulate_frame_replays_supplied_taps():
    taps = bb.ChannelRealization(np.array([0.0, 1e-3]), np.array([1.0, 0.3]), 0.0, 0)
    sim = bb.simulate_frame(SMALL, bb.ChannelConfig(), 2e-4, 25.0, 8, realization=taps)
    np.testing.assert_allclose(sim.realization.tap_delays_s, taps.tap_delays_s)
    assert sim.realization.doppler_alpha == 2e-4
