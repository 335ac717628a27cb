"""Metrics, frame-level scoring, attention averaging, artifact writers."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from dofdm_lab import autodiff as ad
from dofdm_lab import baseband as bb
from dofdm_lab import evaluation as ev
from dofdm_lab.dnn_detector import DnnConfig, DnnDetector
from dofdm_lab.transdetector import ModelConfig, TransDetector

CFG = bb.FrameConfig(
    n_subcarriers=64,
    bandwidth_hz=12_000.0,
    sample_rate_hz=96_000.0,
    guard_ms=8.0,
    symbols_per_frame=2,
)
TINY = ModelConfig(
    d_model=16, window_len=8, n_heads=2, n_layers=2, d_ff=32,
    fusion_groups=((1, 2),), dns_noise_dim=6,
)


def _sims(n, snr=20.0, alpha=1e-4, seed0=200):
    return [bb.simulate_frame(CFG, bb.ChannelConfig(), alpha, snr, seed0 + i) for i in range(n)]


class TestMseDb:
    def test_uniform_hundredth_is_minus_twenty(self):
        n = 50
        target = np.zeros((n, 2))
        pred = np.zeros((n, 2))
        pred[:, 0] = 0.1  # |err|^2 = 0.01 per pair
        assert ev.evaluate_mse_db(pred, target) == pytest.approx(-20.0, abs=1e-9)

    def test_perfect_is_negative_infinity(self):
        x = np.ones((5, 2))
        assert ev.evaluate_mse_db(x, x) == -math.inf

    def test_growing_an_error_never_shrinks_the_metric(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=(10, 2))
        pred = target.copy()
        pred[3] += 0.1
        low = ev.evaluate_mse_db(pred, target)
        pred[3] += 0.3
        assert ev.evaluate_mse_db(pred, target) > low

    def test_first_error_lifts_off_the_floor(self):
        target = np.zeros((4, 2))
        pred = target.copy()
        assert ev.evaluate_mse_db(pred, target) == -math.inf
        pred[0, 0] = 1e-3
        assert ev.evaluate_mse_db(pred, target) > -math.inf

    def test_rejects_shape_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            ev.evaluate_mse_db(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            ev.evaluate_mse_db(np.zeros((0, 2)), np.zeros((0, 2)))


def test_bits_from_pairs_uses_component_signs():
    pairs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-0.2, -0.9]])
    np.testing.assert_array_equal(
        ev.bits_from_pairs(pairs), [[0, 0], [0, 1], [1, 0], [1, 1]]
    )


class TestPredict:
    def test_batches_agree_with_single_pass(self):
        model = TransDetector.init(TINY, seed=0)
        windows = np.random.default_rng(1).normal(size=(10, 8, 2)).astype(np.float32)
        whole = ev.predict(model, windows, batch_size=64, seed=5)
        chunked = ev.predict(model, windows, batch_size=3, seed=5)
        assert whole.shape == (10, 2)
        # same seed, same draw order, regardless of batch splits
        np.testing.assert_allclose(whole, chunked, atol=1e-6)

    def test_deterministic_in_seed(self):
        model = TransDetector.init(TINY, seed=0)
        windows = np.random.default_rng(1).normal(size=(6, 8, 2)).astype(np.float32)
        np.testing.assert_array_equal(
            ev.predict(model, windows, seed=2), ev.predict(model, windows, seed=2)
        )


def _serial_predict(model, windows, seed):
    """The reference: one forward per EVAL_BATCH slice, noise drawn by forward itself."""
    rng = np.random.default_rng(seed)
    outs = [
        model.forward(ad.Tape(recording=False), windows[i : i + ev.EVAL_BATCH], rng=rng).data
        for i in range(0, windows.shape[0], ev.EVAL_BATCH)
    ]
    return np.concatenate(outs) if outs else np.zeros((0, 2), dtype=np.float32)


class _FakeBlas:
    """Stands in for one OpenBLAS thread control; records every count it is set to."""

    def __init__(self, count):
        self.count = count
        self.history = []

    def get(self):
        return self.count

    def set(self, n):
        self.count = n
        self.history.append(n)


class _Spy:
    """Wraps a detector: records each forward's thread and BLAS counts, raises on one batch size."""

    def __init__(self, inner, fakes=(), bad_rows=-1):
        self.inner, self.fakes, self.bad_rows = inner, fakes, bad_rows
        self.threads, self.counts = [], []

    def forward(self, tape, windows, **kwargs):
        self.threads.append(threading.get_ident())
        self.counts.append([f.count for f in self.fakes])
        if windows.shape[0] == self.bad_rows:
            raise RuntimeError("boom")
        return self.inner.forward(tape, windows, **kwargs)


_DETECTORS = {
    "trans": lambda: TransDetector.init(TINY, seed=0),
    "trans-no-dns": lambda: TransDetector.init(dataclasses.replace(TINY, dns_enabled=False), seed=0),
    "dnn": lambda: DnnDetector.init(DnnConfig(window_len=8, hidden=(16, 16)), seed=0),
}


class TestParallelPredict:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(_DETECTORS))
    def test_matches_serial_loop_bytes(self, kind, workers, monkeypatch):
        model = _DETECTORS[kind]()
        monkeypatch.setattr(ev, "_usable_cores", lambda: workers)
        windows = np.random.default_rng(7).normal(size=(1023, 8, 2)).astype(np.float32)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches between the workers
        try:
            for n in (0, 1, 255, 256, 257, 1023):
                got = ev.predict(model, windows[:n], seed=4)
                ref = _serial_predict(model, windows[:n], seed=4)
                assert got.shape == (n, 2) and got.dtype == ref.dtype, n
                assert got.tobytes() == ref.tobytes(), n
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("found", [False, True])
    def test_workers_only_with_an_openblas_control(self, found, monkeypatch):
        blas = _FakeBlas(2)
        monkeypatch.setattr(ev, "_usable_cores", lambda: 3)
        monkeypatch.setattr(ev, "_openblas_controls", lambda: ((blas.get, blas.set),) if found else None)
        spy = _Spy(_DETECTORS["dnn"]())
        ev.predict(spy, np.zeros((3 * ev.EVAL_BATCH, 8, 2), dtype=np.float32))
        assert len(spy.threads) == 3
        if found:
            assert threading.get_ident() not in spy.threads
            assert blas.history == [1, 2]
        else:
            assert set(spy.threads) == {threading.get_ident()}
            assert blas.history == []

    @pytest.mark.parametrize("fails", [False, True])
    def test_blas_threads_pinned_then_restored(self, fails, monkeypatch):
        fakes = [_FakeBlas(2), _FakeBlas(5)]
        monkeypatch.setattr(ev, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ev, "_openblas_controls", lambda: tuple((f.get, f.set) for f in fakes))
        spy = _Spy(_DETECTORS["dnn"](), fakes, bad_rows=3 if fails else -1)
        windows = np.zeros((ev.EVAL_BATCH + 3, 8, 2), dtype=np.float32)
        if fails:
            with pytest.raises(RuntimeError, match="boom"):
                ev.predict(spy, windows)
        else:
            assert ev.predict(spy, windows).shape == (ev.EVAL_BATCH + 3, 2)
        assert spy.counts == [[1, 1], [1, 1]]
        assert [f.count for f in fakes] == [2, 5]

    @pytest.mark.parametrize("fails", [False, True])
    def test_real_openblas_counts_restored(self, fails, monkeypatch):
        controls = ev._openblas_controls()
        if controls is None:
            pytest.skip("no OpenBLAS thread control in this process")
        monkeypatch.setattr(ev, "_usable_cores", lambda: 2)
        before = [get() for get, _ in controls]
        spy = _Spy(_DETECTORS["dnn"](), bad_rows=3 if fails else -1)
        windows = np.zeros((ev.EVAL_BATCH + 3, 8, 2), dtype=np.float32)
        if fails:
            with pytest.raises(RuntimeError, match="boom"):
                ev.predict(spy, windows)
        else:
            ev.predict(spy, windows)
        assert [get() for get, _ in controls] == before


def _reference_evaluate(sims, name, model, window_len, seed):
    """Per-symbol scoring: single-FFT and one model, degenerate symbols as zero pairs."""
    from dofdm_lab.preprocess import unfold_normalize, window_samples

    cells = {}
    for sim in sims:
        cells.setdefault((sim.snr_db, sim.doppler_alpha), []).append(sim)
    rows = []
    for (snr, alpha), group in sorted(cells.items()):
        windows, slots = [], []
        for f, sim in enumerate(group):
            for s in range(sim.demod.shape[0]):
                flat, degenerate = unfold_normalize(sim.demod[s])
                if not degenerate:
                    windows.append(window_samples(flat, window_len))
                    slots.append((f, s))
        pred = ev.predict(model, np.concatenate(windows), seed=seed)
        per_symbol = dict(zip(slots, np.split(pred, len(slots))))
        tallies = {"single_fft": [0, 0, [], []], name: [0, 0, [], []]}
        for f, sim in enumerate(group):
            for s in range(sim.demod.shape[0]):
                bits = sim.frame.bits[s]
                d = sim.frame.diff_symbols[s]
                target = np.stack([d.real, d.imag], axis=-1) * math.sqrt(2.0)
                soft, hard = bb.single_fft_detect(sim.demod[s])
                zero = np.zeros((bits.shape[0], 2), dtype=np.float32)
                for det, got, pairs in (
                    ("single_fft", bb.qpsk_demap(hard), np.stack([soft.real, soft.imag], axis=-1)),
                    (name, None, per_symbol.get((f, s), zero)),
                ):
                    got = ev.bits_from_pairs(pairs) if got is None else got
                    t = tallies[det]
                    t[0] += int((got != bits).sum())
                    t[1] += bits.size
                    t[2].append(np.asarray(pairs, dtype=np.float64))
                    t[3].append(target)
        for det, (errs, n_bits, preds, targets) in tallies.items():
            mse = ev.evaluate_mse_db(np.concatenate(preds), np.concatenate(targets))
            rows.append(ev.MetricsRow(det, snr, alpha, errs / n_bits, mse, n_bits, errs))
    return ev.MetricsReport(tuple(rows))


class TestEvaluateFrames:
    def test_single_fft_perfect_on_clean_channel(self):
        flat = bb.ChannelRealization(np.array([0.0]), np.array([1.0]), 0.0, 0)
        sims = [
            bb.simulate_frame(CFG, bb.ChannelConfig(), 0.0, None, 300 + i, realization=flat)
            for i in range(3)
        ]
        report = ev.evaluate_frames(sims, {}, window_len=8)
        row = report.row("single_fft", None, 0.0)
        assert row.ber == 0.0
        assert row.mse_db < -100.0
        assert row.n_bits == 3 * 2 * 63 * 2

    def test_one_row_per_cell_and_detector(self):
        sims = _sims(2, snr=10.0, alpha=1e-4) + _sims(2, snr=20.0, alpha=3e-4, seed0=240)
        model = TransDetector.init(TINY, seed=0)
        report = ev.evaluate_frames(sims, {"trans": model}, window_len=8)
        assert len(report.rows) == 4  # 2 cells x 2 detectors
        for det in ("single_fft", "trans"):
            for snr, alpha in ((10.0, 1e-4), (20.0, 3e-4)):
                row = report.row(det, snr, alpha)
                assert 0.0 <= row.ber <= 1.0
                assert row.bit_errors == round(row.ber * row.n_bits)

    def test_untrained_model_hovers_near_chance(self):
        sims = _sims(4)
        model = TransDetector.init(TINY, seed=0)
        report = ev.evaluate_frames(sims, {"trans": model}, window_len=8)
        assert 0.3 < report.row("trans", 20.0, 1e-4).ber < 0.7

    @pytest.mark.parametrize("kind", ["trans", "dnn"])
    def test_matches_per_symbol_reference_loop(self, kind):
        sims = _sims(2, snr=10.0) + _sims(2, snr=20.0, alpha=3e-4, seed0=240)
        demod = sims[2].demod.copy()
        demod[1] = 0.0
        sims[2] = dataclasses.replace(sims[2], demod=demod)
        model = (
            TransDetector.init(TINY, seed=0) if kind == "trans"
            else DnnDetector.init(DnnConfig(window_len=8, hidden=(16, 16)), seed=0)
        )
        report = ev.evaluate_frames(sims, {kind: model}, window_len=8, seed=4)
        assert report == _reference_evaluate(sims, kind, model, window_len=8, seed=4)
        assert report.row(kind, 20.0, 3e-4).n_bits == 2 * 2 * 63 * 2

    def test_missing_row_raises(self):
        report = ev.evaluate_frames(_sims(1), {}, window_len=8)
        with pytest.raises(KeyError):
            report.row("trans", 20.0, 1e-4)
        with pytest.raises(ValueError):
            ev.evaluate_frames([], {}, window_len=8)


class TestAttentionAverage:
    def test_single_detection_matches_direct_forward(self):
        from dofdm_lab import autodiff as ad
        from dofdm_lab.preprocess import unfold_normalize, window_samples

        model = TransDetector.init(TINY, seed=0)
        sims = _sims(1)
        mats, used = ev.attention_average(model, sims, subcarrier=5, n_detections=1, seed=3)
        assert used == 1
        flat, _ = unfold_normalize(sims[0].demod[0])
        win = window_samples(flat, 8)[4:5]
        _, records = model.forward(
            ad.Tape(recording=False), win,
            rng=np.random.default_rng(3), collect_attention=True,
        )
        for got, rec in zip(mats, records):
            np.testing.assert_allclose(got, rec.mean(axis=(0, 1)), atol=1e-7)

    def test_degenerate_symbols_are_passed_over(self):
        from dofdm_lab.preprocess import unfold_normalize, window_samples

        model = TransDetector.init(TINY, seed=0)
        sims = _sims(2)
        demod = sims[0].demod.copy()
        demod[:] = 0.0
        sims[0] = dataclasses.replace(sims[0], demod=demod)
        mats, used = ev.attention_average(model, sims, subcarrier=7, n_detections=3, seed=2)
        assert used == 2  # the zeroed frame gives no detection
        flat, _ = unfold_normalize(sims[1].demod)
        win = np.ascontiguousarray(window_samples(flat, 8)[:, 6])
        _, records = model.forward(
            ad.Tape(recording=False), win,
            rng=np.random.default_rng(2), collect_attention=True,
        )
        for got, rec in zip(mats, records):
            assert got.tobytes() == rec.mean(axis=(0, 1)).tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_forward_gets_windows_that_own_their_data(self, n, monkeypatch):
        model = TransDetector.init(TINY, seed=0)
        seen = []
        forward = model.forward

        def spy(tape, windows, **kwargs):
            seen.append(windows)
            return forward(tape, windows, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
        ev.attention_average(model, _sims(2), subcarrier=7, n_detections=n)
        (windows,) = seen
        assert windows.shape == (n, 8, 2) and windows.flags.owndata

    def test_averaged_maps_stay_row_stochastic(self):
        model = TransDetector.init(TINY, seed=0)
        mats, used = ev.attention_average(model, _sims(2), subcarrier=30, n_detections=4)
        assert used == 4
        assert mats[0].shape == (9, 9)  # noise token row in layer 1
        assert mats[1].shape == (8, 8)
        for m in mats:
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-6)

    def test_detection_count_caps_at_available_symbols(self):
        model = TransDetector.init(TINY, seed=0)
        _, used = ev.attention_average(model, _sims(1), subcarrier=3, n_detections=99)
        assert used == 2  # one frame, two symbols

    def test_subcarrier_range_is_validated(self):
        model = TransDetector.init(TINY, seed=0)
        with pytest.raises(IndexError):
            ev.attention_average(model, _sims(1), subcarrier=0, n_detections=1)
        with pytest.raises(IndexError):
            ev.attention_average(model, _sims(1), subcarrier=64, n_detections=1)
        with pytest.raises(ValueError):
            ev.attention_average(model, _sims(1), subcarrier=1, n_detections=0)


class TestWriters:
    def test_metrics_csv_format(self, tmp_path):
        report = ev.evaluate_frames(_sims(1), {}, window_len=8)
        path = tmp_path / "m.csv"
        ev.write_metrics_csv(path, report, manifest_hash="abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest abc123"
        assert lines[1] == "detector,snr_db,alpha,ber,mse_db,n_bits"
        assert lines[2].startswith("single_fft,20,0.0001,")

    def test_loss_csv_round_trip(self, tmp_path):
        path = tmp_path / "l.csv"
        ev.write_loss_csv(path, [(1, 0.5, 1e-4), (2, 0.25, 2e-4)])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,lr"
        assert lines[1] == "1,0.5,0.0001"

    def test_attention_matrix_round_trip(self, tmp_path):
        mat = np.random.default_rng(0).random((5, 5))
        mat /= mat.sum(axis=1, keepdims=True)
        path = tmp_path / "a.txt"
        ev.write_attention_matrix(path, mat, header={"layer": 1, "lead_pad": 7})
        back, header = ev.read_attention_matrix(path)
        np.testing.assert_allclose(back, mat, atol=1e-8)
        assert header == {"layer": "1", "lead_pad": "7"}

    def test_infinities_format_cleanly(self, tmp_path):
        rows = (
            ev.MetricsRow("single_fft", math.inf, 0.0, 0.0, -math.inf, 100, 0),
        )
        path = tmp_path / "inf.csv"
        ev.write_metrics_csv(path, ev.MetricsReport(rows))
        assert "inf,0,0,-inf,100" in path.read_text()
