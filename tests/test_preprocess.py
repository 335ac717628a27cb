"""Window extraction, normalization, dataset splits and persistence."""

import dataclasses
import errno

import numpy as np
import pytest

from dofdm_lab import baseband as bb
from dofdm_lab import checkpoint as ck
from dofdm_lab import preprocess as pp

CFG = bb.FrameConfig(
    n_subcarriers=64,
    bandwidth_hz=12_000.0,
    sample_rate_hz=96_000.0,
    guard_ms=8.0,
    symbols_per_frame=2,
)


def _sims(n, snr=20.0):
    return [bb.simulate_frame(CFG, bb.ChannelConfig(), 1e-4, snr, 100 + i) for i in range(n)]


class TestUnfoldNormalize:
    def test_spread_oracle(self):
        # brute-force the scale: mean of 10 largest minus mean of 10 smallest
        rng = np.random.default_rng(0)
        y = rng.normal(size=64) + 1j * rng.normal(size=64)
        flat, degenerate = pp.unfold_normalize(y)
        assert not degenerate
        parts = np.concatenate([y.real, y.imag])
        ordered = np.sort(parts)
        scale = ordered[-10:].mean() - ordered[:10].mean()
        expect = (parts - parts.mean()) / scale
        np.testing.assert_allclose(flat[0::2], expect[:64], rtol=1e-6)
        np.testing.assert_allclose(flat[1::2], expect[64:], rtol=1e-6)

    def test_output_is_centered(self):
        y = np.random.default_rng(1).normal(size=32) * 5 + 3 + 1j * 2
        flat, _ = pp.unfold_normalize(y)
        assert abs(flat.mean()) < 1e-6
        assert flat.shape == (64,)

    def test_constant_symbol_is_degenerate(self):
        flat, degenerate = pp.unfold_normalize(np.full(64, 2.0 + 2.0j))
        assert degenerate
        np.testing.assert_array_equal(flat, 0.0)

    def test_rejects_scalar_input(self):
        with pytest.raises(ValueError):
            pp.unfold_normalize(np.complex128(1 + 1j))


def _stack_with_zero_symbol(k_total, seed=5):
    rng = np.random.default_rng(seed)
    demods = rng.normal(size=(2, 3, k_total)) + 1j * rng.normal(size=(2, 3, k_total))
    demods *= 10.0 ** rng.uniform(-6, 3, size=(2, 3, 1))
    demods[1, 1] = 0.0
    return demods


class TestLeadingAxes:
    """The stacked (frames, symbols) form gives the bytes of per-symbol calls."""

    @pytest.mark.parametrize("k_total", [8, 64, 1024])
    def test_unfold_normalize_matches_per_row_calls(self, k_total):
        demods = _stack_with_zero_symbol(k_total)
        flat, degenerate = pp.unfold_normalize(demods)
        assert flat.shape == (2, 3, 2 * k_total) and degenerate.shape == (2, 3)
        assert degenerate.tolist() == [[False] * 3, [False, True, False]]
        for f in range(2):
            for s in range(3):
                row, deg = pp.unfold_normalize(demods[f, s])
                assert flat[f, s].tobytes() == row.tobytes()
                assert degenerate[f, s] == deg

    @pytest.mark.parametrize("window_len", [4, 8, 16])
    def test_window_samples_matches_per_row_calls(self, window_len):
        flat, _ = pp.unfold_normalize(_stack_with_zero_symbol(64))
        win = pp.window_samples(flat, window_len)
        assert win.shape == (2, 3, 63, window_len, 2) and win.dtype == np.float32
        assert win.flags.c_contiguous
        for f in range(2):
            for s in range(3):
                assert win[f, s].tobytes() == pp.window_samples(flat[f, s], window_len).tobytes()


class TestWindowSamples:
    def test_shape_and_dtype(self):
        flat, _ = pp.unfold_normalize(np.random.default_rng(2).normal(size=64) + 0j)
        win = pp.window_samples(flat, 16)
        assert win.shape == (63, 16, 2)
        assert win.dtype == np.float32

    def test_center_rows_hold_adjacent_pair(self):
        y = np.arange(1, 65, dtype=float) + 1j * np.arange(101, 165)
        flat, _ = pp.unfold_normalize(y)
        pairs = flat.reshape(64, 2)
        win = pp.window_samples(flat, 16)
        for k in (1, 30, 63):
            np.testing.assert_allclose(win[k - 1, 7], pairs[k - 1])   # y_{k-1}
            np.testing.assert_allclose(win[k - 1, 8], pairs[k])       # y_k

    def test_edge_windows_are_zero_padded(self):
        # k=1 needs 7 leading zero pairs, k=63 seven trailing
        flat, _ = pp.unfold_normalize(np.random.default_rng(3).normal(size=64) + 0j)
        win = pp.window_samples(flat, 16)
        np.testing.assert_array_equal(win[0, :7], 0.0)
        assert np.all(win[0, 7:] != 0.0)
        np.testing.assert_array_equal(win[62, -7:], 0.0)

    def test_small_window(self):
        flat, _ = pp.unfold_normalize(np.random.default_rng(4).normal(size=64) + 0j)
        win = pp.window_samples(flat, 4)
        assert win.shape == (63, 4, 2)


class TestWindowPadCounts:
    def test_window_pad_counts(self):
        assert pp.window_pad_counts(1, 64, 16) == (7, 0)
        assert pp.window_pad_counts(63, 64, 16) == (0, 7)
        assert pp.window_pad_counts(32, 64, 16) == (0, 0)
        assert pp.window_pad_counts(4, 64, 16) == (4, 0)

    @pytest.mark.parametrize("k_total", [6, 64])
    @pytest.mark.parametrize("window_len", [4, 8, 16])
    def test_counts_match_the_zero_rows_of_each_window(self, window_len, k_total):
        flat = np.arange(1.0, 2 * k_total + 1)  # no zero value anywhere
        win = pp.window_samples(flat, window_len)
        for k in range(1, k_total):
            zero = np.all(win[k - 1] == 0.0, axis=-1)
            lead = int(np.argmin(zero)) if not zero.all() else window_len
            trail = int(np.argmin(zero[::-1])) if not zero.all() else window_len
            assert (lead, trail) == pp.window_pad_counts(k, k_total, window_len), k
            assert not zero[lead : window_len - trail].any()


class TestSplits:
    def test_fractions_at_ten_frames(self):
        split = pp.assign_splits(10, split_seed=1)
        counts = {s: sum(1 for v in split.values() if v == s) for s in ("train", "val", "test")}
        assert counts == {"train": 8, "val": 1, "test": 1}

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_small_counts_keep_a_training_frame(self, n):
        split = pp.assign_splits(n, split_seed=2)
        assert "train" in split.values()
        assert len(split) == n

    def test_deterministic_in_seed(self):
        assert pp.assign_splits(20, 3) == pp.assign_splits(20, 3)
        assert pp.assign_splits(20, 3) != pp.assign_splits(20, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pp.assign_splits(0, 1)


class TestBuildDataset:
    def test_sample_inventory(self):
        sims = _sims(5)
        ds = pp.build_dataset(sims, 16, split_seed=7)
        assert ds.n_samples == 5 * 2 * 63
        assert ds.windows.shape == (ds.n_samples, 16, 2)
        assert ds.targets.shape == (ds.n_samples, 2)
        assert set(np.unique(ds.targets)) == {-1.0, 1.0}
        assert ds.meta[:, 0].max() == 4
        assert ds.meta[:, 2].min() == 1 and ds.meta[:, 2].max() == 63

    def test_targets_match_frame_bits(self):
        sims = _sims(1)
        ds = pp.build_dataset(sims, 16, split_seed=7)
        expect = bb.qpsk_point(sims[0].frame.bits[0])
        np.testing.assert_allclose(ds.targets[:63, 0], expect.real)
        np.testing.assert_allclose(ds.targets[:63, 1], expect.imag)

    def test_split_indices_partition_samples(self):
        ds = pp.build_dataset(_sims(10), 8, split_seed=5)
        idx = [ds.indices(s) for s in ("train", "val", "test")]
        total = np.concatenate(idx)
        assert total.size == ds.n_samples
        assert np.unique(total).size == total.size
        # frame-level split: no frame contributes to two splits
        frames = [set(ds.meta[i, 0]) for i in idx]
        assert not (frames[0] & frames[1]) and not (frames[0] & frames[2])

    def test_matches_per_symbol_reference_loop(self):
        sims = _sims(3)
        demod = sims[1].demod.copy()
        demod[0] = 0.0
        sims[1] = dataclasses.replace(sims[1], demod=demod)
        ds = pp.build_dataset(sims, 8, split_seed=7)
        windows, targets, meta = [], [], []
        for f, sim in enumerate(sims):
            for s in range(sim.demod.shape[0]):
                flat, degenerate = pp.unfold_normalize(sim.demod[s])
                if degenerate:
                    continue
                windows.append(pp.window_samples(flat, 8))
                t = bb.qpsk_point(sim.frame.bits[s]).astype(np.complex64)
                targets.append(np.stack([t.real, t.imag], axis=-1).astype(np.float32))
                meta += [(f, s, k) for k in range(1, 64)]
        assert ds.n_samples == 5 * 63
        assert ds.windows.tobytes() == np.concatenate(windows).tobytes()
        assert ds.targets.tobytes() == np.concatenate(targets).tobytes()
        assert ds.meta.dtype == np.uint32
        np.testing.assert_array_equal(ds.meta, np.array(meta))

    def test_all_degenerate_is_rejected(self):
        sim = _sims(1)[0]
        with pytest.raises(ValueError, match="degenerate"):
            pp.build_dataset([dataclasses.replace(sim, demod=np.zeros_like(sim.demod))], 8, 0)

    def test_rejects_non_frame_input(self):
        with pytest.raises(TypeError):
            pp.build_dataset([object()], 16, split_seed=0)
        with pytest.raises(ValueError):
            pp.build_dataset([], 16, split_seed=0)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = pp.build_dataset(_sims(4), 16, split_seed=9)
        path = tmp_path / "d.bin"
        pp.save_dataset(path, ds)
        back = pp.load_dataset(path, split_seed=9, n_frames=4)
        np.testing.assert_array_equal(back.windows, ds.windows)
        np.testing.assert_array_equal(back.targets, ds.targets)
        np.testing.assert_array_equal(back.meta, ds.meta)
        assert back.split_of_frame == ds.split_of_frame
        assert back.window_len == 16

    def test_save_is_deterministic(self, tmp_path):
        ds = pp.build_dataset(_sims(2), 8, split_seed=1)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        pp.save_dataset(a, ds)
        pp.save_dataset(b, ds)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            pp.load_dataset(p, split_seed=0)

    def test_rejects_truncated_records(self, tmp_path):
        ds = pp.build_dataset(_sims(2), 8, split_seed=1)
        p = tmp_path / "t.bin"
        pp.save_dataset(p, ds)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="records"):
            pp.load_dataset(p, split_seed=1)

    def test_failed_write_keeps_previous_file_and_no_temporary(self, tmp_path, monkeypatch):
        p = tmp_path / "dataset.bin"
        pp.save_dataset(p, pp.build_dataset(_sims(1), 8, split_seed=1))
        before = p.read_bytes()

        class DiskFull:
            """Writes the first 16 bytes of each call, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:16])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ck, "open", lambda *a, **kw: DiskFull(open(*a, **kw)), raising=False)
        with pytest.raises(OSError):
            pp.save_dataset(p, pp.build_dataset(_sims(2), 8, split_seed=1))
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["dataset.bin"]
