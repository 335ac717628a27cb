"""Loss, schedule, optimizer, and the training loop contract."""

import math

import numpy as np
import pytest

from dofdm_lab import autodiff as ad
from dofdm_lab import training as tr
from dofdm_lab.preprocess import Dataset
from dofdm_lab.transdetector import ModelConfig, TransDetector

TINY = ModelConfig(
    d_model=16, window_len=8, n_heads=2, n_layers=2, d_ff=32,
    fusion_groups=((1, 2),), dns_noise_dim=6,
)


def _toy_dataset(n_frames=3, per_frame=8, window_len=8, seed=0):
    rng = np.random.default_rng(seed)
    n = n_frames * per_frame
    windows = rng.normal(size=(n, window_len, 2)).astype(np.float32)
    targets = rng.choice([-1.0, 1.0], size=(n, 2)).astype(np.float32)
    meta = np.column_stack([
        np.repeat(np.arange(n_frames, dtype=np.uint32), per_frame),
        np.zeros(n, dtype=np.uint32),
        np.tile(np.arange(1, per_frame + 1, dtype=np.uint32), n_frames),
    ])
    split = {i: ("val" if i == n_frames - 1 else "train") for i in range(n_frames)}
    return Dataset(window_len, windows, targets, meta, split)


class TestMseLoss:
    def test_zero_on_match(self):
        tape = ad.Tape()
        pred = ad.Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        loss = tr.mse_loss(tape, pred, ad.Tensor(np.ones((4, 2), dtype=np.float32)))
        assert loss.item() == 0.0

    def test_unit_complex_error_gives_one(self):
        # single pair off by 1+1j: |err|^2 = 2, loss = 2/(2*1) = 1
        tape = ad.Tape()
        pred = ad.Tensor(np.array([[1.0, 1.0]], dtype=np.float32))
        loss = tr.mse_loss(tape, pred, ad.Tensor(np.array([[0.0, 0.0]], dtype=np.float32)))
        assert loss.item() == pytest.approx(1.0)

    def test_matches_half_mean_square_norm(self):
        rng = np.random.default_rng(1)
        p, t = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
        tape = ad.Tape()
        loss = tr.mse_loss(tape, ad.Tensor(p), ad.Tensor(t))
        err = (p[:, 0] - t[:, 0]) + 1j * (p[:, 1] - t[:, 1])
        assert loss.item() == pytest.approx(np.sum(np.abs(err) ** 2) / (2 * 20), rel=1e-6)

    def test_rejects_empty_and_mismatched(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            tr.mse_loss(tape, ad.Tensor(np.zeros((0, 2))), ad.Tensor(np.zeros((0, 2))))
        with pytest.raises(ValueError):
            tr.mse_loss(tape, ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros((4, 2))))


class TestLrSchedule:
    def test_peak_value(self):
        assert tr.lr_at(2000, 64, 2000) == pytest.approx(2.7950849718747374e-3, abs=1e-7)

    def test_first_step(self):
        assert tr.lr_at(1, 64, 2000) == pytest.approx(0.125 * 2000**-1.5, rel=1e-12)

    def test_matches_closed_form_on_grid(self):
        for step in (1, 10, 2000, 100_000):
            expect = 64**-0.5 * min(step**-0.5, step * 2000**-1.5)
            assert tr.lr_at(step, 64, 2000) == pytest.approx(expect, rel=1e-12)

    def test_piecewise_monotone(self):
        values = [tr.lr_at(s, 64, 100) for s in range(1, 301)]
        assert all(b >= a for a, b in zip(values[:99], values[1:100]))
        assert all(b <= a for a, b in zip(values[99:-1], values[100:]))

    def test_rejects_step_zero(self):
        with pytest.raises(ValueError):
            tr.lr_at(0, 64, 2000)


class TestAdam:
    def _single(self, value=0.0, grad=None):
        t = ad.Tensor(np.array([value], dtype=np.float64), requires_grad=True)
        if grad is not None:
            t.grad = np.array([grad], dtype=np.float64)
        return {"w": t}

    def test_zero_grad_keeps_params(self):
        params = self._single(1.5, 0.0)
        state = tr.AdamState.init(params)
        tr.adam_step(params, state, 0.1, 0.9, 0.999, 1e-8)
        assert params["w"].data[0] == 1.5

    def test_first_step_magnitude_equals_lr(self):
        # bias correction makes m_hat = v_hat = 1 for a unit gradient at t=1
        params = self._single(0.0, 1.0)
        state = tr.AdamState.init(params)
        tr.adam_step(params, state, 0.01, 0.9, 0.999, 1e-8)
        assert abs(params["w"].data[0] + 0.01) < 1e-9
        assert state.t == 1

    def test_non_finite_grad_aborts(self):
        params = self._single(0.0, math.nan)
        state = tr.AdamState.init(params)
        with pytest.raises(tr.NonFiniteGradError, match="w"):
            tr.adam_step(params, state, 0.01, 0.9, 0.999, 1e-8)


class TestTrainLoop:
    def test_step_bookkeeping(self):
        ds = _toy_dataset(n_frames=3, per_frame=5)  # 10 train samples
        model = TransDetector.init(TINY, seed=0)
        cfg = tr.TrainConfig(epochs=1, batch_size=4, warmup=10, seed=1, val_every=0)
        result = tr.train(model, ds, cfg)
        assert result.steps == 3
        assert [s for s, _, _ in result.curve] == [1, 2, 3]
        assert all(math.isfinite(l) for _, l, _ in result.curve)

    def test_two_runs_share_the_trajectory(self):
        ds = _toy_dataset()
        cfg = tr.TrainConfig(epochs=2, batch_size=8, warmup=10, seed=3, val_every=0)
        a = TransDetector.init(TINY, seed=4)
        b = TransDetector.init(TINY, seed=4)
        ra = tr.train(a, ds, cfg)
        rb = tr.train(b, ds, cfg)
        assert ra.curve == rb.curve
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_validation_history_and_best_checkpoint(self, tmp_path):
        ds = _toy_dataset()
        model = TransDetector.init(TINY, seed=0)
        cfg = tr.TrainConfig(epochs=2, batch_size=8, warmup=10, seed=1, val_every=2)
        result = tr.train(model, ds, cfg, out_dir=tmp_path)
        assert [s for s, _ in result.val_history] == [2, 4]
        assert math.isfinite(result.best_val_mse_db)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()

    def test_max_steps_halts_early(self):
        ds = _toy_dataset()
        model = TransDetector.init(TINY, seed=0)
        cfg = tr.TrainConfig(epochs=5, batch_size=4, warmup=10, seed=1, val_every=0, max_steps=3)
        result = tr.train(model, ds, cfg)
        assert result.steps == 3
        assert result.halted == "max_steps"

    def test_non_finite_loss_raises(self):
        ds = _toy_dataset()
        ds.targets[0] = np.inf
        model = TransDetector.init(TINY, seed=0)
        cfg = tr.TrainConfig(epochs=1, batch_size=24, warmup=10, seed=1, val_every=0)
        with pytest.raises(tr.NonFiniteGradError, match="non-finite"):
            tr.train(model, ds, cfg)

    def test_requires_training_frames(self):
        ds = _toy_dataset(n_frames=2)
        ds.split_of_frame.update({0: "val", 1: "val"})
        model = TransDetector.init(TINY, seed=0)
        with pytest.raises(ValueError, match="training"):
            tr.train(model, ds, tr.TrainConfig(epochs=1, batch_size=4, warmup=10))

    def test_resume_reproduces_straight_run(self, tmp_path):
        ds = _toy_dataset()
        cfg = dict(epochs=2, batch_size=4, warmup=10, seed=9, val_every=0, checkpoint_every=2)

        straight = TransDetector.init(TINY, seed=2)
        tr.train(straight, ds, tr.TrainConfig(**cfg))  # 4 steps/epoch, 8 total

        primed = TransDetector.init(TINY, seed=2)
        tr.train(primed, ds, tr.TrainConfig(**cfg, max_steps=5), out_dir=tmp_path)
        resumed, payload, adam = tr.load_model_checkpoint(tmp_path / "last.ckpt")
        result = tr.train(
            resumed, ds, tr.TrainConfig(**cfg),
            resume=payload["train_state"], adam=adam,
        )
        assert result.steps == 8
        assert result.curve[0][0] == 6  # picks up after the step-5 checkpoint written at max_steps
        for name in straight.params:
            np.testing.assert_array_equal(
                straight.params[name].data, resumed.params[name].data
            )

    def test_max_steps_stop_checkpoints_its_own_step(self, tmp_path):
        ds = _toy_dataset()  # 16 train samples: 4 steps/epoch at batch 4
        cfg = dict(epochs=3, batch_size=4, warmup=10, seed=9, val_every=0, checkpoint_every=4)

        straight = tr.train(TransDetector.init(TINY, seed=2), ds, tr.TrainConfig(**cfg))

        primed = tr.train(
            TransDetector.init(TINY, seed=2), ds, tr.TrainConfig(**cfg, max_steps=7), out_dir=tmp_path
        )
        resumed, payload, adam = tr.load_model_checkpoint(tmp_path / "last.ckpt")
        assert payload["train_state"]["step"] == 7
        rest = tr.train(resumed, ds, tr.TrainConfig(**cfg), resume=payload["train_state"], adam=adam)
        assert primed.curve + rest.curve == straight.curve

    def test_max_steps_on_a_boundary_writes_once(self, tmp_path, monkeypatch):
        writes = []
        real = tr.save_model_checkpoint
        monkeypatch.setattr(
            tr, "save_model_checkpoint",
            lambda path, *a, **k: (writes.append(k["train_state"]["step"]), real(path, *a, **k)),
        )
        cfg = tr.TrainConfig(epochs=3, batch_size=4, warmup=10, seed=9, val_every=0,
                             checkpoint_every=3, max_steps=3)
        tr.train(TransDetector.init(TINY, seed=2), _toy_dataset(), cfg, out_dir=tmp_path)
        assert writes == [3]

    def test_each_step_checkpointed_once(self, tmp_path, monkeypatch):
        writes = []
        real = tr.save_model_checkpoint
        monkeypatch.setattr(
            tr, "save_model_checkpoint",
            lambda path, *a, **k: (writes.append(k["train_state"]["step"]), real(path, *a, **k)),
        )
        # 4 steps per epoch: the step-4 and step-8 boundaries end an epoch, and step 8 ends the run
        cfg = tr.TrainConfig(epochs=2, batch_size=4, warmup=10, seed=9, val_every=0, checkpoint_every=2)
        tr.train(TransDetector.init(TINY, seed=2), _toy_dataset(), cfg, out_dir=tmp_path)
        assert writes == [2, 4, 6, 8]
        _, payload, _ = tr.load_model_checkpoint(tmp_path / "last.ckpt")
        assert (payload["train_state"]["epoch"], payload["train_state"]["batches_done"]) == (2, 0)


def test_build_model_round_trips_config():
    model = tr.build_model("trans", tr.model_config_dict(TransDetector.init(TINY, seed=0)))
    assert model.cfg == TINY
    with pytest.raises(ValueError):
        tr.build_model("mystery", {})
