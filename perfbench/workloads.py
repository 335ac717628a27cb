"""The three benchmark workloads: gen-data, train-paper and eval-grid.

Each workload builds its inputs from the seed, runs whole rounds of the same
operations until the timed work reaches the requested seconds, and checks
its outputs with checks.py. The package is driven only through its public
functions, looked up on the module at call time so that a tracer installed
on the module sees every call.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from dofdm_lab import autodiff as ad
from dofdm_lab import baseband, checkpoint, config, dnn_detector, evaluation, preprocess, training, transdetector

import checks

MODULES = {
    "baseband": baseband,
    "preprocess": preprocess,
    "config": config,
    "autodiff": ad,
    "transdetector": transdetector,
    "dnn_detector": dnn_detector,
    "training": training,
    "checkpoint": checkpoint,
    "evaluation": evaluation,
}


# operations per round and input counts, the same for every size
STEPS_PER_ROUND = 2  # Adam steps per train-paper round
TRAIN_FRAMES = 2  # frames simulated for the train-paper dataset
EVAL_FRAMES = 4  # eval-grid frames, spread along the (SNR, alpha) diagonal
GRAD_BATCH = 4  # windows in the directional-derivative check
RELOAD_BATCH = 64  # windows in the checkpoint reload check


@dataclass(frozen=True)
class Size:
    """Frame, model and grid sizes; the defaults are the benchmark's, tests pass toy sizes."""

    frame: baseband.FrameConfig = field(default_factory=baseband.FrameConfig)
    model: transdetector.ModelConfig = field(default_factory=transdetector.ModelConfig)
    dnn: dnn_detector.DnnConfig = field(default_factory=dnn_detector.DnnConfig)
    snr_list: tuple = config.DEFAULT_SNR_LIST
    alpha_list: tuple = config.DEFAULT_ALPHA_LIST
    batch_size: int = 256


@dataclass
class Outcome:
    unit: str  # what items_per_s counts
    ops_per_round: int
    rates: list = field(default_factory=list)  # items per timed second, one per sample
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setup_end: float = 0.0
    timed_s: float = 0.0
    info: dict = field(default_factory=dict)


class SetupDone(Exception):
    """Raised at the first round by a run made only to time its set-up."""


class Run:
    """Seed, run length, scratch directory and optional tracer of one run."""

    def __init__(self, seed: int, seconds: float, workdir: str, tracer=None, size: Size | None = None,
                 setup_only: bool = False):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = workdir
        self.tracer = tracer
        self.size = size or Size()
        self.setup_only = setup_only

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def checking(self):
        """Output checks run untraced, so their calls stay out of the per-layer figures."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def derived_seed(self, *keys) -> int:
        return int(np.random.SeedSequence([self.seed, *keys]).generate_state(1)[0])

    def rounds(self, out: Outcome, body) -> None:
        """Call body(r) in whole rounds until timed work reaches the run length.

        body returns the round's timed parts as (items, seconds) pairs; each
        part gives one rate sample. A round that raises counts its
        operations as failed. With setup_only, raises SetupDone instead.
        """
        out.setup_end = time.perf_counter()
        if self.setup_only:
            raise SetupDone(out.setup_end)
        r = 0
        while r == 0 or out.timed_s < self.seconds:
            out.attempted += out.ops_per_round
            t0 = time.perf_counter()
            try:
                with self.span("bench.round"):
                    parts = body(r)
                out.rates.extend(items / seconds for items, seconds in parts)
                dt = sum(seconds for _, seconds in parts)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.failed += out.ops_per_round
                dt = time.perf_counter() - t0
            out.timed_s += dt
            r += 1


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# ---- gen-data ----


def gen_data(run: Run) -> Outcome:
    """Simulate, window and save default frames, one SNR row of all alphas per batch."""
    size = run.size
    n_snr, n_alpha = len(size.snr_list), len(size.alpha_list)
    out = Outcome("frames", n_snr * n_alpha)
    path = os.path.join(run.workdir, "dataset.bin")
    window_len = size.model.window_len

    def round_(r):
        cfg = config.ExperimentConfig(
            frame=size.frame, snr_list=size.snr_list, alpha_list=size.alpha_list,
            model=size.model, dnn=size.dnn, n_frames=n_snr * n_alpha,
            data_seed=run.derived_seed(r), split_seed=run.seed,
        )
        parts = []
        for c in range(n_snr):
            t0 = time.perf_counter()
            sims = config.generate_frames(cfg, frame_range=range(c * n_alpha, (c + 1) * n_alpha))
            ds = preprocess.build_dataset(sims, window_len, cfg.split_seed)
            preprocess.save_dataset(path, ds)
            parts.append((len(sims), time.perf_counter() - t0))
            with run.checking():
                label = f"round {r} snr {size.snr_list[c]}"
                demods = np.stack([s.demod for s in sims])
                out.errors.extend(checks.check_windows(ds.windows, ds.meta, demods, label))
                loaded = preprocess.load_dataset(path, cfg.split_seed, len(sims))
                out.errors.extend(checks.check_dataset_roundtrip(loaded, ds, label))
                if r == 0:
                    sim = sims[c % len(sims)]
                    out.errors.extend(_check_frame(size.frame, sim, f"{label} alpha {sim.doppler_alpha}"))
        return parts

    run.rounds(out, round_)
    out.info["dataset_bytes"] = os.path.getsize(path)
    return out


def _check_frame(frame_cfg, sim, label: str) -> list:
    """Regenerate one frame's received waveform with and without noise."""
    fs, band = frame_cfg.sample_rate_hz, frame_cfg.band_hz
    wave = sim.frame.waveform
    noisy = baseband.channel_apply(wave, sim.realization, fs, sim.snr_db, band)
    clean = baseband.channel_apply(wave, sim.realization, fs, None, band)
    errors = []
    if not np.array_equal(baseband.fft_demod(noisy, frame_cfg), sim.demod):
        errors.append(f"{label}: regenerated waveform does not demodulate to the simulated frame")
    errors += checks.check_snr(clean, noisy, sim.snr_db, fs, band, label)
    errors += checks.check_body_power(
        wave, frame_cfg.symbols_per_frame, frame_cfg.symbol_samples, frame_cfg.body_samples, label
    )
    return errors


# ---- train-paper ----


def train_paper(run: Run) -> Outcome:
    """Adam steps of the paper-size detector, one checkpoint write per round."""
    size = run.size
    steps = STEPS_PER_ROUND
    out = Outcome("samples", steps)
    with run.span("bench.setup"):
        cfg = config.ExperimentConfig(
            frame=size.frame, snr_list=size.snr_list, alpha_list=size.alpha_list,
            model=size.model, dnn=size.dnn, n_frames=TRAIN_FRAMES,
            data_seed=run.seed, split_seed=run.seed,
        )
        sims = config.generate_frames(cfg)
        ds = preprocess.build_dataset(sims, size.model.window_len, cfg.split_seed)
        del sims
        n_train = ds.indices("train").size
        if n_train < steps * size.batch_size:
            raise ValueError(f"train split holds {n_train} windows, fewer than one round of {steps} batches")
        model = transdetector.TransDetector.init(size.model, run.seed)
        # one Adam state for the whole run, so its moments and step count
        # carry over from round to round as in one long training run
        adam = training.AdamState.init(model.params)
    ckpt = os.path.join(run.workdir, "last.ckpt")

    def round_(r):
        # checkpoint_every == max_steps: a run stopped by max_steps writes
        # last.ckpt only on a checkpoint_every boundary
        tcfg = training.TrainConfig(
            epochs=1, batch_size=size.batch_size, max_steps=steps, checkpoint_every=steps,
            val_every=0, seed=run.derived_seed(r),
        )
        adam_t = adam.t
        result, dt = _timed(training.train, model, ds, tcfg, out_dir=run.workdir, adam=adam)
        with run.checking():
            label = f"round {r}"
            if result.steps != steps or adam.t != adam_t + steps:
                out.errors.append(f"{label}: trained {result.steps} steps and {adam.t - adam_t} Adam updates, "
                                  f"expected {steps}")
            out.errors.extend(checks.check_losses(result.curve, label))
            out.errors.extend(_check_reload(model, ckpt, steps, ds, size, run.derived_seed(r, 1), label))
        return [(steps * size.batch_size, dt)]

    run.rounds(out, round_)
    with run.checking():
        seed = run.derived_seed(2)
        rel_err = checks.directional_error(*gradient_problem(model, ds, size, seed), seed)
    out.errors.extend(checks.check_gradient(rel_err, "paper-size loss"))
    out.info.update(gradient_rel_err=rel_err, recording_forwards=out.attempted - out.failed, adam_t=adam.t)
    return out


def _fixed_inputs(ds, n: int, noise_dim: int, seed: int):
    rng = np.random.default_rng(seed)
    idx = rng.choice(ds.n_samples, size=n, replace=False)
    return ds.windows[idx], ds.targets[idx], rng.standard_normal((n, noise_dim))


def _check_reload(model, path: str, steps: int, ds, size: Size, seed: int, label: str) -> list:
    """The checkpoint just written must reload to a bit-identical forward."""
    loaded, payload, _ = training.load_model_checkpoint(path)
    errors = []
    step = payload.get("train_state", {}).get("step")
    if step != steps:
        errors.append(f"{label}: last.ckpt holds step {step}, expected {steps}")
    windows, _, noise = _fixed_inputs(ds, RELOAD_BATCH, size.model.dns_noise_dim, seed)
    a = model.forward(ad.Tape(recording=False), windows, noise=noise).data
    b = loaded.forward(ad.Tape(recording=False), windows, noise=noise).data
    if not np.array_equal(a, b):
        errors.append(f"{label}: reloaded checkpoint forward differs by up to {np.max(np.abs(a - b)):.3g}")
    return errors


def gradient_problem(model, ds, size: Size, seed: int) -> tuple:
    """(loss_fn, float64 params, tape gradients) of the loss on fixed windows and noise."""
    windows, targets, noise = _fixed_inputs(ds, GRAD_BATCH, size.model.dns_noise_dim, seed)

    def loss_of(arrays, want_grads=False):
        params = {k: ad.Tensor(v, requires_grad=want_grads, dtype=np.float64) for k, v in arrays.items()}
        tape = ad.Tape(recording=want_grads)
        pred = model.forward(tape, windows, params=params, noise=noise)
        loss = training.mse_loss(tape, pred, ad.Tensor(targets, dtype=np.float64))
        if not want_grads:
            return loss.item()
        tape.backward(loss)
        return {k: p.grad if p.grad is not None else np.zeros_like(p.data) for k, p in params.items()}

    base = {k: p.data.astype(np.float64) for k, p in model.params.items()}
    return loss_of, base, loss_of(base, want_grads=True)


# ---- eval-grid ----


@contextmanager
def capture_predictions(sink: list):
    """Record (windows, outputs) of every evaluation.predict call."""
    original = evaluation.predict

    def capturing(model, windows, *args, **kwargs):
        pred = original(model, windows, *args, **kwargs)
        sink.append((windows, pred))
        return pred

    evaluation.predict = capturing
    try:
        yield
    finally:
        evaluation.predict = original


def _diagonal(size: Size, n: int) -> list:
    """Frame indices of n cells spread along the (SNR, alpha) diagonal.

    Fixed cells keep the simulated lengths, and so the memory high-water
    mark, the same for every seed; the seed only changes the data.
    """
    n_snr, n_alpha = len(size.snr_list), len(size.alpha_list)
    steps = np.linspace(0, 1, n) if n > 1 else np.zeros(1)
    return [int(round(t * (n_snr - 1))) * n_alpha + int(round(t * (n_alpha - 1))) for t in steps]


def symbol_slice(sim, s: int):
    """The FrameSim of symbol s alone: one (frame, symbol) detection."""
    f = sim.frame
    one = slice(s, s + 1)
    frame = replace(f, bits=f.bits[one], diff_symbols=f.diff_symbols[one], tx_symbols=f.tx_symbols[one])
    return replace(sim, frame=frame, demod=sim.demod[one])


def eval_grid(run: Run) -> Outcome:
    """Score single-FFT, the paper-size detector and the DNN on one symbol per round.

    A whole default frame takes about 12 s to score, too coarse a sample on
    a shared host; one symbol (1023 windows, two batches) takes about 1.5 s.
    Rounds cycle over the frames first, so consecutive rounds change cell.
    """
    size = run.size
    frame = size.frame
    out = Outcome("windows", 1)
    with run.span("bench.setup"):
        cfg = config.ExperimentConfig(
            frame=frame, snr_list=size.snr_list, alpha_list=size.alpha_list,
            model=size.model, dnn=size.dnn, n_frames=len(size.snr_list) * len(size.alpha_list),
            data_seed=run.seed, split_seed=run.seed,
        )
        sims = config.generate_frames(cfg, frame_range=_diagonal(size, EVAL_FRAMES))
        models = {}
        for name, model in (
            ("trans", transdetector.TransDetector.init(size.model, run.seed)),
            ("dnn", dnn_detector.DnnDetector.init(size.dnn, run.seed)),
        ):
            path = os.path.join(run.workdir, f"{name}.ckpt")
            training.save_model_checkpoint(path, model)
            models[name] = training.load_model_checkpoint(path)[0]
    slices = [symbol_slice(sim, s) for s in range(frame.symbols_per_frame) for sim in sims]
    windows = frame.n_subcarriers - 1
    captured = []
    out.info["model_windows"] = 0

    def round_(r):
        sim = slices[r % len(slices)]
        del captured[:]
        with capture_predictions(captured):
            report, dt = _timed(evaluation.evaluate_frames, [sim], models, size.model.window_len, run.seed)
        with run.checking():
            out.errors.extend(checks.check_eval(report, [sim], list(models), captured, f"round {r}"))
            if not checks.reference_normalize(sim.demod)[1].any():
                out.info["model_windows"] += windows
        return [(windows, dt)]

    run.rounds(out, round_)
    out.info["cells"] = [[s.snr_db, s.doppler_alpha] for s in sims]
    return out


WORKLOADS = {"gen-data": gen_data, "train-paper": train_paper, "eval-grid": eval_grid}
