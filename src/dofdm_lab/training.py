"""Loss, schedule, Adam, and the training loop for both detector models."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import CorruptCheckpoint, load_checkpoint, save_checkpoint
from .dnn_detector import DnnConfig, DnnDetector
from .params import zero_all_grads
from .preprocess import Dataset
from .transdetector import ModelConfig, TransDetector


def mse_loss(tape: ad.Tape, pred: ad.Tensor, target: ad.Tensor) -> ad.Tensor:
    """(1/2n) * sum of squared complex errors over n (re, im) pairs."""
    if pred.ndim != 2 or pred.shape[-1] != 2 or pred.shape != target.shape:
        raise ad.DimensionError(f"expected matching (n, 2) pairs, got {pred.shape} vs {target.shape}")
    if pred.shape[0] < 1:
        raise ad.DimensionError("empty batch has no loss")
    diff = ad.add(tape, pred, ad.scale(tape, target, -1.0))
    return ad.mean(tape, ad.mul(tape, diff, diff))


def lr_at(step: int, d_model: int, warmup: int) -> float:
    """Inverse-sqrt schedule with linear warmup; peaks at the warmup step."""
    if step < 1:
        raise ValueError(f"step counts from 1, got {step}")
    if warmup < 1 or d_model < 1:
        raise ValueError("warmup and d_model must be >= 1")
    return d_model**-0.5 * min(step**-0.5, step * warmup**-1.5)


class NonFiniteGradError(RuntimeError):
    pass


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(
            0,
            {k: np.zeros_like(p.data) for k, p in params.items()},
            {k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adam_step(
    params: dict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name in sorted(params):
        p = params[name]
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradError(f"non-finite gradient in {name!r} at adam step {state.t}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    batch_size: int = 256
    warmup: int = 2000
    seed: int = 0
    val_every: int = 500
    checkpoint_every: int = 1000
    max_steps: int | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")


@dataclass
class TrainResult:
    steps: int
    curve: list            # (step, loss, lr)
    val_history: list      # (step, mse_db)
    best_val_mse_db: float
    halted: str | None = None


def _model_kind(model) -> str:
    return "trans" if isinstance(model, TransDetector) else "dnn"


def build_model(kind: str, config: dict, seed: int = 0, dtype=np.float32):
    if kind == "trans":
        return TransDetector.init(ModelConfig(**config), seed, dtype)
    if kind == "dnn":
        cfg = dict(config)
        cfg["hidden"] = tuple(cfg.get("hidden", DnnConfig().hidden))
        return DnnDetector.init(DnnConfig(**cfg), seed, dtype)
    raise ValueError(f"unknown model kind {kind!r}")


def model_config_dict(model) -> dict:
    cfg = asdict(model.cfg)
    if isinstance(model, TransDetector):
        cfg["fusion_groups"] = [list(g) for g in model.cfg.fusion_groups]
    else:
        cfg["hidden"] = list(model.cfg.hidden)
    return cfg


def save_model_checkpoint(path, model, manifest_hash: str | None = None, train_state: dict | None = None, adam: AdamState | None = None) -> None:
    config = {
        "model_type": _model_kind(model),
        "model_config": model_config_dict(model),
        "manifest_hash": manifest_hash,
    }
    if train_state is not None:
        config["train_state"] = train_state
    arrays = {f"param.{k}": t.data for k, t in model.params.items()}
    if adam is not None:
        config["adam_t"] = adam.t
        for k in adam.m:
            arrays[f"adam.m.{k}"] = adam.m[k]
            arrays[f"adam.v.{k}"] = adam.v[k]
    save_checkpoint(path, config, arrays)


def load_model_checkpoint(path, expect_manifest_hash: str | None = None):
    """Rebuild a model (and optional adam state) from a checkpoint file.

    Returns (model, config payload, AdamState | None). A stored manifest hash
    differing from expect_manifest_hash is an artifact mismatch.
    """
    config, arrays = load_checkpoint(path)
    stored = config.get("manifest_hash")
    if expect_manifest_hash is not None and stored is not None and stored != expect_manifest_hash:
        raise ArtifactMismatch(
            f"{path}: checkpoint was produced under manifest {stored[:12]}..., "
            f"expected {expect_manifest_hash[:12]}..."
        )
    try:
        model = build_model(config["model_type"], config["model_config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"{path}: cannot build a model from its config ({exc!r})") from exc

    def blob(key, tensor):
        if key not in arrays:
            raise CorruptCheckpoint(f"{path}: missing blob {key!r}")
        if arrays[key].size != tensor.size:
            raise CorruptCheckpoint(f"{path}: blob {key!r} has {arrays[key].size} values, expected {tensor.size}")
        return arrays[key].reshape(tensor.shape).copy()

    for name, tensor in model.params.items():
        tensor.data = blob(f"param.{name}", tensor)
    adam = None
    if config.get("adam_t") is not None:
        adam = AdamState.init(model.params)
        adam.t = int(config["adam_t"])
        for name, tensor in model.params.items():
            adam.m[name] = blob(f"adam.m.{name}", tensor)
            adam.v[name] = blob(f"adam.v.{name}", tensor)
    return model, config, adam


class ArtifactMismatch(RuntimeError):
    """An artifact references a different manifest than the one on disk."""


def _predict_mse_db(model, windows, targets, batch_size, seed) -> float:
    from .evaluation import evaluate_mse_db, predict

    return evaluate_mse_db(predict(model, windows, batch_size, seed), targets)


def train(
    model,
    dataset: Dataset,
    cfg: TrainConfig,
    out_dir=None,
    manifest_hash: str | None = None,
    resume: dict | None = None,
    adam: AdamState | None = None,
    quiet: bool = True,
) -> TrainResult:
    """Adam + warmup schedule over the dataset's train split.

    Deterministic in (model init, cfg.seed): shuffling and denoising-row draws
    come from generators spawned off cfg.seed whose states ride along in the
    checkpoints, so a resumed run continues the exact trajectory.
    """
    train_idx = dataset.indices("train")
    val_idx = dataset.indices("val")
    if train_idx.size == 0:
        raise ValueError("dataset has no training frames")
    d_model = getattr(model.cfg, "d_model", None) or 2 * model.cfg.window_len

    shuffle_ss, dns_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dns_rng = np.random.default_rng(dns_ss)
    state = adam if adam is not None else AdamState.init(model.params)

    epoch_start, skip_batches, step = 0, 0, 0
    best_val = math.inf
    if resume is not None:
        epoch_start = int(resume["epoch"])
        skip_batches = int(resume["batches_done"])
        step = int(resume["step"])
        best_val = float(resume.get("best_val_mse_db", math.inf))
        shuffle_rng.bit_generator.state = resume["shuffle_state"]
        dns_rng.bit_generator.state = resume["dns_state"]

    curve, val_history = [], []
    halted = None

    def checkpoint(epoch, batches_done, shuffle_state):
        if out_dir is None:
            return
        save_model_checkpoint(
            os.path.join(out_dir, "last.ckpt"),
            model,
            manifest_hash,
            train_state={
                "epoch": epoch,
                "batches_done": batches_done,
                "step": step,
                "best_val_mse_db": best_val,
                "shuffle_state": shuffle_state,
                "dns_state": dns_rng.bit_generator.state,
            },
            adam=state,
        )

    for epoch in range(epoch_start, cfg.epochs):
        shuffle_state = shuffle_rng.bit_generator.state
        order = shuffle_rng.permutation(train_idx)
        batches = [order[i : i + cfg.batch_size] for i in range(0, order.size, cfg.batch_size)]
        for b_i, batch in enumerate(batches):
            if epoch == epoch_start and b_i < skip_batches:
                continue
            step += 1
            lr = lr_at(step, d_model, cfg.warmup)
            tape = ad.Tape()
            out = model.forward(tape, dataset.windows[batch], rng=dns_rng)
            loss = mse_loss(tape, out, ad.Tensor(dataset.targets[batch]))
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                halted = f"non-finite loss {loss_val} at step {step}"
                break
            tape.backward(loss)
            adam_step(model.params, state, lr)
            zero_all_grads(model.params)
            curve.append((step, loss_val, lr))
            if val_idx.size and cfg.val_every and step % cfg.val_every == 0:
                val_mse = _predict_mse_db(
                    model, dataset.windows[val_idx], dataset.targets[val_idx],
                    cfg.batch_size, cfg.seed + 1,
                )
                val_history.append((step, val_mse))
                if val_mse < best_val:
                    best_val = val_mse
                    if out_dir is not None:
                        save_model_checkpoint(os.path.join(out_dir, "best.ckpt"), model, manifest_hash)
                if not quiet:
                    print(f"step {step}: val mse {val_mse:.2f} dB")
            stop = cfg.max_steps is not None and step >= cfg.max_steps
            boundary = cfg.checkpoint_every and step % cfg.checkpoint_every == 0
            # an epoch's last batch is checkpointed by the end-of-epoch write
            if stop or (boundary and b_i < len(batches) - 1):
                checkpoint(epoch, b_i + 1, shuffle_state)
            if stop:
                halted = "max_steps"
                break
        else:
            skip_batches = 0
            checkpoint(epoch + 1, 0, shuffle_rng.bit_generator.state)
            continue
        break
    if halted and halted != "max_steps":
        raise NonFiniteGradError(halted)
    return TrainResult(step, curve, val_history, best_val, halted)
