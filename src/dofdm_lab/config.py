"""Experiment configuration: strict JSON schema, manifests, grid assignment."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .baseband import ChannelConfig, FrameConfig, WaveguideGeometry, simulate_frame
from .dnn_detector import DnnConfig
from .training import TrainConfig
from .transdetector import ModelConfig

DEFAULT_SNR_LIST = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
DEFAULT_ALPHA_LIST = (1e-4, 1.5e-4, 2e-4, 2.5e-4, 3e-4, 4e-4, 5e-4)


class ConfigError(ValueError):
    """Bad or unknown configuration content; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    frame: FrameConfig = field(default_factory=FrameConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    dnn: DnnConfig = field(default_factory=DnnConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    snr_list: tuple = DEFAULT_SNR_LIST
    alpha_list: tuple = DEFAULT_ALPHA_LIST
    n_frames: int = 56
    eval_frames_per_cell: int = 2
    data_seed: int = 1
    split_seed: int = 2

    def __post_init__(self):
        if not self.snr_list or not self.alpha_list:
            raise ConfigError("snr_list and alpha_list must be nonempty")
        if not all(a > -1.0 for a in self.alpha_list):
            raise ConfigError(f"alpha_list entries must be > -1, got {list(self.alpha_list)}")
        if self.n_frames < 1:
            raise ConfigError("n_frames must be >= 1")
        if self.eval_frames_per_cell < 1:
            raise ConfigError("eval_frames_per_cell must be >= 1")
        if self.model.window_len != self.dnn.window_len:
            raise ConfigError(
                "model.window_len and dnn.window_len must agree "
                f"({self.model.window_len} vs {self.dnn.window_len})"
            )

    @property
    def cells(self) -> tuple:
        return tuple((s, a) for s in self.snr_list for a in self.alpha_list)

    def cell_of_frame(self, i: int) -> tuple:
        return self.cells[i % len(self.cells)]

    def frame_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.data_seed, i]).generate_state(1)[0])


_SECTIONS = {
    "frame": FrameConfig,
    "channel": ChannelConfig,
    "model": ModelConfig,
    "dnn": DnnConfig,
    "train": TrainConfig,
}
_TOP_SCALARS = {
    "snr_list",
    "alpha_list",
    "n_frames",
    "eval_frames_per_cell",
    "data_seed",
    "split_seed",
}


def _build_section(name: str, cls, raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{name}' must be an object")
    if name == "channel" and "doppler_alpha" in raw:
        raise ConfigError("channel.doppler_alpha is set per frame by alpha_list")
    allowed = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ConfigError(f"unknown key '{name}.{key}'")
        kwargs[key] = value
    if name == "channel" and "geometry" in kwargs:
        kwargs["geometry"] = _build_section("channel.geometry", WaveguideGeometry, kwargs["geometry"])
    if name == "frame" and "diff_seed" in kwargs:
        pair = kwargs["diff_seed"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError("frame.diff_seed must be a [real, imag] pair")
        kwargs["diff_seed"] = complex(pair[0], pair[1])
    if name == "model" and "fusion_groups" in kwargs:
        groups = kwargs["fusion_groups"]
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise ConfigError("model.fusion_groups must be a list of lists")
        kwargs["fusion_groups"] = tuple(tuple(int(x) for x in g) for g in groups)
    if name == "dnn" and "hidden" in kwargs:
        kwargs["hidden"] = tuple(int(x) for x in kwargs["hidden"])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section '{name}': {exc}") from exc


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(key, _SECTIONS[key], value)
        elif key in _TOP_SCALARS:
            if key in ("snr_list", "alpha_list"):
                if not isinstance(value, list):
                    raise ConfigError(f"'{key}' must be a list of numbers")
                kwargs[key] = tuple(float(x) for x in value)
            else:
                kwargs[key] = int(value)
        else:
            raise ConfigError(f"unknown key '{key}'")
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def config_as_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for name, cls in _SECTIONS.items():
        section = dataclasses.asdict(getattr(cfg, name))
        if name == "frame":
            seed = section["diff_seed"]
            section["diff_seed"] = [seed.real, seed.imag]
        if name == "model":
            section["fusion_groups"] = [list(g) for g in section["fusion_groups"]]
        if name == "dnn":
            section["hidden"] = list(section["hidden"])
        out[name] = section
    out["snr_list"] = list(cfg.snr_list)
    out["alpha_list"] = list(cfg.alpha_list)
    out["n_frames"] = cfg.n_frames
    out["eval_frames_per_cell"] = cfg.eval_frames_per_cell
    out["data_seed"] = cfg.data_seed
    out["split_seed"] = cfg.split_seed
    return out


# ---- manifests ----


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_hash(manifest: dict) -> str:
    body = {k: v for k, v in manifest.items() if k != "manifest_hash"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def build_manifest(cfg: ExperimentConfig, dataset_sha256: str, taps_file: str | None) -> dict:
    manifest = {
        "config": config_as_dict(cfg),
        "dataset_sha256": dataset_sha256,
        "taps_file": taps_file,
        "frame_count": cfg.n_frames,
        "cells": [[s, a] for s, a in cfg.cells],
    }
    manifest["manifest_hash"] = manifest_hash(manifest)
    return manifest


def load_manifest(path) -> dict:
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc
    if manifest.get("manifest_hash") != manifest_hash(manifest):
        raise ConfigError(f"{path}: manifest hash does not match its contents")
    return manifest


def generate_frames(cfg: ExperimentConfig, realization=None, frame_range=None) -> list:
    """Simulate the frame grid; frame i lands on cell i mod len(cells)."""
    indices = range(cfg.n_frames) if frame_range is None else frame_range
    sims = []
    for i in indices:
        snr_db, alpha = cfg.cell_of_frame(i)
        sims.append(
            simulate_frame(
                cfg.frame, cfg.channel, alpha, snr_db, cfg.frame_seed(i), realization
            )
        )
    return sims
