"""Output bytes of the criterion-11 pipeline, pinned by sha256.

The config is the one criterion 11 runs twice; here the pipeline also trains
the DNN and evaluates both checkpoints. The hashes were captured before the
windowing and evaluation code was vectorized. A change that alters what the
pipeline computes, or a file format, must update them on purpose.

METRICS_SHA256 was updated when eleven unused config fields were removed: the
manifest hash in metrics.csv's first line changed, and no other byte did.
"""

import hashlib
import json

from dofdm_lab import cli

CONFIG = {
    "frame": {"n_subcarriers": 16, "bandwidth_hz": 12000.0, "center_freq_hz": 32000.0,
              "sample_rate_hz": 96000.0, "guard_ms": 4.0, "symbols_per_frame": 2},
    "model": {"d_model": 16, "window_len": 8, "n_heads": 2, "n_layers": 2,
              "d_ff": 32, "fusion_groups": [[1, 2]], "dns_noise_dim": 6},
    "dnn": {"window_len": 8, "hidden": [16, 16]},
    "train": {"epochs": 1, "batch_size": 32, "warmup": 10, "seed": 5,
              "val_every": 2, "checkpoint_every": 2, "max_steps": 6},
    "snr_list": [10.0, 20.0], "alpha_list": [1e-4],
    "n_frames": 8, "eval_frames_per_cell": 1, "data_seed": 21, "split_seed": 22,
}

DATASET_SHA256 = "f769dee868911bb35234c9c3a618552f355a5d53b2e4038bffaffe57853aa923"
METRICS_SHA256 = "94d53d4d74421b96587b56485f0967e8d2ac65d8b348e0808cffbf50872433b5"


def test_pipeline_output_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    for argv in (
        ["gen-data", *common],
        ["train", *common, "--model", "trans"],
        ["train", *common, "--model", "dnn"],
        ["eval", *common,
         "--checkpoint", str(out / "run-trans" / "best.ckpt"),
         "--checkpoint", str(out / "run-dnn" / "best.ckpt")],
    ):
        assert cli.main(argv) == 0, argv
    assert (out / "metrics.csv").read_text().count("\ndnn,") == 2
    assert hashlib.sha256((out / "dataset.bin").read_bytes()).hexdigest() == DATASET_SHA256
    assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == METRICS_SHA256
