"""Toy-size runs of the benchmark workloads and corruption tests of its checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from dofdm_lab import autodiff as ad  # noqa: E402
from dofdm_lab import baseband, config, dnn_detector, evaluation, preprocess, training, transdetector  # noqa: E402

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

TOY = workloads.Size(
    frame=baseband.FrameConfig(n_subcarriers=32, guard_ms=1.0, symbols_per_frame=2),
    model=transdetector.ModelConfig(d_model=8, n_heads=2, n_layers=3, fusion_groups=((1, 2, 3),), dns_noise_dim=4),
    dnn=dnn_detector.DnnConfig(hidden=(8, 8)),
    snr_list=(10.0, 20.0),
    alpha_list=(1e-4, 3e-4),
    batch_size=8,
)


def toy_run(tmp_path, workload, tracer=None):
    run = workloads.Run(7, 0.0, str(tmp_path), tracer, TOY)
    if tracer is None:
        return workloads.WORKLOADS[workload](run)
    with tracer.installed(workloads.MODULES):
        return workloads.WORKLOADS[workload](run)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_workload_runs_clean(tmp_path, workload):
    out = toy_run(tmp_path, workload)
    assert out.errors == []
    assert out.failed == 0 and out.attempted == out.ops_per_round
    assert out.rates and all(r > 0 for r in out.rates)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_toy_workload_is_complete(tmp_path, workload):
    tracer = Tracer()
    out = toy_run(tmp_path, workload, tracer)
    assert out.errors == []
    assert bench_run.completeness_errors(tracer, out) == []
    values = bench_run.per_layer_values(tracer, out.attempted, bench_run.declared_metrics()["per_layer"])
    assert training.train.__module__ == "dofdm_lab.training"  # originals restored
    if workload == "train-paper":
        assert tracer.tapes_checked == workloads.STEPS_PER_ROUND
        assert values["autodiff.tape_nodes_per_forward"] > 0
        assert values["autodiff.Tape.backward.s"] > 0
        assert values["checkpoint.save_checkpoint.bytes"] > 0
    if workload == "eval-grid":
        assert values["evaluation.predict.s"] > 0
        assert values["setup.checkpoint.load_checkpoint.s"] > 0
    if workload == "gen-data":
        assert values["baseband.resample.s"] > 0
        assert values["autodiff.matmul.calls"] == 0


def test_completeness_flags_an_untraced_op(tmp_path):
    """An op reached around the tracer leaves tape nodes the wrappers never saw."""
    tracer = Tracer()
    original_add = ad.add
    with tracer.installed(workloads.MODULES):
        transdetector.ad = type(ad)("autodiff_view")
        transdetector.ad.__dict__.update({k: getattr(ad, k) for k in dir(ad) if not k.startswith("__")})
        transdetector.ad.add = original_add
        try:
            out = workloads.train_paper(workloads.Run(7, 0.0, str(tmp_path), tracer, TOY))
        finally:
            transdetector.ad = ad
    assert any("tape holds" in e for e in bench_run.completeness_errors(tracer, out))


def test_summarize_self_time():
    spans = [
        ["bench.round", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 3.5, 4.0, 1],
        ["bench.setup", 11.0, 12.0, -1],
        ["b", 11.0, 11.5, 4],
    ]
    table = summarize(spans, {2: 100})
    assert table["timed"]["a"] == {"calls": 1, "s": 4.0, "self_s": 2.5, "bytes": 0}
    assert table["timed"]["b"]["calls"] == 2 and table["timed"]["b"]["bytes"] == 100
    assert table["setup"]["b"]["s"] == 0.5


# ---- each check rejects a corrupted result ----


def toy_frames(n, seed=3):
    cfg = config.ExperimentConfig(
        frame=TOY.frame, snr_list=TOY.snr_list, alpha_list=TOY.alpha_list,
        model=TOY.model, dnn=TOY.dnn, n_frames=n, data_seed=seed,
    )
    return config.generate_frames(cfg)


def test_window_check_rejects_shifted_window_and_missing_record():
    sims = toy_frames(2)
    ds = preprocess.build_dataset(sims, TOY.model.window_len, 0)
    demods = np.stack([s.demod for s in sims])
    assert checks.check_windows(ds.windows, ds.meta, demods, "ok") == []
    bad = ds.windows.copy()
    bad[5, TOY.model.window_len // 2, 0] += 1e-3
    assert checks.check_windows(bad, ds.meta, demods, "bad")
    assert checks.check_windows(ds.windows[1:], ds.meta[1:], demods, "short")


def test_dataset_roundtrip_rejects_changed_target(tmp_path):
    ds = preprocess.build_dataset(toy_frames(1), TOY.model.window_len, 0)
    path = str(tmp_path / "d.bin")
    preprocess.save_dataset(path, ds)
    loaded = preprocess.load_dataset(path, 0)
    assert checks.check_dataset_roundtrip(loaded, ds, "ok") == []
    loaded.targets[0, 0] = -loaded.targets[0, 0]
    assert checks.check_dataset_roundtrip(loaded, ds, "bad")


def test_snr_check_rejects_noise_scale_off():
    """On the default frame a 10% noise amplitude error is 0.83 dB."""
    fc = baseband.FrameConfig()
    sim = baseband.simulate_frame(fc, baseband.ChannelConfig(), 2e-4, 10.0, 5)
    noisy = baseband.channel_apply(sim.frame.waveform, sim.realization, fc.sample_rate_hz, 10.0, fc.band_hz)
    clean = baseband.channel_apply(sim.frame.waveform, sim.realization, fc.sample_rate_hz, None, fc.band_hz)
    assert checks.check_snr(clean, noisy, 10.0, fc.sample_rate_hz, fc.band_hz, "ok") == []
    off = clean + 1.1 * (noisy - clean)
    assert checks.check_snr(clean, off, 10.0, fc.sample_rate_hz, fc.band_hz, "off")
    fs = fc
    assert checks.check_body_power(sim.frame.waveform, fs.symbols_per_frame, fs.symbol_samples, fs.body_samples, "ok") == []
    assert checks.check_body_power(1.001 * sim.frame.waveform, fs.symbols_per_frame, fs.symbol_samples, fs.body_samples, "bad")


def test_gradient_check_rejects_perturbed_gradient():
    ds = preprocess.build_dataset(toy_frames(1), TOY.model.window_len, 0)
    model = transdetector.TransDetector.init(TOY.model, 1)
    loss_fn, params, grads = workloads.gradient_problem(model, ds, TOY, 11)
    assert checks.check_gradient(checks.directional_error(loss_fn, params, grads, 4), "ok") == []
    bent = dict(grads)
    bent["head.w"] = grads["head.w"] * 1.01
    assert checks.check_gradient(checks.directional_error(loss_fn, params, bent, 4), "bent")


def test_reload_check_rejects_changed_weights(tmp_path):
    ds = preprocess.build_dataset(toy_frames(2), TOY.model.window_len, 0)
    model = transdetector.TransDetector.init(TOY.model, 1)
    path = str(tmp_path / "last.ckpt")
    training.save_model_checkpoint(path, model, train_state={"step": 2})
    assert workloads._check_reload(model, path, 2, ds, TOY, 0, "ok") == []
    model.params["head.b"].data += np.float32(1e-3)
    assert workloads._check_reload(model, path, 2, ds, TOY, 0, "moved")
    assert workloads._check_reload(model, path, 3, ds, TOY, 0, "step")


def test_loss_check_rejects_nan():
    assert checks.check_losses([(1, 0.5, 1e-3)], "ok") == []
    assert checks.check_losses([(1, 0.5, 1e-3), (2, math.nan, 1e-3)], "nan")


def eval_case():
    sims = toy_frames(1, seed=9)
    models = {
        "trans": transdetector.TransDetector.init(TOY.model, 2),
        "dnn": dnn_detector.DnnDetector.init(TOY.dnn, 2),
    }
    captured = []
    with workloads.capture_predictions(captured):
        report = evaluation.evaluate_frames(sims, models, TOY.model.window_len, 0)
    assert checks.check_eval(report, sims, list(models), captured, "ok") == []
    return report, sims, list(models), captured


def _with_row(report, detector, **changes):
    rows = tuple(
        dataclasses.replace(r, **changes) if r.detector == detector else r for r in report.rows
    )
    return evaluation.MetricsReport(rows)


@pytest.mark.parametrize("detector", ["single_fft", "trans", "dnn"])
def test_eval_check_rejects_flipped_tally(detector):
    report, sims, names, captured = eval_case()
    row = report.row(detector, sims[0].snr_db, sims[0].doppler_alpha)
    bad = _with_row(report, detector, bit_errors=row.bit_errors + 1)
    assert checks.check_eval(bad, sims, names, captured, "flipped")
    bad = _with_row(report, detector, n_bits=row.n_bits - 2)
    assert checks.check_eval(bad, sims, names, captured, "short")


def test_eval_check_rejects_changed_prediction():
    report, sims, names, captured = eval_case()
    windows, pred = captured[0]
    moved = pred.copy()
    moved[0] = -moved[0]
    assert checks.check_eval(report, sims, names, [(windows, moved), captured[1]], "moved")


# ---- the command and its declaration ----


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_per_layer_name_without_a_span_is_refused(tmp_path):
    tracer = Tracer()
    out = toy_run(tmp_path, "gen-data", tracer)
    for name in ("baseband.simulate_frame.s", "setup.baseband.simulate_frame.s", "preprocess.save_dataset.bytes"):
        bench_run.per_layer_values(tracer, out.attempted, [name])
    for name in ("baseband.simulate_frmae.s", "baseband.simulate_frame.bytes", "setup.bench.round.s"):
        with pytest.raises(ValueError):
            bench_run.per_layer_values(tracer, out.attempted, [name])


def test_setup_only_stops_before_the_first_round(tmp_path):
    run = workloads.Run(7, 0.0, str(tmp_path), size=TOY, setup_only=True)
    with pytest.raises(workloads.SetupDone):
        workloads.train_paper(run)
    assert not os.path.exists(tmp_path / "last.ckpt")


def test_command_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-data", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
