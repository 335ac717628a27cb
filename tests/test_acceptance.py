"""End-to-end acceptance suite.

One test per shipping criterion; each records a PASS/FAIL line on the
scoreboard printed at the end of the run (see conftest). The long test is
the directional end-to-end one (criterion 9), which trains six detector
instances at toy scale; everything else finishes in seconds to a couple of
minutes. Thresholds and seeds are frozen here on purpose: the suite is meant
to be bit-reproducible, not a statistical experiment.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from dofdm_lab import autodiff as ad
from dofdm_lab import baseband as bb
from dofdm_lab import cli
from dofdm_lab.config import parse_config, generate_frames
from dofdm_lab.dnn_detector import DnnConfig, DnnDetector
from dofdm_lab.evaluation import bits_from_pairs, evaluate_frames, evaluate_mse_db
from dofdm_lab.gradcheck import TOL_MODEL, TOL_OP, run_suite
from dofdm_lab.params import parameter_count
from dofdm_lab.preprocess import Dataset, build_dataset
from dofdm_lab.training import TrainConfig, lr_at, train
from dofdm_lab.transdetector import ModelConfig, TransDetector, trapezoid_encoding

TINY = ModelConfig(
    d_model=16,
    window_len=8,
    n_heads=2,
    n_layers=2,
    d_ff=32,
    fusion_groups=((1, 2),),
    dns_noise_dim=6,
)

# Toy end-to-end scenario: 64 subcarriers, two Doppler factors crossed with
# two noise levels, 500 frames round-robin over the four cells.
E2E_RAW = {
    "frame": {
        "n_subcarriers": 64,
        "bandwidth_hz": 12000.0,
        "center_freq_hz": 32000.0,
        "sample_rate_hz": 96000.0,
        "guard_ms": 8.0,
        "symbols_per_frame": 2,
    },
    "model": {
        "d_model": 32,
        "window_len": 16,
        "n_heads": 4,
        "n_layers": 4,
        "d_ff": 128,
        "fusion_groups": [[1, 3], [2, 4]],
        "dns_noise_dim": 64,
    },
    "dnn": {"window_len": 16},
    "train": {
        "epochs": 3,
        "batch_size": 64,
        "warmup": 2000,
        "seed": 0,
        "val_every": 0,
        "checkpoint_every": 0,
    },
    "snr_list": [5.0, 20.0],
    "alpha_list": [1e-4, 3e-4],
    "n_frames": 500,
    "eval_frames_per_cell": 10,
    "data_seed": 11,
    "split_seed": 12,
}

RACE_SEEDS = (0, 1, 3)
RACE_THRESHOLD = 0.6
RACE_SMOOTH = 50


def _record(criteria, num, ok, detail):
    criteria[num] = (bool(ok), detail)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gradient_suite(criteria):
    t0 = time.perf_counter()
    results = run_suite()
    elapsed = time.perf_counter() - t0
    ops = [r for r in results if r[2] == TOL_OP]
    models = [r for r in results if r[2] == TOL_MODEL]
    worst_op = max(err for _, err, _, _ in ops)
    worst_model = max(err for _, err, _, _ in models)
    failed = [name for name, _, _, passed in results if not passed]
    ok = not failed and elapsed < 120.0 and len(models) == 2
    _record(
        criteria, 1, ok,
        f"max op err {worst_op:.2e} (<1e-4), max model err {worst_model:.2e} "
        f"(<1e-3), {len(results)} checks x 10 seeds in {elapsed:.0f}s",
    )


def test_criterion_02_attention_row_stochastic(criteria):
    cfg = ModelConfig()  # 6 layers, two 3-layer fusion groups, noise token on
    model = TransDetector.init(cfg, seed=4)
    rng = np.random.default_rng(8)
    windows = rng.standard_normal((100, cfg.window_len, 2)).astype(np.float32)
    noise = rng.standard_normal((100, cfg.dns_noise_dim))
    tape = ad.Tape(recording=False)
    _, records = model.forward(tape, windows, noise=noise, collect_attention=True)

    worst = 0.0
    assert len(records) == cfg.n_layers
    for mats in records:  # (batch, heads, rows, rows), plain and fused alike
        assert mats.min() >= 0.0
        worst = max(worst, float(np.abs(mats.sum(axis=-1) - 1.0).max()))

    # The cached copies of layer-1 maps are cropped to the window and
    # renormalized; rebuild them with the same ops and check those too.
    first = records[0]
    batch, heads, rows, _ = first.shape
    assert rows == cfg.window_len + 1
    flat = ad.Tensor(first.reshape(batch * heads, rows, rows))
    cropped = ad.slice_cols(tape, ad.slice_rows(tape, flat, 0, cfg.window_len), 0, cfg.window_len)
    renorm = ad.normalize_rows(tape, cropped).data
    assert renorm.min() >= 0.0
    worst = max(worst, float(np.abs(renorm.sum(axis=-1) - 1.0).max()))

    ok = worst < 1e-6
    _record(
        criteria, 2, ok,
        f"100 inputs, {cfg.n_layers} layers + cropped-renormalized copies: "
        f"max |row sum - 1| = {worst:.2e} (<1e-6)",
    )


def test_criterion_03_trapezoid_encoding_values(criteria):
    pe = trapezoid_encoding(16)
    expected = np.array([k / 8 for k in range(1, 9)] + [k / 8 for k in range(8, 0, -1)])
    exact = bool(np.array_equal(pe, expected))
    # spot values, 1-indexed positions
    exact = exact and pe[7] == 1.0 and pe[8] == 1.0
    exact = exact and pe[6] == 7 / 8 and pe[9] == 7 / 8
    exact = exact and pe[0] == 1 / 8 and pe[15] == 1 / 8
    mirror = all(
        np.array_equal(trapezoid_encoding(n), trapezoid_encoding(n)[::-1])
        for n in range(4, 65, 2)
    )
    ok = exact and mirror
    _record(
        criteria, 3, ok,
        "L=16 values exact (centers 1, neighbors 7/8, edges 1/8); "
        "mirror symmetry holds for even L in [4, 64]",
    )


def test_criterion_04_noise_token_shapes_and_ablation(criteria):
    rng = np.random.default_rng(5)
    windows = rng.standard_normal((3, TINY.window_len, 2)).astype(np.float32)
    noise = rng.normal(size=(3, TINY.dns_noise_dim))
    full = TransDetector.init(TINY, seed=11)
    tape = ad.Tape(recording=False)
    _, records = full.forward(tape, windows, noise=noise, collect_attention=True)
    L = TINY.window_len
    shapes_ok = records[0].shape == (3, 2, L + 1, L + 1) and records[1].shape == (3, 2, L, L)

    lean_cfg = dataclasses.replace(TINY, dns_enabled=False)
    lean = TransDetector.init(lean_cfg, seed=11)
    out_lean = lean.forward(tape, windows)
    out_shared = lean.forward(tape, windows, params=full.params)
    missing = set(full.params) - set(lean.params)
    ablation_ok = (
        np.array_equal(out_lean.data, out_shared.data)
        and missing == {"dns.w", "dns.b"}
    )
    ok = shapes_ok and ablation_ok
    _record(
        criteria, 4, ok,
        f"rows {L + 1} in layer 1, {L} after; disabled noise token forward "
        "bit-equal under shared weights",
    )


def test_criterion_05_fusion_parameter_overhead(criteria):
    base = ModelConfig(d_model=64, window_len=16, n_heads=4, n_layers=6,
                       fusion_groups=((1, 3, 4), (2, 5, 6)))
    lean = dataclasses.replace(base, fusion_groups=())
    n_full = parameter_count(TransDetector.init(base, seed=0).params)
    n_lean = parameter_count(TransDetector.init(lean, seed=0).params)
    overhead = n_full - n_lean
    ok = overhead == 180 and overhead <= 300
    _record(
        criteria, 5, ok,
        f"map-fusion overhead {overhead} parameters (== 180, <= 300) for "
        "two 3-layer groups, 4 heads, 3x3 kernels",
    )


def test_criterion_06_single_fft_reference_behavior(criteria):
    fc = bb.FrameConfig(n_subcarriers=1024, bandwidth_hz=12000.0, center_freq_hz=32000.0,
                        sample_rate_hz=192000.0, guard_ms=16.0, symbols_per_frame=8)
    flat = bb.ChannelRealization(np.array([0.0]), np.array([1.0]), 0.0, 0)
    errors = 0
    total = 0
    for i in range(7):
        sim = bb.simulate_frame(fc, bb.ChannelConfig(), 0.0, None, 600 + i, realization=flat)
        soft, _ = bb.single_fft_detect(sim.demod)
        bits = bb.qpsk_demap(soft)
        errors += int(np.sum(bits != sim.frame.bits))
        total += bits.size
    clean_ok = errors == 0 and total >= 100_000

    ici_errors = 0
    ici_total = 0
    for i in range(2):
        sim = bb.simulate_frame(fc, bb.ChannelConfig(), 3e-4, 30.0, 700 + i)
        soft, _ = bb.single_fft_detect(sim.demod)
        bits = bb.qpsk_demap(soft)
        ici_errors += int(np.sum(bits != sim.frame.bits))
        ici_total += bits.size
    ici_ber = ici_errors / ici_total
    ok = clean_ok and ici_ber > 0.05
    _record(
        criteria, 6, ok,
        f"flat noiseless BER 0 over {total} bits; Doppler 3e-4 at 30 dB, "
        f"K=1024: BER {ici_ber:.3f} (>0.05)",
    )


def test_criterion_07_lr_schedule_oracle(criteria):
    worst_rel = 0.0
    for d_model, warmup in ((64, 2000), (32, 400)):
        for step in (1, 10, 2000, 100_000):
            want = d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)
            got = lr_at(step, d_model, warmup)
            worst_rel = max(worst_rel, abs(got - want) / want)
    peak = lr_at(2000, 64, 2000)
    peak_err = abs(peak - 2.7951e-3)
    ok = worst_rel < 1e-12 and peak_err < 1e-7
    _record(
        criteria, 7, ok,
        f"schedule matches closed form (rel {worst_rel:.1e} < 1e-12); "
        f"peak {peak:.10f} within {peak_err:.1e} of 2.7951e-3",
    )


def test_criterion_08_overfit_sanity(criteria):
    rng = np.random.default_rng(0)
    n = 8
    windows = rng.normal(size=(n, 8, 2)).astype(np.float32)
    targets = rng.choice([-1.0, 1.0], size=(n, 2)).astype(np.float32)
    meta = np.column_stack(
        [np.zeros(n, np.uint32), np.zeros(n, np.uint32), np.arange(1, n + 1, dtype=np.uint32)]
    )
    ds = Dataset(8, windows, targets, meta, {0: "train"})
    cfg = ModelConfig(d_model=16, window_len=8, n_heads=2, n_layers=2, d_ff=64,
                      fusion_groups=((1, 2),), dns_noise_dim=16)
    model = TransDetector.init(cfg, seed=3)
    t0 = time.perf_counter()
    res = train(model, ds, TrainConfig(epochs=2000, batch_size=8, warmup=50, seed=3,
                                       val_every=0, checkpoint_every=0, max_steps=2000),
                quiet=True)
    elapsed = time.perf_counter() - t0
    first_hit = next((s for s, l, _ in res.curve if l < 1e-3), None)
    ok = first_hit is not None and first_hit <= 2000 and elapsed < 300.0
    _record(
        criteria, 8, ok,
        f"8-sample training loss first below 1e-3 at step {first_hit} "
        f"(<=2000) in {elapsed:.0f}s (<300s)",
    )


def _smoothed_crossing(losses, threshold, window):
    c = np.cumsum(np.concatenate([[0.0], losses]))
    smoothed = (c[window:] - c[:-window]) / window
    hits = np.flatnonzero(smoothed < threshold)
    return int(hits[0] + window) if hits.size else None


@pytest.mark.slow
def test_criterion_09_directional_end_to_end(criteria):
    t0 = time.perf_counter()
    cfg = parse_config(E2E_RAW)
    sims = generate_frames(cfg)
    ds = build_dataset(sims, cfg.model.window_len, cfg.split_seed)

    def run(seed, fused):
        groups = cfg.model.fusion_groups if fused else ()
        mc = dataclasses.replace(cfg.model, fusion_groups=groups)
        model = TransDetector.init(mc, seed=seed)
        tc = dataclasses.replace(cfg.train, seed=seed)
        res = train(model, ds, tc, quiet=True)
        return model, np.array([l for _, l, _ in res.curve])

    wins = []
    detector = None
    for seed in RACE_SEEDS:
        model, fused_losses = run(seed, fused=True)
        if seed == RACE_SEEDS[0]:
            detector = model
        _, plain_losses = run(seed, fused=False)
        cf = _smoothed_crossing(fused_losses, RACE_THRESHOLD, RACE_SMOOTH)
        cp = _smoothed_crossing(plain_losses, RACE_THRESHOLD, RACE_SMOOTH)
        wins.append(cf is not None and (cp is None or cf < cp))

    n_eval = cfg.eval_frames_per_cell * len(cfg.cells)
    eval_sims = generate_frames(cfg, frame_range=range(cfg.n_frames, cfg.n_frames + n_eval))
    report = evaluate_frames(eval_sims, {"trans": detector}, cfg.model.window_len, seed=99)
    ber_trans = report.row("trans", 20.0, 3e-4).ber
    ber_fft = report.row("single_fft", 20.0, 3e-4).ber
    elapsed = time.perf_counter() - t0
    ok = ber_trans < ber_fft and all(wins) and elapsed < 1800.0
    _record(
        criteria, 9, ok,
        f"BER at (20 dB, 3e-4): trained {ber_trans:.4f} < single-FFT {ber_fft:.4f}; "
        f"fused-map run crossed smoothed loss {RACE_THRESHOLD} first on "
        f"{sum(wins)}/3 seeds; {elapsed:.0f}s (<1800s)",
    )


def test_criterion_10_metric_oracles(criteria):
    rng = np.random.default_rng(17)
    target = rng.standard_normal((500, 2))
    err = 0.1 / math.sqrt(2.0)
    pred = target + err  # per-pair squared error exactly 0.01
    got = evaluate_mse_db(pred, target)
    mse_ok = abs(got - (-20.0)) < 1e-9

    bits = rng.integers(0, 2, size=(5000, 2))
    guess_bits = bits_from_pairs(rng.standard_normal((5000, 2)))
    ber = float(np.mean(guess_bits != bits))
    ber_ok = abs(ber - 0.5) <= 0.02
    ok = mse_ok and ber_ok
    _record(
        criteria, 10, ok,
        f"uniform 0.01 squared error -> {got:.12f} dB (-20 +- 1e-9); "
        f"random-guess BER {ber:.4f} over 10000 bits (0.5 +- 0.02)",
    )


def test_criterion_11_reproducibility(criteria, tmp_path):
    raw = {
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
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))

    def pipeline(out):
        for argv in (
            ["gen-data", "--config", str(cfg_path), "--out", str(out)],
            ["train", "--config", str(cfg_path), "--out", str(out), "--model", "trans"],
            ["eval", "--config", str(cfg_path), "--out", str(out),
             "--checkpoint", str(out / "run-trans" / "best.ckpt")],
        ):
            rc = cli.main(argv)
            assert rc == 0, argv
        return (out / "dataset.bin").read_bytes(), (out / "metrics.csv").read_bytes()

    ds_a, csv_a = pipeline(tmp_path / "a")
    ds_b, csv_b = pipeline(tmp_path / "b")
    ok = ds_a == ds_b and csv_a == csv_b
    _record(
        criteria, 11, ok,
        f"two full pipeline runs byte-identical: dataset ({len(ds_a)} bytes), "
        f"metrics CSV ({len(csv_a)} bytes)",
    )


def test_criterion_12_dnn_parameter_count(criteria):
    model = DnnDetector.init(DnnConfig(window_len=16), seed=0)
    n = parameter_count(model.params)
    ok = n == 333_314
    _record(
        criteria, 12, ok,
        f"fully-connected detector has {n} parameters (== 333314) at window 16",
    )
