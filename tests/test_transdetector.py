"""Attention detector: encoding, shapes, fusion bookkeeping, determinism."""

import dataclasses

import numpy as np
import pytest

from dofdm_lab import autodiff as ad
from dofdm_lab import transdetector as td
from dofdm_lab.params import parameter_count

TINY = td.ModelConfig(
    d_model=16,
    window_len=8,
    n_heads=2,
    n_layers=2,
    d_ff=32,
    fusion_groups=((1, 2),),
    dns_noise_dim=6,
)


def _forward(model, batch=3, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, model.cfg.window_len, 2)).astype(np.float32)
    return model.forward(ad.Tape(recording=False), x, rng=np.random.default_rng(1), **kwargs)


class TestTrapezoidEncoding:
    def test_sixteen_point_values(self):
        pe = td.trapezoid_encoding(16)
        # 1-indexed positions 8 and 9 peak at 1, the ends sit at 1/8
        assert pe[7] == pe[8] == 1.0
        assert pe[6] == pe[9] == pytest.approx(7 / 8)
        assert pe[0] == pe[15] == pytest.approx(1 / 8)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_mirror_symmetry(self, n):
        pe = td.trapezoid_encoding(n)
        np.testing.assert_allclose(pe, pe[::-1])
        assert pe.max() == 1.0
        assert pe.min() == pytest.approx(2.0 / n)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            td.trapezoid_encoding(7)
        with pytest.raises(ValueError):
            td.trapezoid_encoding(2)


class TestModelConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_model=10, n_heads=4),          # not divisible
            dict(window_len=7),                   # odd
            dict(window_len=2),
            dict(fusion_groups=((1, 1),)),        # not increasing
            dict(fusion_groups=((1, 2), (2, 3))), # overlap
            dict(fusion_groups=((0, 1),)),        # out of range
            dict(fusion_groups=((5, 99),)),
            dict(pooling="max"),
            dict(n_layers=0),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            td.ModelConfig(**{**dict(d_model=16, n_heads=4, n_layers=6), **kwargs})

    def test_deepnorm_constants(self):
        cfg = td.ModelConfig()
        assert cfg.residual_alpha == pytest.approx((2 * 6) ** 0.25)
        assert cfg.init_gain == pytest.approx((8 * 6) ** -0.25)

    def test_group_lookup(self):
        cfg = td.ModelConfig()
        assert cfg.group_of(1) == (1, 3, 4)
        assert cfg.group_of(2) == (2, 5, 6)
        assert td.ModelConfig(fusion_groups=()).group_of(3) is None


class TestParameterBudget:
    def test_fusion_overhead_is_180(self):
        base = td.TransDetector.init(td.ModelConfig(fusion_groups=()), seed=0)
        fused = td.TransDetector.init(td.ModelConfig(), seed=0)
        overhead = parameter_count(fused.params) - parameter_count(base.params)
        # one 3x3 kernel per (position-in-group > 1, head), shared across groups;
        # position 2 convolves 2 stacked maps, position 3 convolves 3
        assert overhead == 4 * (2 * 9) + 4 * (3 * 9)
        assert overhead == 180

    def test_full_model_size_near_reference(self):
        model = td.TransDetector.init(td.ModelConfig(), seed=0)
        n = parameter_count(model.params)
        assert n == 301_622
        assert abs(n - 313_290) / 313_290 < 0.10


class TestForward:
    def test_output_shape_and_range(self):
        model = td.TransDetector.init(TINY, seed=0)
        out = _forward(model, batch=5)
        assert out.data.shape == (5, 2)
        assert np.all(np.abs(out.data) < 1.0)  # tanh head

    def test_rejects_bad_window_shape(self):
        model = td.TransDetector.init(TINY, seed=0)
        with pytest.raises(ad.DimensionError):
            model.forward(ad.Tape(recording=False), np.zeros((3, 4, 2), dtype=np.float32))
        with pytest.raises(ad.DimensionError):
            model.forward(ad.Tape(recording=False), np.zeros((3, 8, 3), dtype=np.float32))

    def test_attention_rows_carry_noise_token_only_in_layer_one(self):
        model = td.TransDetector.init(TINY, seed=0)
        _, records = _forward(model, collect_attention=True)
        assert records[0].shape == (3, 2, 9, 9)   # L+1 inside layer 1
        assert records[1].shape == (3, 2, 8, 8)   # cropped back to L after

    def test_no_dns_keeps_plain_length(self):
        cfg = dataclasses.replace(TINY, dns_enabled=False)
        model = td.TransDetector.init(cfg, seed=0)
        _, records = _forward(model, collect_attention=True)
        assert records[0].shape == (3, 2, 8, 8)

    def test_every_attention_map_is_row_stochastic(self):
        model = td.TransDetector.init(TINY, seed=0)
        _, records = _forward(model, batch=4, collect_attention=True)
        for rec in records:
            np.testing.assert_allclose(rec.sum(axis=-1), 1.0, atol=1e-6)

    def test_fixed_noise_fixes_output(self):
        model = td.TransDetector.init(TINY, seed=0)
        x = np.random.default_rng(2).normal(size=(2, 8, 2)).astype(np.float32)
        noise = np.random.default_rng(3).normal(size=(2, 6)).astype(np.float32)
        a = model.forward(ad.Tape(recording=False), x, noise=noise)
        b = model.forward(ad.Tape(recording=False), x, noise=noise)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rng_draws_vary_output(self):
        model = td.TransDetector.init(TINY, seed=0)
        x = np.random.default_rng(2).normal(size=(2, 8, 2)).astype(np.float32)
        a = model.forward(ad.Tape(recording=False), x, rng=np.random.default_rng(1))
        b = model.forward(ad.Tape(recording=False), x, rng=np.random.default_rng(2))
        assert not np.array_equal(a.data, b.data)


class TestAblationWeightSharing:
    """Config toggles must not reshuffle the surviving parameters."""

    def test_shared_names_are_bit_identical_across_ablations(self):
        full = td.TransDetector.init(TINY, seed=5)
        lean = td.TransDetector.init(
            dataclasses.replace(TINY, fusion_groups=(), tpe_enabled=False), seed=5
        )
        assert set(lean.params) < set(full.params)
        for name, tensor in lean.params.items():
            np.testing.assert_array_equal(tensor.data, full.params[name].data)

    def test_no_dns_drops_projection_weights(self):
        lean = td.TransDetector.init(dataclasses.replace(TINY, dns_enabled=False), seed=5)
        assert not any(name.startswith("dns.") for name in lean.params)

    def test_disabling_tpe_changes_forward(self):
        a = td.TransDetector.init(TINY, seed=5)
        b = td.TransDetector.init(dataclasses.replace(TINY, tpe_enabled=False), seed=5)
        x = np.random.default_rng(0).normal(size=(2, 8, 2)).astype(np.float32)
        noise = np.zeros((2, 6), dtype=np.float32)
        out_a = a.forward(ad.Tape(recording=False), x, noise=noise)
        out_b = b.forward(ad.Tape(recording=False), x, noise=noise)
        assert not np.allclose(out_a.data, out_b.data)

    def test_disabling_fusion_changes_forward(self):
        a = td.TransDetector.init(TINY, seed=5)
        b = td.TransDetector.init(dataclasses.replace(TINY, fusion_groups=()), seed=5)
        x = np.random.default_rng(0).normal(size=(2, 8, 2)).astype(np.float32)
        noise = np.zeros((2, 6), dtype=np.float32)
        out_a = a.forward(ad.Tape(recording=False), x, noise=noise)
        out_b = b.forward(ad.Tape(recording=False), x, noise=noise)
        assert not np.allclose(out_a.data, out_b.data)


class TestPooling:
    def test_mean_pooling_halves_head_width(self):
        center = td.TransDetector.init(TINY, seed=0)
        mean = td.TransDetector.init(dataclasses.replace(TINY, pooling="mean"), seed=0)
        assert center.params["head.w"].shape == (32, 2)
        assert mean.params["head.w"].shape == (16, 2)
        out = _forward(mean)
        assert out.data.shape == (3, 2)


def test_init_deterministic_in_seed():
    a = td.TransDetector.init(TINY, seed=1)
    b = td.TransDetector.init(TINY, seed=1)
    c = td.TransDetector.init(TINY, seed=2)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)


def test_params_override_accepts_doubles():
    model = td.TransDetector.init(TINY, seed=0)
    doubles = {
        k: ad.Tensor(t.data.astype(np.float64), requires_grad=True)
        for k, t in model.params.items()
    }
    x = np.random.default_rng(4).normal(size=(2, 8, 2))
    noise = np.random.default_rng(5).normal(size=(2, 6))
    out = model.forward(ad.Tape(recording=False), x, params=doubles, noise=noise)
    assert out.data.dtype == np.float64


# Paper-size float64 output on 8 fixed windows with fixed noise, captured
# before attention heads became a tensor axis. A change that alters what the
# model computes must update these values on purpose.
GOLDEN_OUTPUT = [
    [0.8752214062787771, -0.6964844291204985],
    [0.9950475733857975, 0.7319190995033583],
    [-0.9887365797089883, 0.21339731530982037],
    [0.9937298839238774, 0.9946623752527035],
    [0.9974960979859969, 0.9987535210308601],
    [0.03675507852379807, 0.892620060840123],
    [0.6289423184829988, -0.45977095029154474],
    [0.9925234467137637, -0.519366666847152],
]


def _paper_size_case():
    model = td.TransDetector.init(td.ModelConfig(), seed=0, dtype=np.float64)
    rng = np.random.default_rng(2024)
    return model, rng.normal(size=(8, 16, 2)), rng.normal(size=(8, 16))


def test_paper_size_float64_output_is_pinned():
    model, x, noise = _paper_size_case()
    out = model.forward(ad.Tape(recording=False), x, noise=noise).data
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, GOLDEN_OUTPUT, rtol=1e-12, atol=0)


def test_paper_size_forward_tape_length_is_pinned():
    model, x, noise = _paper_size_case()
    tape = ad.Tape()
    model.forward(tape, x[:1], noise=noise[:1])
    assert len(tape) == 214
