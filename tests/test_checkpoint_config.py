"""Binary checkpoint format, model persistence, config schema, manifests."""

import dataclasses
import json

import numpy as np
import pytest

from dofdm_lab import checkpoint as ck
from dofdm_lab import config as cf
from dofdm_lab import training as tr
from dofdm_lab.transdetector import ModelConfig, TransDetector

TINY = ModelConfig(
    d_model=16, window_len=8, n_heads=2, n_layers=2, d_ff=32,
    fusion_groups=((1, 2),), dns_noise_dim=6,
)


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        config = {"kind": "demo", "nested": {"a": [1, 2]}}
        arrays = {
            "w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.array([1.5], dtype=np.float32),
        }
        ck.save_checkpoint(path, config, arrays)
        got_cfg, got_arrays = ck.load_checkpoint(path)
        assert got_cfg == config
        assert set(got_arrays) == {"w", "b"}
        np.testing.assert_array_equal(got_arrays["w"], arrays["w"].ravel())

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            ck.load_checkpoint(p)

    def test_rejects_truncation(self, tmp_path):
        p = tmp_path / "t.ckpt"
        ck.save_checkpoint(p, {"k": 1}, {"w": np.ones(8, dtype=np.float32)})
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncat"):
            ck.load_checkpoint(p)

    def test_write_is_deterministic(self, tmp_path):
        arrays = {"b": np.ones(3, dtype=np.float32), "a": np.zeros(2, dtype=np.float32)}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck.save_checkpoint(a, {"x": 1}, arrays)
        ck.save_checkpoint(b, {"x": 1}, dict(reversed(arrays.items())))
        assert a.read_bytes() == b.read_bytes()  # blob order is sorted, not insertion

    def test_failed_write_keeps_previous_file_and_no_temporary(self, tmp_path):
        p = tmp_path / "last.ckpt"
        ck.save_checkpoint(p, {"step": 1}, {"w": np.ones(8, dtype=np.float32)})
        before = p.read_bytes()
        # blob "a" is written before "b" fails to convert, so the write stops part-way
        with pytest.raises(ValueError):
            ck.save_checkpoint(p, {"step": 2}, {"a": np.zeros(4, dtype=np.float32), "b": "not a number"})
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["last.ckpt"]


class TestModelCheckpoint:
    def test_params_round_trip_bit_exact(self, tmp_path):
        model = TransDetector.init(TINY, seed=3)
        path = tmp_path / "m.ckpt"
        tr.save_model_checkpoint(path, model, manifest_hash="h" * 64)
        back, payload, adam = tr.load_model_checkpoint(path)
        assert adam is None
        assert payload["model_type"] == "trans"
        assert back.cfg == TINY
        for name in model.params:
            np.testing.assert_array_equal(back.params[name].data, model.params[name].data)

    def test_adam_state_round_trip(self, tmp_path):
        model = TransDetector.init(TINY, seed=3)
        state = tr.AdamState.init(model.params)
        state.t = 7
        for k in state.m:
            state.m[k] += 0.25
        path = tmp_path / "m.ckpt"
        tr.save_model_checkpoint(path, model, adam=state)
        _, _, back = tr.load_model_checkpoint(path)
        assert back.t == 7
        np.testing.assert_allclose(back.m["head.w"], state.m["head.w"])

    def test_manifest_hash_mismatch_is_detected(self, tmp_path):
        model = TransDetector.init(TINY, seed=3)
        path = tmp_path / "m.ckpt"
        tr.save_model_checkpoint(path, model, manifest_hash="a" * 64)
        with pytest.raises(tr.ArtifactMismatch):
            tr.load_model_checkpoint(path, expect_manifest_hash="b" * 64)
        tr.load_model_checkpoint(path, expect_manifest_hash="a" * 64)  # matching is fine


class TestConfigSchema:
    def test_empty_object_gives_defaults(self):
        cfg = cf.parse_config({})
        assert cfg.frame.n_subcarriers == 1024
        assert cfg.snr_list == cf.DEFAULT_SNR_LIST
        assert cfg.alpha_list == cf.DEFAULT_ALPHA_LIST

    def test_unknown_keys_are_rejected_at_every_level(self):
        with pytest.raises(cf.ConfigError, match="unknown key 'mystery'"):
            cf.parse_config({"mystery": 1})
        with pytest.raises(cf.ConfigError, match="frame.mystery"):
            cf.parse_config({"frame": {"mystery": 1}})
        with pytest.raises(cf.ConfigError, match="geometry.mystery"):
            cf.parse_config({"channel": {"geometry": {"mystery": 1}}})

    def test_section_values_flow_through(self):
        cfg = cf.parse_config(
            {
                "frame": {"n_subcarriers": 64, "sample_rate_hz": 96000.0, "guard_ms": 8.0},
                "model": {"d_model": 32, "window_len": 8, "n_heads": 4, "n_layers": 2,
                          "fusion_groups": [[1, 2]]},
                "dnn": {"window_len": 8},
                "snr_list": [10],
                "alpha_list": [1e-4],
            }
        )
        assert cfg.frame.n_subcarriers == 64
        assert cfg.model.fusion_groups == ((1, 2),)
        assert cfg.cells == ((10.0, 1e-4),)

    def test_diff_seed_pair(self):
        cfg = cf.parse_config({"frame": {"diff_seed": [0.0, 1.0]}})
        assert cfg.frame.diff_seed == 1j
        with pytest.raises(cf.ConfigError, match="diff_seed"):
            cf.parse_config({"frame": {"diff_seed": 1.0}})

    def test_grid_doppler_cannot_hide_in_channel_section(self):
        with pytest.raises(cf.ConfigError, match="alpha_list"):
            cf.parse_config({"channel": {"doppler_alpha": 1e-4}})

    def test_window_len_must_agree_across_models(self):
        with pytest.raises(cf.ConfigError, match="window_len"):
            cf.parse_config({"model": {"window_len": 8}})

    def test_invalid_section_value_is_a_config_error(self):
        with pytest.raises(cf.ConfigError, match="frame"):
            cf.parse_config({"frame": {"n_subcarriers": 63}})
        with pytest.raises(cf.ConfigError):
            cf.parse_config({"snr_list": []})

    def test_load_config_maps_io_and_syntax_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(cf.ConfigError, match="cannot read"):
            cf.load_config(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(cf.ConfigError, match="valid JSON"):
            cf.load_config(bad)

    def test_as_dict_round_trips_through_json(self):
        cfg = cf.parse_config({"model": {"d_model": 32}, "n_frames": 7})
        blob = json.dumps(cf.config_as_dict(cfg), sort_keys=True)
        again = cf.parse_config(json.loads(blob))
        assert cf.config_as_dict(again) == cf.config_as_dict(cfg)


class TestGridAndSeeds:
    def test_cells_cover_the_product(self):
        cfg = cf.parse_config({"snr_list": [0, 10], "alpha_list": [1e-4, 3e-4]})
        assert cfg.cells == ((0.0, 1e-4), (0.0, 3e-4), (10.0, 1e-4), (10.0, 3e-4))
        assert [cfg.cell_of_frame(i) for i in range(5)] == [
            (0.0, 1e-4), (0.0, 3e-4), (10.0, 1e-4), (10.0, 3e-4), (0.0, 1e-4),
        ]

    def test_frame_seeds_distinct_and_stable(self):
        cfg = cf.parse_config({})
        seeds = [cfg.frame_seed(i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert seeds[0] == cf.parse_config({}).frame_seed(0)
        assert cf.parse_config({"data_seed": 99}).frame_seed(0) != seeds[0]


class TestManifest:
    def _cfg(self):
        return cf.parse_config({"snr_list": [10], "alpha_list": [1e-4], "n_frames": 3})

    def test_hash_is_stable_and_self_verifying(self, tmp_path):
        manifest = cf.build_manifest(self._cfg(), dataset_sha256="d" * 64, taps_file=None)
        assert manifest["manifest_hash"] == cf.manifest_hash(manifest)
        assert manifest["frame_count"] == 3
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert cf.load_manifest(path)["manifest_hash"] == manifest["manifest_hash"]

    def test_tampering_is_detected(self, tmp_path):
        manifest = cf.build_manifest(self._cfg(), dataset_sha256="d" * 64, taps_file=None)
        manifest["frame_count"] = 999
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(cf.ConfigError, match="hash"):
            cf.load_manifest(path)

    def test_different_configs_hash_differently(self):
        a = cf.build_manifest(self._cfg(), "d" * 64, None)
        other = cf.parse_config({"snr_list": [20], "alpha_list": [1e-4], "n_frames": 3})
        b = cf.build_manifest(other, "d" * 64, None)
        assert a["manifest_hash"] != b["manifest_hash"]


def test_generate_frames_assigns_cells_round_robin():
    cfg = cf.parse_config(
        {
            "frame": {"n_subcarriers": 64, "sample_rate_hz": 96000.0, "guard_ms": 8.0,
                      "symbols_per_frame": 1},
            "model": {"window_len": 8, "d_model": 16, "n_heads": 2, "n_layers": 2,
                      "fusion_groups": [[1, 2]]},
            "dnn": {"window_len": 8},
            "snr_list": [10, 20],
            "alpha_list": [1e-4],
            "n_frames": 4,
        }
    )
    sims = cf.generate_frames(cfg)
    assert [s.snr_db for s in sims] == [10.0, 20.0, 10.0, 20.0]
    assert all(s.doppler_alpha == 1e-4 for s in sims)
    # eval range continues the cycle without reusing training seeds
    tail = cf.generate_frames(cfg, frame_range=range(4, 6))
    assert [s.snr_db for s in tail] == [10.0, 20.0]
    assert not np.array_equal(tail[0].frame.bits, sims[0].frame.bits)
