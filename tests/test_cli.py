"""Command-line front end: artifacts, exit codes, provenance checks."""

import json

import numpy as np
import pytest

from dofdm_lab import cli
from dofdm_lab.checkpoint import load_checkpoint, save_checkpoint
from dofdm_lab.evaluation import read_attention_matrix
from dofdm_lab.training import NonFiniteGradError, load_model_checkpoint

BASE_CONFIG = {
    "frame": {
        "n_subcarriers": 16,
        "bandwidth_hz": 12000.0,
        "center_freq_hz": 32000.0,
        "sample_rate_hz": 96000.0,
        "guard_ms": 4.0,
        "symbols_per_frame": 2,
    },
    "model": {
        "d_model": 16,
        "window_len": 8,
        "n_heads": 2,
        "n_layers": 2,
        "d_ff": 32,
        "fusion_groups": [[1, 2]],
        "dns_noise_dim": 6,
    },
    "dnn": {"window_len": 8, "hidden": [16, 16]},
    "train": {
        "epochs": 1,
        "batch_size": 32,
        "warmup": 10,
        "seed": 5,
        "val_every": 2,
        "checkpoint_every": 2,
        "max_steps": 4,
    },
    "snr_list": [10.0, 20.0],
    "alpha_list": [1e-4],
    "n_frames": 8,
    "eval_frames_per_cell": 1,
    "data_seed": 21,
    "split_seed": 22,
}


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    out = tmp_path / "out"
    return cfg_path, out


def _run(*argv):
    return cli.main(list(argv))


def _gen(cfg_path, out):
    rc = _run("gen-data", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    return out / "dataset.bin", out / "manifest.json"


class TestGenData:
    def test_writes_dataset_and_manifest(self, workdir):
        cfg_path, out = workdir
        ds_path, mf_path = _gen(cfg_path, out)
        assert ds_path.exists()
        manifest = json.loads(mf_path.read_text())
        assert manifest["frame_count"] == 8
        assert len(manifest["manifest_hash"]) == 64
        assert manifest["cells"] == [[10.0, 1e-4], [20.0, 1e-4]]

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        cfg_path, out = workdir
        ds_a, mf_a = _gen(cfg_path, out)
        other = tmp_path / "out2"
        ds_b, mf_b = _gen(cfg_path, other)
        assert ds_a.read_bytes() == ds_b.read_bytes()
        assert mf_a.read_bytes() == mf_b.read_bytes()

    def test_bad_config_exits_2(self, workdir, capsys):
        cfg_path, out = workdir
        cfg_path.write_text(json.dumps({"surprise": 1}))
        assert _run("gen-data", "--config", str(cfg_path), "--out", str(out)) == 2
        assert "surprise" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, workdir, tmp_path):
        cfg_path, _ = workdir
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = _run("gen-data", "--config", str(cfg_path), "--out", str(blocker / "sub"))
        assert rc == 2

    def test_bad_taps_file_exits_2(self, workdir, tmp_path):
        cfg_path, out = workdir
        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 1.0\n")  # missing imaginary column
        rc = _run("gen-data", "--config", str(cfg_path), "--out", str(out), "--taps", str(taps))
        assert rc == 2


class TestTrain:
    def test_missing_dataset_exits_2(self, workdir, capsys):
        cfg_path, out = workdir
        out.mkdir()
        assert _run("train", "--config", str(cfg_path), "--out", str(out)) == 2
        assert "gen-data" in capsys.readouterr().err

    def test_writes_curves_and_checkpoints(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        rc = _run("train", "--config", str(cfg_path), "--out", str(out), "--model", "trans")
        assert rc == 0
        run = out / "run-trans"
        lines = (run / "loss.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert lines[1] == "step,loss,lr"
        assert len(lines) == 2 + 4  # max_steps rows
        model, payload, _ = load_model_checkpoint(run / "best.ckpt")
        assert payload["model_type"] == "trans"

    def test_non_finite_gradient_exits_1(self, workdir, monkeypatch, capsys):
        cfg_path, out = workdir
        _gen(cfg_path, out)

        def diverge(*args, **kwargs):
            raise NonFiniteGradError("non-finite gradient in 'head.w' at adam step 3")

        monkeypatch.setattr(cli, "train", diverge)
        capsys.readouterr()
        rc = _run("train", "--config", str(cfg_path), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: non-finite gradient in 'head.w'") and "Traceback" not in err

    def test_ablation_runs_land_in_their_own_directory(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        rc = _run(
            "train", "--config", str(cfg_path), "--out", str(out),
            "--ablate", "no-imha", "--ablate", "no-tpe",
        )
        assert rc == 0
        run = out / "run-trans-no-imha-no-tpe"
        model, _, _ = load_model_checkpoint(run / "best.ckpt")
        assert model.cfg.fusion_groups == ()
        assert not model.cfg.tpe_enabled

    def test_dnn_with_ablation_exits_2(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        rc = _run(
            "train", "--config", str(cfg_path), "--out", str(out),
            "--model", "dnn", "--ablate", "no-dns",
        )
        assert rc == 2

    def test_resume_without_checkpoint_exits_2(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        rc = _run("train", "--config", str(cfg_path), "--out", str(out), "--resume")
        assert rc == 2

    def test_foreign_dataset_is_an_artifact_mismatch(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        reseeded = dict(BASE_CONFIG, data_seed=99)
        cfg_path.write_text(json.dumps(reseeded))
        rc = _run("train", "--config", str(cfg_path), "--out", str(out))
        assert rc == 3

    def test_tampered_manifest_exits_2(self, workdir):
        cfg_path, out = workdir
        _, mf_path = _gen(cfg_path, out)
        manifest = json.loads(mf_path.read_text())
        manifest["frame_count"] = 12345
        mf_path.write_text(json.dumps(manifest))
        rc = _run("train", "--config", str(cfg_path), "--out", str(out))
        assert rc == 2


class TestEval:
    def _trained(self, cfg_path, out):
        _gen(cfg_path, out)
        assert _run("train", "--config", str(cfg_path), "--out", str(out)) == 0
        return out / "run-trans" / "best.ckpt"

    def test_metrics_rows_cover_grid_and_detectors(self, workdir):
        cfg_path, out = workdir
        ckpt = self._trained(cfg_path, out)
        rc = _run(
            "eval", "--config", str(cfg_path), "--out", str(out), "--checkpoint", str(ckpt)
        )
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert lines[1] == "detector,snr_db,alpha,ber,mse_db,n_bits"
        body = lines[2:]
        assert len(body) == 2 * 2  # 2 cells x (single_fft + trans)
        assert sum(1 for b in body if b.startswith("single_fft,")) == 2

    def test_single_fft_needs_no_checkpoint(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        assert _run("eval", "--config", str(cfg_path), "--out", str(out)) == 0
        body = (out / "metrics.csv").read_text().splitlines()[2:]
        assert all(b.startswith("single_fft,") for b in body)

    def test_reevaluation_is_byte_identical(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        assert _run("eval", "--config", str(cfg_path), "--out", str(out)) == 0
        first = (out / "metrics.csv").read_bytes()
        assert _run("eval", "--config", str(cfg_path), "--out", str(out)) == 0
        assert (out / "metrics.csv").read_bytes() == first

    def test_checkpoint_from_other_manifest_exits_3(self, workdir, tmp_path):
        cfg_path, out = workdir
        ckpt = self._trained(cfg_path, out)
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps(dict(BASE_CONFIG, data_seed=77)))
        other_out = tmp_path / "other_out"
        _gen(other_cfg, other_out)
        rc = _run(
            "eval", "--config", str(other_cfg), "--out", str(other_out),
            "--checkpoint", str(ckpt),
        )
        assert rc == 3

    def test_corrupt_checkpoint_exits_3_and_names_the_file(self, workdir, tmp_path, capsys):
        cfg_path, out = workdir
        self._trained(cfg_path, out)
        raw = (out / "run-trans" / "last.ckpt").read_bytes()
        cfg_len = int.from_bytes(raw[8:12], "little")
        blob = 12 + cfg_len + 4  # first blob's name-length header
        name_len = int.from_bytes(raw[blob : blob + 4], "little")
        variants = {
            f"cut{n}": raw[:n]
            for n in (0, 3, 12 + cfg_len // 2, blob - 2, blob + 2, blob + 4 + name_len + 3, len(raw) - 1)
        }
        variants["magic"] = b"X" + raw[1:]
        variants["json"] = raw[:12] + b"x" + raw[13:]
        variants["utf8"] = raw[:12] + b"\xff" + raw[13:]
        # well-formed files whose Adam moments do not fit the model
        config, arrays = load_checkpoint(out / "run-trans" / "last.ckpt")
        m_key = next(k for k in sorted(arrays) if k.startswith("adam.m."))
        v_key = next(k for k in sorted(arrays) if k.startswith("adam.v."))
        # the per-head layout that came before heads were stacked: one blob per head
        h, d = config["model_config"]["n_heads"], config["model_config"]["d_model"]
        per_head = {}
        for key, a in arrays.items():
            stem, leaf = key.rsplit(".", 1)
            if leaf in ("wq", "wk", "wv", "bq", "bk", "bv"):
                parts = np.split(a.reshape(-1, d), h, axis=1)
            elif "fusion" in stem:
                parts = np.split(a.reshape(h, -1), h, axis=0)
            else:
                per_head[key] = a
                continue
            per_head.update({f"{stem}.h{j}.{leaf}": part.ravel() for j, part in enumerate(parts)})
        assert "param.te1.h1.wq" in per_head and "adam.v.fusion.p2.h0.k" in per_head
        blobs = {"no-adam-m": (m_key, {k: a for k, a in arrays.items() if k != m_key}),
                 "short-adam-v": (v_key, dict(arrays, **{v_key: arrays[v_key][:-1]})),
                 "per-head": ("param.te1.wq", per_head)}
        for label, (_, data) in blobs.items():
            save_checkpoint(tmp_path / "blobs.ckpt", config, data)
            variants[label] = (tmp_path / "blobs.ckpt").read_bytes()
        capsys.readouterr()
        for label, data in variants.items():
            bad = tmp_path / f"{label}.ckpt"
            bad.write_bytes(data)
            rc = _run("eval", "--config", str(cfg_path), "--out", str(out), "--checkpoint", str(bad))
            err = capsys.readouterr().err
            assert rc == 3, label
            assert str(bad) in err and "Traceback" not in err, label
            if label in blobs:
                assert blobs[label][0] in err, label

    def test_window_mismatch_exits_3(self, workdir, tmp_path):
        cfg_path, out = workdir
        ckpt = self._trained(cfg_path, out)
        # same dataset seeds, different window: provenance passes, geometry fails
        wide = dict(
            BASE_CONFIG,
            model=dict(BASE_CONFIG["model"], window_len=8, d_model=32),
        )
        wide_cfg = tmp_path / "wide.json"
        wide_cfg.write_text(json.dumps(wide))
        rc = _run(
            "eval", "--config", str(wide_cfg), "--out", str(out), "--checkpoint", str(ckpt)
        )
        assert rc == 3


class TestAttnDump:
    def _trained(self, cfg_path, out):
        _gen(cfg_path, out)
        assert _run("train", "--config", str(cfg_path), "--out", str(out)) == 0
        return out / "run-trans" / "best.ckpt"

    def test_writes_layer_matrices_with_pad_metadata(self, workdir):
        cfg_path, out = workdir
        ckpt = self._trained(cfg_path, out)
        rc = _run(
            "attn-dump", "--config", str(cfg_path), "--out", str(out),
            "--checkpoint", str(ckpt), "--idx", "1", "--n", "2",
        )
        assert rc == 0
        for layer in (1, 2):
            mat, header = read_attention_matrix(out / f"attn-k1-layer{layer}.txt")
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-6)
            assert header["lead_pad"] == "3"  # window 8 centered at k=1
            assert header["trail_pad"] == "0"
            assert header["detections"] == "2"
        assert (out / "attn-k1-layer1.txt").exists()

    def test_index_out_of_range_exits_3(self, workdir):
        cfg_path, out = workdir
        ckpt = self._trained(cfg_path, out)
        rc = _run(
            "attn-dump", "--config", str(cfg_path), "--out", str(out),
            "--checkpoint", str(ckpt), "--idx", "16", "--n", "1",
        )
        assert rc == 3

    def test_dnn_checkpoint_is_rejected(self, workdir):
        cfg_path, out = workdir
        _gen(cfg_path, out)
        assert _run("train", "--config", str(cfg_path), "--out", str(out), "--model", "dnn") == 0
        rc = _run(
            "attn-dump", "--config", str(cfg_path), "--out", str(out),
            "--checkpoint", str(out / "run-dnn" / "best.ckpt"), "--idx", "1",
        )
        assert rc == 2


class TestTapsReplay:
    def test_taps_flow_through_and_are_required_downstream(self, workdir, tmp_path):
        cfg_path, out = workdir
        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 1.0 0.0\n0.0005 0.4 0.1\n0.0011 -0.2 0.0\n")
        rc = _run("gen-data", "--config", str(cfg_path), "--out", str(out), "--taps", str(taps))
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["taps_file"] == str(taps)
        assert _run("eval", "--config", str(cfg_path), "--out", str(out)) == 2
        rc = _run("eval", "--config", str(cfg_path), "--out", str(out), "--taps", str(taps))
        assert rc == 0


class TestGradcheckCommand:
    def test_all_green_exits_0(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", lambda: [("matmul", 1e-9, 1e-4, True)])
        assert _run("gradcheck") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "matmul" in out

    def test_failure_lists_operator_and_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_suite",
            lambda: [("matmul", 1e-9, 1e-4, True), ("conv2d_same", 0.5, 1e-4, False)],
        )
        assert _run("gradcheck") == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "conv2d_same" in captured.err
