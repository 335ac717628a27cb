"""dofdm-lab command line: data generation, training, evaluation, dumps.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 artifact
mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .baseband import load_taps
from .checkpoint import CorruptCheckpoint, atomic_write
from .config import (
    ConfigError,
    ExperimentConfig,
    build_manifest,
    config_as_dict,
    generate_frames,
    load_config,
    load_manifest,
    sha256_file,
)
from .evaluation import (
    attention_average,
    evaluate_frames,
    write_attention_matrix,
    write_loss_csv,
    write_metrics_csv,
)
from .gradcheck import run_suite
from .preprocess import build_dataset, load_dataset, save_dataset, window_pad_counts
from .training import (
    ArtifactMismatch,
    NonFiniteGradError,
    TrainConfig,
    build_model,
    load_model_checkpoint,
    save_model_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ARTIFACT = 3

ABLATIONS = ("no-tpe", "no-dns", "no-imha")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _ensure_out(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc


def _load_taps_arg(args):
    if args.taps is None:
        return None
    try:
        return load_taps(args.taps)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad taps file: {exc}") from exc


def _dataset_paths(out: str) -> tuple:
    return os.path.join(out, "dataset.bin"), os.path.join(out, "manifest.json")


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    _ensure_out(args.out)
    realization = _load_taps_arg(args)
    sims = generate_frames(cfg, realization)
    ds = build_dataset(sims, cfg.model.window_len, cfg.split_seed)
    ds_path, mf_path = _dataset_paths(args.out)
    save_dataset(ds_path, ds)
    manifest = build_manifest(cfg, sha256_file(ds_path), args.taps)
    with atomic_write(mf_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {ds.n_samples} samples from {cfg.n_frames} frames "
        f"over {len(cfg.cells)} (snr, alpha) cells to {ds_path}"
    )
    print(f"manifest {manifest['manifest_hash'][:12]} -> {mf_path}")
    return EXIT_OK


def _check_data_provenance(cfg: ExperimentConfig, manifest: dict, ds_path: str) -> None:
    """The dataset on disk must be the one this config describes."""
    actual = sha256_file(ds_path)
    if actual != manifest["dataset_sha256"]:
        raise ArtifactMismatch(
            f"{ds_path}: sha256 {actual[:12]}... does not match manifest "
            f"{manifest['dataset_sha256'][:12]}..."
        )
    ours, theirs = config_as_dict(cfg), manifest["config"]
    for section in ("frame", "channel", "snr_list", "alpha_list", "n_frames",
                    "data_seed", "split_seed"):
        if ours[section] != theirs.get(section):
            raise ArtifactMismatch(
                f"config section {section!r} differs from the manifest that "
                "produced the dataset"
            )
    if ours["model"]["window_len"] != theirs["model"]["window_len"]:
        raise ArtifactMismatch("window_len differs from the dataset manifest")


def _apply_ablations(model_cfg, ablate: list):
    changes = {}
    for name in ablate:
        if name == "no-tpe":
            changes["tpe_enabled"] = False
        elif name == "no-dns":
            changes["dns_enabled"] = False
        elif name == "no-imha":
            changes["fusion_groups"] = ()
        else:
            raise ConfigError(f"unknown ablation {name!r} (choose from {', '.join(ABLATIONS)})")
    return dataclasses.replace(model_cfg, **changes) if changes else model_cfg


def _run_name(model: str, ablate: list) -> str:
    return "-".join([model] + sorted(ablate))


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    ds_path, mf_path = _dataset_paths(args.out)
    if not os.path.exists(ds_path):
        raise ConfigError(f"missing dataset {ds_path}; run gen-data first")
    manifest = load_manifest(mf_path)
    _check_data_provenance(cfg, manifest, ds_path)
    dataset = load_dataset(ds_path, cfg.split_seed, cfg.n_frames)

    ablate = sorted(set(args.ablate or []))
    if args.model == "dnn" and ablate:
        raise ConfigError("--ablate only applies to --model trans")
    run_dir = os.path.join(args.out, f"run-{_run_name(args.model, ablate)}")
    _ensure_out(run_dir)

    resume_state, adam = None, None
    if args.resume:
        last = os.path.join(run_dir, "last.ckpt")
        if not os.path.exists(last):
            raise ConfigError(f"--resume given but {last} does not exist")
        model, payload, adam = load_model_checkpoint(last, manifest["manifest_hash"])
        resume_state = payload.get("train_state")
        if resume_state is None:
            raise ConfigError(f"{last} carries no training state to resume from")
    elif args.model == "trans":
        model = build_model(
            "trans", dataclasses.asdict(_apply_ablations(cfg.model, ablate)), cfg.train.seed
        )
    else:
        model = build_model("dnn", dataclasses.asdict(cfg.dnn), cfg.train.seed)

    result = train(
        model, dataset, cfg.train,
        out_dir=run_dir, manifest_hash=manifest["manifest_hash"],
        resume=resume_state, adam=adam, quiet=False,
    )
    write_loss_csv(os.path.join(run_dir, "loss.csv"), result.curve, manifest["manifest_hash"])
    if not os.path.exists(os.path.join(run_dir, "best.ckpt")):
        save_model_checkpoint(
            os.path.join(run_dir, "best.ckpt"), model, manifest["manifest_hash"]
        )
    note = f" (halted: {result.halted})" if result.halted else ""
    print(
        f"trained {_run_name(args.model, ablate)} for {result.steps} steps{note}; "
        f"best val mse {result.best_val_mse_db:.2f} dB; artifacts in {run_dir}"
    )
    return EXIT_OK


def _eval_frames(cfg: ExperimentConfig, realization):
    count = cfg.eval_frames_per_cell * len(cfg.cells)
    return generate_frames(cfg, realization, range(cfg.n_frames, cfg.n_frames + count))


def _load_eval_model(path: str, cfg: ExperimentConfig, manifest: dict):
    model, payload, _ = load_model_checkpoint(path, manifest["manifest_hash"])
    got_l = model.cfg.window_len
    if got_l != cfg.model.window_len:
        raise ArtifactMismatch(
            f"{path}: checkpoint window_len {got_l} != config {cfg.model.window_len}"
        )
    want_d = cfg.model.d_model if payload["model_type"] == "trans" else None
    got_d = getattr(model.cfg, "d_model", None)
    if want_d is not None and got_d != want_d:
        raise ArtifactMismatch(f"{path}: checkpoint d_model {got_d} != config {want_d}")
    return payload["model_type"], model


def _require_taps_consistency(manifest: dict, args) -> None:
    recorded = manifest.get("taps_file")
    if recorded and args.taps is None:
        raise ConfigError(
            f"dataset was generated with --taps {recorded}; pass the same taps file"
        )


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    _, mf_path = _dataset_paths(args.out)
    manifest = load_manifest(mf_path)
    _require_taps_consistency(manifest, args)
    realization = _load_taps_arg(args)

    models = {}
    for path in args.checkpoint or []:
        kind, model = _load_eval_model(path, cfg, manifest)
        name = kind if kind not in models else f"{kind}{sum(k.startswith(kind) for k in models) + 1}"
        models[name] = model

    sims = _eval_frames(cfg, realization)
    report = evaluate_frames(sims, models, cfg.model.window_len, seed=cfg.train.seed + 2)
    out_csv = os.path.join(args.out, "metrics.csv")
    write_metrics_csv(out_csv, report, manifest["manifest_hash"])
    print(f"evaluated {', '.join(['single_fft', *models])} over {len(sims)} frames -> {out_csv}")
    return EXIT_OK


def cmd_attn_dump(args) -> int:
    cfg = load_config(args.config)
    _, mf_path = _dataset_paths(args.out)
    manifest = load_manifest(mf_path)
    _require_taps_consistency(manifest, args)
    realization = _load_taps_arg(args)

    kind, model = _load_eval_model(args.checkpoint, cfg, manifest)
    if kind != "trans":
        raise ConfigError("attention dumps need an attention model checkpoint")
    k_total = cfg.frame.n_subcarriers
    if not (1 <= args.idx <= k_total - 1):
        return _fail(
            EXIT_ARTIFACT, f"--idx {args.idx} out of range 1..{k_total - 1}"
        )
    if args.n < 1:
        raise ConfigError("--n must be >= 1")

    sims = _eval_frames(cfg, realization)
    mats, used = attention_average(model, sims, args.idx, args.n, seed=cfg.train.seed + 3)
    lead, trail = window_pad_counts(args.idx, k_total, model.cfg.window_len)
    paths = []
    for i, mat in enumerate(mats, start=1):
        path = os.path.join(args.out, f"attn-k{args.idx}-layer{i}.txt")
        write_attention_matrix(
            path, mat,
            header={
                "manifest": manifest["manifest_hash"],
                "layer": i,
                "subcarrier": args.idx,
                "detections": used,
                "lead_pad": lead,
                "trail_pad": trail,
            },
        )
        paths.append(path)
    print(f"wrote {len(paths)} attention matrices ({used} detections) under {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_suite()
    failed = []
    for name, err, tol, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name:<28} max rel err {err:.3e}  (tol {tol:.0e})")
        if not passed:
            failed.append(name)
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dofdm-lab",
        description="Differential-OFDM detection laboratory: simulate, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--taps", help="channel tap file to replay instead of the image method")

    p = sub.add_parser("gen-data", help="simulate frames and write the dataset")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a detector on a generated dataset")
    common(p)
    p.add_argument("--model", choices=("trans", "dnn"), default="trans")
    p.add_argument(
        "--ablate", action="append", choices=ABLATIONS,
        help="drop a model feature; repeatable",
    )
    p.add_argument("--resume", action="store_true", help="continue from last.ckpt")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score detectors on fresh frames")
    common(p)
    p.add_argument(
        "--checkpoint", action="append",
        help="model checkpoint to include; repeatable; single_fft always runs",
    )
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("attn-dump", help="write averaged attention matrices")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--idx", type=int, required=True, help="subcarrier index, 1-based")
    p.add_argument("--n", type=int, default=1, help="detections to average over")
    p.set_defaults(fn=cmd_attn_dump)

    p = sub.add_parser("gradcheck", help="finite-difference check of every operator")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (ArtifactMismatch, CorruptCheckpoint) as exc:
        return _fail(EXIT_ARTIFACT, str(exc))
    except NonFiniteGradError as exc:
        return _fail(EXIT_CHECK_FAILED, str(exc))
    except OSError as exc:
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
