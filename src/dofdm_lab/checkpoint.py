"""Binary checkpoint container: magic, JSON config payload, named f32 blobs.

Round trips are bit-exact: arrays are stored little-endian float32 and read
back verbatim. The config payload is free-form JSON owned by the caller
(model type and config, optimizer state, manifest hash).
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

CHECKPOINT_MAGIC = b"TDCK"
CHECKPOINT_VERSION = 1

_HEAD = struct.Struct("<4sII")
_BLOB_NAME = struct.Struct("<I")
_BLOB_COUNT = struct.Struct("<Q")


def save_checkpoint(path, config: dict, arrays: dict) -> None:
    """Write to a temporary file beside path, then rename it over path, so a
    write that fails or is killed part-way leaves any previous file intact."""
    payload = json.dumps(config, sort_keys=True).encode()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name], dtype="<f4")
                raw = name.encode()
                fh.write(_BLOB_NAME.pack(len(raw)))
                fh.write(raw)
                fh.write(_BLOB_COUNT.pack(arr.size))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class CorruptCheckpoint(ValueError):
    """A checkpoint file is truncated, mislabelled or otherwise unreadable."""


def _read_exact(fh, n: int, path, what: str) -> bytes:
    # checked against the file size first, so a corrupt length never sizes a read
    if fh.tell() + n > os.fstat(fh.fileno()).st_size:
        raise CorruptCheckpoint(f"{path}: truncated {what}")
    return fh.read(n)


def load_checkpoint(path) -> tuple:
    """Returns (config dict, {name: float32 array}); shapes are the caller's job.

    Any malformed content raises CorruptCheckpoint naming the file.
    """
    with open(path, "rb") as fh:
        magic, version, cfg_len = _HEAD.unpack(_read_exact(fh, _HEAD.size, path, "header"))
        if magic != CHECKPOINT_MAGIC:
            raise CorruptCheckpoint(f"{path}: not a checkpoint file (magic {magic!r})")
        if version != CHECKPOINT_VERSION:
            raise CorruptCheckpoint(f"{path}: unsupported version {version}")
        try:
            config = json.loads(_read_exact(fh, cfg_len, path, "config payload").decode())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise CorruptCheckpoint(f"{path}: unreadable config payload ({exc})") from exc
        (n_blobs,) = struct.unpack("<I", _read_exact(fh, 4, path, "blob count"))
        arrays = {}
        for _ in range(n_blobs):
            (name_len,) = _BLOB_NAME.unpack(_read_exact(fh, _BLOB_NAME.size, path, "blob header"))
            raw = _read_exact(fh, name_len, path, "blob name")
            try:
                name = raw.decode()
            except UnicodeDecodeError as exc:
                raise CorruptCheckpoint(f"{path}: unreadable blob name ({exc})") from exc
            (count,) = _BLOB_COUNT.unpack(_read_exact(fh, _BLOB_COUNT.size, path, "blob header"))
            data = _read_exact(fh, count * 4, path, f"blob {name!r}")
            arrays[name] = np.frombuffer(data, dtype="<f4").copy()
        return config, arrays
