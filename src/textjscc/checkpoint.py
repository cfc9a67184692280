"""Versioned binary checkpoint container.

Layout (all integers little-endian):
  magic "TJSCC2" | precision byte (4 or 8) | u32 json length | config json |
  u32 blob count | blobs.
Each blob: u16 name length, utf-8 name, u32 rows, u32 cols, raw values.
Model parameters appear first, in declaration order; each LSTM cell is four
blobs <prefix>.Wx, .Wh, .b and .p in the stacked-gate layout of nn.py.
Optimizer moments (if saved) follow as adam.m.* / adam.v.* blobs.  TJSCC1
files, which held fifteen per-gate arrays per cell, are rejected.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import IoError, ShapeError
from .model import JsccConfig, JsccModel
from .optim import AdamState

MAGIC = b"TJSCC2"


def _write_blob(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
    fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def save_checkpoint(path: str, model: JsccModel, adam: AdamState | None = None,
                    extra: dict | None = None) -> None:
    """Write params (declaration order) and optionally the optimizer state."""
    config = dict(model.config.to_dict())
    meta = {"config": config, "extra": dict(extra or {}), "has_adam": adam is not None}
    if adam is not None:
        meta["extra"]["adam_t"] = adam.t
    payload = json.dumps(meta, sort_keys=True).encode("utf-8")
    itemsize = np.dtype(model.config.dtype).itemsize

    blobs: list[tuple[str, np.ndarray]] = [(p.name, p.value) for p in model.parameters()]
    if adam is not None:
        for p, m in zip(adam.params, adam.m):
            blobs.append((f"adam.m.{p.name}", m))
        for p, v in zip(adam.params, adam.v):
            blobs.append((f"adam.v.{p.name}", v))

    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<B", itemsize))
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", len(blobs)))
            for name, arr in blobs:
                _write_blob(fh, name, arr)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc


def read_checkpoint(path: str) -> tuple[JsccConfig, dict, dict[str, np.ndarray]]:
    """Parse a checkpoint into (config, extra metadata, named blobs).

    Every field is bounds-checked; a truncated, padded or garbled file
    raises IoError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if data[:6] == b"TJSCC1":
        raise IoError(f"{path} holds the retired TJSCC1 layout of fifteen per-gate "
                      "arrays per LSTM cell; retrain to write a TJSCC2 checkpoint")
    if data[:6] != MAGIC:
        raise IoError(f"{path} is not a checkpoint (bad magic)")
    pos = 6

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise IoError(f"checkpoint {path} is truncated ({len(data)} bytes)")
        pos += n
        return data[pos - n:pos]

    itemsize = take(1)[0]
    if itemsize not in (4, 8):
        raise IoError(f"checkpoint {path} has precision byte {itemsize}, expected 4 or 8")
    dtype = np.dtype(f"<f{itemsize}")
    (json_len,) = struct.unpack("<I", take(4))
    header = take(json_len)
    try:
        meta = json.loads(header.decode("utf-8"))
        config = JsccConfig(**meta["config"])
        extra = dict(meta.get("extra", {}))
        extra["has_adam"] = meta.get("has_adam", False)
    except (ValueError, KeyError, TypeError) as exc:
        raise IoError(f"checkpoint {path} has a malformed header: {exc}") from exc
    (count,) = struct.unpack("<I", take(4))
    blobs: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IoError(f"checkpoint {path} has a malformed blob name") from exc
        rows, cols = struct.unpack("<II", take(8))
        arr = np.frombuffer(take(rows * cols * itemsize), dtype=dtype).reshape(rows, cols)
        blobs[name] = arr.astype(dtype.newbyteorder("="))
    if pos != len(data):
        raise IoError(f"checkpoint {path} has {len(data) - pos} trailing bytes")
    return config, extra, blobs


def load_model(path: str) -> tuple[JsccModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra metadata)."""
    config, extra, blobs = read_checkpoint(path)
    model = JsccModel(config)
    for p in model.parameters():
        if p.name not in blobs:
            raise IoError(f"checkpoint {path} is missing blob {p.name!r}")
        if blobs[p.name].shape != p.value.shape:
            raise ShapeError(
                f"blob {p.name!r} has shape {blobs[p.name].shape}, expected {p.value.shape}")
        p.value[...] = blobs[p.name]
    extra["_blobs"] = blobs
    return model, extra


def restore_adam(model: JsccModel, extra: dict, lr: float, clip: float) -> AdamState | None:
    """Rebuild the optimizer from blobs captured by load_model, if present."""
    if not extra.get("has_adam"):
        return None
    blobs = extra["_blobs"]
    state = AdamState(model.parameters(), lr=lr, clip=clip)
    state.t = int(extra.get("adam_t", 0))
    for i, p in enumerate(state.params):
        for kind, moments in (("m", state.m), ("v", state.v)):
            blob = blobs.get(f"adam.{kind}.{p.name}")
            if blob is None or blob.shape != p.value.shape:
                raise IoError(f"checkpoint lacks optimizer state adam.{kind}.{p.name}")
            moments[i][...] = blob
    return state
