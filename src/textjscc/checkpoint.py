"""Versioned binary checkpoint container.

Layout (all integers little-endian):
  magic "TJSCC2" | precision byte (4 or 8) | u32 json length | config json |
  u32 blob count | blobs.
Each blob: u16 name length, utf-8 name, u32 rows, u32 cols, raw values.
Model parameters appear first, in declaration order; each LSTM cell is four
blobs <prefix>.Wx, .Wh, .b and .p in the stacked-gate layout of nn.py.
Optimizer moments (if saved) follow as adam.m.* / adam.v.* blobs.  TJSCC1
files, which held fifteen per-gate arrays per cell, are rejected.  The json
records the numpy and BLAS build and the BLAS thread count, on which trained
weights depend bit for bit; resuming under another, or unrecorded, one warns.

The file is read in one pass: the header is checked, the model's arrays are
allocated from its config without an initialization draw, and each blob is
read into its array, a parameter or, when resuming, an Adam moment; moments
are skipped unless resuming.  Every read is bounded by the file size first
and every array must be filled, so a bad file raises IoError.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import sys

import numpy as np

from .errors import DomainError, IoError
from .fileio import write_atomic
from .model import JsccConfig, JsccModel
from .optim import AdamState

MAGIC = b"TJSCC2"
log = logging.getLogger(__name__)


def numerical_build() -> dict:
    """The numpy and BLAS build and the BLAS thread count in effect."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def save_checkpoint(path: str, model: JsccModel, adam: AdamState | None = None,
                    extra: dict | None = None) -> None:
    """Write params (declaration order) and optionally the optimizer state."""
    meta = {"config": model.config.to_dict(), "extra": dict(extra or {}),
            "has_adam": adam is not None, "build": numerical_build()}
    if adam is not None:
        meta["extra"]["adam_t"] = adam.t
    payload = json.dumps(meta, sort_keys=True).encode("utf-8")
    itemsize = np.dtype(model.config.dtype).itemsize
    blobs: list[tuple[str, np.ndarray]] = [(p.name, p.value) for p in model.parameters()]
    if adam is not None:
        for kind, moments in (("m", adam.m), ("v", adam.v)):
            blobs += [(f"adam.{kind}.{p.name}", a) for p, a in zip(adam.params, moments)]
    with write_atomic(path, binary=True) as fh:
        fh.write(MAGIC + struct.pack("<BI", itemsize, len(payload)) + payload)
        fh.write(struct.pack("<I", len(blobs)))
        for name, arr in blobs:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)) + raw + struct.pack("<II", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def _header(path: str, raw: bytes, itemsize: int, left: int) -> tuple[JsccConfig, dict]:
    """The header's config and metadata, checked before any array exists."""
    try:
        meta = json.loads(raw.decode("utf-8"))
        config = JsccConfig(**meta["config"])
        extra = dict(meta.get("extra", {}))
        extra["has_adam"] = meta.get("has_adam", False)
        extra["build"] = meta.get("build")
    except (ValueError, KeyError, TypeError, DomainError) as exc:
        raise IoError(f"checkpoint {path} has a malformed header: {exc}") from exc
    if np.dtype(config.dtype).itemsize != itemsize:
        raise IoError(f"checkpoint {path} has precision byte {itemsize} for {config.precision}")
    counts = dict(config.to_dict(), epoch=extra.get("epoch", 0), adam_t=extra.get("adam_t", 0))
    for key, value in counts.items():
        if key != "precision" and (type(value) is not int or value < 0):
            raise IoError(f"checkpoint {path} has {key} {value!r}, not a non-negative integer")
    if config.parameter_count() * itemsize > left:
        raise IoError(f"checkpoint {path} has {left} bytes after its header, too few "
                      f"for the {config.parameter_count()} parameters of its config")
    return config, extra


def _load(path: str, resume: tuple[float, float] | None):
    """(model, AdamState(lr, clip) or None, header metadata) from one pass over
    a checkpoint; without resume=(lr, clip) the moments are skipped."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def bound(n: int) -> int:  # the next n bytes, which the file must hold
                if fh.tell() + n > size:
                    raise IoError(f"checkpoint {path} is truncated ({size} bytes)")
                return n
            magic = fh.read(6)
            if magic == b"TJSCC1":
                raise IoError(f"{path} holds the retired TJSCC1 layout of fifteen per-gate "
                              "arrays per LSTM cell; retrain to write a TJSCC2 checkpoint")
            if magic != MAGIC:
                raise IoError(f"{path} is not a checkpoint (bad magic)")
            itemsize, json_len = struct.unpack("<BI", fh.read(bound(5)))
            config, extra = _header(path, fh.read(bound(json_len)), itemsize, size - fh.tell())
            model, state = JsccModel(config, seed=None), None
            targets = {p.name: p.value for p in model.parameters()}
            if resume is not None and extra["has_adam"]:
                state = AdamState(model.parameters(), *resume)
                state.t = extra.get("adam_t", 0)
                for kind, moments in (("m", state.m), ("v", state.v)):
                    targets.update((f"adam.{kind}.{p.name}", a)
                                   for p, a in zip(state.params, moments))
            for _ in range(struct.unpack("<I", fh.read(bound(4)))[0]):
                (name_len,) = struct.unpack("<H", fh.read(bound(2)))
                try:
                    name = fh.read(bound(name_len)).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise IoError(f"checkpoint {path} has a malformed blob name") from exc
                rows, cols = struct.unpack("<II", fh.read(bound(8)))
                target = targets.pop(name, None)
                if target is None:  # a moment load_model skips, or an unknown blob
                    fh.seek(bound(rows * cols * itemsize), os.SEEK_CUR)
                elif target.shape != (rows, cols):
                    raise IoError(f"checkpoint {path} has blob {name!r} of shape "
                                  f"{(rows, cols)}, expected {target.shape}")
                else:
                    fh.readinto(memoryview(target).cast("B")[:bound(target.nbytes)])
                    if sys.byteorder == "big":
                        target.byteswap(inplace=True)
            if fh.tell() != size:
                raise IoError(f"checkpoint {path} has {size - fh.tell()} trailing bytes")
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if targets:
        raise IoError(f"checkpoint {path} is missing blob {next(iter(targets))!r}")
    return model, state, extra


def load_model(path: str) -> tuple[JsccModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, header metadata)."""
    model, _, extra = _load(path, None)
    return model, extra


def load_for_resume(path: str, lr: float, clip: float) -> tuple[JsccModel, AdamState | None, int]:
    """Rebuild what a resumed run continues from: the model, its optimizer
    state (None if the checkpoint saved none) and the last finished epoch."""
    model, state, extra = _load(path, (lr, clip))
    running = numerical_build()
    if extra["build"] != running:
        log.warning("checkpoint %s was written under %s and this run has %s, so it can differ "
                    "in its last bits from an unbroken run",
                    path, extra["build"] or "an unrecorded build", running)
    return model, state, extra.get("epoch", 0)
