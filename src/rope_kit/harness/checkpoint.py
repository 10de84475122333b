"""Versioned binary checkpoints.

Layout (all integers little-endian):

    magic           8 bytes  b"ROPEKIT\\0"
    version         u32      currently 1
    step            u64      optimizer step counter
    rng seed        u64
    rng state       u64
    config length   u32      followed by that many UTF-8 bytes of
                             "key=value" lines (the model config)
    tensor count    u32
    per tensor:
        name length u16, name bytes
        ndim        u8, then ndim u64 dims
        precision   u8 (32 or 64)
        payload     raw little-endian floats

Model parameters come first in registry order, then the Adam moments as
"adam.m:<name>" / "adam.v:<name>". Loading rebuilds the model from the
config text and overwrites every array bytewise, so a resumed run
continues the exact trajectory of an uninterrupted one. Saving writes a
temporary file beside the target and renames it over the target, so a
failed save leaves the previous checkpoint as it was; the temporary file
is synced to disk before the rename, so a crash after it cannot leave an
empty file under the target name. Every length read from the file is
compared with the bytes left in it before anything is allocated for it.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from ..errors import DataError
from ..numerics import Rng

MAGIC = b"ROPEKIT\x00"
VERSION = 1

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "VERSION"]


class _ZeroInit:
    """Stands in for the Rng while ``load_checkpoint`` rebuilds a model.

    Every array is overwritten from the file, so drawing an initialisation
    would be wasted work; float64 zeros take its place.
    """

    @staticmethod
    def normal_array(shape, scale: float = 1.0) -> np.ndarray:
        return np.zeros(shape)


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    bits = 64 if arr.dtype == np.float64 else 32
    fh.write(struct.pack("<B", bits))
    fh.write(arr.astype("<f8" if bits == 64 else "<f4", copy=False).tobytes())


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int) -> bytes:
    if n > _bytes_left(fh):  # checked first: a corrupt length must not size an allocation
        raise DataError("checkpoint is truncated")
    return fh.read(n)


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    name = _read_exact(fh, name_len).decode("utf-8")
    (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
    shape = tuple(struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(ndim))
    (bits,) = struct.unpack("<B", _read_exact(fh, 1))
    if bits not in (32, 64):
        raise DataError(f"unknown precision flag {bits} for tensor {name!r}")
    dtype = "<f8" if bits == 64 else "<f4"
    size = math.prod(shape) * (bits // 8)
    left = _bytes_left(fh)
    if size > left:  # named here, where the tensor and its shape are known
        raise DataError(
            f"tensor {name!r} of shape {shape} needs {size} bytes, the file has {left} left"
        )
    payload = _read_exact(fh, size)
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return name, arr.astype(np.float64 if bits == 64 else np.float32)


def save_checkpoint(path, model, adam, rng: Rng) -> None:
    config_text = model.config.to_text().encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", adam.step))
            fh.write(struct.pack("<Q", rng.seed))
            fh.write(struct.pack("<Q", rng.state))
            fh.write(struct.pack("<I", len(config_text)))
            fh.write(config_text)
            tensors = [(p.name, p.data) for p in model.params]
            tensors += [(f"adam.m:{name}", arr) for name, arr in adam.m.items()]
            tensors += [(f"adam.v:{name}", arr) for name, arr in adam.v.items()]
            fh.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors:
                _write_tensor(fh, name, arr)
            fh.flush()
            os.fsync(fh.fileno())  # the data is on disk before the name points at it
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (model, adam_state, rng, step) rebuilt from the file."""
    from .model import ByteLM, ModelConfig
    from .train import AdamState

    try:
        with open(path, "rb") as fh:
            if _read_exact(fh, len(MAGIC)) != MAGIC:
                raise DataError("not a rope-kit checkpoint")
            (version,) = struct.unpack("<I", _read_exact(fh, 4))
            if version != VERSION:
                raise DataError(f"unsupported checkpoint version {version}")
            (step,) = struct.unpack("<Q", _read_exact(fh, 8))
            (seed,) = struct.unpack("<Q", _read_exact(fh, 8))
            (state,) = struct.unpack("<Q", _read_exact(fh, 8))
            (config_len,) = struct.unpack("<I", _read_exact(fh, 4))
            config = ModelConfig.from_text(_read_exact(fh, config_len).decode("utf-8"))
            (count,) = struct.unpack("<I", _read_exact(fh, 4))
            stored = dict(_read_tensor(fh) for _ in range(count))
    except (ValueError, TypeError) as exc:
        # Besides DataError: a config line without "=", an unknown key or a
        # bad value, and config or name bytes that are not UTF-8.
        raise DataError(f"{path}: {exc}") from exc

    model = ByteLM(config, _ZeroInit())
    adam = AdamState(model, step=step)
    for p in model.params:
        for prefix, target in (("", None), ("adam.m:", adam.m), ("adam.v:", adam.v)):
            key = prefix + p.name
            if key not in stored:
                raise DataError(f"{path}: checkpoint is missing tensor {key!r}")
            arr = stored[key]
            if arr.shape != p.data.shape:
                raise DataError(
                    f"{path}: tensor {key!r} has shape {arr.shape}, expected {p.data.shape}"
                )
            if target is None:
                p.data[...] = arr
            else:
                target[p.name][...] = arr
    rng = Rng(seed)
    rng.state = state
    return model, adam, rng, step
