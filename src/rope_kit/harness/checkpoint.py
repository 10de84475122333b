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

``_tensors`` gives the tensor order: the model parameters in registry
order (``ModelConfig.parameter_shapes``), then the Adam moments as
"adam.m:<name>" and "adam.v:<name>".
Loading rebuilds the model and its Adam state from the config text and
reads each tensor, in file order, straight into its array, so a resumed
run continues the exact trajectory of an uninterrupted one. A file is
refused when a config key repeats, when its tensor count or a tensor's
name, shape or precision differs from that model's, or when bytes
follow the last tensor; every length read from the file, and the
tensor bytes of the config's model, are compared with the bytes left in
it before anything is allocated for them. Saving writes a temporary
file beside the target and renames it over the target, so a failed
save leaves the previous checkpoint as it was; the temporary file is
synced to disk before the rename, so a crash after it cannot leave an
empty file under the target name.
"""

from __future__ import annotations

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


def _read_tensor(fh, name: str, target: np.ndarray) -> None:
    """Reads the next tensor into ``target`` once its name, shape and precision match."""
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    stored = _read_exact(fh, name_len).decode("utf-8")
    (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
    shape = tuple(struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(ndim))
    (bits,) = struct.unpack("<B", _read_exact(fh, 1))
    expected = (name, target.shape, 8 * target.itemsize)
    if (stored, shape, bits) != expected:
        raise DataError(f"tensor (name, shape, bits) {(stored, shape, bits)}, expected {expected}")
    payload = _read_exact(fh, target.nbytes)
    target[...] = np.frombuffer(payload, target.dtype.newbyteorder("<")).reshape(shape)


def _tensors(model, adam) -> list[tuple[str, np.ndarray]]:
    """A checkpoint's (name, array) pairs in file order."""
    tensors = [(p.name, p.data) for p in model.params]
    tensors += [(f"adam.m:{name}", arr) for name, arr in adam.m.items()]
    tensors += [(f"adam.v:{name}", arr) for name, arr in adam.v.items()]
    return tensors


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
            tensors = _tensors(model, adam)
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
            need = 3 * config.parameter_count * config.precision // 8  # parameters, m, v
            if need > _bytes_left(fh):
                raise DataError(f"its config's model needs {need} bytes of tensors, "
                                f"{_bytes_left(fh)} are left")
            model = ByteLM(config, _ZeroInit())
            adam = AdamState(model, step=step)
            tensors = _tensors(model, adam)
            (count,) = struct.unpack("<I", _read_exact(fh, 4))
            if count != len(tensors):
                raise DataError(f"{count} tensors stored, its config's model has {len(tensors)}")
            for name, target in tensors:
                _read_tensor(fh, name, target)
            if _bytes_left(fh):
                raise DataError(f"{_bytes_left(fh)} bytes follow the last tensor")
    except (ValueError, TypeError) as exc:
        # Besides DataError: a bad config line, key or value, and bytes that are not UTF-8.
        raise DataError(f"{path}: {exc}") from exc
    rng = Rng(seed)
    rng.state = state
    return model, adam, rng, step
