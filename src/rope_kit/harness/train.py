"""Seeded training loop: corpus handling, Adam, per-step metrics.

A run is a pure function of (seed, configs, corpus bytes): batches are
drawn from the run's own Rng stream and the metrics file is written with
round-trippable floats, so reruns produce byte-identical artifacts and a
checkpoint resume continues the exact same trajectory. A resume into the
run's own metrics file appends to it, so the file ends up byte-identical
to that of an uninterrupted run.

A step's loss and backward run with the tape's finiteness checks off.
The step then checks its loss and its global gradient norm, summed in
float64, or, if a finite float64 entry above 1e154 overflows that sum,
each gradient. If either is not finite, or the pass raised ``NumericError``,
the step is replayed on the same batch with the checks on, as they are
outside this pass, so that every forward output and every gradient is
checked; the replay's error, prefixed with the step, is raised, and the
parameters, the Adam moments and the metrics rows of the earlier steps
are left as they were.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DataError, NumericError
from ..numerics import Rng, _unchecked
from .checkpoint import load_checkpoint, save_checkpoint
from .compare import METRICS_HEADER, read_metrics
from .model import ByteLM

__all__ = [
    "Corpus",
    "TrainConfig",
    "AdamState",
    "load_corpus",
    "adam_step",
    "train",
    "resume",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-8

# Every step allocates fresh arrays, frees them all at its end and allocates
# the same ones again in the next step: 128-512 KB each in the ctx64 and
# ctx512 benchmark configs, up to 2 MiB (4 MiB at --precision 64) for the
# logits, FFN hiddens and attention P blocks at the `train` defaults.
# glibc's malloc mmaps an array above its dynamic threshold (128 KiB at
# first, raised by frees up to 32 MiB) and trims the heap top once more than
# twice that threshold is free, so each step page-faults much of its memory
# in anew. A fixed mmap threshold of 32 MiB, the ceiling of the dynamic one,
# puts every array that the dynamic threshold could put in the heap there
# from the first step. Trimming is turned off (-1), because a step's working
# set, about 60 MiB at the defaults and 115 MiB at --precision 64, grows with
# batch and context and no fixed trim threshold covers every config; the
# process keeps its peak heap instead of returning it.
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = -1
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc malloc.h


@dataclass(frozen=True)
class Corpus:
    train: np.ndarray  # uint8
    validation: np.ndarray  # uint8


def load_corpus(path) -> Corpus:
    """Read a file as raw bytes and split train/validation 8:2 by prefix."""
    if not os.path.exists(path):
        raise DataError(f"corpus file not found: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise DataError(f"corpus file is empty: {path}")
    data = np.frombuffer(raw, dtype=np.uint8)
    cut = (len(data) * 8) // 10
    return Corpus(train=data[:cut], validation=data[cut:])


@dataclass
class TrainConfig:
    steps: int
    corpus_path: str
    metrics_path: str
    checkpoint_path: str
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 42

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )


class AdamState:
    """First/second moment accumulators, keyed like the model parameters."""

    def __init__(self, model: ByteLM, step: int = 0):
        self.step = step
        self.m = {p.name: np.zeros_like(p.data) for p in model.params}
        self.v = {p.name: np.zeros_like(p.data) for p in model.params}


def adam_step(model: ByteLM, state: AdamState, lr: float) -> None:
    """One Adam update in place, rounded as ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g^2`` and ``p -= (m / c1) lr / (sqrt(v / c2) + eps)``;
    both moment terms and the step are built in one buffer per parameter."""
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    for p in model.params:
        g = p.gradient
        m = state.m[p.name]
        v = state.v[p.name]
        buf = g * (1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += buf
        np.divide(m, c1, out=buf)
        buf *= lr
        denominator = v / c2
        np.sqrt(denominator, out=denominator)
        denominator += ADAM_EPS
        buf /= denominator
        p.data -= buf


@functools.cache
def _keep_freed_memory() -> None:
    """Set glibc's malloc thresholds for the whole process, once; a no-op on
    any other libc. The settings outlive the training call."""
    import platform  # here, as ctypes, so that importing the harness does not load it

    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _sample_batch(corpus: Corpus, rng: Rng, batch_size: int, seq: int):
    span = len(corpus.train) - seq
    if span < 1:
        raise DataError(
            f"training split ({len(corpus.train)} bytes) is not longer than the context ({seq})"
        )
    starts = rng.randint_array(span, batch_size)
    windows = corpus.train[starts[:, None] + np.arange(seq + 1)]
    return windows[:, :-1], windows[:, 1:]


def _loss_and_gradients(model: ByteLM, x: np.ndarray, y: np.ndarray) -> float:
    model.zero_grad()
    loss = model.loss(x, y)
    loss.backward()
    return loss.item()


def _gradient_norm(model: ByteLM) -> float:
    """The global gradient norm, each parameter's squares summed in float64
    by one BLAS dot product. Above 10 000 floats OpenBLAS splits that sum
    across its threads, so the last bits depend on the thread count; the
    norm is only tested for finiteness."""
    total = 0.0
    for p in model.params:
        if p.grad is not None:
            g64 = p.grad.astype(np.float64, copy=False).ravel()
            total += float(g64 @ g64)
    return math.sqrt(total)


def _checked_step(model: ByteLM, x: np.ndarray, y: np.ndarray, step: int) -> float:
    """The step's loss, with finite gradients in the parameters, or a
    ``NumericError`` naming the step (see the module docstring)."""
    with np.errstate(all="ignore"):
        try:
            with _unchecked():
                value = _loss_and_gradients(model, x, y)
            if math.isfinite(value) and (math.isfinite(_gradient_norm(model)) or all(
                    p.grad is None or np.isfinite(p.grad).all() for p in model.params)):
                return value
        except NumericError:
            pass
        try:
            _loss_and_gradients(model, x, y)
        except NumericError as err:
            raise NumericError(f"step {step}: {err}") from err
    raise NumericError(f"step {step}: the loss or the gradient norm is not finite")


def _run_steps(model: ByteLM, adam: AdamState, rng: Rng, corpus: Corpus,
               config: TrainConfig, start_step: int) -> list[tuple[int, float]]:
    checkpoint_dir = os.path.dirname(os.fspath(config.checkpoint_path)) or "."
    if not os.path.isdir(checkpoint_dir):
        raise DataError(
            f"checkpoint directory not found: {checkpoint_dir} (for {config.checkpoint_path})"
        )
    if os.path.isdir(config.checkpoint_path):
        raise DataError(f"checkpoint path is a directory: {config.checkpoint_path}")
    _keep_freed_memory()
    metrics: list[tuple[int, float]] = []
    seq = model.config.context_len
    append = start_step > 0 and os.path.exists(config.metrics_path)
    if append:
        steps, _ = read_metrics(config.metrics_path)
        if not np.array_equal(steps, np.arange(1, start_step + 1)):
            raise DataError(
                f"{config.metrics_path}: rows are not steps 1..{start_step} (last step "
                f"{steps[-1]}), so a resume from step {start_step} cannot append to it"
            )
    with open(config.metrics_path, "a" if append else "w", encoding="utf-8") as fh:
        if not append:
            fh.write(METRICS_HEADER + "\n")
        for step in range(start_step + 1, config.steps + 1):
            x, y = _sample_batch(corpus, rng, config.batch_size, seq)
            value = _checked_step(model, x, y, step)
            adam_step(model, adam, config.learning_rate)
            metrics.append((step, value))
            fh.write(f"{step},{value!r}\n")
    save_checkpoint(config.checkpoint_path, model, adam, rng)
    return metrics


_BATCH_STREAM = 1  # batch sampling uses its own substream of the seed


def train(model: ByteLM, config: TrainConfig) -> list[tuple[int, float]]:
    """Train a freshly built model; returns the (step, loss) series it
    also wrote to the metrics file."""
    rng = Rng(config.seed).spawn(_BATCH_STREAM)
    corpus = load_corpus(config.corpus_path)
    adam = AdamState(model)
    return _run_steps(model, adam, rng, corpus, config, start_step=0)


def resume(checkpoint_path, config: TrainConfig) -> list[tuple[int, float]]:
    """Continue a checkpointed run up to config.steps (absolute step count)."""
    model, adam, rng, step = load_checkpoint(checkpoint_path)
    if step >= config.steps:
        raise ConfigurationError(
            f"checkpoint is already at step {step}, target is {config.steps}"
        )
    corpus = load_corpus(config.corpus_path)
    return _run_steps(model, adam, rng, corpus, config, start_step=step)
