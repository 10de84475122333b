"""Workload definitions, input generation and correctness gates.

Each workload is a closed loop: one process, one client thread, and
every operation waits for the previous one. An operation is one
``harness.train`` call (train) or one ``rope_kit.cli.main(["verify",
...])`` call (verify). A round runs every operation of the workload
once, on inputs that are fixed for the whole run.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import math
import os
import random
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import rope_kit
from rope_kit import cli, harness
from rope_kit.numerics import Rng

# The train workload runs both shapes every round. Each step is 512 tokens
# in both, so per-step figures are comparable across them.
TRAIN_SHAPES = {
    # The acceptance config of the test suite.
    "ctx64": dict(
        model=dict(d_model=32, heads=2, layers=2, context_len=64, precision=32),
        batch_size=8,
        steps=40,
        configs=[("rope", "softmax"), ("sinusoidal", "softmax"),
                 ("shaw", "softmax"), ("rope", "linear-elu")],
    ),
    # The same 512 tokens per step, in one long sequence.
    "ctx512": dict(
        model=dict(d_model=64, heads=2, layers=2, context_len=512, precision=32),
        batch_size=1,
        steps=10,
        configs=[("rope", "softmax"), ("shaw", "softmax"), ("rope", "linear-elu")],
    ),
}
LEARNING_RATE = 1e-3
CORPUS_BYTES = 1 << 17


@dataclass(frozen=True)
class TrainRun:
    label: str          # <shape>.<pos>-<kernel>, e.g. ctx512.shaw-softmax
    model: dict         # ModelConfig keyword arguments
    steps: int
    batch_size: int


def train_runs() -> list[TrainRun]:
    """The train operations of one round, in order."""
    return [
        TrainRun(f"{shape}.{pos}-{kernel}",
                 dict(spec["model"], pos_encoding=pos, attention_variant=kernel),
                 spec["steps"], spec["batch_size"])
        for shape, spec in TRAIN_SHAPES.items()
        for pos, kernel in spec["configs"]
    ]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# English letter frequencies (per mille), so words have a learnable shape.
LETTERS = "etaoinshrdlcumwfgypbvkjxqz"
LETTER_WEIGHTS = [127, 91, 82, 75, 70, 67, 63, 61, 60, 43, 40, 28, 28, 24, 24,
                  22, 20, 20, 19, 15, 10, 8, 2, 2, 1, 1]


def _pick(rng: random.Random, cumulative: list[float]) -> int:
    return bisect.bisect_right(cumulative, rng.random() * cumulative[-1])


def _cumulative(weights) -> list[float]:
    total, out = 0.0, []
    for w in weights:
        total += w
        out.append(total)
    return out


@dataclass(frozen=True)
class Inputs:
    program_seed: int
    corpus: bytes


def make_inputs(seed: int) -> Inputs:
    """Seeded inputs from the benchmark's own generator (Python's
    Mersenne Twister, drawn only through ``random()``), independent of
    the program's own Rng.

    The corpus is Zipf-distributed words over a seeded 400-word lexicon,
    with sentence breaks; every seed gives text of the same statistics.
    """
    rng = random.Random(seed)
    program_seed = int(rng.random() * 2**31)
    letter_cum = _cumulative(LETTER_WEIGHTS)
    lexicon = []
    for _ in range(400):
        length = 2 + int(rng.random() * 7)
        lexicon.append("".join(LETTERS[_pick(rng, letter_cum)] for _ in range(length)))
    word_cum = _cumulative(1.0 / rank for rank in range(1, len(lexicon) + 1))
    parts, size, sentence = [], 0, 0
    while size < CORPUS_BYTES:
        word = lexicon[_pick(rng, word_cum)]
        sentence += 1
        if sentence >= 6 + int(rng.random() * 10):
            word += ".\n" if rng.random() < 0.25 else "."
            sentence = 0
        parts.append(word)
        size += len(word) + 1
    corpus = " ".join(parts).encode("ascii")[:CORPUS_BYTES]
    return Inputs(program_seed=program_seed, corpus=corpus)


# ---------------------------------------------------------------------------
# Set-up time: the import, measured cold in fresh interpreters
# ---------------------------------------------------------------------------

IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
import rope_kit
if sys.argv[1] == "verify":
    import rope_kit.cli
else:
    import rope_kit.harness
print(repr(time.perf_counter() - start))
"""


def cold_import_s(workload: str, src_dir: str) -> float:
    """Import rope_kit and the modules the workload uses in a new
    interpreter; returns that interpreter's own timing of the import."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, workload],
        env=dict(os.environ, PYTHONPATH=src_dir),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Reference passes: the host's speed, measured beside the program
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
REF_DRAWS = 40_000
REF_MATMULS = 300
REF_X = np.linspace(-1.0, 1.0, 256 * 64).reshape(256, 64)
REF_W = np.full((64, 64), 1.0 / 64) + 0.5 * np.eye(64)
# Passes before each operation: about 5-8% of the operation's own time.
REFERENCE_PASSES = {"train": 1, "verify": 4}


def reference_pass() -> float:
    """Wall time of one pass of fixed work that shares no code with
    rope-kit: splitmix64 draws turned into normals in pure Python, then
    float64 matmuls and tanh in numpy, the two kinds of work the
    workloads spend their time on. The shared host's speed drifts over
    minutes, and these passes, timed between the operations, drift with
    it."""
    start = time.perf_counter()
    state, total = 0, 0.0
    for _ in range(REF_DRAWS):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        total += math.sqrt(-2.0 * math.log(1.0 - ((z ^ (z >> 31)) >> 11) * 2.0**-53))
    x = REF_X
    for _ in range(REF_MATMULS):
        x = np.tanh(x @ REF_W)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Operations and their gates
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    ok: bool
    seconds: float              # wall time of the program call alone
    artifact: str               # digest of what the call wrote or printed
    final_loss: float = math.nan
    checkpoint_bytes: int = 0
    build_seconds: float = 0.0  # wall time of the ByteLM construction


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _fail(message: str) -> None:
    print(f"gate failed: {message}", file=sys.stderr)


def train_op(run: TrainRun, inputs: Inputs, corpus_path: str, out_dir: str,
             tracer=None) -> OpResult:
    """Build one fresh model, train it, and gate the result: finite losses,
    learning, and a checkpoint that reloads bit for bit."""
    label, steps = run.label, run.steps
    metrics_path = os.path.join(out_dir, f"{label}.csv")
    ckpt_path = os.path.join(out_dir, f"{label}.ckpt")
    start = time.perf_counter()
    model = harness.ByteLM(harness.ModelConfig(**run.model), Rng(inputs.program_seed))
    build_seconds = time.perf_counter() - start
    config = harness.TrainConfig(
        steps=steps, corpus_path=corpus_path, metrics_path=metrics_path,
        checkpoint_path=ckpt_path, batch_size=run.batch_size,
        learning_rate=LEARNING_RATE, seed=inputs.program_seed,
    )
    if tracer is not None:
        tracer.start_train_call(label)
    start = time.perf_counter()
    series = harness.train(model, config)
    seconds = time.perf_counter() - start

    losses = [loss for _, loss in series]
    tail = losses[-max(1, steps // 10):]
    final_loss = sum(tail) / len(tail)
    ok = True
    if len(losses) != steps or not all(math.isfinite(v) for v in losses):
        _fail(f"{label}: {len(losses)} losses for {steps} steps, or a non-finite loss")
        ok = False
    elif not final_loss < losses[0]:
        _fail(f"{label}: final-tenth loss {final_loss} is not below the first {losses[0]}")
        ok = False
    loaded, _, _, step = harness.load_checkpoint(ckpt_path)
    if step != steps:
        _fail(f"{label}: checkpoint is at step {step}, expected {steps}")
        ok = False
    trained = [(p.name, p.data.dtype, p.data.tobytes()) for p in model.params]
    reloaded = [(p.name, p.data.dtype, p.data.tobytes()) for p in loaded.params]
    if trained != reloaded:
        _fail(f"{label}: reloaded parameters differ from the trained ones")
        ok = False
    with open(metrics_path, "rb") as fh:
        metrics_bytes = fh.read()
    with open(ckpt_path, "rb") as fh:
        ckpt_bytes = fh.read()
    return OpResult(ok, seconds, _digest(metrics_bytes, ckpt_bytes), final_loss,
                    len(ckpt_bytes), build_seconds)


SUITE_LINE = re.compile(r"^(?P<name>.+?)\s+(?P<status>PASS|FAIL)\s+\[\s*[\d.]+s\]")
ELAPSED = re.compile(r"\[\s*[\d.]+s\]")


def verify_op(inputs: Inputs) -> OpResult:
    """One in-process ``rope-kit verify`` at its defaults; the gate wants
    exit code 0 and PASS on every suite line."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--seed", str(inputs.program_seed)])
    seconds = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    suites = [m for m in map(SUITE_LINE.match, lines) if m]
    ok = True
    if code != 0:
        _fail(f"verify exited with {code}")
        ok = False
    if not suites or any(m["status"] != "PASS" for m in suites):
        _fail("verify table: " + "; ".join(f"{m['name']} {m['status']}" for m in suites))
        ok = False
    # The table without its per-suite elapsed times is the call's artifact.
    table = "\n".join(ELAPSED.sub("[*]", line) for line in lines)
    return OpResult(ok, seconds, _digest(table.encode("utf-8")))


def guarded(op, *args, **kwargs) -> OpResult:
    """Run one operation; an exception counts it as failed, not the run."""
    try:
        return op(*args, **kwargs)
    except Exception:  # the benchmark boundary: record and keep measuring
        traceback.print_exc(file=sys.stderr)
        return OpResult(False, math.nan, "error")


def run_round(workload: str, inputs: Inputs, corpus_path: str, out_dir: str,
              tracer=None, reference=None) -> list[OpResult]:
    """Run every operation once. With a ``reference`` list, time
    REFERENCE_PASSES[workload] reference passes before each operation and
    append their times to it."""
    if workload == "verify":
        ops = [lambda: guarded(verify_op, inputs)]
    else:
        ops = [lambda run=run: guarded(train_op, run, inputs, corpus_path, out_dir, tracer)
               for run in train_runs()]
    results = []
    for op in ops:
        if reference is not None:
            reference.extend(reference_pass() for _ in range(REFERENCE_PASSES[workload]))
        results.append(op())
    return results


def tokens_per_round() -> int:
    return sum(run.batch_size * run.model["context_len"] * run.steps for run in train_runs())


def steps_per_round() -> int:
    return sum(run.steps for run in train_runs())


def program_version() -> str:
    return getattr(rope_kit, "__version__", "unknown")
