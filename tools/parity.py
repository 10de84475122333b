#!/usr/bin/env python3
"""Parity probe: digests of rope-kit's artifacts, to compare two checkouts.

    python3 tools/parity.py --out change.json
    python3 tools/parity.py --tree ../parent --out parent.json
    python3 tools/parity.py --compare parent.json change.json [--rtol 1e-6]

A probe runs the ``rope-kit`` commands of the checkout at ``--tree``
(default: the one holding this script) with that checkout's ``src/`` on
PYTHONPATH and one BLAS thread, in a temporary directory, and writes one
JSON file holding a sha256 of each artifact:

- the ``verify`` tables at seeds 0, 42 and 2104, and the ``verify.dims``
  table of ``verify --seed 0 --dims 8,16 --trials 50``, with suite times
  masked;
- the metrics and checkpoint bytes of a 15-step float32 run of each
  config in ``RUNS``;
- the stdout, metrics and checkpoint of a default-settings
  ``train --steps 2`` run;
- for each of those checkpoints, a ``<run>.reload`` digest of the file
  that checkout's ``load_checkpoint`` and ``save_checkpoint`` write back
  from it, run in a subprocess like the commands: equal to the run's
  ``.checkpoint`` digest when the reader returns every array bit for bit,
  and ``failed: exit N: <last stderr line>`` when the subprocess fails;
- for each config in ``RUNS``, a ``<run>.resume`` digest of the
  checkpoint of a run trained ``DIGEST_STEPS // 2`` steps and then
  continued by that checkout's ``harness.resume`` up to ``DIGEST_STEPS``,
  in a subprocess: equal to the run's ``.checkpoint`` digest when resume
  is bit-exact, and a ``failed: ...`` line as for ``.reload`` when the
  subprocess fails;
- a ``<run>.threads2`` digest of the checkpoint of the ``THREADS2`` run
  repeated with two BLAS threads: equal to its ``.checkpoint`` digest
  when training does not depend on the BLAS thread count, which the row
  sums and products of a step go through;
- the ``bench`` agreement line;
- the stdout and CSV of a default-settings ``decay`` run;
- the stdout of ``compare`` over the ``COMPARED`` runs' float64 metrics.

The same file holds the per-step losses of a 50-step float64 run of
each config in ``RUNS``. Every run trains on one corpus generated here
from a fixed seed, so two probes see the same bytes.

``--compare`` reports every digest and every loss series that differs,
and every ``.reload``, ``.resume`` or ``.threads2`` digest that differs
from its ``.checkpoint`` digest in the same file. Without ``--rtol`` any
of these fails the comparison (exit 1). With ``--rtol`` the loss series
are compared to that relative tolerance and only they and the
``.reload``, ``.resume`` and ``.threads2`` checks decide the exit status:
digest differences between the files are still listed.
Digests depend on the host, because OpenBLAS picks its kernels per CPU,
so compare only files written on one machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

VERIFY_SEEDS = (0, 42, 2104)
CTX64 = ("--d-model", "32", "--heads", "2", "--layers", "2", "--context", "64",
         "--batch-size", "8")
CTX512 = ("--d-model", "64", "--heads", "2", "--layers", "2", "--context", "512",
          "--batch-size", "1")
# 200 positions: softmax attention's last 64-row query block holds 8 rows,
# and linear attention's causal numerator runs four 64-position chunks, the
# last zero-padded.
CTX200 = ("--d-model", "32", "--heads", "2", "--layers", "2", "--context", "200",
          "--batch-size", "2")
RUNS = {
    **{f"ctx64.{enc}-softmax": CTX64 + ("--variant", enc, "--attention", "softmax")
       for enc in ("rope", "sinusoidal", "learned", "shaw", "none")},
    "ctx64.rope-linear-elu": CTX64 + ("--variant", "rope", "--attention", "linear-elu"),
    "ctx64.none-linear-softmax": CTX64 + ("--variant", "none", "--attention", "linear-softmax"),
    **{f"ctx512.{enc}-softmax": CTX512 + ("--variant", enc, "--attention", "softmax")
       for enc in ("rope", "shaw")},
    **{f"ctx200.{enc}-softmax": CTX200 + ("--variant", enc, "--attention", "softmax")
       for enc in ("rope", "shaw")},
    "ctx200.rope-linear-elu": CTX200 + ("--variant", "rope", "--attention", "linear-elu"),
}
# compare tabulates 12 of the LOSS_STEPS rows of these runs.
COMPARED = ("ctx64.rope-softmax", "ctx64.shaw-softmax")
# Repeated with two BLAS threads for its .threads2 digest.
THREADS2 = "ctx64.rope-softmax"
# Digests that must equal the run's .checkpoint digest in the same file.
SAME_AS_CHECKPOINT = (".reload", ".resume", ".threads2")
DIGEST_STEPS = 15
LOSS_STEPS = 50
WORDS = ("the of and a to in is was he for it with as his on be at by had not are but "
         "from or have an they which one you were her all she there would their we him "
         "been has when who will more no if out so said what up its about into than").split()
SUITE_TIME = re.compile(rb"\[\s*\d+\.\d+s\]")


def corpus_bytes(size: int = 200_000, seed: int = 2104) -> bytes:
    """Deterministic pseudo-English word salad with sentence breaks."""
    rng = random.Random(seed)
    words, total = [], 0
    while total < size:
        word = rng.choice(WORDS) + ("." if rng.random() < 0.08 else "")
        words.append(word)
        total += len(word) + 1
    return " ".join(words).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    return sha256(path.read_bytes()) if path.exists() else "missing"


class Probe:
    """Runs rope-kit commands of one checkout in a scratch directory."""

    def __init__(self, tree: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.corpus = work / "corpus.txt"
        self.corpus.write_bytes(corpus_bytes())

    def run(self, *args: str, threads: int = 1) -> bytes:
        """The command's stdout, prefixed by its exit status, run with
        ``threads`` BLAS threads."""
        code = "import sys; from rope_kit.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=self.work,
                              env=dict(self.env, OPENBLAS_NUM_THREADS=str(threads)),
                              capture_output=True)
        return f"exit {proc.returncode}\n".encode() + proc.stdout

    def python(self, code: str, *args: str) -> str | None:
        """Run ``code`` with ``args`` in this checkout; ``None`` when it exits
        0, else ``failed: exit N: <its last stderr line>``."""
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=self.work,
                              env=self.env, capture_output=True)
        if proc.returncode == 0:
            return None
        last = (proc.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
        return f"failed: exit {proc.returncode}: {last}"

    def reload(self, checkpoint: Path) -> str:
        """Digest of ``checkpoint`` once this checkout loads it and saves it back."""
        again = checkpoint.with_suffix(".reload.ckpt")
        code = ("import sys; from rope_kit.harness import load_checkpoint, save_checkpoint; "
                "model, adam, rng, _ = load_checkpoint(sys.argv[1]); "
                "save_checkpoint(sys.argv[2], model, adam, rng)")
        return self.python(code, str(checkpoint), str(again)) or file_digest(again)

    def resume(self, name: str, flags: tuple) -> str:
        """Digest of the checkpoint of ``name`` trained ``DIGEST_STEPS // 2``
        steps in float32, then resumed by this checkout up to ``DIGEST_STEPS``."""
        metrics, checkpoint = self.train(f"{name}.half", flags, DIGEST_STEPS // 2, 32)
        batch_size = flags[flags.index("--batch-size") + 1]
        code = ("import sys; from rope_kit.harness import TrainConfig, resume; "
                "steps, corpus, metrics, checkpoint, batch_size = sys.argv[1:]; "
                "resume(checkpoint, TrainConfig(int(steps), corpus, metrics, checkpoint, "
                "batch_size=int(batch_size)))")
        return (self.python(code, str(DIGEST_STEPS), str(self.corpus), str(metrics),
                            str(checkpoint), batch_size)
                or file_digest(checkpoint))

    def train(self, name: str, flags: tuple, steps: int, precision: int,
              threads: int = 1) -> tuple[Path, Path]:
        stem = f"{name}.{precision}" + (f".threads{threads}" if threads > 1 else "")
        metrics = self.work / f"{stem}.csv"
        checkpoint = self.work / f"{stem}.ckpt"
        self.run("train", "--corpus", str(self.corpus), "--steps", str(steps),
                 "--precision", str(precision), "--metrics", str(metrics),
                 "--checkpoint", str(checkpoint), *flags, threads=threads)
        return metrics, checkpoint


def read_losses(path: Path) -> list[float] | None:
    if not path.exists():
        return None
    with open(path, newline="") as fh:
        return [float(row[1]) for row in list(csv.reader(fh))[1:]]


def probe(tree: Path) -> dict:
    digests, losses = {}, {}
    with tempfile.TemporaryDirectory(prefix="rope-kit-parity-") as tmp:
        p = Probe(tree, Path(tmp))
        for seed in VERIFY_SEEDS:
            table = p.run("verify", "--seed", str(seed))
            digests[f"verify.seed{seed}"] = sha256(SUITE_TIME.sub(b"[time]", table))
        table = p.run("verify", "--seed", "0", "--dims", "8,16", "--trials", "50")
        digests["verify.dims"] = sha256(SUITE_TIME.sub(b"[time]", table))
        for name, flags in RUNS.items():
            metrics, checkpoint = p.train(name, flags, DIGEST_STEPS, 32)
            digests[f"{name}.metrics"] = file_digest(metrics)
            digests[f"{name}.checkpoint"] = file_digest(checkpoint)
            digests[f"{name}.reload"] = p.reload(checkpoint)
            digests[f"{name}.resume"] = p.resume(name, flags)
            losses[name] = read_losses(p.train(name, flags, LOSS_STEPS, 64)[0])
        _, checkpoint = p.train(THREADS2, RUNS[THREADS2], DIGEST_STEPS, 32, threads=2)
        digests[f"{THREADS2}.threads2"] = file_digest(checkpoint)
        stdout = p.run("train", "--corpus", str(p.corpus), "--steps", "2")
        digests["train-defaults.stdout"] = sha256(stdout)
        digests["train-defaults.metrics"] = file_digest(p.work / "train-rope.csv")
        digests["train-defaults.checkpoint"] = file_digest(p.work / "train-rope.ckpt")
        digests["train-defaults.reload"] = p.reload(p.work / "train-rope.ckpt")
        bench = [line for line in p.run("bench", "--reps", "1").splitlines()
                 if line.startswith((b"outputs agree", b"FAIL"))]
        digests["bench.agreement"] = sha256(b"\n".join(bench))
        digests["decay-defaults.stdout"] = sha256(p.run("decay"))
        digests["decay-defaults.csv"] = file_digest(p.work / "decay.csv")
        compared = (f"{name}.64.csv" for name in COMPARED)
        digests["compare.stdout"] = sha256(p.run("compare", *compared))
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "machine": platform.machine()}
    return {"tree": str(tree), "env": env, "digests": digests, "losses": losses}


def max_relative_difference(a: list[float], b: list[float]) -> float:
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y), default=0.0)


def compare(a: dict, b: dict, rtol: float | None) -> int:
    """Print every difference; return the number that fail the comparison."""
    failing = 0
    for probed in (a, b):
        digests = probed["digests"]
        for key in sorted(k for k in digests if k.endswith(SAME_AS_CHECKPOINT)):
            if digests[key] != digests[key.rsplit(".", 1)[0] + ".checkpoint"]:
                print(f"{probed['tree']}: {key} differs from the run's .checkpoint digest")
                failing += 1
    for key in sorted(a["digests"].keys() | b["digests"].keys()):
        if a["digests"].get(key) != b["digests"].get(key):
            print(f"digest differs: {key}")
            failing += rtol is None
    for key in sorted(a["losses"].keys() | b["losses"].keys()):
        x, y = a["losses"].get(key), b["losses"].get(key)
        if x is None or y is None or len(x) != len(y):
            print(f"loss series {key}: missing or of another length")
            failing += 1
        elif x != y:
            worst = max_relative_difference(x, y)
            within = rtol is not None and worst <= rtol
            verdict = f"within rtol {rtol:g}" if within else "differs"
            print(f"loss series {key}: max relative difference {worst:.2e}, {verdict}")
            failing += not within
    print("identical" if failing == 0 and a["digests"] == b["digests"] and a["losses"] == b["losses"]
          else f"{failing} difference(s) fail the comparison")
    return failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to probe (default: this script's)")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two probe files instead of probing")
    parser.add_argument("--rtol", type=float,
                        help="with --compare: relative tolerance for the loss series")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        return 1 if compare(a, b, args.rtol) else 0
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    if not (args.tree / "src" / "rope_kit").is_dir():
        parser.error(f"no src/rope_kit under {args.tree}")
    args.out.write_text(json.dumps(probe(args.tree.resolve()), indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
