#!/usr/bin/env python3
"""rope-kit benchmark runner.

    python3 perfbench/run.py --workload train --seed 1 --seconds 55 --trace 0

Run from the root of a rope-kit checkout; the package is imported from
``src/``. Workloads: train, verify (see README.md
beside this file). With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports per-module metrics from spans
recorded around rope-kit's public functions, plus the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1

END_TO_END = [("round_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Self time per training step (train) or per verify call (verify). The
# verify suites, cli.verify.<suite>.ms, are added from what the tracer wrapped.
SELF_MS = [
    "numerics.backward_ms",
    "numerics.matmul.fwd_ms", "numerics.matmul.bwd_ms",
    "numerics.gelu.fwd_ms", "numerics.gelu.bwd_ms",
    "numerics.softmax_rows.fwd_ms", "numerics.softmax_rows.bwd_ms",
    "numerics.rmsnorm.fwd_ms", "numerics.rmsnorm.bwd_ms",
    "numerics.cross_entropy.fwd_ms", "numerics.cross_entropy.bwd_ms",
    "numerics.other.fwd_ms", "numerics.other.bwd_ms",
    "rotary.apply_rows.fwd_ms", "rotary.apply_rows.bwd_ms",
    "rotary.rope_score.ms", "rotary.dense_matrix.ms",
    "baselines.inject.fwd_ms",
    "attention.softmax_attention.fwd_ms",
    "attention.shaw_bias.fwd_ms", "attention.shaw_bias.bwd_ms",
    "attention.linear_core.fwd_ms", "attention.linear_core.bwd_ms",
    "attention.rotate_rows.fwd_ms", "attention.rotate_rows.bwd_ms",
    "attention.similarity_attention.ms",
    "analysis.abel.ms", "analysis.derivation_2d.ms", "analysis.decay_curve.ms",
    "harness.model.loss_ms", "harness.train.adam_ms",
]
# Self time per round (construction work, not step work).
PER_ROUND_MS = ["numerics.rng.normal_array_ms"]
# Self time per call of the wrapped function.
PER_CALL_MS = ["harness.model.init_ms", "harness.checkpoint.save_ms",
               "harness.checkpoint.load_ms"]
# Step time percentiles; harness.train.step_ms.<label> per train operation
# is added from workloads.train_runs().
STEP_MS = ["harness.train.step_ms.p50", "harness.train.step_ms.p95"]
COUNTS = ["numerics.tape_ops", "numerics.rng.draws", "rotary.rope_score.calls",
          "harness.checkpoint.bytes"]
RATIOS = ["cli.verify.busy_ratio", "trace.overhead"]


def step_key(label: str) -> str:
    return f"harness.train.step_ms.{label}"


def per_layer_units(step_labels) -> dict:
    units = {key: "ms" for key in SELF_MS + PER_ROUND_MS + PER_CALL_MS + STEP_MS}
    units.update({step_key(label): "ms" for label in step_labels})
    units.update({key: "count" for key in COUNTS})
    units["harness.checkpoint.bytes"] = "bytes"
    units.update({key: "ratio" for key in RATIOS})
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> dict:
    """One BLAS thread, and verify pool threads so the two fit in nproc.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["ROPE_KIT_THREADS"] = str(max(1, nproc - BLAS_THREADS))
    return {"nproc": nproc}


def environment(record: dict) -> dict:
    import platform

    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    record.update(
        python=platform.python_version(),
        numpy=numpy.__version__,
        blas=f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        blas_threads=blas_threads(numpy),
        verify_threads=int(os.environ["ROPE_KIT_THREADS"]),
    )
    return record


def blas_threads(numpy) -> int | str:
    """Ask the OpenBLAS bundled with numpy for its thread count."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return f"env {os.environ['OPENBLAS_NUM_THREADS']}"


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(run_one, budget_s: float, min_rounds: int) -> list:
    """Closed loop: call run_one() until the next call would overrun the budget."""
    results = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results.append(run_one())
        now = time.perf_counter()
        if len(results) >= min_rounds and (now - start) + (now - round_start) > budget_s:
            return results


def round_s(rounds) -> float:
    """Sum over the round's operations of each one's mean call time.

    The mean, unlike the median, uses every call of the run: on a shared
    machine whose speed drifts over tens of seconds, it was the steadier
    of the two across runs."""
    total = 0.0
    for calls in zip(*rounds):
        timed = [op.seconds for op in calls if op.seconds == op.seconds]
        total += statistics.fmean(timed) if timed else 0.0
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rope_kit" / "__init__.py").is_file():
        print(f"error: no rope_kit package under {SRC}; run from a rope-kit checkout",
              file=sys.stderr)
        return 2
    record = pin_threads()
    if args.trace:
        os.environ["ROPE_KIT_THREADS"] = "1"  # suite spans must not overlap
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    env = environment(record)
    env["rope_kit"] = workloads.program_version()
    inputs = workloads.make_inputs(args.seed)
    WORK.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        corpus_path = os.path.join(out_dir, "corpus.txt")
        with open(corpus_path, "wb") as fh:
            fh.write(inputs.corpus)
        if args.trace:
            result = traced_run(workloads, args, inputs, corpus_path, out_dir)
        else:
            result = untraced_run(workloads, args, inputs, corpus_path, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def summarize(rounds, extra_ok=True):
    ops = [op for ops in rounds for op in ops]
    failed = sum(not op.ok for op in ops)
    artifacts = [[op.artifact for op in ops] for ops in rounds]
    same = all(a == artifacts[0] for a in artifacts)
    if not same:
        print("gate failed: rounds with identical inputs wrote different artifacts",
              file=sys.stderr)
    return {"correct": failed == 0 and same and extra_ok, "attempted": len(ops),
            "failed": failed}


def untraced_run(workloads, args, inputs, corpus_path, out_dir):
    """One untimed warm-up round, then rounds until the budget is spent.
    Each round starts with a cold import in a fresh interpreter, so
    set-up is sampled many times across the run. Model
    construction is timed inside the round's own operations. Reference
    passes run between the timed operations; round_ref is round_s in
    units of their mean time."""
    imports, reference = [], []

    def one_round(timed=True):
        imports.append(workloads.cold_import_s(args.workload, str(SRC)))
        return workloads.run_round(args.workload, inputs, corpus_path, out_dir,
                                   reference=reference if timed else None)

    warm = one_round(timed=False)  # the first calls pay for cold caches
    rounds = measure(one_round, args.seconds, min_rounds=1)
    result = summarize([warm] + rounds)
    import_s = statistics.median(imports)
    build_s = sum(statistics.median(op.build_seconds for op in calls)
                  for calls in zip(*rounds))
    raw_round_s = round_s(rounds)
    reference_s = statistics.fmean(reference)
    values = {"round_ref": raw_round_s / reference_s,
              "setup_s": import_s + build_s,
              "peak_rss_mb": peak_rss_mb()}

    print(f"workload {args.workload}, seed {args.seed}: 1 warm-up and {len(rounds)} "
          f"timed rounds, {len(imports)} cold imports, {result['attempted']} operations")
    print(f"setup_s = import {import_s:.4f} s (median) + model construction "
          f"{build_s:.4f} s (each model's median, summed)")
    print(f"round_ref = round_s {raw_round_s:.4f} s / reference pass {reference_s:.4f} s "
          f"(mean of {len(reference)})")
    print(f"round_s: {raw_round_s:.4f} s")
    if args.workload == "verify":
        print(f"verify_s: {raw_round_s:.4f} s")
    else:
        tokens = workloads.tokens_per_round()
        losses = [op.final_loss for op in rounds[0]]
        tokens_per_s = tokens / raw_round_s if raw_round_s else 0.0
        print(f"tokens_per_s: {tokens_per_s:.1f} tokens/s")
        print(f"final_loss: {sum(losses) / len(losses):.6f} nats")
    print(f"fail_frac: {result['failed'] / result['attempted']:.4f} fraction")
    for name, unit in END_TO_END:
        print(f"{name}: {values[name]:.4f} {unit}")
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END}
    return result


def traced_run(workloads, args, inputs, corpus_path, out_dir):
    """Untraced and traced rounds in alternation: the overhead is the ratio
    of their times, and both must write byte-identical artifacts."""
    from tracer import Tracer

    def untraced():
        return workloads.run_round(args.workload, inputs, corpus_path, out_dir)

    def traced():
        tracer.reset_rng()
        before = tracer.counts()
        ops = workloads.run_round(args.workload, inputs, corpus_path, out_dir, tracer)
        after = tracer.counts()
        per_round.append({key: after[key] - before[key] for key in after})
        return ops

    def pair():
        """An untraced round, then a traced one, so both see the same
        machine phase."""
        base = untraced()
        tracer.install()
        try:
            return base, traced()
        finally:
            tracer.uninstall()

    warm = untraced()  # the first round pays for cold caches; not timed
    tracer = Tracer()
    per_round = []
    pairs = measure(pair, args.seconds, min_rounds=2)
    base = [ops for ops, _ in pairs]
    traced_rounds = [ops for _, ops in pairs]
    counts_repeat = all(counts == per_round[0] for counts in per_round)
    if not counts_repeat:
        print(f"gate failed: counts differ between identical rounds: {per_round}",
              file=sys.stderr)
    result = summarize([warm] + base + traced_rounds, extra_ok=counts_repeat)

    untraced_s, traced_s = round_s(base), round_s(traced_rounds)
    values = layer_metrics(workloads, args.workload, tracer, traced_rounds, per_round[0])
    values["trace.overhead"] = statistics.median(
        round_s([t]) / round_s([b]) for b, t in pairs)

    units = per_layer_units(run.label for run in workloads.train_runs())
    units.update({key: "ms" for key in tracer.suite_keys})
    print(f"workload {args.workload}, seed {args.seed}: 1 warm-up and {len(pairs)} "
          f"untraced/traced round pairs; all artifacts identical and counts "
          f"repeated: {result['correct']}")
    print(f"tracing overhead: median pair ratio {values['trace.overhead']:.4f} "
          f"(round_s {traced_s:.4f} s traced, {untraced_s:.4f} s untraced)")
    for name in units:
        if name in values:
            print(f"{name}: {values[name]:.6g} {units[name]}")
    if tracer.absent:
        print("absent (target not found): " + ", ".join(tracer.absent))
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units if name in values}
    return result


def layer_metrics(workloads, workload, tracer, traced_rounds, counts) -> dict:
    """Per-module values, normalised as README.md describes."""
    train = workload != "verify"
    n_rounds = len(traced_rounds)
    units_per_round = workloads.steps_per_round() if train else 1
    values = {}
    for key in SELF_MS:
        if tracer.installed(key):
            values[key] = tracer.self_s[key] * 1e3 / (units_per_round * n_rounds)
    for key in PER_ROUND_MS:
        if tracer.installed(key):
            values[key] = tracer.self_s[key] * 1e3 / n_rounds
    for key in PER_CALL_MS:
        if tracer.installed(key):
            calls = tracer.calls[key]
            values[key] = tracer.self_s[key] * 1e3 / calls if calls else 0.0

    if tracer.installed("harness.train.adam_ms"):
        steps = [ms for _, ms in tracer.step_ms]
        values["harness.train.step_ms.p50"] = statistics.median(steps) if steps else 0.0
        values["harness.train.step_ms.p95"] = (
            statistics.quantiles(steps, n=20)[18] if len(steps) > 1 else 0.0)
        for run in workloads.train_runs():
            mine = [ms for name, ms in tracer.step_ms if name == run.label]
            values[step_key(run.label)] = statistics.median(mine) if mine else 0.0

    if tracer.installed("numerics.tape_ops"):
        values["numerics.tape_ops"] = counts["numerics.tape_ops"] / units_per_round
    if tracer.installed("numerics.rng.draws"):
        values["numerics.rng.draws"] = counts["numerics.rng.draws"]
    if tracer.installed("rotary.rope_score.ms"):
        values["rotary.rope_score.calls"] = counts["rotary.rope_score.calls"]
    values["harness.checkpoint.bytes"] = sum(op.checkpoint_bytes for op in traced_rounds[0])

    for key in tracer.suite_keys:
        values[key] = tracer.self_s[key] * 1e3 / (units_per_round * n_rounds)
    if tracer.suite_keys:
        busy = sum(tracer.total_s[key] for key in tracer.suite_keys)
        wall = sum(op.seconds for ops in traced_rounds for op in ops) if not train else 0.0
        values["cli.verify.busy_ratio"] = busy / wall if wall else 0.0
    return values


if __name__ == "__main__":
    sys.exit(main())
