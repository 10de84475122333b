"""Command-line surface: verify, decay, bench, train, compare.

Exit codes are a contract: 0 when everything requested passed, 1 when a
check failed, 2 for usage or data errors. The commands that draw random
numbers (verify, bench, train) print their seed, so any artifact can be
reproduced from its own output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import analysis, attention, rotary
from .errors import ConfigurationError, DataError, NumericError, RopeKitError
from .harness import (
    ByteLM,
    ModelConfig,
    TrainConfig,
    compare_runs,
    format_table,
    train,
)
from .numerics import Parameter, Rng, Tensor, grad_check, matmul, softmax_rows, tensor_sum

USAGE_EXIT = 2
CHECK_EXIT = 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_numerics(rng: Rng, dims, trials: int):
    rows = Tensor(rng.normal_array((min(trials, 200), 4, 8), scale=3.0))
    soft = softmax_rows(rows).data
    worst_sum = float(np.abs(soft.sum(axis=-1) - 1.0).max())
    shifted = softmax_rows(rows + Tensor(np.full((4, 1), 17.0))).data
    worst_shift = float(np.abs(soft - shifted).max())
    a, b, c = (Tensor(rng.normal_array((min(trials, 100), 4, 4))) for _ in range(3))
    worst_assoc = float(np.abs(matmul(matmul(a, b), c).data - matmul(a, matmul(b, c)).data).max())
    w = Parameter("w", rng.normal_array((4, 4)))
    x = Parameter("x", rng.normal_array((4, 3)))
    grad_err = grad_check(lambda: tensor_sum(softmax_rows(matmul(w, x))), [w, x], rng, samples=10)
    ok = worst_sum < 1e-12 and worst_shift < 1e-12 and worst_assoc < 1e-10 and grad_err < 1e-4
    return ok, (
        f"row-sum {worst_sum:.1e}, shift {worst_shift:.1e}, "
        f"assoc {worst_assoc:.1e}, grad {grad_err:.1e}"
    )


def _suite_shift_invariance(rng: Rng, dims, trials: int):
    worst = 0.0
    for dim in dims:
        encoder = rotary.RotaryEncoder(dim)
        for size in analysis.trial_chunks(trials):
            q = rng.normal_array((size, dim))
            k = rng.normal_array((size, dim))
            m, n, s = (rng.randint_array(513, size) for _ in range(3))
            base = rotary.rope_score(q, k, m, n, encoder)
            moved = rotary.rope_score(q, k, m + s, n + s, encoder)
            worst = max(worst, float(np.abs(base - moved).max()))
    return worst < 1e-9, f"max |score(m,n) - score(m+s,n+s)| = {worst:.2e}"


def _suite_sparse_dense(rng: Rng, dims, trials: int):
    worst = 0.0
    positions = sorted({0, 1, 2, 3, 1024} | {rng.randint(1025) for _ in range(24)})
    for dim in sorted(set(dims) | {256}):
        encoder = rotary.RotaryEncoder(dim)
        x = rng.normal_array((dim,))
        for m in positions:
            dense = rotary.dense_rotation_matrix(encoder, m) @ x
            sparse = rotary.apply_rotary(encoder, x, m)
            worst = max(worst, float(np.abs(dense - sparse).max()))
    return worst < 1e-12, f"max |dense - sparse| = {worst:.2e} (positions <= 1024)"


def _suite_complex_real(rng: Rng, dims, trials: int):
    encoder = rotary.RotaryEncoder(2)
    theta = float(encoder.thetas[0])
    worst = 0.0
    for size in analysis.trial_chunks(trials):
        q = rng.normal_array((size, 2))
        k = rng.normal_array((size, 2))
        m, n = (rng.randint_array(513, size) for _ in range(2))
        real = rotary.rope_score(q, k, m, n, encoder)
        for q_t, k_t, m_t, n_t, real_t in zip(q, k, m.tolist(), n.tolist(), real.tolist()):
            cplx = rotary.complex_rope_score_2d(q_t, k_t, m_t, n_t, theta)
            worst = max(worst, abs(real_t - cplx))
    return worst < 1e-12, f"max |complex - real| = {worst:.2e}"


def _suite_orthogonality(rng: Rng, dims, trials: int):
    worst_norm = 0.0
    worst_rel = 0.0
    for dim in dims:
        encoder = rotary.RotaryEncoder(dim)
        for size in analysis.trial_chunks(max(1, trials // 10)):
            x = rng.normal_array((size, dim))
            m = rng.randint_array(513, size)
            n = m + rng.randint_array(513, size)
            rotated = rotary.apply_rotary(encoder, x, m)
            drift = np.abs(np.linalg.norm(rotated, axis=-1) - np.linalg.norm(x, axis=-1))
            worst_norm = max(worst_norm, float(drift.max()))
            # One trial at a time: its three (d, d) matrices take 384 KB at d = 128.
            for triple in np.stack([m, n, n - m], axis=-1):
                r_m, r_n, direct = rotary.dense_rotation_matrix(encoder, triple)
                worst_rel = max(worst_rel, float(np.abs(r_m.T @ r_n - direct).max()))
    ok = worst_norm < 1e-12 and worst_rel < 1e-12
    return ok, f"norm drift {worst_norm:.2e}, R_m^T R_n vs R_(n-m) {worst_rel:.2e}"


def _suite_decay(rng: Rng, dims, trials: int):
    curve = analysis.decay_curve(128, 250)
    start = curve.values[0]
    exact = (128 / 2 + 1) / 2
    means = analysis.windowed_means(curve)
    decreasing = bool(np.all(np.diff(means) < 0))
    tail = float(curve.values[225:251].mean())
    ok = start == exact and decreasing and tail < 0.25 * start
    return ok, (
        f"E(0) = {start} (exact {exact}), windows {np.round(means, 2).tolist()}, "
        f"tail mean {tail:.3f} < {0.25 * start:.3f}"
    )


def _suite_abel(rng: Rng, dims, trials: int):
    report = analysis.abel_identity_check(rng, trials, dims)
    ok = (
        report.max_identity_residual < 1e-10
        and report.bound_violations == 0
        and report.max_score_residual < 1e-10
    )
    return ok, (
        f"identity residual {report.max_identity_residual:.2e}, "
        f"bound violations {report.bound_violations}, "
        f"score residual {report.max_score_residual:.2e} ({report.trials} draws)"
    )


def _suite_derivation_2d(rng: Rng, dims, trials: int):
    report = analysis.derivation_oracle_2d(rng, trials)
    return report.passed, (
        f"initial {report.max_initial_residual:.1e}, radial {report.max_radial_residual:.1e}, "
        f"angular {report.max_angular_residual:.1e}, relative {report.max_relative_residual:.1e}"
    )


def _elu1(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def _softmax_vec(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _suite_linear_attention(rng: Rng, dims, trials: int):
    sims = {
        "elu": lambda q_m, k: _elu1(k) @ _elu1(q_m),
        "softmax-exp": lambda q_m, k: np.exp(k) @ _softmax_vec(q_m),
    }
    worst = 0.0
    encoder = rotary.RotaryEncoder(16)
    stats = None
    for seq, dim in ((5, 4), (16, 16), (64, 64)):
        q = Tensor(rng.normal_array((seq, dim)))
        k = Tensor(rng.normal_array((seq, dim)))
        v = Tensor(rng.normal_array((seq, dim)))
        for name, sim in sims.items():
            out, _ = attention.linear_attention_parts(q, k, v, name)
            direct = attention.similarity_attention(q.data, k.data, v.data, sim)
            worst = max(worst, float(np.abs(out.data - direct.data).max()))
        if dim == 16:
            _, plain_den = attention.linear_attention_parts(q, k, v, "elu")
            _, roped_den = attention.rope_linear_attention_parts(q, k, v, encoder, "elu")
            if not np.array_equal(roped_den, plain_den):
                return False, "rotary-linear denominator differs from plain linear"
            stats = attention.rope_weight_sign_stats(q.data, k.data, encoder)
    detail = f"regrouped vs direct {worst:.2e}, denominators bit-identical"
    if stats is not None:
        detail += f"; numerator weights < 0: {stats['negative_fraction']:.1%} (reported only)"
    return worst < 1e-10, detail


VERIFY_SUITES = [
    ("numerics tape and softmax", _suite_numerics),
    ("rotary shift invariance", _suite_shift_invariance),
    ("sparse/dense rotation equivalence", _suite_sparse_dense),
    ("complex/real 2d score equivalence", _suite_complex_real),
    ("orthogonality and norm preservation", _suite_orthogonality),
    ("long-term decay curve", _suite_decay),
    ("abel identity and bound", _suite_abel),
    ("2d derivation oracle", _suite_derivation_2d),
    ("linear attention equivalence", _suite_linear_attention),
]


def cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be >= 1, got {args.trials}")
    print(f"seed: {args.seed}")
    master = Rng(args.seed)
    results = [
        _run_suite(name, fn, master.spawn(i), dims, args.trials)
        for i, (name, fn) in enumerate(VERIFY_SUITES)
    ]
    width = max(len(name) for name, _ in VERIFY_SUITES) + 2
    failures = 0
    for name, ok, detail, elapsed in results:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{name.ljust(width)} {status}  [{elapsed:5.2f}s]  {detail}")
    print(f"{failures} of {len(results)} suites failed" if failures
          else f"all {len(results)} suites passed")
    return CHECK_EXIT if failures else 0


def _run_suite(name, fn, rng, dims, trials):
    start = time.perf_counter()
    try:
        ok, detail = fn(rng, dims, trials)
    except RopeKitError as exc:
        ok, detail = False, f"error: {exc}"
    return name, ok, detail, time.perf_counter() - start


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------


def cmd_decay(args) -> int:
    if args.dim % 2 != 0 or args.dim < 2:
        raise ConfigurationError(f"--dim must be even and >= 2, got {args.dim}")
    curve = analysis.decay_curve(args.dim, args.max_dist)
    analysis.write_decay_csv(curve, args.out)
    print(f"wrote {len(curve.values)} rows to {args.out}")
    print(f"E(0) = {curve.values[0]} (exact value (d/2+1)/2 = {(args.dim / 2 + 1) / 2})")
    if len(curve.values) >= 100:  # windowed_means reads distances 0..99
        means = analysis.windowed_means(curve)
        verdict = "strictly decreasing" if np.all(np.diff(means) < 0) else "NOT decreasing"
        print(f"windowed means (width 25): {np.round(means, 3).tolist()} -> {verdict}")
        return 0 if np.all(np.diff(means) < 0) else CHECK_EXIT
    print("windowed-decay verdict needs --max-dist >= 99; skipped")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ConfigurationError(f"--reps must be >= 1, got {args.reps}")
    if args.dim % 2 != 0 or args.dim < 2:
        raise ConfigurationError(f"--dim must be even and >= 2, got {args.dim}")
    if args.seq < 1:
        raise ConfigurationError(f"--seq must be >= 1, got {args.seq}")
    print(f"seed: {args.seed}")
    rng = Rng(args.seed)
    encoder = rotary.RotaryEncoder(args.dim)
    x = rng.normal_array((args.seq, args.dim))
    matrices = rotary.dense_rotation_matrix(encoder, np.arange(args.seq))

    def dense_pass():
        return np.einsum("tij,tj->ti", matrices, x)

    def sparse_pass():
        return rotary.apply_rotary_rows(encoder, x)

    gap = float(np.abs(dense_pass() - sparse_pass()).max())
    if gap >= 1e-12:
        print(f"FAIL: dense and sparse outputs differ by {gap:.2e}")
        return CHECK_EXIT
    dense_t = _median_time(dense_pass, args.reps)
    sparse_t = _median_time(sparse_pass, args.reps)
    print(f"outputs agree (max |diff| = {gap:.2e})")
    print(f"dense  d x d matrix apply : {dense_t * 1e3:9.3f} ms median of {args.reps}")
    print(f"sparse phase apply        : {sparse_t * 1e3:9.3f} ms median of {args.reps}")
    ratio = dense_t / sparse_t if sparse_t > 0 else float("inf")
    print(f"speedup (dense/sparse)    : {ratio:9.2f}x (reported, not asserted)")
    return 0


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


# ---------------------------------------------------------------------------
# train / compare
# ---------------------------------------------------------------------------

# The train flags and config-file keys, in flag order, with the type of
# each value. Unset keys keep the defaults of ModelConfig and TrainConfig.
TRAIN_KEYS = {
    "corpus": str, "steps": int, "batch_size": int, "lr": float, "seed": int,
    "variant": str, "attention": str, "d_model": int, "heads": int, "layers": int,
    "context": int, "precision": int, "metrics": str, "checkpoint": str,
}
TRAIN_CHOICES = {
    "variant": attention.POS_ENCODINGS, "attention": attention.VARIANTS, "precision": (32, 64),
}
TRAIN_STEPS = 500


def _load_config_file(path) -> dict:
    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in TRAIN_KEYS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigurationError(f"{path}:{lineno}: key {key!r} is given twice")
            try:
                values[key] = TRAIN_KEYS[key](value)
            except ValueError:
                raise ConfigurationError(
                    f"{path}:{lineno}: {key}={value!r} is not a valid {TRAIN_KEYS[key].__name__}"
                ) from None
            choices = TRAIN_CHOICES.get(key)
            if choices is not None and values[key] not in choices:
                raise ConfigurationError(
                    f"{path}:{lineno}: {key}={value!r} is not one of "
                    f"{', '.join(map(str, choices))}"
                )
    return values


def _given(**kwargs) -> dict:
    """The keyword arguments that are set; the others keep their defaults."""
    return {key: value for key, value in kwargs.items() if value is not None}


def cmd_train(args) -> int:
    settings = _load_config_file(args.config) if args.config else {}
    for key in TRAIN_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    if "corpus" not in settings:
        raise ConfigurationError("no corpus given (flag --corpus or config key corpus)")
    if not os.path.exists(settings["corpus"]):
        raise DataError(f"corpus file not found: {settings['corpus']}")

    get = settings.get
    model_config = ModelConfig(**_given(
        d_model=get("d_model"), heads=get("heads"), layers=get("layers"),
        context_len=get("context"), attention_variant=get("attention"),
        pos_encoding=get("variant"), precision=get("precision"),
    ))
    variant = model_config.pos_encoding
    train_config = TrainConfig(**_given(
        steps=get("steps", TRAIN_STEPS),
        corpus_path=settings["corpus"],
        metrics_path=get("metrics", f"train-{variant}.csv"),
        checkpoint_path=get("checkpoint", f"train-{variant}.ckpt"),
        batch_size=get("batch_size"), learning_rate=get("lr"), seed=get("seed"),
    ))
    print(f"seed: {train_config.seed}")
    print(f"model: {model_config}")
    model = ByteLM(model_config, Rng(train_config.seed))
    print(f"parameters: {model_config.parameter_count}")
    metrics = train(model, train_config)
    print(f"initial loss: {metrics[0][1]:.4f}")
    print(f"final loss: {metrics[-1][1]:.4f} ({metrics[-1][0]} steps)")
    print(f"metrics: {train_config.metrics_path}")
    print(f"checkpoint: {train_config.checkpoint_path}")
    return 0


def cmd_compare(args) -> int:
    comparison = compare_runs(args.metrics)
    print(format_table(comparison))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_dims(raw: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigurationError(f"--dims must be comma-separated integers, got {raw!r}")
    for dim in dims:
        if dim < 2 or dim % 2 != 0:
            raise ConfigurationError(f"--dims entries must be even and >= 2, got {dim}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rope-kit",
        description="Rotary position embedding verification and toy-LM harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--dims", default="2,4,64,128", help="comma-separated even dims")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("decay", help="emit the long-term decay curve as CSV")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--max-dist", type=int, default=250)
    p.add_argument("--out", default="decay.csv")
    p.set_defaults(fn=cmd_decay)

    p = sub.add_parser("bench", help="dense vs sparse rotation timing")
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--seq", type=int, default=512)
    p.add_argument("--reps", type=int, default=25)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", help="train the toy byte LM")
    p.add_argument("--config", help="flat key=value config file; flags override")
    for key, kind in TRAIN_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                       choices=TRAIN_CHOICES.get(key),
                       help="position encoding variant" if key == "variant" else None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", help="tabulate metrics files side by side")
    p.add_argument("metrics", nargs="+")
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return CHECK_EXIT


if __name__ == "__main__":
    sys.exit(main())
