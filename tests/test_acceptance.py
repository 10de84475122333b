"""Acceptance gate: one test per exit criterion, at its stated tolerance.

Each test prints a `[criterion NN] PASS` line (visible with `pytest -s`);
a failing criterion shows up as the test's own failure. Criterion 11 is
a reported artifact by design: its tables are emitted, not judged.
"""

import time

import numpy as np
import pytest

from rope_kit.analysis import abel_identity_check, decay_curve, derivation_oracle_2d, windowed_means
from rope_kit.attention import (
    linear_attention_parts,
    rope_linear_attention_parts,
    similarity_attention,
)
from rope_kit.harness import (
    ByteLM,
    ModelConfig,
    TrainConfig,
    compare_runs,
    format_table,
    load_checkpoint,
    resume,
    train,
)
from rope_kit.numerics import Rng, Tensor, grad_check
from rope_kit.rotary import (
    RotaryEncoder,
    apply_rotary,
    complex_rope_score_2d,
    dense_rotation_matrix,
    rope_score,
)

SEED = 42


def report(number: int, detail: str) -> None:
    print(f"[criterion {number:02d}] PASS: {detail}")


def test_criterion_01_shift_invariance():
    start = time.perf_counter()
    rng = Rng(SEED)
    worst = 0.0
    for dim in (2, 4, 64, 128):
        encoder = RotaryEncoder(dim)
        for _ in range(1000):
            q = rng.normal_array((dim,))
            k = rng.normal_array((dim,))
            m, n, s = rng.randint(513), rng.randint(513), rng.randint(513)
            gap = abs(rope_score(q, k, m, n, encoder)
                      - rope_score(q, k, m + s, n + s, encoder))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(1, f"4000 draws, max shift residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_sparse_dense_equivalence():
    start = time.perf_counter()
    rng = Rng(SEED + 1)
    worst = 0.0
    positions = sorted({0, 1, 2, 3, 5, 8, 13, 512, 1024} | {rng.randint(1025) for _ in range(40)})
    for dim in (2, 4, 8, 16, 32, 64, 128, 256):
        encoder = RotaryEncoder(dim)
        for m in positions:
            x = rng.normal_array((dim,))
            dense = dense_rotation_matrix(encoder, m) @ x
            sparse = apply_rotary(encoder, x, m)
            worst = max(worst, float(np.abs(dense - sparse).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 10.0
    report(2, f"dims <= 256, positions <= 1024, max |dense - sparse| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_complex_real_equivalence():
    rng = Rng(SEED + 2)
    encoder = RotaryEncoder(2)
    theta = float(encoder.thetas[0])
    worst = 0.0
    for _ in range(1000):
        q, k = rng.normal_array((2,)), rng.normal_array((2,))
        m, n = rng.randint(513), rng.randint(513)
        real = rope_score(q, k, m, n, encoder)
        cplx = complex_rope_score_2d(q, k, m, n, theta)
        worst = max(worst, abs(real - cplx))
    assert worst < 1e-12
    report(3, f"1000 2-d draws, max |complex - real| {worst:.2e}")


def test_criterion_04_orthogonality_and_norm():
    rng = Rng(SEED + 3)
    worst_norm = 0.0
    worst_rel = 0.0
    for dim in (2, 4, 64, 128):
        encoder = RotaryEncoder(dim)
        for _ in range(100):
            x = rng.normal_array((dim,))
            m = rng.randint(513)
            n = m + rng.randint(513)
            rotated = apply_rotary(encoder, x, m)
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(rotated) - np.linalg.norm(x))))
            composed = dense_rotation_matrix(encoder, m).T @ dense_rotation_matrix(encoder, n)
            worst_rel = max(
                worst_rel,
                float(np.abs(composed - dense_rotation_matrix(encoder, n - m)).max()),
            )
    assert worst_norm < 1e-12
    assert worst_rel < 1e-12
    report(4, f"norm drift {worst_norm:.2e}, R_m^T R_n vs R_(n-m) {worst_rel:.2e}")


def test_criterion_05_decay_curve():
    start = time.perf_counter()
    assert decay_curve(4, 0).values[0] == 1.5
    curve = decay_curve(128, 250)
    assert curve.values[0] == 32.5  # (d/2 + 1) / 2 exactly
    means = windowed_means(curve)
    assert (np.diff(means) < 0).all()
    tail = float(curve.values[225:251].mean())
    assert tail < 0.25 * curve.values[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"E(0)=32.5 exact, windows {np.round(means, 2).tolist()} decreasing, "
              f"tail {tail:.3f} < 8.125, {elapsed:.3f}s")


def test_criterion_06_abel_identity_and_bound():
    result = abel_identity_check(Rng(SEED + 4), trials=1000, dims=(4, 64, 128))
    assert result.max_identity_residual < 1e-10
    assert result.bound_violations == 0
    assert result.max_score_residual < 1e-10
    report(6, f"{result.trials} draws, identity residual {result.max_identity_residual:.2e}, "
              f"0 bound violations, score residual {result.max_score_residual:.2e}")


def test_criterion_07_derivation_oracle_2d():
    result = derivation_oracle_2d(Rng(SEED + 5), trials=1000)
    assert result.max_initial_residual < 1e-12
    assert result.max_radial_residual < 1e-12
    assert result.max_angular_residual < 1e-10
    assert result.max_relative_residual < 1e-10
    report(7, f"1000 draws: initial {result.max_initial_residual:.1e}, "
              f"radial {result.max_radial_residual:.1e}, angular {result.max_angular_residual:.1e}, "
              f"relative {result.max_relative_residual:.1e}")


def test_criterion_08_linear_attention_equivalence():
    rng = Rng(SEED + 6)

    def elu1(x):
        return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))

    def softmax_vec(x):
        e = np.exp(x - x.max())
        return e / e.sum()

    sims = {
        "elu": lambda q_m, k: elu1(k) @ elu1(q_m),
        "softmax-exp": lambda q_m, k: np.exp(k) @ softmax_vec(q_m),
    }
    worst = 0.0
    for seq, dim in ((4, 4), (16, 16), (64, 32), (64, 64)):
        q = Tensor(rng.normal_array((seq, dim)))
        k = Tensor(rng.normal_array((seq, dim)))
        v = Tensor(rng.normal_array((seq, dim)))
        for name, sim in sims.items():
            fast = linear_attention_parts(q, k, v, name)
            direct = similarity_attention(q.data, k.data, v.data, sim)
            worst = max(worst, float(np.abs(fast.output.data - direct.data).max()))
        if dim % 2 == 0:
            encoder = RotaryEncoder(dim)
            for causal in (False, True):
                plain = linear_attention_parts(q, k, v, "elu", causal=causal)
                roped = rope_linear_attention_parts(q, k, v, encoder, "elu", causal=causal)
                assert np.array_equal(roped.denominator, plain.denominator)
    assert worst < 1e-10
    report(8, f"regrouped vs direct {worst:.2e} (seq <= 64); "
              f"rotary-linear denominators bit-identical to plain")


def test_criterion_09_full_model_gradient():
    start = time.perf_counter()
    config = ModelConfig(d_model=16, heads=2, layers=1, context_len=8,
                         pos_encoding="rope", precision=64)
    model = ByteLM(config, Rng(SEED + 7))
    data_rng = Rng(SEED + 8)
    x = np.array([[data_rng.randint(256) for _ in range(8)] for _ in range(2)])
    y = np.array([[data_rng.randint(256) for _ in range(8)] for _ in range(2)])
    err = grad_check(lambda: model.loss(x, y), model.params, Rng(SEED + 9), samples=60)
    elapsed = time.perf_counter() - start
    assert err < 1e-4
    assert elapsed < 60.0
    report(9, f"toy-model grad check {err:.2e} over 60 sampled entries, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Training criteria share one set of runs (they are the expensive part).
# ---------------------------------------------------------------------------

RUN_MODEL = dict(d_model=32, heads=2, layers=2, context_len=64, precision=32)
RUN_STEPS = 500
LINEAR_STEPS = 300
POS_VARIANTS = ("rope", "sinusoidal", "learned", "shaw", "none")


@pytest.fixture(scope="module")
def training_runs(megabyte_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-runs")
    runs = {}
    start = time.perf_counter()
    for variant in POS_VARIANTS:
        config = TrainConfig(
            steps=RUN_STEPS, batch_size=8, learning_rate=1e-3, seed=SEED,
            corpus_path=str(megabyte_corpus),
            metrics_path=str(out / f"{variant}.csv"),
            checkpoint_path=str(out / f"{variant}.ckpt"),
        )
        metrics = train(ByteLM(ModelConfig(pos_encoding=variant, **RUN_MODEL), Rng(SEED)), config)
        runs[variant] = (config, metrics)
    for attention, tag in (("linear-elu", "performer-rope"), ("linear-elu", "performer")):
        pos = "rope" if tag == "performer-rope" else "none"
        config = TrainConfig(
            steps=LINEAR_STEPS, batch_size=8, learning_rate=1e-3, seed=SEED,
            corpus_path=str(megabyte_corpus),
            metrics_path=str(out / f"{tag}.csv"),
            checkpoint_path=str(out / f"{tag}.ckpt"),
        )
        model_config = ModelConfig(pos_encoding=pos, attention_variant=attention, **RUN_MODEL)
        metrics = train(ByteLM(model_config, Rng(SEED)), config)
        runs[tag] = (config, metrics)
    return {"dir": out, "runs": runs, "elapsed": time.perf_counter() - start}


def test_criterion_10_training_plumbing(training_runs, megabyte_corpus, tmp_path):
    start = time.perf_counter()
    runs = training_runs["runs"]
    ratios = {}
    for variant in POS_VARIANTS:
        _, metrics = runs[variant]
        assert len(metrics) == RUN_STEPS
        first, last = metrics[0][1], metrics[-1][1]
        ratios[variant] = last / first
        assert last <= 0.7 * first, f"{variant}: {last:.3f} vs 0.7 * {first:.3f}"

    # bit-determinism: identical seed and config reproduce the artifacts
    base_config, _ = runs["rope"]
    redo = TrainConfig(
        steps=RUN_STEPS, batch_size=8, learning_rate=1e-3, seed=SEED,
        corpus_path=str(megabyte_corpus),
        metrics_path=str(tmp_path / "rope-redo.csv"),
        checkpoint_path=str(tmp_path / "rope-redo.ckpt"),
    )
    train(ByteLM(ModelConfig(pos_encoding="rope", **RUN_MODEL), Rng(SEED)), redo)
    assert (open(redo.metrics_path, "rb").read()
            == open(base_config.metrics_path, "rb").read())
    assert (open(redo.checkpoint_path, "rb").read()
            == open(base_config.checkpoint_path, "rb").read())

    # checkpoint resume is bit-exact against the uninterrupted run
    half = TrainConfig(
        steps=RUN_STEPS // 2, batch_size=8, learning_rate=1e-3, seed=SEED,
        corpus_path=str(megabyte_corpus),
        metrics_path=str(tmp_path / "rope-half.csv"),
        checkpoint_path=str(tmp_path / "rope-half.ckpt"),
    )
    train(ByteLM(ModelConfig(pos_encoding="rope", **RUN_MODEL), Rng(SEED)), half)
    rest = TrainConfig(
        steps=RUN_STEPS, batch_size=8, learning_rate=1e-3, seed=SEED,
        corpus_path=str(megabyte_corpus),
        metrics_path=str(tmp_path / "rope-rest.csv"),
        checkpoint_path=str(tmp_path / "rope-rest.ckpt"),
    )
    resume(half.checkpoint_path, rest)
    assert (open(rest.checkpoint_path, "rb").read()
            == open(base_config.checkpoint_path, "rb").read())
    resumed_model, _, _, step = load_checkpoint(rest.checkpoint_path)
    straight_model, _, _, _ = load_checkpoint(base_config.checkpoint_path)
    assert step == RUN_STEPS
    for a, b in zip(resumed_model.params, straight_model.params):
        assert np.array_equal(a.data, b.data)

    total = training_runs["elapsed"] + (time.perf_counter() - start)
    assert total < 600.0
    summary = ", ".join(f"{v}={ratios[v]:.2f}" for v in POS_VARIANTS)
    report(10, f"loss ratios ({summary}) all <= 0.70; reruns and resume bit-exact; "
               f"{total:.0f}s total")


def test_criterion_11_convergence_comparison(training_runs):
    runs = training_runs["runs"]
    baseline_files = [runs[v][0].metrics_path for v in POS_VARIANTS]
    table = compare_runs(baseline_files)
    assert set(table.names) == set(POS_VARIANTS)
    assert all(np.isfinite(list(table.auc.values())))
    print("\n-- position-encoding comparison (softmax attention, reported) --")
    print(format_table(table))

    performer_files = [runs["performer-rope"][0].metrics_path,
                       runs["performer"][0].metrics_path]
    performer_table = compare_runs(performer_files)
    assert set(performer_table.names) == {"performer-rope", "performer"}
    print("\n-- rotary-vs-plain linear attention (reported) --")
    print(format_table(performer_table))
    report(11, f"emitted both tables; lowest-AUC flags: {table.best} / {performer_table.best}")
