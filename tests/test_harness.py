"""Model construction, training determinism, checkpoints, comparisons."""

import math
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
import types

import importlib
import io

import numpy as np
import pytest

import rope_kit
from rope_kit.errors import ConfigurationError, DataError, NumericError
from rope_kit.harness import (
    AdamState,
    ByteLM,
    ModelConfig,
    TrainConfig,
    compare_runs,
    format_table,
    load_checkpoint,
    load_corpus,
    read_metrics,
    resume,
    save_checkpoint,
    train,
)
from rope_kit.harness.model import SHAW_CLIP_RADIUS
from rope_kit.harness.train import Corpus
from rope_kit.numerics import Parameter, Rng, grad_check

checkpoint_module = importlib.import_module("rope_kit.harness.checkpoint")
train_module = importlib.import_module("rope_kit.harness.train")
numerics_module = importlib.import_module("rope_kit.numerics")

HEAD = len(checkpoint_module.MAGIC) + 4 + 3 * 8  # magic, version, step, seed, state
TINY = dict(d_model=16, heads=2, layers=1, context_len=8, precision=64)


def tiny_config(**overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return ModelConfig(**merged)


def train_new(model_config, config):
    """Train a model built from the run's own seed."""
    return train(ByteLM(model_config, Rng(config.seed)), config)


def run_config(tmp_path, corpus, tag, **overrides):
    settings = dict(
        steps=8, batch_size=4, learning_rate=1e-3, seed=42,
        corpus_path=str(corpus),
        metrics_path=str(tmp_path / f"{tag}.csv"),
        checkpoint_path=str(tmp_path / f"{tag}.ckpt"),
    )
    settings.update(overrides)
    return TrainConfig(**settings)


class TestLoadCorpus:
    def test_eight_two_prefix_split(self, tmp_path):
        path = tmp_path / "ten.bin"
        path.write_bytes(bytes(range(10)))
        corpus = load_corpus(path)
        assert len(corpus.train) == 8
        assert len(corpus.validation) == 2
        np.testing.assert_array_equal(corpus.train, np.arange(8))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "absent.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        with pytest.raises(DataError):
            load_corpus(path)


class TestModelConfig:
    def test_head_dim_division(self):
        assert ModelConfig(d_model=64, heads=4).head_dim == 16

    def test_odd_head_dim_with_rope_rejected(self):
        with pytest.raises(ConfigurationError, match="needs an even head_dim, got 21"):
            ModelConfig(d_model=63, heads=3, pos_encoding="rope")

    def test_odd_d_model_with_sinusoidal_rejected(self):
        with pytest.raises(ConfigurationError, match="needs an even d_model, got 15"):
            ModelConfig(d_model=15, heads=3, pos_encoding="sinusoidal")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attention variant 'quadratic'"):
            ModelConfig(attention_variant="quadratic")

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown position encoding 'alibi'"):
            ModelConfig(pos_encoding="alibi")

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(d_model=62, heads=4)

    def test_shaw_requires_softmax(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(pos_encoding="shaw", attention_variant="linear-elu")

    def test_text_roundtrip(self):
        config = tiny_config(pos_encoding="shaw")
        assert ModelConfig.from_text(config.to_text()) == config

    @pytest.mark.parametrize("vocab", [100, 2, 257])
    def test_vocab_other_than_bytes_rejected(self, vocab):
        # The model reads raw bytes: a smaller table would fail at the
        # first byte it cannot look up, outside the error model.
        with pytest.raises(ConfigurationError, match="vocab must be 256"):
            ModelConfig(vocab=vocab)
        assert "vocab=256\n" in ModelConfig().to_text()


class TestBuildModel:
    @pytest.mark.parametrize("pos_encoding", ["rope", "learned", "shaw"])
    def test_same_seed_same_parameters(self, pos_encoding):
        a = ByteLM(tiny_config(pos_encoding=pos_encoding), Rng(7))
        b = ByteLM(tiny_config(pos_encoding=pos_encoding), Rng(7))
        for pa, pb in zip(a.params, b.params):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_parameter_names_in_checkpoint_order(self):
        learned = ByteLM(tiny_config(layers=2, pos_encoding="learned"), Rng(7))
        assert [p.name for p in learned.params] == [
            "wte", "pos_learned",
            "layer0.attn_norm", "layer0.wq", "layer0.wk", "layer0.wv", "layer0.wo",
            "layer0.ffn_norm", "layer0.w1", "layer0.w2",
            "layer1.attn_norm", "layer1.wq", "layer1.wk", "layer1.wv", "layer1.wo",
            "layer1.ffn_norm", "layer1.w1", "layer1.w2",
            "final_norm", "lm_head",
        ]
        shaw = ByteLM(tiny_config(pos_encoding="shaw"), Rng(7))
        assert [p.name for p in shaw.params] == [
            "wte", "pos_shaw",
            "layer0.attn_norm", "layer0.wq", "layer0.wk", "layer0.wv", "layer0.wo",
            "layer0.ffn_norm", "layer0.w1", "layer0.w2",
            "final_norm", "lm_head",
        ]

    def test_different_seed_differs(self):
        a = ByteLM(tiny_config(), Rng(7))
        b = ByteLM(tiny_config(), Rng(8))
        assert not np.array_equal(a.params[0].data, b.params[0].data)

    @pytest.mark.parametrize("precision", [32, 64])
    @pytest.mark.parametrize("pos_encoding", ["rope", "sinusoidal", "learned", "shaw", "none"])
    def test_parameter_count_from_config(self, pos_encoding, precision):
        config = tiny_config(layers=2, pos_encoding=pos_encoding, precision=precision)
        model = ByteLM(config, Rng(0))
        assert config.parameter_count == sum(p.data.size for p in model.params) > 0

    @pytest.mark.parametrize("pos_encoding", ["rope", "sinusoidal", "learned", "shaw", "none"])
    def test_initial_loss_near_uniform(self, pos_encoding):
        model = ByteLM(tiny_config(pos_encoding=pos_encoding), Rng(1))
        rng = Rng(2)
        x = np.array([[rng.randint(256) for _ in range(8)] for _ in range(4)])
        y = np.array([[rng.randint(256) for _ in range(8)] for _ in range(4)])
        loss = model.loss(x, y).item()
        assert abs(loss - math.log(256.0)) < 0.1

    @pytest.mark.parametrize("variant,pos_encoding", [
        ("softmax", "rope"),
        ("softmax", "shaw"),
        ("linear-elu", "rope"),
        ("linear-elu", "none"),
        ("linear-softmax", "rope"),
        ("linear-softmax", "sinusoidal"),
    ])
    def test_full_model_gradients(self, variant, pos_encoding):
        model = ByteLM(
            tiny_config(attention_variant=variant, pos_encoding=pos_encoding), Rng(3)
        )
        rng = Rng(4)
        x = np.array([[rng.randint(256) for _ in range(8)] for _ in range(2)])
        y = np.array([[rng.randint(256) for _ in range(8)] for _ in range(2)])
        err = grad_check(lambda: model.loss(x, y), model.params, Rng(5), samples=12)
        assert err < 1e-4


    def test_shaw_gradient_across_query_blocks(self):
        # Context 131 spans three 64-row query blocks of softmax attention.
        model = ByteLM(tiny_config(pos_encoding="shaw", context_len=131), Rng(7))
        tokens = Rng(8).randint_array(256, 132)[None, :]
        err = grad_check(lambda: model.loss(tokens[:, :-1], tokens[:, 1:]),
                         model.params, Rng(9), samples=60)
        assert err < 1e-6

    @pytest.mark.parametrize("precision", [32, 64])
    def test_every_shaw_row_is_trained(self, precision):
        # pos_shaw holds only the offsets a causal model scores, 0..16:
        # every row gets a gradient on the first batch.
        config = tiny_config(pos_encoding="shaw", context_len=64, precision=precision)
        model = ByteLM(config, Rng(12))
        tokens = Rng(13).randint_array(256, 65)[None, :]
        model.loss(tokens[:, :-1], tokens[:, 1:]).backward()
        gradient = model.by_name["pos_shaw"].gradient
        assert gradient.shape == (SHAW_CLIP_RADIUS + 1, config.head_dim)
        assert np.abs(gradient).max(axis=1).all()

    @pytest.mark.parametrize("precision", [32, 64])
    @pytest.mark.parametrize("pos_encoding", ["rope", "sinusoidal", "learned", "shaw", "none"])
    def test_short_sequence_matches_shorter_context(self, pos_encoding, precision):
        # An 8-token batch scores the same under context 16 as under
        # context 8: loss and every gradient agree bit for bit.
        long = ByteLM(tiny_config(context_len=16, pos_encoding=pos_encoding,
                                  precision=precision), Rng(21))
        short = ByteLM(tiny_config(context_len=8, pos_encoding=pos_encoding,
                                   precision=precision), Rng(21))
        if pos_encoding == "learned":
            # Its table has one row per position of the context, so the
            # two models draw different parameters from one seed.
            for p in short.params:
                p.data[...] = long.by_name[p.name].data[:len(p.data)]
        for p in short.params:
            assert p.data.tobytes() == long.by_name[p.name].data[:len(p.data)].tobytes()
        tokens = Rng(22).randint_array(256, 2 * 9).reshape(2, 9)
        losses = []
        for model in (long, short):
            loss = model.loss(tokens[:, :-1], tokens[:, 1:])
            loss.backward()
            losses.append(loss.data)
        assert losses[0].tobytes() == losses[1].tobytes()
        for p in short.params:
            grad = long.by_name[p.name].gradient
            assert grad[:len(p.data)].tobytes() == p.gradient.tobytes(), p.name
            assert not grad[len(p.data):].any(), p.name

    def test_token_blocks_must_be_integers(self):
        # uint8 corpus batches score as their int64 values; float tokens are
        # refused, not truncated.
        model = ByteLM(tiny_config(), Rng(25))
        tokens = Rng(26).randint_array(256, 2 * 9).reshape(2, 9)
        x, y = tokens[:, :-1], tokens[:, 1:]
        as_bytes = model.loss(x.astype(np.uint8), y.astype(np.uint8))
        assert as_bytes.data.tobytes() == model.loss(x, y).data.tobytes()
        with pytest.raises(DataError, match="take_rows: ids must be integers"):
            model.loss(x + 0.5, y)
        with pytest.raises(DataError, match="cross_entropy: ids must be integers"):
            model.loss(x, y.astype(np.float64))

    def test_non_finite_gradient_outside_training_names_its_op(self, monkeypatch):
        # Outside training every gradient is checked as the tape hands it
        # on: a NaN from the GELU backward stops the backward at the ffn.
        monkeypatch.setattr(numerics_module, "_gelu_backward",
                            lambda g, u, t: np.full_like(u, np.nan))
        model = ByteLM(tiny_config(), Rng(27))
        tokens = Rng(28).randint_array(256, 2 * 9).reshape(2, 9)
        loss = model.loss(tokens[:, :-1], tokens[:, 1:])
        with pytest.raises(NumericError, match="^ffn backward produced non-finite values$"):
            loss.backward()

    @pytest.mark.parametrize("pos_encoding", ["rope", "sinusoidal", "learned", "shaw", "none"])
    def test_sequence_beyond_context_rejected(self, pos_encoding):
        # A learned table has no row past the context; the others are
        # held to the same limit.
        model = ByteLM(tiny_config(pos_encoding=pos_encoding), Rng(23))
        tokens = Rng(24).randint_array(256, 2 * 10).reshape(2, 10)
        with pytest.raises(ConfigurationError, match="sequence 9 exceeds context 8"):
            model.loss(tokens[:, :-1], tokens[:, 1:])

    def test_shaw_memory_peak_matches_no_bias(self):
        # The clipped relative bias adds a (seq, 16) band per head,
        # never a (seq, seq) array: at ctx512 its loss and backward peak
        # within 1 MB of the same model without a position encoding.
        rng = Rng(10)
        tokens = np.array([rng.randint(256) for _ in range(513)])[None, :]

        def peak(pos_encoding):
            config = ModelConfig(d_model=64, heads=2, layers=2, context_len=512,
                                 pos_encoding=pos_encoding)
            model = ByteLM(config, Rng(11))
            tracemalloc.start()
            try:
                model.loss(tokens[:, :-1], tokens[:, 1:]).backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak("shaw") < peak("none") + 2**20


def tape_ops(loss) -> int:
    """Number of op nodes on the tape that ends in ``loss``."""
    seen, stack, ops = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += bool(node._parents)
            stack.extend(node._parents)
    return ops


# Tape ops of one two-layer ByteLM.loss. Each layer is 9 ops (two
# rmsnorms, three head-split projections, one head-merge projection, the
# ffn, two residual adds) plus its attention ops: 1 for softmax attention
# (+1 Shaw bias), 3 for linear attention (two feature maps and the core),
# +2 rotations for rope. Around the layers: the embedding gather, the
# position add for sinusoidal (+1) or learned (+2, its rows are a tape op
# too), the final rmsnorm, the output projection and the loss.
TAPE_OPS = {
    ("softmax", "rope"): 28, ("softmax", "sinusoidal"): 25, ("softmax", "learned"): 26,
    ("softmax", "shaw"): 26, ("softmax", "none"): 24,
    ("linear-elu", "rope"): 32, ("linear-elu", "sinusoidal"): 29,
    ("linear-elu", "learned"): 30, ("linear-elu", "none"): 28,
    ("linear-softmax", "rope"): 32, ("linear-softmax", "sinusoidal"): 29,
    ("linear-softmax", "learned"): 30, ("linear-softmax", "none"): 28,
}


@pytest.mark.parametrize("variant,pos_encoding", sorted(TAPE_OPS))
def test_tape_ops_per_loss(variant, pos_encoding):
    model = ByteLM(tiny_config(layers=2, attention_variant=variant,
                               pos_encoding=pos_encoding), Rng(6))
    tokens = np.arange(36).reshape(4, 9) * 7 % 256
    loss = model.loss(tokens[:, :-1], tokens[:, 1:])
    assert tape_ops(loss) <= TAPE_OPS[variant, pos_encoding]


def model_with_gradients(grads):
    """A stand-in model whose parameters hold ``grads`` (None: no gradient)."""
    params = []
    for i, g in enumerate(grads):
        p = Parameter(f"p{i}", np.zeros(1 if g is None else g.shape))
        p.grad = g
        params.append(p)
    return types.SimpleNamespace(params=params)


class TestGradientNorm:
    """A step is accepted when its loss and each gradient are finite."""

    def test_overflowing_norm_of_finite_gradients_passes_the_step(self, monkeypatch):
        # 1e200 squared overflows a float64 sum of squares, but every value is finite
        grads = [np.array([1.0, 1e200]), None]
        monkeypatch.setattr(train_module, "_loss_and_gradients", lambda model, x, y: 1.5)
        assert train_module._checked_step(model_with_gradients(grads), None, None, 7) == 1.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_acceptance_table(self, dtype, monkeypatch):
        # A step is accepted exactly when its loss and every gradient
        # that is not None are finite; float64 alone also holds 1e200,
        # whose square overflows any sum of squares.
        sizes = [(256, 32), (37,), (64, 128)]
        cases = [("finite", 1.5, sizes, None, None, True),
                 ("with-none", 1.5, [None, sizes[0], None, sizes[1], None], None, None, True)]
        cases += [(f"{bad}-at-{index}", 1.5, sizes, index, bad, False)
                  for index in (0, 1, 2) for bad in (np.nan, np.inf, -np.inf)]
        cases += [(f"loss-{loss}", loss, sizes, None, None, False)
                  for loss in (np.nan, np.inf, -np.inf)]
        if dtype == np.float64:
            cases.append(("1e200", 1.5, [(4,), (37,)], 1, 1e200, True))
        for name, loss, sizes, index, value, passes in cases:
            rng = Rng(76)
            grads = [None if s is None else rng.normal_array(s).astype(dtype) for s in sizes]
            if index is not None:
                grads[index].flat[grads[index].size // 2] = value
            monkeypatch.setattr(train_module, "_loss_and_gradients",
                                lambda model, x, y, loss=loss: loss)
            model = model_with_gradients(grads)
            if passes:
                assert train_module._checked_step(model, None, None, 7) == loss, name
            else:
                with pytest.raises(NumericError, match=r"^step 7: the loss or "):
                    train_module._checked_step(model, None, None, 7)

    def test_non_finite_gradient_still_stops_the_step(self, monkeypatch):
        grads = [np.array([1e200, np.inf])]
        monkeypatch.setattr(train_module, "_loss_and_gradients", lambda model, x, y: 1.5)
        with pytest.raises(NumericError, match=r"^step 7: the loss or a gradient is not finite"):
            train_module._checked_step(model_with_gradients(grads), None, None, 7)


def test_sample_batch_is_slices_of_the_corpus():
    corpus = Corpus(train=Rng(75).randint_array(256, 1000).astype(np.uint8), validation=None)
    x, y = train_module._sample_batch(corpus, Rng(74), 8, 64)
    starts = Rng(74).randint_array(len(corpus.train) - 64, 8)
    assert x.dtype == y.dtype == np.uint8 and x.shape == y.shape == (8, 64)
    np.testing.assert_array_equal(x, np.stack([corpus.train[s:s + 64] for s in starts]))
    np.testing.assert_array_equal(y, np.stack([corpus.train[s + 1:s + 65] for s in starts]))


class TestTraining:
    def test_steps_zero_rejected(self, tmp_path, small_corpus):
        with pytest.raises(ConfigurationError):
            run_config(tmp_path, small_corpus, "zero", steps=0)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, tmp_path, small_corpus, lr):
        # nan <= 0 is false, so a sign test alone lets nan through
        with pytest.raises(ConfigurationError, match="learning_rate"):
            run_config(tmp_path, small_corpus, "lr", learning_rate=lr)

    def test_corpus_shorter_than_context_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_bytes(b"abcdefgh")
        config = run_config(tmp_path, path, "short")
        with pytest.raises(DataError):
            train_new(tiny_config(context_len=16), config)

    def test_metrics_file_format(self, tmp_path, small_corpus):
        config = run_config(tmp_path, small_corpus, "fmt")
        metrics = train_new(tiny_config(precision=32), config)
        lines = open(config.metrics_path).read().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == len(metrics) + 1 == 9
        steps, losses = read_metrics(config.metrics_path)
        np.testing.assert_array_equal(steps, np.arange(1, 9))
        assert losses[0] == metrics[0][1]

    def test_bit_identical_reruns(self, tmp_path, small_corpus):
        a = run_config(tmp_path, small_corpus, "rerun-a")
        b = run_config(tmp_path, small_corpus, "rerun-b")
        train_new(tiny_config(precision=32), a)
        train_new(tiny_config(precision=32), b)
        assert open(a.metrics_path, "rb").read() == open(b.metrics_path, "rb").read()
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()

    def test_repeated_byte_corpus_collapses_loss(self, tmp_path):
        path = tmp_path / "aaaa.txt"
        path.write_bytes(b"a" * 4000)
        config = run_config(tmp_path, path, "degenerate", steps=60,
                            learning_rate=5e-3, batch_size=4)
        metrics = train_new(tiny_config(precision=32), config)
        assert metrics[-1][1] < 0.1 * metrics[0][1]
        assert metrics[-1][1] < 0.5

    @pytest.mark.filterwarnings("ignore:overflow")  # the overflow IS the scenario
    @pytest.mark.parametrize("variant, op", [
        ("softmax", "softmax_attention scores"),
        ("linear-elu", "linear_attention (numerator|denominator)"),
    ], ids=["softmax", "linear-elu"])
    def test_divergence_aborts_keeping_metrics(self, tmp_path, small_corpus, variant, op):
        config = run_config(tmp_path, small_corpus, "diverge",
                            steps=30, learning_rate=1e18)
        message = rf"^step \d+: {op} produced non-finite values$"
        with pytest.raises(NumericError, match=message) as err:
            train_new(tiny_config(precision=32, attention_variant=variant), config)
        assert isinstance(err.value.__cause__, NumericError)
        lines = open(config.metrics_path).read().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) >= 2  # at least one completed step survived
        assert not os.path.exists(config.checkpoint_path)

    def test_non_finite_gradient_names_its_step_and_op(self, tmp_path, small_corpus,
                                                        monkeypatch):
        # From step 3 on, the FFN's GELU gradient is NaN. The step stops
        # with the op that made it, before Adam reads it: the parameters
        # and Adam moments are those after step 2, and steps 1-2 stay in
        # the metrics file.
        after = {}

        def recording_adam_step(model, state, lr):
            adam_step(model, state, lr)
            after.update(step=state.step, params=[p.data.copy() for p in model.params],
                         m={k: a.copy() for k, a in state.m.items()},
                         v={k: a.copy() for k, a in state.v.items()}, model=model, adam=state)

        def poisoned_gelu_backward(g, u, t):
            out = gelu_backward(g, u, t)
            if after.get("step", 0) >= 2:
                out[...] = np.nan
            return out

        adam_step = train_module.adam_step
        gelu_backward = numerics_module._gelu_backward
        monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
        monkeypatch.setattr(numerics_module, "_gelu_backward", poisoned_gelu_backward)
        config = run_config(tmp_path, small_corpus, "nan-grad", steps=6)
        with pytest.raises(NumericError,
                           match=r"^step 3: ffn backward produced non-finite values$") as err:
            train_new(tiny_config(precision=32), config)
        assert isinstance(err.value.__cause__, NumericError)
        model, adam = after["model"], after["adam"]
        assert adam.step == 2
        for p, before in zip(model.params, after["params"]):
            assert p.data.tobytes() == before.tobytes(), p.name
            assert adam.m[p.name].tobytes() == after["m"][p.name].tobytes(), p.name
            assert adam.v[p.name].tobytes() == after["v"][p.name].tobytes(), p.name
        steps, _ = read_metrics(config.metrics_path)
        np.testing.assert_array_equal(steps, [1, 2])
        assert not os.path.exists(config.checkpoint_path)

    def test_unnamed_non_finite_loss_still_stops_the_step(self, tmp_path, small_corpus,
                                                          monkeypatch):
        # A non-finite value that no op check sees (here a loss that the
        # unchecked pass reads as inf) still stops the step before Adam.
        calls = []
        monkeypatch.setattr(train_module, "adam_step", lambda *args: calls.append(args))
        monkeypatch.setattr(train_module, "_loss_and_gradients",
                            lambda model, x, y: math.inf)
        config = run_config(tmp_path, small_corpus, "inf-loss", steps=3)
        with pytest.raises(NumericError, match=r"^step 1: the loss or a gradient is not finite"):
            train_new(tiny_config(precision=32), config)
        assert calls == []


# Three 10-step ctx64 training calls in one process; prints each call's
# minor page faults.
FAULT_PROBE = """
import resource, sys
from rope_kit.harness import ByteLM, ModelConfig, TrainConfig, train
from rope_kit.numerics import Rng
corpus, out = sys.argv[1:]
for call in range(3):
    model = ByteLM(ModelConfig(d_model=32, heads=2, layers=2, context_len=64), Rng(call))
    config = TrainConfig(steps=10, corpus_path=corpus, metrics_path=f"{out}/{call}.csv",
                         checkpoint_path=f"{out}/{call}.ckpt", batch_size=8, seed=call)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, config)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are glibc's")
def test_training_reuses_freed_memory(tmp_path, small_corpus):
    # With glibc's default thresholds every step mmaps some of its arrays
    # afresh or trims them off the heap, and the second call took about
    # 5 000 minor faults. Training keeps them in the heap, so a call after
    # the first faults almost no pages in.
    src = os.path.dirname(os.path.dirname(rope_kit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(small_corpus), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    faults = [int(line) for line in done.stdout.split()]
    assert len(faults) == 3
    assert faults[1] < 500 and faults[2] < 500, faults


@pytest.mark.parametrize("precision", [32, 64])
def test_adam_step_matches_textbook_update_bitwise(precision):
    # In-place moments and one step buffer, with the rounding of the
    # textbook expressions, over 5 steps of gradients from 1e-2 to 1e2.
    config = tiny_config(precision=precision)
    fast, plain = ByteLM(config, Rng(60)), ByteLM(config, Rng(60))
    fast_state, plain_state = AdamState(fast), AdamState(plain)
    rng = Rng(61)
    lr = 3e-3
    for t in range(1, 6):
        for a, b in zip(fast.params, plain.params):
            a.grad = rng.normal_array(a.shape, scale=10.0 ** (t - 3)).astype(a.dtype)
            b.grad = a.grad.copy()
        train_module.adam_step(fast, fast_state, lr)
        for p in plain.params:
            g, m, v = p.gradient, plain_state.m[p.name], plain_state.v[p.name]
            m[:] = train_module.ADAM_BETA1 * m + (1.0 - train_module.ADAM_BETA1) * g
            v[:] = train_module.ADAM_BETA2 * v + (1.0 - train_module.ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - train_module.ADAM_BETA1**t)
            v_hat = v / (1.0 - train_module.ADAM_BETA2**t)
            p.data[...] -= (lr * m_hat / (np.sqrt(v_hat) + train_module.ADAM_EPS)
                            ).astype(p.data.dtype, copy=False)
    assert fast_state.step == 5
    for a, b in zip(fast.params, plain.params):
        assert a.data.tobytes() == b.data.tobytes(), a.name
        assert fast_state.m[a.name].tobytes() == plain_state.m[a.name].tobytes(), a.name
        assert fast_state.v[a.name].tobytes() == plain_state.v[a.name].tobytes(), a.name


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, small_corpus):
        config = run_config(tmp_path, small_corpus, "round")
        train_new(tiny_config(precision=32), config)
        model, adam, rng, step = load_checkpoint(config.checkpoint_path)
        assert step == 8
        assert model.config == tiny_config(precision=32)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, model, adam, rng)
        assert open(config.checkpoint_path, "rb").read() == open(again, "rb").read()

    def test_resume_matches_uninterrupted_run(self, tmp_path, small_corpus):
        full = run_config(tmp_path, small_corpus, "full", steps=10)
        train_new(tiny_config(precision=32), full)

        half = run_config(tmp_path, small_corpus, "half", steps=5)
        train_new(tiny_config(precision=32), half)
        rest = run_config(tmp_path, small_corpus, "rest", steps=10)
        resume(half.checkpoint_path, rest)

        assert open(full.checkpoint_path, "rb").read() == open(rest.checkpoint_path, "rb").read()
        full_rows = open(full.metrics_path).read().splitlines()
        rest_rows = open(rest.metrics_path).read().splitlines()
        assert full_rows[6:] == rest_rows[1:]  # steps 6..10 agree line for line

    def test_resume_beyond_target_rejected(self, tmp_path, small_corpus):
        config = run_config(tmp_path, small_corpus, "done", steps=4)
        train_new(tiny_config(precision=32), config)
        with pytest.raises(ConfigurationError):
            resume(config.checkpoint_path, run_config(tmp_path, small_corpus, "done2", steps=4))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAKIT!" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_unsupported_version_refused(self, tmp_path):
        blob, _ = self.saved(tmp_path)
        path = tmp_path / "v2.ckpt"
        at = len(checkpoint_module.MAGIC)
        path.write_bytes(blob[:at] + struct.pack("<I", 2) + blob[at + 4:])
        with pytest.raises(DataError, match=re.escape(f"{path}: unsupported checkpoint version 2")):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, small_corpus):
        config = run_config(tmp_path, small_corpus, "trunc", steps=2)
        train_new(tiny_config(precision=32), config)
        blob = open(config.checkpoint_path, "rb").read()
        path = tmp_path / "cut.ckpt"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            load_checkpoint(path)

    @staticmethod
    def saved(tmp_path, **overrides):
        """A fresh tiny model's checkpoint bytes and the offset of its tensor count."""
        model = ByteLM(tiny_config(**overrides), Rng(1))
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, model, AdamState(model), Rng(2))
        blob = good.read_bytes()
        (text_len,) = struct.unpack_from("<I", blob, HEAD)
        return blob, HEAD + 4 + text_len

    @staticmethod
    def refused(path):
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("part, old, new", [
        ("config", b"heads=2", b"heads 2"),
        ("config", b"heads=2", b"momentum=2"),
        ("config", b"d_model=16", b"d_model=abc"),
        ("config", b"d_model", b"d_\xffmodel"),
        ("config", b"heads=2", b"heads=2\nheads=4"),
        ("config", b"pos_encoding=learned", b"pos_encoding=rope"),
        ("config", b"d_model=16", b"d_model=512"),
        ("config", b"layers=1", b"layers=1000000000"),
        ("name", b"wte", b"\xffte"),
        ("dim", struct.pack("<Q", 256), struct.pack("<Q", 2**31)),
    ], ids=["line-without-equals", "unknown-key", "non-integer-value",
            "config-not-utf8", "repeated-key", "learned-read-as-rope", "d_model-16-read-as-512",
            "layers-1-read-as-1e9",
            "name-not-utf8", "first-dim-2**31"])
    def test_corrupt_contents_rejected(self, tmp_path, part, old, new):
        blob, text_end = self.saved(tmp_path, pos_encoding="learned")
        name_at = text_end + 4  # past the tensor count, at the first tensor's name length
        (name_len,) = struct.unpack_from("<H", blob, name_at)
        name_end = name_at + 2 + name_len
        dim_at = name_end + 1  # past the first tensor's ndim, at its first dim
        parts = {"config": blob[HEAD + 4:text_end], "name": blob[name_at + 2:name_end],
                 "dim": blob[dim_at:dim_at + 8]}
        assert old in parts[part]
        parts[part] = parts[part].replace(old, new, 1)
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(
            blob[:HEAD] + struct.pack("<I", len(parts["config"])) + parts["config"]
            + blob[text_end:name_at] + struct.pack("<H", len(parts["name"])) + parts["name"]
            + blob[name_end:dim_at] + parts["dim"] + blob[dim_at + 8:]
        )
        # A corrupt shape or config must be refused before it sizes an allocation.
        tracemalloc.start()
        try:
            self.refused(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bytes_after_last_tensor_rejected(self, tmp_path):
        blob, _ = self.saved(tmp_path)
        path = tmp_path / "trailing.ckpt"
        path.write_bytes(blob + b"\x00")
        self.refused(path)

    def test_appended_copy_of_last_tensor_rejected(self, tmp_path):
        blob, count_at = self.saved(tmp_path)
        model = ByteLM(tiny_config(), Rng(1))
        name, arr = checkpoint_module._tensors(model, AdamState(model))[-1]
        last = io.BytesIO()
        checkpoint_module._write_tensor(last, name, arr)
        assert blob.endswith(last.getvalue())
        (count,) = struct.unpack_from("<I", blob, count_at)
        path = tmp_path / "duplicate.ckpt"
        path.write_bytes(blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4:]
                         + last.getvalue())
        self.refused(path)

    def test_wrong_precision_flag_rejected(self, tmp_path):
        blob, count_at = self.saved(tmp_path, precision=32)
        name_at = count_at + 4
        (name_len,) = struct.unpack_from("<H", blob, name_at)
        ndim_at = name_at + 2 + name_len
        bits_at = ndim_at + 1 + 8 * blob[ndim_at]
        assert blob[bits_at] == 32
        path = tmp_path / "precision.ckpt"
        path.write_bytes(blob[:bits_at] + bytes([64]) + blob[bits_at + 1:])
        self.refused(path)

    def test_corrupt_config_length_sizes_no_allocation(self, tmp_path):
        blob, _ = self.saved(tmp_path)
        path = tmp_path / "long-config.ckpt"
        path.write_bytes(blob[:HEAD] + struct.pack("<I", 64 * 2**20) + blob[HEAD + 4:])
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_save_syncs_before_rename(self, tmp_path, monkeypatch):
        model = ByteLM(tiny_config(), Rng(1))
        path = tmp_path / "synced.ckpt"
        real_fsync, real_replace = os.fsync, os.replace
        calls = []

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint_module.os, "fsync", fsync)
        monkeypatch.setattr(checkpoint_module.os, "replace", replace)
        save_checkpoint(path, model, AdamState(model), Rng(2))
        size = path.stat().st_size
        assert calls == [("fsync", size), ("replace", size)]

    def test_adam_moments_restored(self, tmp_path, small_corpus):
        config = run_config(tmp_path, small_corpus, "moments", steps=3)
        train_new(tiny_config(precision=32), config)
        model, adam, _, step = load_checkpoint(config.checkpoint_path)
        assert adam.step == step == 3
        assert any(np.abs(m).max() > 0 for m in adam.m.values())
        for p in model.params:
            assert adam.m[p.name].shape == p.data.shape


    @pytest.mark.parametrize("encoding", ["rope", "learned", "shaw"])
    @pytest.mark.parametrize("precision", [32, 64])
    def test_load_draws_nothing(self, tmp_path, monkeypatch, encoding, precision):
        model = ByteLM(tiny_config(pos_encoding=encoding, precision=precision), Rng(5))
        adam = AdamState(model, step=7)
        fill = Rng(6)
        for moments in (adam.m, adam.v):
            for name, arr in moments.items():
                arr[...] = fill.normal_array(arr.shape)
        rng = Rng(8)
        rng.next_u64()
        path = tmp_path / "saved.ckpt"
        save_checkpoint(path, model, adam, rng)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from an Rng")

        monkeypatch.setattr(Rng, "normal_array", no_draws)
        loaded, loaded_adam, loaded_rng, step = load_checkpoint(path)
        assert step == 7
        assert (loaded_rng.seed, loaded_rng.state) == (rng.seed, rng.state)

        def arrays(m, a):
            return [(name, arr.dtype, arr.tobytes())
                    for name, arr in [(p.name, p.data) for p in m.params]
                    + list(a.m.items()) + list(a.v.items())]

        assert arrays(loaded, loaded_adam) == arrays(model, adam)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, small_corpus, monkeypatch):
        config = run_config(tmp_path, small_corpus, "atomic", steps=2)
        train_new(tiny_config(precision=32), config)
        before = open(config.checkpoint_path, "rb").read()
        model, adam, rng, _ = load_checkpoint(config.checkpoint_path)
        real_write = checkpoint_module._write_tensor
        calls = []

        def failing_write(fh, name, arr):
            calls.append(name)
            if len(calls) == 3:
                raise OSError("disk full")
            real_write(fh, name, arr)

        monkeypatch.setattr(checkpoint_module, "_write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(config.checkpoint_path, model, adam, rng)
        assert open(config.checkpoint_path, "rb").read() == before
        assert load_checkpoint(config.checkpoint_path)[3] == 2
        assert sorted(os.listdir(tmp_path)) == ["atomic.ckpt", "atomic.csv"]

    def test_resume_appends_to_same_metrics_file(self, tmp_path, small_corpus):
        straight = run_config(tmp_path, small_corpus, "straight", steps=8)
        train_new(tiny_config(precision=32), straight)
        first = run_config(tmp_path, small_corpus, "same", steps=4)
        train_new(tiny_config(precision=32), first)
        resume(first.checkpoint_path, run_config(tmp_path, small_corpus, "same", steps=8))
        assert (open(first.metrics_path, "rb").read()
                == open(straight.metrics_path, "rb").read())

    def test_resume_rejects_metrics_not_ending_at_checkpoint(self, tmp_path, small_corpus):
        first = run_config(tmp_path, small_corpus, "gap", steps=4)
        train_new(tiny_config(precision=32), first)
        rows = open(first.metrics_path).read().splitlines()
        with open(first.metrics_path, "w") as fh:
            fh.write("\n".join(rows[:-1]) + "\n")  # drop step 4
        with pytest.raises(DataError, match="last step 3"):
            resume(first.checkpoint_path, run_config(tmp_path, small_corpus, "gap", steps=8))


class TestCompareRuns:
    def test_identical_files_zero_difference(self, tmp_path, small_corpus):
        a = run_config(tmp_path, small_corpus, "same-a")
        b = run_config(tmp_path, small_corpus, "same-b")
        train_new(tiny_config(precision=32), a)
        train_new(tiny_config(precision=32), b)
        cmp = compare_runs([a.metrics_path, b.metrics_path])
        diff = cmp.losses[cmp.names[0]] - cmp.losses[cmp.names[1]]
        np.testing.assert_array_equal(diff, 0.0)
        assert cmp.auc[cmp.names[0]] == cmp.auc[cmp.names[1]]

    def test_mismatched_grids_rejected(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("step,loss\n1,2.0\n2,1.5\n")
        b.write_text("step,loss\n1,2.0\n3,1.5\n")
        with pytest.raises(DataError):
            compare_runs([a, b])

    @pytest.mark.parametrize("rows", ["1,2.0\n2,1.5\n2,1.0\n", "1,2.0\n3,1.5\n2,1.0\n"],
                             ids=["repeated", "decreasing"])
    def test_steps_must_strictly_increase(self, tmp_path, rows):
        path = tmp_path / "a.csv"
        path.write_text("step,loss\n" + rows)
        with pytest.raises(DataError, match=re.escape(f"{path}:4: step 2 does not follow")):
            read_metrics(path)

    def test_descending_grid_not_compared(self, tmp_path):
        # a descending grid would give negative areas and crown the worse run
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("step,loss\n2,1.0\n1,2.0\n")
        b.write_text("step,loss\n2,3.0\n1,4.0\n")
        with pytest.raises(DataError, match=re.escape(f"{a}:3:")):
            compare_runs([a, b])

    def test_needs_two_files(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("step,loss\n1,2.0\n")
        with pytest.raises(DataError):
            compare_runs([a])

    def test_table_flags_lower_auc(self, tmp_path):
        a = tmp_path / "alpha.csv"
        b = tmp_path / "beta.csv"
        a.write_text("step,loss\n1,2.0\n2,1.0\n")
        b.write_text("step,loss\n1,2.0\n2,1.8\n")
        cmp = compare_runs([a, b])
        assert cmp.best == "alpha"
        table = format_table(cmp)
        assert "alpha" in table and "lowest AUC" in table
