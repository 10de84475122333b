"""Spans and counters recorded from outside rope-kit.

The tracer wraps public functions and methods of the already-imported
``rope_kit`` modules. Every wrapper records a span: its duration and
its *self* time (duration minus the time its child spans cover). Spans
are aggregated in memory as they close, per metric key, and turned into
per-module metrics at the end of the run. Nothing inside ``src/`` is
edited; the wrappers are installed in every namespace that bound the
target by name and are removed again by :meth:`Tracer.uninstall`.

A target that no longer exists (renamed or deleted by a later change)
is recorded in :attr:`Tracer.absent`; its metric is then left out of
the report instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

_MASK64 = (1 << 64) - 1
# splitmix64 advances its state by a fixed odd constant per 64-bit draw,
# so the number of draws is (state - start) times its inverse mod 2**64.
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)

# (module, attribute) -> metric key of the forward span.
FUNCTION_SPANS = [
    ("rope_kit.numerics", "matmul", "numerics.matmul.fwd_ms"),
    ("rope_kit.numerics", "gelu", "numerics.gelu.fwd_ms"),
    ("rope_kit.numerics", "softmax_rows", "numerics.softmax_rows.fwd_ms"),
    ("rope_kit.numerics", "rmsnorm", "numerics.rmsnorm.fwd_ms"),
    ("rope_kit.numerics", "cross_entropy", "numerics.cross_entropy.fwd_ms"),
    ("rope_kit.numerics", "_add", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "_mul", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "_scale", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "transpose", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "permute", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "reshape", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "take_rows", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "exp", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "elu_plus_one", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "tensor_sum", "numerics.other.fwd_ms"),
    ("rope_kit.numerics", "mean", "numerics.other.fwd_ms"),
    ("rope_kit.rotary", "apply_rotary_rows", "rotary.apply_rows.fwd_ms"),
    ("rope_kit.rotary", "rope_score", "rotary.rope_score.ms"),
    ("rope_kit.rotary", "dense_rotation_matrix", "rotary.dense_matrix.ms"),
    ("rope_kit.baselines", "additive_inject", "baselines.inject.fwd_ms"),
    ("rope_kit.attention", "softmax_attention", "attention.softmax_attention.fwd_ms"),
    ("rope_kit.attention", "shaw_score_bias", "attention.shaw_bias.fwd_ms"),
    ("rope_kit.attention", "_linear_core", "attention.linear_core.fwd_ms"),
    # Self time of this function is the rotate_rows forward of the feature
    # maps plus the cos/sin table slicing that feeds it.
    ("rope_kit.attention", "rope_linear_attention_parts", "attention.rotate_rows.fwd_ms"),
    ("rope_kit.attention", "similarity_attention", "attention.similarity_attention.ms"),
    ("rope_kit.analysis", "abel_identity_check", "analysis.abel.ms"),
    ("rope_kit.analysis", "derivation_oracle_2d", "analysis.derivation_2d.ms"),
    ("rope_kit.analysis", "decay_curve", "analysis.decay_curve.ms"),
    ("rope_kit.harness.checkpoint", "save_checkpoint", "harness.checkpoint.save_ms"),
    ("rope_kit.harness.checkpoint", "load_checkpoint", "harness.checkpoint.load_ms"),
    # The package attribute rope_kit.harness.train is the re-exported train
    # function, so the training module is reached through sys.modules.
    ("rope_kit.harness.train", "adam_step", "harness.train.adam_ms"),
]

# (module, class, method) -> metric key.
METHOD_SPANS = [
    ("rope_kit.numerics", "Tensor", "backward", "numerics.backward_ms"),
    ("rope_kit.numerics", "Rng", "normal_array", "numerics.rng.normal_array_ms"),
    ("rope_kit.harness.model", "ByteLM", "__init__", "harness.model.init_ms"),
    ("rope_kit.harness.model", "ByteLM", "loss", "harness.model.loss_ms"),
]

# Tape op name -> metric key of its backward (grad_fn) span.
BACKWARD_SPANS = {
    "matmul": "numerics.matmul.bwd_ms",
    "gelu": "numerics.gelu.bwd_ms",
    "softmax_rows": "numerics.softmax_rows.bwd_ms",
    "rmsnorm": "numerics.rmsnorm.bwd_ms",
    "cross_entropy": "numerics.cross_entropy.bwd_ms",
    "apply_rotary": "rotary.apply_rows.bwd_ms",
    "rotate_rows": "attention.rotate_rows.bwd_ms",
    "shaw_score_bias": "attention.shaw_bias.bwd_ms",
    "linear_attention": "attention.linear_core.bwd_ms",
}
OTHER_BACKWARD = "numerics.other.bwd_ms"

# Verify suite function name -> metric key.
SUITE_PREFIX = "_suite_"


def suite_key(function_name: str) -> str:
    return f"cli.verify.{function_name[len(SUITE_PREFIX):]}.ms"


class Tracer:
    """Aggregated span self times and counters for one traced run."""

    def __init__(self):
        self.self_s = defaultdict(float)    # metric key -> summed self seconds
        self.total_s = defaultdict(float)   # metric key -> summed span seconds
        self.calls = defaultdict(int)       # metric key -> closed spans
        self.tape_ops = 0
        self.sources = defaultdict(int)     # metric key -> installed targets
        self.absent: list[str] = []         # targets that were not found
        self.suite_keys: list[str] = []     # metric keys of the wrapped verify suites
        self.step_ms: list[tuple[str, float]] = []  # (config label, ms)
        self.label = ""
        self._step_mark = 0.0
        self._rngs: list = []
        self._rng_rebased = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, fn, after=None):
        """Return ``fn`` wrapped in a span recorded under ``key``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_s[key] += elapsed - child
                    self.total_s[key] += elapsed
                    self.calls[key] += 1
                if after is not None:
                    after(end)

        return traced

    def start_train_call(self, label: str) -> None:
        """Mark the start of one harness.train call; steps end at adam_step."""
        self.label = label
        self._step_mark = perf_counter()

    def _end_step(self, now: float) -> None:
        self.step_ms.append((self.label, (now - self._step_mark) * 1e3))
        self._step_mark = now

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every rope_kit module attribute that is ``original``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "rope_kit" or name.startswith("rope_kit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every target; aggregates carry over from earlier installs."""
        self.absent = []
        self.suite_keys = []
        self.sources = defaultdict(int)
        for module_name, attr, key in FUNCTION_SPANS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            after = self._end_step if attr == "adam_step" else None
            self._replace_everywhere(original, self.wrap(key, original, after))
            self.sources[key] += 1

        for module_name, cls_name, method, key in METHOD_SPANS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = vars(cls).get(method) if isinstance(cls, type) else None
            if not callable(original):
                self.absent.append(f"{module_name}.{cls_name}.{method}")
                continue
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(key, original))
            self.sources[key] += 1

        self._install_tape_op()
        self._install_rng_counter()
        self._install_suites()

    def _install_tape_op(self) -> None:
        numerics = sys.modules.get("rope_kit.numerics")
        original = getattr(numerics, "tape_op", None)
        if not callable(original):
            self.absent.append("rope_kit.numerics.tape_op")
            return
        tracer = self

        def tape_op(data, parents, grad_fn, name="op"):
            with tracer._lock:
                tracer.tape_ops += 1
            key = BACKWARD_SPANS.get(name, OTHER_BACKWARD)
            return original(data, parents, tracer.wrap(key, grad_fn), name)

        self._replace_everywhere(original, tape_op)
        self.sources["numerics.tape_ops"] += 1
        for key in set(BACKWARD_SPANS.values()) | {OTHER_BACKWARD}:
            self.sources[key] += 1

    def _install_rng_counter(self) -> None:
        """Count 64-bit draws from the stream state, at no per-draw cost."""
        cls = getattr(sys.modules.get("rope_kit.numerics"), "Rng", None)
        init = vars(cls).get("__init__") if isinstance(cls, type) else None
        prop = vars(cls).get("state") if isinstance(cls, type) else None
        if not callable(init) or not isinstance(prop, property) or prop.fset is None:
            self.absent.append("rope_kit.numerics.Rng.state")
            return
        tracer = self

        def __init__(rng, *args, **kwargs):
            init(rng, *args, **kwargs)
            with tracer._lock:
                tracer._rngs.append([rng, prop.fget(rng)])

        def set_state(rng, value):
            with tracer._lock:
                for entry in tracer._rngs:
                    if entry[0] is rng:
                        tracer._rng_rebased += _draws(entry[1], prop.fget(rng))
                        prop.fset(rng, value)
                        entry[1] = prop.fget(rng)
                        return
            prop.fset(rng, value)

        self._patches.append((cls, "__init__", init))
        self._patches.append((cls, "state", prop))
        cls.__init__ = __init__
        cls.state = property(prop.fget, set_state)
        self.sources["numerics.rng.draws"] += 1

    def _install_suites(self) -> None:
        cli = sys.modules.get("rope_kit.cli")
        suites = getattr(cli, "VERIFY_SUITES", None)
        if not isinstance(suites, list):
            self.absent.append("rope_kit.cli.VERIFY_SUITES")
            return
        self._patches.append((suites, "[:]", list(suites)))
        for i, (name, fn) in enumerate(suites):
            key = suite_key(fn.__name__)
            suites[i] = (name, self.wrap(key, fn))
            self.suite_keys.append(key)
            self.sources[key] += 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if attr == "[:]":
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- counters ----------------------------------------------------------

    def rng_draws(self) -> int:
        """64-bit draws since install (or the last reset)."""
        with self._lock:
            return self._rng_rebased + sum(
                _draws(start, rng.state) for rng, start in self._rngs
            )

    def reset_rng(self) -> None:
        with self._lock:
            self._rngs.clear()
            self._rng_rebased = 0

    def counts(self) -> dict:
        """Counters that must repeat exactly for identical inputs."""
        return {
            "numerics.tape_ops": self.tape_ops,
            "numerics.rng.draws": self.rng_draws(),
            "rotary.rope_score.calls": self.calls["rotary.rope_score.ms"],
        }

    def installed(self, key: str) -> bool:
        return self.sources.get(key, 0) > 0


def _draws(start: int, state: int) -> int:
    return ((state - start) * _GAMMA_INV) & _MASK64
