"""Dense tensors with a reverse-mode gradient tape.

Storage is a numpy array (float32 or float64); gradients are recorded
micrograd-style, as per-op backward closures over whole tensors, and
replayed in reverse topological order. The tape's finiteness checks are
on or off, and on by default. While they are on, every op checks its
output for NaN/Inf and every backward checks each gradient it hands a
parent, raising ``NumericError`` that names the op (``"<op> produced
non-finite values"``, ``"<op> backward produced non-finite values"``)
instead of letting bad values propagate. Only the first pass of a
training step runs with them off: it checks its loss and each gradient
once, and a step that fails that check is run again with them on, so
that its error names the op and the direction (see ``harness.train``).
Verification code runs in float64; training may use float32.
A ``Parameter`` is a named leaf Tensor that requires a gradient; ops,
``grad_check`` and the optimizer take it as it is.

Gradients accumulate by first write: the first gradient a tensor
receives becomes its ``grad`` and later ones are added into it with
``+=``. The first gradient is stored without a copy only when the op's
backward made it fresh for that parent: an ndarray that owns its memory
(``base is None``), is not the incoming gradient itself, has the
parent's dtype and is not also handed to an earlier parent of the same
op. Otherwise it is copied in the parent's dtype. So ``x + x`` (which
passes the incoming gradient to both parents), views such as a
transpose's, and one array returned for two parents never alias
another tensor's ``grad``.
"""

from __future__ import annotations

import contextlib
import math
import operator

import numpy as np

from .errors import ConfigurationError, DataError, DimensionError, NumericError

__all__ = [
    "Rng",
    "Tensor",
    "Parameter",
    "tape_op",
    "matmul",
    "linear",
    "ffn",
    "transpose",
    "permute",
    "reshape",
    "tensor_sum",
    "mean",
    "gelu",
    "exp",
    "elu_plus_one",
    "softmax_rows",
    "cross_entropy",
    "rmsnorm",
    "take_rows",
    "grad_check",
]


# ---------------------------------------------------------------------------
# Seeded RNG
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def _u64(value: int) -> np.ndarray:
    """``value`` as a 0-d uint64 array, an operand of the bulk integer rounds.

    Every operand there is a uint64: under numpy's legacy promotion (numpy
    < 2) a Python int mixed with a uint64 array can become float64. A 0-d
    array costs numpy about half as much per ufunc call as an ``np.uint64``
    scalar.
    """
    return np.array(value, dtype=np.uint64)


_U64_GAMMA = _u64(_GAMMA)
_U64_MUL1 = _u64(0xBF58476D1CE4E5B9)
_U64_MUL2 = _u64(0x94D049BB133111EB)
_U64_SHIFTS = tuple(_u64(k) for k in (30, 27, 31))
_U64_11 = _u64(11)


def _integer(value, what: str) -> int:
    """``value`` as a Python int; a float is refused, even a whole one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}") from None


def _mix64(z: int) -> int:
    """splitmix64 output function (Steele, Lea & Flood 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class Rng:
    """splitmix64 pseudo-random stream.

    The algorithm is fixed: the same seed yields a bit-identical
    ``next_u64``, ``uniform``, ``randint`` and ``randint_array`` stream on
    every platform and in every future version. Normal draws use Box-Muller
    on two fresh uniforms (the sine partner is discarded, so the stream
    position is a pure function of the number of calls); their values go
    through libm's ``log`` and ``cos``, so ``normal`` is fixed for a given
    libm, and ``normal_array`` for a given libm and numpy build (its
    version and the CPU code it dispatches to).
    """

    def __init__(self, seed: int):
        seed = _integer(seed, "Rng seed")
        self.seed = seed & _MASK64
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        u1 = 1.0 - self.uniform()  # (0, 1]: log is always finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is < n / 2**64."""
        n = _integer(n, "randint upper bound")
        if n <= 0:
            raise ConfigurationError(f"randint upper bound must be positive, got {n}")
        return self.next_u64() % n

    def randint_array(self, n: int, size: int) -> np.ndarray:
        """``size`` consecutive ``randint(n)`` draws as an int64 array.

        The result and the final ``state`` are bit-identical to the scalar
        calls. ``n`` is at most 2**63, so every value fits in an int64.
        """
        n, size = _integer(n, "randint_array bound"), _integer(size, "randint_array size")
        if not 1 <= n <= 2**63:
            raise ConfigurationError(f"randint_array bound must be in [1, 2**63], got {n}")
        if size < 0:
            raise ConfigurationError(f"randint_array size must be >= 0, got {size}")
        return (self._u64_block(size) % _u64(n)).astype(np.int64)

    def normal_array(self, shape, scale: float = 1.0) -> np.ndarray:
        """``scale`` times ``prod(shape)`` consecutive ``normal()`` draws, float64.

        The result and the final ``state`` are bit-identical to calling
        ``normal()`` once per element, in C order. ``log`` stays on libm
        (``math``) on purpose: numpy's SIMD ``log`` differs from it in the
        last bit on some inputs. numpy's float64 ``cos`` runs in numpy, as
        do ``sqrt`` and the products, which are correctly rounded in both:
        numpy 2.4.6 on x86-64 calls libm's ``cos`` per element, even on an
        AVX-512 CPU. A numpy build that dispatches float64 ``cos`` to its
        own SIMD code would break the equality with ``normal()``;
        ``test_normal_array_matches_scalar_normal`` checks it over 100 000
        draws.
        """
        if not np.iterable(shape):
            shape = (shape,)
        shape = tuple(_integer(n, "normal_array dimension") for n in shape)
        if any(n < 0 for n in shape):
            raise ConfigurationError(f"normal_array shape {shape} has a negative dimension")
        size = int(math.prod(shape))
        z = self._u64_block(2 * size)
        z >>= _U64_11
        u = z * 2.0**-53  # as uniform(): 53-bit integers times a power of two, exact
        # Even draws feed the radius, odd ones the angle, as in normal().
        # Products put the array first (the same IEEE result): a Python
        # float on the left costs a failed float.__mul__ first.
        log_u1 = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, size)
        angle = u[1::2] * (2.0 * math.pi)
        flat = np.sqrt(log_u1 * -2.0) * np.cos(angle, out=angle)
        return (flat * scale).reshape(shape)

    def _u64_block(self, draws: int) -> np.ndarray:
        """The next ``draws`` ``next_u64()`` outputs as one uint64 array.

        splitmix64 is a counter hash (draw k from state s is
        ``mix64(s + k * gamma)``), so the draws are computed at once in
        uint64 arrays, whose arithmetic wraps mod 2**64 like the scalar
        code's masks.
        """
        z = np.arange(1, draws + 1, dtype=np.uint64)
        z *= _U64_GAMMA
        z += _u64(self._state)
        self._state = (self._state + draws * _GAMMA) & _MASK64
        s30, s27, s31 = _U64_SHIFTS
        z ^= z >> s30
        z *= _U64_MUL1
        z ^= z >> s27
        z *= _U64_MUL2
        z ^= z >> s31
        return z

    def spawn(self, stream: int) -> "Rng":
        """Derive an independent child stream; depends only on the seed."""
        stream = _integer(stream, "spawn stream")
        return Rng(_mix64((self.seed + (stream + 1) * _GAMMA) & _MASK64))

    @property
    def state(self) -> int:
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        self._state = value & _MASK64


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


# Whether _check_finite checks: every op's forward output and every
# gradient an op's backward hands to a parent. Off only inside _unchecked().
_checks_on = True


@contextlib.contextmanager
def _unchecked():
    """Run the body with the finiteness checks off (see ``_checks_on``)."""
    global _checks_on
    saved, _checks_on = _checks_on, False
    try:
        yield
    finally:
        _checks_on = saved


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if _checks_on and not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")
    return arr


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, ``x.shape[:-1]``: a product with a vector of
    ones, which BLAS runs several times faster than numpy's reduction over
    short rows."""
    return x @ np.ones(x.shape[-1], x.dtype)


def _row_max(x: np.ndarray) -> np.ndarray:
    """Maxima over the last axis, keeping it: ``np.fmax.reduce``, without
    the NaN propagation that costs ``max`` about 90 ns per row. It ignores
    NaN, so a row holding one keeps a finite maximum; subtracting it and
    exponentiating still make the row's sum, and so the whole normalised
    row, NaN. Otherwise it equals ``max`` up to the sign of a zero maximum,
    which subtracting it and ``exp`` erase."""
    return np.fmax.reduce(x, axis=-1, keepdims=True)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last-axis rows of ``a`` and ``b``, without the
    ``a * b`` temporary."""
    return np.einsum("...j,...j->...", a, b)


class Tensor:
    """Immutable-by-convention dense array plus tape bookkeeping.

    ``data`` is the value, ``grad`` accumulates d(loss)/d(self) after
    ``backward()``. Ops outside this module extend the tape through
    :func:`tape_op`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        """The value of a tensor of any shape holding one element."""
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Arithmetic sugar; broadcasting follows numpy, gradients un-broadcast.
    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _scale(self, float(other))
        return _mul(self, _as_tensor(other))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def as_array(x) -> np.ndarray:
    """Unwrap a Tensor (or pass an array-like through) as float64."""
    if isinstance(x, Tensor):
        return np.asarray(x.data, dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def tape_op(data: np.ndarray, parents: tuple, grad_fn, name: str = "op") -> Tensor:
    """Wire a raw numpy result into the tape.

    ``grad_fn(out_grad)`` must return a tuple with one gradient array per
    parent (``None`` to skip a parent). Gradient accumulation, requires_grad
    propagation and finiteness checking (of the output and of each
    gradient) are handled here so fused ops in other modules only supply
    the math. A parent's first gradient is stored as is when ``grad_fn``
    made it fresh for that parent (see the module docstring); any other
    first gradient is copied.
    """
    _check_finite(np.asarray(data), name)
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = ()
    out._backward = None
    if out.requires_grad:

        def _backward(out_grad):
            grads = grad_fn(out_grad)
            for i, (parent, g) in enumerate(zip(parents, grads)):
                if g is None or not parent.requires_grad:
                    continue
                if g.shape != parent.data.shape:
                    raise DimensionError(
                        f"{name}: gradient shape {g.shape} != value shape {parent.data.shape}"
                    )
                _check_finite(g, f"{name} backward")
                if parent.grad is not None:
                    parent.grad += g
                elif (isinstance(g, np.ndarray) and g.base is None and g is not out_grad
                      and g.dtype == parent.data.dtype
                      and not any(g is earlier for earlier in grads[:i])):
                    parent.grad = g
                else:
                    parent.grad = np.array(g, dtype=parent.data.dtype)
            return None

        out._parents = parents
        out._backward = _backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast during the forward."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return tape_op(
        data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
        name="add",
    )


def _mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return tape_op(
        data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
        name="mul",
    )


def _scale(a: Tensor, s: float) -> Tensor:
    return tape_op(a.data * s, (a,), lambda g: (g * s,), name="scale")


# ---------------------------------------------------------------------------
# Core ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.data.ndim}-d and {b.data.ndim}-d"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data

    def grad_fn(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return tape_op(data, (a, b), grad_fn, name="matmul")


def _weight_shape(w: Tensor, d_in: int, op: str) -> tuple[int, int]:
    if w.data.ndim != 2 or w.data.shape[0] != d_in:
        raise DimensionError(f"{op}: weight {w.data.shape} does not map rows of width {d_in}")
    return w.data.shape


def _gemm_into(shape: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` written into a fresh array of ``shape`` (same size as the product)."""
    out = np.empty(shape, dtype=np.result_type(a, b))
    np.matmul(a, b, out=out.reshape(a.shape[0], b.shape[1]))
    return out


def linear(x: Tensor, w: Tensor, split_heads: int = 0, merge_heads: bool = False) -> Tensor:
    """``x @ w`` for a 2-d weight as one GEMM over the rows of ``x``; one tape op.

    ``x`` is read as rows of its last axis, or, with ``merge_heads``, a
    (batch, heads, seq, head_dim) array as (batch * seq, heads * head_dim)
    rows, the heads of one position side by side. The product comes back
    with ``x``'s leading axes ((batch, seq) when merging) and ``w``'s
    output width, or, with ``split_heads=h``, as the (batch, h, seq,
    d_out / h) transposed view of the (batch, seq, d_out) product. The
    backward is two 2-d GEMMs, ``gx = g wᵀ`` and ``gw = xᵀ g``, and both
    gradients own their memory.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if merge_heads:
        if x.data.ndim != 4:
            raise DimensionError(f"linear: merge_heads needs (batch, heads, seq, dim), "
                                 f"got {x.data.shape}")
        batch, heads, seq, dim = x.data.shape
        lead = (batch, seq)
        rows = x.data.transpose(0, 2, 1, 3).reshape(batch * seq, heads * dim)
    else:
        lead = x.data.shape[:-1]
        rows = x.data.reshape(-1, x.data.shape[-1])
    _, d_out = _weight_shape(w, rows.shape[1], "linear")
    product = rows @ w.data
    if split_heads:
        if len(lead) != 2 or d_out % split_heads:
            raise DimensionError(f"linear: cannot split {lead + (d_out,)} into "
                                 f"{split_heads} heads")
        data = product.reshape(lead + (split_heads, -1)).transpose(0, 2, 1, 3)
    else:
        data = product.reshape(lead + (d_out,))

    def grad_fn(g):
        if split_heads:
            g = g.transpose(0, 2, 1, 3)
        g = g.reshape(-1, d_out)
        if merge_heads:
            gx = (g @ w.data.T).reshape(batch, seq, heads, dim).transpose(0, 2, 1, 3)
            gx = np.ascontiguousarray(gx)
        else:
            gx = _gemm_into(x.data.shape, g, w.data.T)
        return gx, rows.T @ g

    return tape_op(data, (x, w), grad_fn, name="linear")


def ffn(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """``gelu(x @ w1) @ w2`` over the rows of ``x``'s last axis; one tape op.

    Both products are 2-d GEMMs over the flattened rows and the GELU runs
    in place (see :func:`gelu`, whose kernel it shares). The tape keeps
    the hidden pre-activation, its tanh and its activation, as the
    ``matmul``, ``gelu``, ``matmul`` chain did. The backward returns
    gradients that own their memory.
    """
    x, w1, w2 = _as_tensor(x), _as_tensor(w1), _as_tensor(w2)
    rows = x.data.reshape(-1, x.data.shape[-1])
    _, hidden = _weight_shape(w1, rows.shape[1], "ffn")
    _, d_out = _weight_shape(w2, hidden, "ffn")
    pre = _check_finite(rows @ w1.data, "ffn")
    act, t = _gelu_forward(pre)

    def grad_fn(g):
        g = g.reshape(-1, d_out)
        g_pre = _gelu_backward(g @ w2.data.T, pre, t)
        return _gemm_into(x.data.shape, g_pre, w1.data.T), rows.T @ g_pre, act.T @ g

    return tape_op((act @ w2.data).reshape(x.data.shape[:-1] + (d_out,)), (x, w1, w2),
                   grad_fn, name="ffn")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    data = np.swapaxes(a.data, -1, -2)
    return tape_op(data, (a,), lambda g: (np.swapaxes(g, -1, -2),), name="transpose")


def permute(a: Tensor, axes: tuple) -> Tensor:
    a = _as_tensor(a)
    inverse = tuple(np.argsort(axes))
    return tape_op(
        a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),), name="permute"
    )


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    return tape_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),), name="reshape")


def tensor_sum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = np.asarray(a.data.sum())
    return tape_op(data, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),), name="sum")


def mean(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    data = np.asarray(a.data.mean())
    return tape_op(
        data, (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),), name="mean"
    )


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


def _gelu_forward(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh approximation) of ``u`` and the tanh it kept: ``(a, t)``.

    ``t = tanh(c (u + 0.044715 u^3))`` and ``a = 0.5 u (1 + t)``, built in
    place in two buffers with the rounding order of that expression
    (``u^3`` as ``(u u) u``: float32 ``u**3`` takes numpy's slow pow
    path). A huge ``|u|`` overflows ``u^3`` to inf, which tanh saturates,
    so ``a`` is finite wherever ``u`` is.
    """
    with np.errstate(over="ignore"):
        t = u * u
        t *= u
    t *= _GELU_CUBIC
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    a = u * 0.5
    a *= 1.0 + t
    return a, t


def _gelu_backward(g: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``g * gelu'(u)`` as a fresh array, from the forward's ``t``:
    ``0.5 (1 + t) + 0.5 u (1 - t^2) c (1 + 3 * 0.044715 u^2)``, factor by factor.

    Where ``1 - t^2`` is exactly 0 the slope term is its limit 0, also
    where a huge ``|u|`` overflows ``u^2``: that inf is clamped to the
    largest finite value, which tanh has long saturated at."""
    with np.errstate(over="ignore"):
        inner = u * u
    np.minimum(inner, np.finfo(inner.dtype).max, out=inner)
    inner *= 3 * _GELU_CUBIC
    inner += 1.0
    inner *= _GELU_C
    out = t * t
    np.subtract(1.0, out, out=out)
    slope = u * 0.5
    slope *= out
    slope *= inner
    np.add(t, 1.0, out=out)
    out *= 0.5
    out += slope
    out *= g
    return out


def gelu(a: Tensor) -> Tensor:
    """Gaussian-error linear unit (tanh approximation); smooth everywhere."""
    a = _as_tensor(a)
    x = a.data
    data, t = _gelu_forward(x)
    return tape_op(data, (a,), lambda g: (_gelu_backward(g, x, t),), name="gelu")


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):  # overflow becomes NumericError in tape_op
        data = np.exp(a.data)

    def grad_fn(g):
        return (g * data,)

    return tape_op(data, (a,), grad_fn, name="exp")


def elu_plus_one(a: Tensor) -> Tensor:
    """elu(x) + 1 with alpha = 1: strictly positive, C1-smooth.

    ``neg = exp(min(x, 0))`` is exactly 1 wherever x > 0, +inf included,
    and NaN where x is NaN, so ``neg + max(x, 0)`` is the select
    ``x + 1 if x > 0 else neg`` and ``neg`` its derivative, bit for bit,
    without a select."""
    a = _as_tensor(a)
    x = a.data
    neg = np.exp(np.minimum(x, 0.0))
    data = neg + np.maximum(x, 0.0)

    def grad_fn(g):
        return (g * neg,)

    return tape_op(data, (a,), grad_fn, name="elu_plus_one")


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax over the last axis, max-subtracted for stability.

    ``mask`` (broadcastable bool, True = keep) excludes entries, which is
    equivalent to substituting -inf scores before the softmax; the
    substitution stays internal so only finite tensors escape. A row
    with nothing kept is an error. The row maxima are ``_row_max``'s, so
    a row holding a kept NaN comes out all NaN.
    """
    x = _as_tensor(x)
    logits = x.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
        if not mask.any(axis=-1).all():
            raise NumericError("softmax row has every entry masked")
        shifted = np.where(mask, logits, -np.inf)
        weights = np.exp(shifted - _row_max(shifted))
    else:
        weights = np.exp(logits - _row_max(logits))
    weights = weights / _row_sum(weights)[..., None]

    def grad_fn(g):
        dot = _row_dot(g, weights)[..., None]
        return (weights * (g - dot),)

    return tape_op(weights, (x,), grad_fn, name="softmax_rows")


def _integer_ids(ids, op: str) -> np.ndarray:
    """``ids`` as an int64 array; an array of another kind (float, bool) is
    refused rather than truncated."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise DataError(f"{op}: ids must be integers, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of ``(...)`` integer targets under a
    softmax over the last axis of ``(..., vocab)`` logits, read as rows;
    the gradient is a fresh array of the logits' shape. The rows are
    shifted by their ``_row_max`` and exponentiated in place, after the
    targets' shifted logits are read, so one (rows, vocab) array is kept
    for the backward; a row holding a NaN makes the loss and that row's
    gradient NaN."""
    logits = _as_tensor(logits)
    ids = _integer_ids(targets, "cross_entropy")
    if logits.data.ndim == 0 or ids.shape != logits.data.shape[:-1]:
        raise DimensionError(f"cross_entropy: targets {ids.shape} do not match the rows "
                             f"of logits {logits.shape}")
    vocab = logits.data.shape[-1]
    if ids.min(initial=0) < 0 or ids.max(initial=-1) >= vocab:
        raise DataError(f"cross_entropy: target outside [0, {vocab})")
    rows = logits.data.reshape(-1, vocab)
    n, ids = len(rows), ids.reshape(-1)
    z = rows - _row_max(rows)
    picked = z[np.arange(n), ids]
    exp_z = np.exp(z, out=z)
    norm = _row_sum(exp_z)[:, None]
    log_norm = np.log(norm[:, 0])
    data = np.asarray((log_norm - picked).mean())

    def grad_fn(g):
        grad = np.empty(logits.data.shape, dtype=exp_z.dtype)
        probs = grad.reshape(n, vocab)  # exp_z is kept unchanged
        np.divide(exp_z, norm, out=probs)
        probs[np.arange(n), ids] -= 1.0
        probs *= g / n
        return (grad,)

    return tape_op(data, (logits,), grad_fn, name="cross_entropy")


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """Scale each last-axis row to unit RMS (eps 1e-5), then apply a learned gain.

    The backward builds x's gradient ``scale * (g_normed - (scale**2 / d) *
    x * dot)`` in one buffer, in that rounding order, and then writes
    ``g * normed`` over ``g_normed``."""
    x, gain = _as_tensor(x), _as_tensor(gain)
    d = x.data.shape[-1]
    if gain.data.shape != (d,):
        raise DimensionError(f"gain shape {gain.data.shape} != ({d},)")
    scale = 1.0 / np.sqrt((_row_dot(x.data, x.data) / d)[..., None] + 1e-5)
    normed = x.data * scale
    data = normed * gain.data

    def grad_fn(g):
        g_normed = g * gain.data
        dot = _row_dot(g_normed, x.data)[..., None]
        gx = (scale**2 / d) * x.data
        gx *= dot
        np.subtract(g_normed, gx, out=gx)
        gx *= scale
        rows = np.multiply(g, normed, out=g_normed).reshape(-1, d)
        return gx, np.ones(len(rows), rows.dtype) @ rows

    return tape_op(data, (x, gain), grad_fn, name="rmsnorm")


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a (rows, d) table by an integer index array."""
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise DimensionError(f"take_rows expects a 2-d table, got {table.shape}")
    ids = _integer_ids(ids, "take_rows")
    rows, d = table.data.shape
    if ids.min(initial=0) < 0 or ids.max(initial=-1) >= rows:
        raise DataError(f"take_rows: row index outside [0, {rows})")
    data = table.data[ids]

    def grad_fn(g):
        # Each id's rows summed as one segment of the rows sorted by id;
        # the stable sort keeps each segment in gather order.
        gt = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
            gt[sorted_ids[starts]] = np.add.reduceat(g.reshape(-1, d)[order], starts, axis=0)
        return (gt,)

    return tape_op(data, (table,), grad_fn, name="take_rows")


# ---------------------------------------------------------------------------
# Parameters and gradient checking
# ---------------------------------------------------------------------------


class Parameter(Tensor):
    """Trainable leaf Tensor with a name, the key of its checkpoint entry
    and its Adam moments."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    @property
    def gradient(self) -> np.ndarray:
        """``grad``, or zeros before any backward pass has reached it."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def grad_check(f, params: list[Parameter], rng: Rng, samples: int = 25) -> float:
    """Compare tape gradients against central finite differences.

    ``f()`` must rebuild the scalar loss from the current parameter
    values. For ``samples`` randomly chosen entries the reverse-mode
    gradient is compared to (f(w+h) - f(w-h)) / 2h with h = 1e-5; the
    returned figure is max |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    Parameters must be float64: the tolerance is meaningless in float32.
    ``samples`` must be at least 1, or nothing would be compared.
    """
    samples = _integer(samples, "grad_check samples")
    if samples < 1:
        raise ConfigurationError(f"grad_check needs samples >= 1, got {samples}")
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigurationError(f"grad_check needs float64 parameters ({p.name})")
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    grads = [p.gradient.copy() for p in params]

    sizes = [p.data.size for p in params]
    total = sum(sizes)
    h = 1e-5
    worst = 0.0
    for _ in range(samples):
        flat = rng.randint(total)
        for p, g, size in zip(params, grads, sizes):
            if flat < size:
                break
            flat -= size
        idx = np.unravel_index(flat, p.data.shape)
        original = p.data[idx]
        p.data[idx] = original + h
        up = f().item()
        p.data[idx] = original - h
        down = f().item()
        p.data[idx] = original
        fd = (up - down) / (2.0 * h)
        ad = float(g[idx])
        err = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
        worst = max(worst, err)
    return worst
