"""Minimal reverse-mode autodiff engine on a numpy backend.

Implements exactly the operations the model zoo needs: affine maps
(one GEMM over all leading axes), elementwise arithmetic and tanh,
one fused softmax cross-entropy (`cross_entropy_rows`, forward and
backward in the logits' buffer), concatenation, embedding lookup with
partially trainable rows, dropout, two fused LSTM ops, and plain SGD.

The LSTM ops follow Appleyard, Kocisky & Blunsom 2016 (arXiv:1604.01946)
and share one step (`_lstm_step`) on one fused gate kernel. Each runs a
sequence from its raw input over real step-rows only (packed sequences:
a row's length is its only record of padding), projected a chunk of
whole steps at a time into one buffer of bounded size (`_gate_inputs`),
with backprop through time inside the op, and returns the states of
those P rows alone, in time-major order. A decoder's `cond` joins
`lstm_layer`'s gate input once per sequence (a source vector) or at
every step as attention over an encoder's state rows, read from the
previous hidden state (`Attention`, `_Contexts`), whose backward joins
the same BPTT loop. `bilstm_layer` runs both directions of an encoder at
once on the same direction core (`_lstm_direction`), each max-pooling
as it goes, in one record that makes states only for attention to read;
greedy decoding runs the same step on arrays (`lstm_stepper`). Every row
product of `linear` and the LSTM ops runs as gemm, a one-row one too
(`_gemm_rows`). The cell and the attention
decoder composed from generic tape ops, the pooling as the separate op
it was and the moves between the padded (T, B, width) layout and the
rows live in `tests/oracles.py` as their references.

Forward passes record onto an explicit :class:`Tape`; `backward` walks
the tape once in reverse. Production paths run in float32; gradient
checking replays the same graph in float64 (cast parameters first).

One worker thread (`_worker`) is the second CPU core: it runs
`bilstm_layer`'s reverse direction, one column half of a large float32
`linear` (`_split_matmul`), the weight gradients that `backward` defers
while this thread carries the input gradients down the tape, and greedy
decoding's next state term while this thread runs the output head
(`lstm_stepper`), each handed to it as a `_Deferred`. Every result is
bit-identical to running it all on one thread.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-12  # clamp for -log(p) on degenerate distributions


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class EmptySequenceError(ValueError):
    """A time-indexed op received zero timesteps."""


class TapeError(RuntimeError):
    """Tape used out of order (backward before forward, or twice)."""


class GradientError(RuntimeError):
    """Non-finite gradients detected; the optimizer step was aborted."""


class NumericsWarning(RuntimeWarning):
    """A probability hit the log floor inside a loss."""


class Tensor:
    """Dense array with an optional gradient slot.

    `data` is row-major; production code keeps it float32, the gradient
    check harness casts parameters to float64 and every op follows the
    dtype of its inputs.
    """

    __slots__ = ("data", "grad", "is_param", "name")

    def __init__(self, data, is_param: bool = False, name: str = ""):
        data = np.asarray(data)
        if not data.flags["C_CONTIGUOUS"]:
            data = np.ascontiguousarray(data)
        self.data = data
        self.grad: np.ndarray | None = None
        self.is_param = is_param
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        tag = f" param={self.name!r}" if self.is_param else ""
        return f"Tensor(shape={self.shape}{tag})"


def param(data, name: str) -> Tensor:
    return Tensor(data, is_param=True, name=name)


def uniform_param(rng: np.random.Generator | None, shape, name: str,
                  dtype=np.float32) -> Tensor:
    """Weight init: uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], where
    fan_in is the last axis (the input width of a (out, in) weight).

    Without a generator the array is left uninitialised, for a skeleton
    whose every parameter is about to be overwritten (a checkpoint load).
    """
    if rng is None:
        return param(np.empty(shape, dtype=dtype), name)
    bound = 1.0 / np.sqrt(shape[-1])
    return param(rng.uniform(-bound, bound, size=shape).astype(dtype), name)


# ---------------------------------------------------------------------------
# Tape


class Tape:
    """Ordered record of forward operations.

    Ops are appended in execution order, which is a topological order by
    construction. One backward pass per tape; recording or replaying
    after backward raises :class:`TapeError`.
    """

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self.also: dict[Tensor, Tensor] = {}   # out -> another output (`_route`)
        self._done = False

    def __enter__(self) -> "Tape":
        _open_tapes.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _open_tapes.stack.pop()

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        if self._done:
            raise TapeError("tape already consumed by backward; use a fresh tape")
        self.records.append((out, inputs, backward_fn))


class _OpenTapes(threading.local):
    """Each thread's open tapes, innermost last: ops record there."""

    def __init__(self):
        self.stack: list[Tape] = []


_open_tapes = _OpenTapes()


def _active_tape() -> Tape | None:
    stack = _open_tapes.stack
    return stack[-1] if stack else None


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn,
            also: Tensor | None = None) -> None:
    t = _active_tape()
    if t is not None:
        t.record(out, inputs, backward_fn)
        if also is not None:
            t.also[out] = also


def backward(tape: Tape, loss: Tensor) -> None:
    """Run reverse-mode accumulation from `loss` over `tape`.

    Populates `.grad` on every parameter reachable from `loss` and frees
    the gradient buffers of non-parameter intermediates.

    The walk pops the records off the tape, last first, and lets go of
    each as soon as its gradients are routed, so its saved activations
    die before the earlier records run (as PyTorch's autograd frees saved
    tensors unless asked to retain the graph). The tape is consumed once
    the walk starts: a pass that raises partway drops the records it has
    not reached, and another call raises TapeError.

    A backward function may return a gradient as a zero-argument
    callable instead of an array: a weight gradient, which nothing in
    the pass reads. For a parameter it runs on the worker thread while
    this one carries the input gradients on down the tape (the B/W split
    of Qi et al. 2024, arXiv:2401.10241), holding its operands until it
    has run; for any other input it runs here at once. At the end this
    thread takes the ones the worker has not started, latest first, while
    the worker works from the front. A parameter's contributions, arrays
    and deferred alike, are summed at the end in record order whichever
    thread made them, so every bit is as if all ran here, and a backward
    function that raises leaves every parameter's gradient as it was. The
    pass waits for all of them before it returns or raises; the first
    exception of a deferred one (in record order) is raised unchanged.
    """
    if tape._done:
        raise TapeError("backward already ran on this tape")
    records = tape.records
    if not any(out is loss for out, _, _ in records):
        raise TapeError("loss was not produced by a forward pass on this tape")
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")

    leaves = _unproduced(records, tape.also)
    tape._done = True
    loss.grad = np.ones_like(loss.data)
    # each parameter's contributions in record order: arrays and
    # `_Deferred`s, the latter also in `queued`
    later: dict[Tensor, list] = {}
    queued: list[_Deferred] = []
    try:
        while records:
            _route(*records.pop(), later, queued, tape.also)
    finally:
        records.clear()
        tape.also.clear()
        for task in reversed(queued):
            task.steal()
        wait([task.future for task in queued])
    for t, parts in later.items():
        for gi in parts:
            if isinstance(gi, _Deferred):
                gi = gi.future.result()
            t.grad = gi if t.grad is None else t.grad + gi
    for t in leaves:
        t.grad = None


def _unproduced(records, also: dict) -> set[Tensor]:
    """The non-parameter inputs of `records` that no record produced:
    the only gradients left for `backward` to clear at its end."""
    produced = {out for out, _, _ in records} | set(also.values())
    return {t for _, inputs, _ in records for t in inputs
            if not t.is_param and t not in produced}


def _route(out: Tensor, inputs: tuple[Tensor, ...], backward_fn,
           later: dict, queued: list, also: dict) -> None:
    """One step of `backward`: run a record's backward function and route
    its gradients into `.grad`, `later` and `queued`, if its out or the
    other output its backward reads (`Tape.also`) has a gradient. The
    record, its gradients and all it saved die when this returns."""
    other = also.pop(out, out)
    if out.grad is None and other.grad is None:
        return
    for t, gi in zip(inputs, backward_fn(out.grad)):
        if gi is None:
            continue
        if t.is_param:
            if callable(gi):
                queued.append(gi := _Deferred(gi))
            later.setdefault(t, []).append(gi)
            continue
        if callable(gi):
            gi = gi()
        t.grad = gi if t.grad is None else t.grad + gi
    for t in (out, other):
        t.grad = None


class _Deferred:
    """The one hand-off to the worker (deferred gradients, `_at_once`,
    `lstm_stepper`): queued there when made; its value or exception ends
    up in `future`. Whichever thread runs it lets go of `fn` first, and
    with it the operands."""

    __slots__ = ("fn", "future")

    def __init__(self, fn):
        self.fn = fn
        self.future = _worker.submit(self._run)

    def _run(self):
        fn, self.fn = self.fn, None
        return fn()

    def steal(self) -> None:
        """Run it on this thread if the worker has not started it."""
        if self.future.cancel():
            self.future = Future()
            try:
                self.future.set_result(self._run())
            except Exception as exc:
                self.future.set_exception(exc)

    def result(self):
        """Its value, made on this thread if the worker has not started it."""
        self.steal()
        return self.future.result()

    def drop(self) -> None:
        """Cancel it if the worker has not started it, else wait for it."""
        if not self.future.cancel():
            wait([self.future])


# ---------------------------------------------------------------------------
# Elementwise and affine ops


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def scale(a: Tensor, k: float) -> Tensor:
    out = Tensor(a.data * k)
    _record(out, (a,), lambda g: (g * k,))
    return out


def abs_(a: Tensor) -> Tensor:
    """Elementwise |a| with sign subgradient (0 at 0)."""
    out = Tensor(np.abs(a.data))
    s = np.sign(a.data)
    _record(out, (a,), lambda g: (g * s,))
    return out


def tanh_(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    od = out.data
    _record(out, (a,), lambda g: (g * (1.0 - od * od),))
    return out


def _gemm_rows(a: np.ndarray) -> np.ndarray:
    """The row operand `a` (n, K) of a product, as gemm runs it: the one
    product rule, which every row product of `linear` and the LSTM ops
    (not the attention heads') follows at any batch size. numpy sends a
    one-row product to gemv, whose sums round differently from the same
    row inside a gemm, so a one-row `a` is repeated to two rows; the
    caller keeps the first n rows of the result. A row then rounds as in
    a two-row gemm, which is not always as in a large one: OpenBLAS takes
    a small-matrix sgemm path for products of few rows (README).
    """
    return np.concatenate([a, a]) if len(a) == 1 else a


# `_matmul` splits a float32 GEMM in two when each half is at least this
# many rows by this many output columns. With the worker on the other of
# two CPUs (one BLAS thread), the benchmark's 817 x 512 x 3129 output head
# took 27.2 ms as one GEMM and 13.8 ms split, its 64 x 4096 x 512 source
# projections 4.2 and 2.3 ms, and 64 x 512 x 512 broke even (medians of
# 40 interleaved calls). Split float32 products of 19 rows or more
# matched one GEMM bit for bit on all of some 5000 shapes tried (OpenBLAS
# 0.3.31), products of 18 rows or fewer and some float64 ones did not.
_SPLIT_MIN = 64


def _split_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (n, K) @ b (K, N) in two halves by output columns, the second on
    the worker, both written into one array made here."""
    y = np.empty((len(a), b.shape[1]), np.result_type(a, b))
    half = b.shape[1] // 2
    _at_once(lambda: np.matmul(a, b[:, :half], out=y[:, :half]),
             lambda: np.matmul(a, b[:, half:], out=y[:, half:]))
    return y


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (n, K) @ b (K, N): `_split_matmul` for a float32 product of
    `_SPLIT_MIN` rows and twice as many columns or more, else one gemm
    (`_gemm_rows`)."""
    if len(a) >= _SPLIT_MIN and b.shape[1] >= 2 * _SPLIT_MIN \
            and a.dtype == b.dtype == np.float32:
        return _split_matmul(a, b)
    return (_gemm_rows(a) @ b)[:len(a)]


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w.T + b with w of shape (out, in); x may be (..., in).

    Leading axes are flattened, so a (T, B, in) sequence is one GEMM;
    it and the input gradient's GEMM are `_matmul`'s: split over both
    threads when large, a one-row x run as gemm. Backward defers the
    weight gradient (see `backward`).
    """
    if w.data.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: x {x.shape} incompatible with w {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} incompatible with w {w.shape}")
    xd, wd = x.data, w.data
    x2 = xd.reshape(-1, wd.shape[1])
    y = _matmul(x2, wd.T)
    y += b.data
    out = Tensor(y.reshape(xd.shape[:-1] + (wd.shape[0],)))

    def _bw(g):
        g2 = g.reshape(-1, wd.shape[0])
        gx = _matmul(g2, wd).reshape(xd.shape)
        gw = lambda: g2.T @ x2   # noqa: E731 (deferred, see `backward`)
        return (gx, gw, g2.sum(axis=0))

    _record(out, (x, w, b), _bw)
    return out


def concat(parts: list[Tensor]) -> Tensor:
    """The parts joined along their last axis."""
    if not parts:
        raise ShapeError("concat: empty input list")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    splits = np.cumsum([p.shape[-1] for p in parts])[:-1]
    _record(out, tuple(parts), lambda g: tuple(np.split(g, splits, axis=-1)))
    return out


def sum_(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(), dtype=a.dtype))
    shape = a.shape
    _record(out, (a,), lambda g: (np.broadcast_to(g, shape).astype(g.dtype),))
    return out


# ---------------------------------------------------------------------------
# Loss


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """-log softmax(logits)[i, targets[i]] for each row i of logits
    (N, V): the (N,) per-row NLL, clamped at the log floor, as one tape
    record.

    The row-wise stable softmax is computed in the buffer of `logits`,
    which holds the probabilities afterwards: read the logits themselves
    (an argmax) before the call, and pass only logits whose producer's
    backward does not read them (`linear`'s does not). Target
    probabilities below the floor raise one NumericsWarning naming how
    many, and their rows get zero gradient (the clamp is flat there).
    Backward makes the logits' gradient g_i * (p_i - onehot(targets[i]))
    in that same buffer.
    """
    p = logits.data
    if p.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: logits must be 2-D, got {p.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (p.shape[0],):
        raise ShapeError(f"cross_entropy_rows: targets {targets.shape} "
                         f"vs logits {p.shape}")
    np.subtract(p, p.max(axis=1, keepdims=True), out=p)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    rows = np.arange(p.shape[0])
    picked = p[rows, targets]
    clamped = picked < LOG_FLOOR
    if clamped.any():
        warnings.warn(f"{clamped.sum()} of {len(p)} target probabilities "
                      f"clamped at the log floor", NumericsWarning, stacklevel=2)
    out = Tensor(-np.log(np.maximum(picked, LOG_FLOOR)))

    def _bw(g):
        p[rows, targets] -= 1.0
        np.multiply(p, np.where(clamped, 0.0, g)[:, None], out=p)
        return (p,)

    _record(out, (logits,), _bw)
    return out


# ---------------------------------------------------------------------------
# Embedding lookup


def embedding_lookup(frozen: np.ndarray, ids: np.ndarray, trainable: Tensor,
                     slots: np.ndarray) -> Tensor:
    """Row lookup into a frozen table with some rows trainable.

    `slots` maps vocabulary id -> row of `trainable` (-1 = frozen). Only
    trainable rows receive gradient; the frozen table never does.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = frozen[ids]
    sl = slots[ids]
    hit = sl >= 0
    rows[hit] = trainable.data[sl[hit]]   # `rows` is a copy: `ids` is an array
    out = Tensor(rows)
    k = trainable.shape[0]

    def _bw(g):
        gt = np.zeros((k, g.shape[-1]), dtype=g.dtype)
        np.add.at(gt, sl[hit], g[hit])
        return (gt,)

    _record(out, (trainable,), _bw)
    return out


# ---------------------------------------------------------------------------
# Dropout


def dropout_mask(rng: np.random.Generator, shape, rate: float,
                 dtype) -> np.ndarray:
    """Inverted-dropout mask: Bernoulli(1-rate) scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / np.dtype(dtype).type(1.0 - rate)


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmParams:
    """One LSTM cell's weights.

    wi: input-to-gates (4H, D); wh: hidden-to-gates (4H, H); b: (4H,).
    Gate order along the 4H axis is input, forget, cell-candidate,
    output; the forget bias slice starts at 1.0.
    """

    wi: Tensor
    wh: Tensor
    b: Tensor


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int,
              prefix: str, dtype=np.float32) -> LstmParams:
    wi = uniform_param(rng, (4 * hidden, input_dim), f"{prefix}.wi", dtype)
    wh = uniform_param(rng, (4 * hidden, hidden), f"{prefix}.wh", dtype)
    bias = np.zeros(4 * hidden, dtype=dtype)
    bias[hidden:2 * hidden] = 1.0  # forget gate
    b = param(bias, f"{prefix}.b")
    return LstmParams(wi=wi, wh=wh, b=b)


def _lstm_gates(z: np.ndarray, c: np.ndarray):
    """The fused gate math of one step, shared by every LSTM path.

    z (B, 4H) are the gate pre-activations, overwritten, and c (B, H) the
    cell state. Returns the activations [i, f, g, o] (B, 4H) in z's
    buffer, the new cell state, its tanh, and the new hidden state:
    c' = sigmoid(f) * c + sigmoid(i) * tanh(g) and h' = sigmoid(o) *
    tanh(c'). One tanh pass makes all four, sigmoid(x) being
    0.5 * tanh(x / 2) + 0.5 (halving is exact, as are g's * 1 and + 0).
    """
    H = c.shape[-1]
    half = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], z.dtype), H)
    act = np.tanh(np.multiply(z, half, out=z), out=z)
    act *= half
    act += 1.0 - half
    i, f, g, o = (act[:, k * H:(k + 1) * H] for k in range(4))
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return act, c_new, tc, o * tc


def _gate_grads(acts: np.ndarray, c_prev: np.ndarray, tanh_c: np.ndarray):
    """Per unit of the c' gradient, the pre-activation gradients of i, f
    and g (N, 3, H); per unit of the h' gradient, that of o and the c'
    gradient (N, H each). Inputs as cached from `_lstm_gates`."""
    H = c_prev.shape[-1]
    i, f, gc, o = (acts[:, k * H:(k + 1) * H] for k in range(4))
    per_dc = np.stack([gc * i * (1.0 - i), c_prev * f * (1.0 - f),
                       i * (1.0 - gc * gc)], axis=1)
    per_dh = tanh_c * o * (1.0 - o)
    dc_from_h = o * (1.0 - tanh_c * tanh_c)
    return per_dc, per_dh, dc_from_h


def _recurrent(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    # h @ w.T as gemm (`_gemm_rows`), computed as (w @ h.T).T, which
    # OpenBLAS runs about a fifth faster for the (B, H) x (H, 4H) product
    # of a step
    return (w @ _gemm_rows(h).T).T[:len(h)]


@dataclass
class Attention:
    """One attention head, as part of a decoder's `cond` (`lstm_layer`):
    keys and values (sum(lengths), A) project an encoded sentence once
    per sequence, whose rows are its real steps (t, b), t < lengths[b]
    ((B,) integers of at least 1), in `bilstm_layer`'s order; wc (A, H)
    and bc (A,) make each step's query from the decoder's last state."""

    wc: Tensor
    bc: Tensor
    keys: Tensor
    values: Tensor
    lengths: np.ndarray


def _cond_width(cond) -> int:
    """The number of wi's columns that `cond` (see `lstm_layer`) reads."""
    if isinstance(cond, Tensor):
        return cond.shape[-1]
    return sum(a.values.shape[-1] for a in cond)


class _Contexts:
    """The attention term of an LSTM's gate input (Bahdanau, Cho & Bengio
    2015): each head's context of the previous hidden state h (before
    dropout), times the heads' columns w (4H, C) of wi. Rows are held in
    `order`: a head's key and value rows are scattered once into zeros
    (B, T_k, A), T_k its longest length, row i holding row order[i]'s
    steps (at `rows`), and a step over n rows reads the first n of every
    array. With `recording`, `backward` takes the cached steps in reverse
    and sums the gradients of w and of each head's wc, bc, keys and
    values (in that layout) in `grads`."""

    def __init__(self, heads: list[Attention], w: np.ndarray,
                 order: np.ndarray, recording: bool):
        self.w, self.heads, self.rows = w, [], []
        self.steps = [] if recording else None
        for a in heads:
            lengths = np.asarray(a.lengths)
            t, b = np.nonzero(np.arange(lengths.max())[:, None] < lengths)
            self.rows.append((np.argsort(order)[b], t))
            keys, values = (np.zeros((len(order), lengths.max(), x.shape[1]),
                                     x.dtype) for x in (a.keys.data, a.values.data))
            keys[self.rows[-1]], values[self.rows[-1]] = a.keys.data, a.values.data
            pad = np.arange(lengths.max()) >= lengths[order, None]
            self.heads.append((a.wc.data, a.bc.data, keys, values, pad))
        if recording:
            self.grads = [np.zeros_like(w)] + [
                np.zeros_like(arr) for head in self.heads for arr in head[:4]]

    def attend(self, h: np.ndarray):
        """For the states h (n, H) of the first n rows: the contexts
        (n, C) of all heads side by side, and each head's (query (n, A),
        weights (n, T_k)); a pad key's weight is exactly 0."""
        contexts, qa = [], []
        for wc, bc, keys, values, pad in self.heads:
            q = np.tanh(h @ wc.T + bc)
            s = np.einsum("ba,bta->bt", q, keys[:len(h)])
            s[pad[:len(h)]] = -np.inf
            a = np.exp(s - s.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            contexts.append(np.einsum("bt,bta->ba", a, values[:len(h)]))
            qa.append((q, a))
        return np.concatenate(contexts, axis=1), qa

    def term(self, h: np.ndarray) -> np.ndarray:
        """The gate term (n, 4H) of the states h (n, H) of the first n rows."""
        ctx, qa = self.attend(h)
        if self.steps is not None:   # h may be a view of a state the caller updates
            self.steps.append((h.copy(), ctx, qa))
        return ctx @ self.w.T

    def backward(self, dz: np.ndarray) -> np.ndarray:
        """The gradient of the states h (n, H) that the last step not yet
        taken back read, from its gate gradient dz (n, 4H)."""
        h, ctx, qa = self.steps.pop()
        n, lo = len(h), 0
        dctx = dz @ self.w
        self.grads[0] += dz.T @ ctx
        dh = np.zeros_like(h)
        for k, ((wc, _, keys, values, _), (q, a)) in enumerate(zip(self.heads, qa)):
            dwc, dbc, dkeys, dvalues = self.grads[1 + 4 * k:5 + 4 * k]
            dc = dctx[:, lo:lo + values.shape[2]]
            lo += values.shape[2]
            da = np.einsum("ba,bta->bt", dc, values[:n])
            dvalues[:n] += a[:, :, None] * dc[:, None, :]
            ds = a * (da - (a * da).sum(axis=1, keepdims=True))
            dkeys[:n] += ds[:, :, None] * q[:, None, :]
            dpre = np.einsum("bt,bta->ba", ds, keys[:n]) * (1.0 - q * q)
            dwc += dpre.T @ h
            dbc += dpre.sum(axis=0)
            dh += dpre @ wc
        return dh


def _gate_terms(cell: LstmParams, cond, order: np.ndarray, recording: bool):
    """How `cond` (see `lstm_layer`) joins a step's gate input: wi's
    columns for the input x_t, the term added at every step (b, plus a
    cond Tensor's product with its columns), and `_Contexts` or None."""
    wi, b = cell.wi.data, cell.b.data
    C = _cond_width(cond)
    if isinstance(cond, Tensor):
        per_seq = (_gemm_rows(cond.data) @ wi[:, -C:].T)[:len(cond.data)]
        per_seq += b
        return wi[:, :-C], per_seq, None
    return wi[:, C:], b, _Contexts(cond, wi[:, :C], order, recording) if cond else None


def _state_term(h: np.ndarray, w: np.ndarray,
                ctx: _Contexts | None) -> np.ndarray:
    """The last term of a step's gate input (`_lstm_step`), made from the
    state h (n, H) alone: the attention term of `ctx`, else the recurrent
    term h @ w.T (`_recurrent`)."""
    return _recurrent(h, w) if ctx is None else ctx.term(h)


def _lstm_step(gx_t: np.ndarray, h: np.ndarray, c: np.ndarray, w: np.ndarray,
               rm: np.ndarray | None, ctx: _Contexts | None, ahead=None):
    """The step every LSTM path runs, over the first n = len(gx_t) rows
    of the state h, c (B, H): z = (gate input gx_t (n, 4H) + h's
    recurrent term through the dropout mask `rm`) + the attention term
    `ctx` of h, the recurrent term (`_recurrent`) being last without
    `ctx`; then the gates. `ahead`, if given, returns that last term
    (`_state_term`) made elsewhere (greedy decoding starts it early,
    `lstm_stepper`); it is called where the term joins the sum. Returns
    the h the recurrent GEMM read and `_lstm_gates`' outputs."""
    n = len(gx_t)
    h_t = h[:n] if rm is None else h[:n] * rm[:n]
    if ctx is not None:
        gx_t = gx_t + _recurrent(h_t, w)
    z = gx_t + (_state_term(h_t if ctx is None else h[:n], w, ctx)
                if ahead is None else ahead())
    return h_t, _lstm_gates(z, c[:n])


def _check_lengths(op: str, lengths, B: int, low: int, high: int) -> np.ndarray:
    lengths = np.asarray(lengths)
    if lengths.shape != (B,) or not np.issubdtype(lengths.dtype, np.integer) \
            or (lengths < low).any() or (lengths > high).any():
        raise ShapeError(f"{op}: lengths {lengths.dtype} {lengths.shape}, "
                         f"expected ({B},) integers in [{low}, {high}]")
    return lengths.astype(np.int64, copy=False)


def _check_lstm(op: str, x: Tensor, cells, lengths: np.ndarray,
                cond=(), h0: Tensor | None = None, c0: Tensor | None = None,
                rmask: np.ndarray | None = None):
    """The checks of an LSTM sequence op: x (T, B, D) with T > 0; each
    cell's wi (4H, D + C), wh (4H, H) and b (4H,), C being `cond`'s
    width; a cond Tensor (B, C), or `Attention` heads as documented;
    h0, c0 and `rmask` (B, H); `lengths` (B,) integers in [0, T].
    Returns the packed layout of the lengths (`_packing`),
    x's real step-rows in it (x's rows themselves if no row pads) and
    `rmask` as an array of the states' dtype."""
    xd = x.data
    H = cells[0].wh.shape[-1]
    C = _cond_width(cond)
    if xd.ndim != 3 or (isinstance(cond, Tensor) and cond.shape != (xd.shape[1], C)) \
            or any((c.wi.shape, c.wh.shape, c.b.shape) != (
                (4 * H, xd.shape[-1] + C), (4 * H, H), (4 * H,)) for c in cells):
        raise ShapeError(f"{op}: x {xd.shape}, cond of width {C} "
                         f"incompatible with wi {[c.wi.shape for c in cells]}, "
                         f"wh {[c.wh.shape for c in cells]}")
    T, B, _ = xd.shape
    if T == 0:
        raise EmptySequenceError(f"{op}: no timesteps")
    for k, a in enumerate([] if isinstance(cond, Tensor) else cond):
        A, name = a.keys.shape[-1], f"{op}: attention head {k}"
        P = len(a.keys.data) if a.keys.data.ndim == 2 else 0
        if not P or a.values.shape != a.keys.shape or (a.wc.shape, a.bc.shape) \
                != ((A, H), (A,)) or _check_lengths(name, a.lengths, B, 1, P).sum() != P:
            raise ShapeError(f"{name}: keys, values, wc, bc "
                             f"{[t.shape for t in (a.keys, a.values, a.wc, a.bc)]}, "
                             f"expected (sum(lengths), A) twice, (A, {H}), (A,)")
    if rmask is not None:
        rmask = np.asarray(rmask, dtype=np.result_type(xd, cells[0].wi.data))
    bad = [f"{name} {s.shape}" for name, s in (("h0", h0), ("c0", c0), ("rmask", rmask))
           if s is not None and s.shape != (B, H)]
    if bad:
        raise ShapeError(f"{op}: {', '.join(bad)}, expected {(B, H)}")
    pack = _packing(_check_lengths(op, lengths, B, 0, T), T)
    xr = xd.reshape(T * B, -1)
    return pack, xr if len(pack[2]) == T * B else xr[pack[2]], rmask


def lstm_layer(x: Tensor, cell: LstmParams, h0: Tensor, c0: Tensor, *,
               lengths: np.ndarray, cond: Tensor | list[Attention],
               reverse: bool = False, rmask: np.ndarray | None) -> Tensor:
    """An LSTM over a whole sequence x (T, B, D) as one tape record.

    Step t's gate input is x_t @ wi.T + b, projected for the real rows
    of several steps at a time (`_gate_inputs`), plus the term of `cond`,
    what a decoder reads besides its input: with a Tensor (B, C) (its
    source) step t reads [x_t, cond], the product with wi's last C
    columns made once; with `Attention` heads it reads [each head's
    context of the previous hidden state, x_t], with no heads x_t alone.
    h0/c0 (B, H) are the initial state. Returns the states (P, H) of
    the P real step-rows (t, b) in time-major order, as
    `np.flatnonzero(np.arange(T)[:, None] < lengths)` lists them.

    Row b's real steps are t < `lengths[b]`, `lengths` being (B,)
    integers in [0, T] (otherwise ShapeError). Pad steps have no output
    row, cost nothing and change no bit of anything else.
    With `reverse` the steps run from T-1 down to 0, so each row's real
    prefix is read backwards starting from (h0, c0), exactly as if it had
    been reversed in place. `rmask` (B, H) is a recurrent dropout mask
    applied to the hidden state entering every step's recurrent term, or
    None.

    The work is `_lstm_direction`, run here on the calling thread;
    `bilstm_layer` runs it too, one direction on the worker thread.
    Backward defers the gradients of wi and wh (see `backward`).
    """
    pack, xp, rmask = _check_lstm("lstm_layer", x, [cell], lengths, cond, h0,
                                  c0, rmask)
    dtype = np.result_type(x.data, cell.wi.data)
    hs = np.empty((len(xp), cell.wh.shape[1]), dtype)
    gx = _gx_buffer(len(xp), x.shape[1], cell.wi.shape[0], dtype)
    grads = _lstm_direction(xp, pack, cell, hs, gx, _active_tape() is not None,
                            reverse, h0.data, c0.data, cond, rmask)
    out = Tensor(hs)
    if grads is not None:   # a lambda, so the op read off its __qualname__ is lstm_layer
        _record(out, (x, cell.wi, cell.wh, cell.b, h0, c0, *(
            [cond] if isinstance(cond, Tensor)
            else [t for a in cond for t in (a.wc, a.bc, a.keys, a.values)])),
            lambda g: grads(g))
    return out


@contextmanager
def lstm_stepper(cell: LstmParams, h0: Tensor, c0: Tensor,
                 cond: Tensor | list[Attention]):
    """Greedy decoding's recurrence, with no tape: a context that yields
    step(x_t), which runs `lstm_layer`'s step (`_lstm_step`, `cond` read
    alike) for one input x_t (B, D) on all B rows from the state it keeps
    (h0/c0 at first) and returns the new hidden state (B, H).

    As soon as a state h is made, the worker starts the next step's term
    of h alone (a `_Deferred` of `_state_term`: the heads' attention
    term, else the recurrent term) while the caller uses h and makes the
    next input's product x_t @ wx.T (and, with heads, the recurrent
    term); every row product is gemm, as in `lstm_layer`. The next step
    takes the term there, or makes it itself if the worker has not
    started it; the sum and so every bit are those of one thread. On
    leaving the context the last one is dropped. It gives the worker
    work, so it must never run inside a worker task.
    """
    state = [h0.data, c0.data]
    wx, per_seq, ctx = _gate_terms(cell, cond, np.arange(len(state[0])), False)
    w = cell.wh.data

    def start(h):
        return _Deferred(lambda: _state_term(h, w, ctx))

    ahead = [start(state[0])]

    def step(x_t: np.ndarray) -> np.ndarray:
        gx = (_gemm_rows(x_t) @ wx.T)[:len(x_t)]   # as `lstm_layer`'s
        _, (_, c, _, h) = _lstm_step(gx + per_seq, *state, w, None, ctx,
                                     ahead[0].result)
        state[:] = h, c
        ahead[0] = start(h)
        return h

    try:
        yield step
    finally:
        ahead[0].drop()


def _packing(lengths: np.ndarray, T: int):
    """The packed layout of T steps of rows with `lengths`: the row order
    by descending length (stable); live[t], how many rows (a prefix of
    that order) are real at step t; the flat index t * B + b of the
    P = sum(lengths) real step-rows (t, b), step t's live prefix in
    block t; and each one's time-major rank, its row in the ops' output
    (real step-rows in t * B + b order)."""
    order = np.argsort(-lengths, kind="stable")
    real = lengths > np.arange(T)[:, None]
    live = real.sum(axis=1)
    steps, k = np.nonzero(np.arange(len(lengths)) < live[:, None])
    index = steps * len(lengths) + order[k]
    return order, live, index, (np.cumsum(real) - 1)[index]


# `_lstm_direction` projects its input in chunks of whole steps' blocks of
# at least this many rows (all of P if fewer), the short rest joining the
# last chunk, so a direction holds at most 2 * _CHUNK_ROWS + B rows of gate
# input, not P. A chunk of 256 rows or more rounded every row as the one
# GEMM over all P rows did, bit for bit: no mismatch at any K of 1 to 812
# and N of 8 to 2048 output columns tried, float32 and float64, at chunks
# of 256 to 600 rows (OpenBLAS 0.3.31, one thread); chunks of 8 or 16 rows
# did not, at 84 of those shapes (K = 32 among them).
_CHUNK_ROWS = 256


def _gx_buffer(P: int, B: int, G: int, dtype) -> np.ndarray:
    """A buffer that holds the largest input-projection chunk
    (`_gate_inputs`) of P real step-rows of B rows, G gates wide: at
    least two rows, as a one-row product runs as two (`_gemm_rows`)."""
    return np.empty((max(min(P, 2 * _CHUNK_ROWS + B), 2), G), dtype)


def _chunk_stops(counts: np.ndarray) -> list[int]:
    """Where each input-projection chunk ends, for steps of `counts` real
    rows each in the order they run: a chunk closes once it holds
    `_CHUNK_ROWS` rows, unless the steps after it hold fewer, which then
    join it."""
    rest = np.cumsum(counts[::-1])[::-1]   # the rows of steps k on
    stops, rows = [], 0
    for k, n in enumerate(counts):
        if rows >= _CHUNK_ROWS and rest[k] >= _CHUNK_ROWS:
            stops.append(k)
            rows = 0
        rows += n
    return stops + [len(counts)] if len(counts) else []


def _gate_inputs(xp: np.ndarray, wx: np.ndarray, live: np.ndarray,
                 steps: np.ndarray, gx: np.ndarray):
    """Yields (t, xp's block of step t @ wx.T) for each step t of `steps`,
    in the order given. The blocks are projected whole, in that order, a
    chunk (`_chunk_stops`) at a time just ahead of its steps, into the
    buffer `gx` (`_gx_buffer`), which the next chunk overwrites."""
    ends = np.cumsum(live)   # block t is rows ends[t] - live[t] to ends[t]
    start = 0
    for stop in _chunk_stops(live[steps]):
        first, last = sorted((steps[start], steps[stop - 1]))
        lo = ends[first] - live[first]
        chunk = _gemm_rows(xp[lo:ends[last]])
        y = np.matmul(chunk, wx.T, out=gx[:len(chunk)])
        for t in steps[start:stop]:
            yield t, y[ends[t] - live[t] - lo:ends[t] - lo]
        start = stop


def _lstm_direction(xp: np.ndarray, pack, cell: LstmParams, out: np.ndarray | None,
                    gx: np.ndarray, recording: bool, reverse: bool = False,
                    h0: np.ndarray | None = None, c0: np.ndarray | None = None,
                    cond=(), rmask: np.ndarray | None = None, pool=None):
    """`lstm_layer` on checked arrays (`cond` as given) and no tape, so
    any thread can run it, on packed sequences as in the README: every
    (P, ...) array here, from x's real step-rows xp (P, D) on, is in the
    layout `pack` (`_packing`); every row product is gemm (`_gemm_rows`).
    xp's input projection runs in chunks of whole steps' blocks, in the
    order the steps run, into the buffer `gx` (`_gx_buffer`, made by the
    caller; `_gate_inputs`), and each step adds `_gate_terms`' term to
    its block; backward needs none of it. The recurrence writes packed
    step-row k's state into row rank[k] (`_packing`) of `out` (P, H),
    maybe a column view, if given.
    `pool`, if given, is (run, at), both (B, H) in sorted row order:
    `run`, filled with -inf, gets each row's max over its real steps (a
    NaN wins), and `at` (None when not recording) the output row it came
    from, the earliest step's on ties, as `np.argmax` picks.
    Returns None or, `recording`, (g, gp) -> the gradients of (x, wi, wh,
    b, h0, c0, then cond's tensors), None for an input not given, from
    those of `out` and `run` (sorted row order), either maybe None; gp
    joins BPTT at each row's `at` step, with no dense scatter."""
    order, live, index, rank = pack
    (P, D), (G, H), B, T = xp.shape, cell.wh.shape, len(order), len(live)
    wi, w = cell.wi.data, cell.wh.data
    wx, per_seq, ctx = _gate_terms(cell, cond, order, recording)
    per_row = np.broadcast_to(per_seq, (B, G))[order]   # in sorted row order
    dtype = gx.dtype
    ends = np.cumsum(live)   # block t is rows ends[t] - live[t] to ends[t]
    steps = np.flatnonzero(live)   # steps with no live row are skipped
    if reverse:
        steps = steps[::-1]
    # states in sorted row order; rows past the live prefix are left alone
    h, c = (np.zeros((B, H), dtype=dtype) if s0 is None else s0[order]
            for s0 in (h0, c0))
    rm = None if rmask is None else rmask[order]
    # the caches backward reads; with no tape recording nothing reads them
    if recording:
        acts = np.empty((P, G), dtype=dtype)
        c_prev, tanh_c, h_in = (np.empty((P, H), dtype=dtype) for _ in range(3))
    for t, gx_t in _gate_inputs(xp, wx, live, steps, gx):
        n = live[t]
        blk = slice(ends[t] - n, ends[t])
        h_t, (a_t, c_new, tc_t, h_new) = _lstm_step(gx_t + per_row[:n], h, c,
                                                    w, rm, ctx)
        if recording:
            acts[blk], c_prev[blk], tanh_c[blk], h_in[blk] = a_t, c[:n], tc_t, h_t
        h[:n], c[:n] = h_new, c_new
        if out is not None:
            out[rank[blk]] = h_new
        if pool is not None:
            run = pool[0][:n]
            # the earliest maximal step must win a tie: the forward
            # direction meets it first, the reverse one last
            new = (h_new >= run if reverse else h_new > run) | np.isnan(h_new)
            np.copyto(run, h_new, where=new)
            if recording:
                np.copyto(pool[1][:n], rank[blk, None], where=new)
    if not recording:
        return None

    def grads(g, gp=None):
        # only dc and dh are left to the loop
        per_dc, per_dh, dc_from_h = _gate_grads(acts, c_prev, tanh_c)
        f = acts[:, H:2 * H]
        dz = np.empty((P, 4, H), dtype=acts.dtype)
        dh, dc = (np.zeros((B, H), dtype=(gp if g is None else g).dtype)
                  for _ in range(2))
        for t in steps[::-1]:
            n = live[t]
            blk = slice(ends[t] - n, ends[t])
            dh_new = None if g is None else g[rank[blk]]
            if gp is not None:   # (g + gp scattered to the `at` rows)[rows]
                hit = np.where(pool[1][:n] == rank[blk, None], gp[:n], 0.0)
                dh_new = hit if dh_new is None else np.add(dh_new, hit, out=dh_new)
            dh_new += dh[:n]
            dc_new = dc[:n] + dh_new * dc_from_h[blk]
            np.multiply(per_dc[blk], dc_new[:, None, :], out=dz[blk, :3])
            np.multiply(per_dh[blk], dh_new, out=dz[blk, 3])
            dh_next = (_gemm_rows(dz[blk].reshape(n, G)) @ w)[:n]
            if rm is not None:
                dh_next *= rm[:n]
            if ctx is not None:
                dh_next += ctx.backward(dz[blk].reshape(n, G))
            dh[:n] = dh_next
            dc[:n] = dc_new * f[blk]
        dz = dz.reshape(P, G)   # the gradient of the gate inputs gx
        unsort = np.argsort(order)
        dh0, dc0 = (None if s0 is None else d[unsort]
                    for s0, d in ((h0, dh), (c0, dc)))
        dx = np.zeros((T, B, D), dz.dtype)
        dx.reshape(T * B, D)[index] = (_gemm_rows(dz) @ wx)[:P]
        # the weight gradients wi's and wh's are deferred (see `backward`)
        dwx = lambda: dz.T @ xp   # noqa: E731
        dwh = lambda: dz.T @ h_in   # noqa: E731
        if isinstance(cond, Tensor):
            gs = np.zeros((B, G), dtype=dz.dtype)   # the cond term's gradient
            for t in steps:   # summed over each row's steps, then unsorted
                gs[:live[t]] += dz[ends[t] - live[t]:ends[t]]
            gs = gs[unsort]
            return (dx, lambda: np.concatenate([dwx(), gs.T @ cond.data], axis=1),
                    dwh, gs.sum(axis=0), dh0, dc0, (_gemm_rows(gs) @ wi[:, D:])[:B])
        if ctx is None:
            return dx, dwx, dwh, dz.sum(axis=0), dh0, dc0
        dw, *dheads = (d if d.ndim < 3 else d[ctx.rows[(k - 1) // 4]]   # to rows
                       for k, d in enumerate(ctx.grads))
        return (dx, lambda: np.concatenate([dw, dwx()], axis=1), dwh,
                dz.sum(axis=0), dh0, dc0, *dheads)

    return grads


def _new_worker() -> None:
    """The second core's thread, one for the life of the process, started
    on first use: it runs `bilstm_layer`'s reverse direction, one half of
    a split `linear`, the weight gradients `backward` defers and the
    state term of greedy decoding's next step (`lstm_stepper`), in the
    order they come. Nothing it runs may give it work, or both would
    wait on each other. A forked child gets its own, as it inherits the
    executor but no thread."""
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="nliexpl-second-core")


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


def _at_once(here, there):
    """(here(), there()), `there` a `_Deferred`: on the worker if it gets
    to it while here() runs, else here after here() (it may be queued
    behind weight gradients that `backward` deferred). Waits for both;
    here()'s exception, else there()'s, reaches the caller unchanged."""
    later = _Deferred(there)
    try:
        return here(), later.result()
    finally:
        later.drop()


def bilstm_layer(x: Tensor, fwd: LstmParams, bwd: LstmParams, lengths: np.ndarray,
                 states: bool) -> tuple[Tensor, Tensor | None]:
    """Both directions of an encoder over x (T, B, D), from zero states:
    (pooled, states). states (P, 2H), made only with `states` (else
    None), are the real step-rows in `lstm_layer`'s order, `fwd` reading
    each row forward in the first H columns and `bwd` in reverse in the
    last H; pooled (B, 2H) is each row's per-dimension max over its real
    steps. `lengths` is as in `lstm_layer`, but a row with none raises
    EmptySequenceError. Each direction is `_lstm_direction`, pooling as
    it steps, and runs at once with the other, `bwd` on the worker
    thread; checks, tensors, the record and both directions'
    input-projection buffers (`_gx_buffer`) stay on this one. States and
    wh's gradients are those of `linear` and `lstm_layer` (x2), side by
    side, bit for bit (x, wi and b sum the real step-rows only).
    One tape record, which reads both outputs' gradients (`_route`): the
    pooled vector's joins BPTT at the earliest maximal step of its row,
    as `np.argmax` finds it.
    """
    pack, xp, _ = _check_lstm("bilstm_layer", x, (fwd, bwd), lengths)
    order, live = pack[:2]
    B = x.shape[1]
    if live[0] < B:
        raise EmptySequenceError("bilstm_layer: a row has zero real timesteps")
    H = fwd.wh.shape[1]
    recording = _active_tape() is not None
    dtype = np.result_type(x.data, fwd.wi.data)
    hs = np.empty((len(xp), 2 * H), dtype) if states else None
    # allocated on this thread: memory the worker frees stays in its own
    # malloc arena, where the rest of the process cannot reuse it
    gxs = [_gx_buffer(len(xp), B, 4 * H, dtype) for _ in range(2)]
    run = np.full((B, 2 * H), -np.inf, dtype)   # in sorted row order
    at = np.zeros((B, 2 * H), np.intp) if recording else None

    def half(k, *arrays):   # direction k's columns of each array, if any
        return [None if a is None else a[:, k * H:(k + 1) * H] for a in arrays]

    grads_f, grads_b = _at_once(
        lambda: _lstm_direction(xp, pack, fwd, half(0, hs)[0], gxs[0], recording,
                                pool=half(0, run, at)),
        lambda: _lstm_direction(xp, pack, bwd, half(1, hs)[0], gxs[1], recording,
                                reverse=True, pool=half(1, run, at)))
    pooled = Tensor(run[np.argsort(order)])
    out = None if hs is None else Tensor(hs)
    if not recording:
        return pooled, out

    def _bw(_):
        # each direction makes its own weight gradients: both threads are
        # busy here already, and deferred they ran slower with a higher
        # peak RSS (benchmark pairs)
        gs = (None if out is None else out.grad,
              None if pooled.grad is None else pooled.grad[order])
        (dx, *dfwd), (dx_bwd, *dbwd) = _at_once(
            lambda: [d() if callable(d) else d for d in grads_f(*half(0, *gs))[:4]],
            lambda: [d() if callable(d) else d for d in grads_b(*half(1, *gs))[:4]])
        dx += dx_bwd
        return (dx, *dfwd, *dbwd)

    _record(pooled if out is None else out,   # the states' record if any
            (x, fwd.wi, fwd.wh, fwd.b, bwd.wi, bwd.wh, bwd.b), _bw,
            None if out is None else pooled)
    return pooled, out


# ---------------------------------------------------------------------------
# SGD


def sgd_step(params: dict[str, Tensor], lr: float,
             clip_norm: float | None) -> None:
    """In-place p <- p - lr * g on every parameter with a gradient.

    Aborts without touching any parameter if a gradient is non-finite.
    Gradients are cleared afterwards.
    """
    live = [(name, p) for name, p in params.items() if p.grad is not None]
    bad = [name for name, p in live if not np.isfinite(p.grad).all()]
    if bad:
        raise GradientError(f"non-finite gradient in {bad}; step aborted")
    if clip_norm is not None:
        total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for _, p in live)))
        if total > clip_norm:
            factor = clip_norm / total
            for _, p in live:
                p.grad = p.grad * factor
    for _, p in live:
        p.data -= (lr * p.grad).astype(p.data.dtype, copy=False)
        p.grad = None
