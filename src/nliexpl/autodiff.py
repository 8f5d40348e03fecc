"""Minimal reverse-mode autodiff engine on a numpy backend.

Implements exactly the operations the model zoo needs: affine maps
(one GEMM over all leading axes), elementwise arithmetic and tanh,
masked softmax, max-over-time pooling, concatenation, attention
contractions, embedding lookup with partially trainable rows, dropout,
a fused LSTM layer and step, and plain SGD with per-epoch learning-rate
decay.

The LSTM ops follow Appleyard, Kocisky & Blunsom 2016 (arXiv:1604.01946)
and share one fused gate kernel (`_lstm_gates`, derivatives `_gate_grads`).
`lstm_layer` runs a sequence as one tape record: the input projection is
one GEMM done before the recurrence, each step runs over the rows still
live only (packed sequences), pad masking and the backward direction
are done inside the op, and the recurrent weight gradient of backprop
through time is one GEMM over all steps. `bilstm_layer` runs both
directions of an encoder at once, one on a worker thread. `lstm_step`
is one step, for decoders whose next input needs the state (attention,
greedy decoding).
The cell composed from generic tape ops lives in `tests/oracles.py` as
their reference.

Forward passes record onto an explicit :class:`Tape`; `backward` walks
the tape once in reverse. Production paths run in float32; gradient
checking replays the same graph in float64 (cast parameters first).
"""

from __future__ import annotations

import itertools
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-12  # clamp for -log(p) on degenerate distributions


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class EmptySequenceError(ValueError):
    """A time-indexed op received zero timesteps."""


class MaskError(ValueError):
    """A mask is unusable: a softmax row with no unmasked position, or a
    sequence mask whose real steps are not a prefix of each row."""


class TapeError(RuntimeError):
    """Tape used out of order (backward before forward, or twice)."""


class GradientError(RuntimeError):
    """Non-finite gradients detected; the optimizer step was aborted."""


class NumericsWarning(RuntimeWarning):
    """A probability hit the log floor inside a loss."""


_node_ids = itertools.count(1)   # next() on it is atomic, on any thread


class Tensor:
    """Dense array with an optional gradient slot.

    `data` is row-major; production code keeps it float32, the gradient
    check harness casts parameters to float64 and every op follows the
    dtype of its inputs.
    """

    __slots__ = ("data", "grad", "node_id", "is_param", "name")

    def __init__(self, data, is_param: bool = False, name: str = ""):
        data = np.asarray(data)
        if not data.flags["C_CONTIGUOUS"]:
            data = np.ascontiguousarray(data)
        self.data = data
        self.grad: np.ndarray | None = None
        self.node_id = next(_node_ids)
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
        self._out_ids: set[int] = set()
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
        self._out_ids.add(out.node_id)


class _OpenTapes(threading.local):
    """Each thread's open tapes, innermost last: ops record there."""

    def __init__(self):
        self.stack: list[Tape] = []


_open_tapes = _OpenTapes()


def _active_tape() -> Tape | None:
    stack = _open_tapes.stack
    return stack[-1] if stack else None


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
    t = _active_tape()
    if t is not None:
        t.record(out, inputs, backward_fn)


def backward(tape: Tape, loss: Tensor) -> None:
    """Run reverse-mode accumulation from `loss` over `tape`.

    Populates `.grad` on every parameter reachable from `loss` and frees
    the gradient buffers of non-parameter intermediates.
    """
    if tape._done:
        raise TapeError("backward already ran on this tape")
    if loss.node_id not in tape._out_ids:
        raise TapeError("loss was not produced by a forward pass on this tape")
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")

    loss.grad = np.ones_like(loss.data)
    for out, inputs, backward_fn in reversed(tape.records):
        g = out.grad
        if g is None:
            continue
        grads = backward_fn(g)
        for t, gi in zip(inputs, grads):
            if gi is None:
                continue
            t.grad = gi if t.grad is None else t.grad + gi
        if not out.is_param:
            out.grad = None
    for out, inputs, _ in tape.records:
        for t in inputs:
            if not t.is_param:
                t.grad = None
    tape._done = True
    tape.records.clear()  # frees saved activations


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


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # Stable two-branch form, 1 / (1 + e^-a) for a >= 0 and
    # e^a / (1 + e^a) below, with the branch taken by the numerator
    # (e^0 is exactly 1): np.where is several times slower than exp here.
    return np.exp(np.minimum(a, 0)) / (1.0 + np.exp(-np.abs(a)))


def _gemm_rows(a: np.ndarray, gemm: bool) -> np.ndarray:
    """The row operand `a` (n, K) of a product that must run as gemm.

    numpy sends a one-row product to gemv, whose sums round differently
    from the same row inside a gemm. With `gemm`, a one-row `a` is
    repeated to two rows; the caller keeps the first n rows of the result.
    A row then rounds as in a two-row gemm, which is not always as in a
    large one: OpenBLAS takes a small-matrix sgemm path for products of
    few rows (see `lstm_layer` for the sizes where this shows).
    """
    return np.concatenate([a, a]) if gemm and a.shape[0] == 1 else a


def _flat_matmul(x: np.ndarray, w_t: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """x (..., K) @ w_t (K, N) as one GEMM over the flattened leading axes,
    written to `out` if given (one row more for a one-row sequence).

    A sequence (x.ndim > 2) that flattens to one row still runs as gemm,
    so that a one-token, one-row sequence rounds like the same row of a
    longer padded one.
    """
    x2 = x.reshape(-1, x.shape[-1])
    return np.matmul(_gemm_rows(x2, x.ndim > 2), w_t, out=out)[:x2.shape[0]]


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w.T + b with w of shape (out, in); x may be (..., in).

    Leading axes are flattened, so a (T, B, in) sequence is one GEMM.
    """
    if w.data.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: x {x.shape} incompatible with w {w.shape}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} incompatible with w {w.shape}")
    xd, wd = x.data, w.data
    y = _flat_matmul(xd, wd.T)
    if b is not None:
        y += b.data
    out = Tensor(y.reshape(xd.shape[:-1] + (wd.shape[0],)))

    def _bw(g):
        g2 = g.reshape(-1, wd.shape[0])
        x2 = xd.reshape(-1, wd.shape[1])
        gx = (g2 @ wd).reshape(xd.shape)
        gw = g2.T @ x2
        if b is None:
            return (gx, gw)
        return (gx, gw, g2.sum(axis=0))

    inputs = (x, w) if b is None else (x, w, b)
    _record(out, inputs, _bw)
    return out


def cond_linear(x: Tensor, cond: Tensor, w: Tensor,
                b: Tensor | None = None) -> Tensor:
    """y[t] = [x[t], cond] @ w.T + b for every step t of a sequence.

    x is (T, B, D); cond (B, C) is the same at every step, so its product
    with the last C columns of w (out, D + C) is computed once and
    broadcast over T.
    """
    xd, cd, wd = x.data, cond.data, w.data
    if (xd.ndim != 3 or cd.ndim != 2 or wd.ndim != 2 or cd.shape[0] != xd.shape[1]
            or xd.shape[2] + cd.shape[1] != wd.shape[1]):
        raise ShapeError(f"cond_linear: x {xd.shape}, cond {cd.shape} "
                         f"incompatible with w {wd.shape}")
    if b is not None and b.shape != (wd.shape[0],):
        raise ShapeError(f"cond_linear: bias {b.shape} incompatible with w {wd.shape}")
    T, B, D = xd.shape
    n = wd.shape[0]
    wx, wc = wd[:, :D], wd[:, D:]
    per_seq = cd @ wc.T
    if b is not None:
        per_seq += b.data
    y = _flat_matmul(xd, wx.T).reshape(T, B, n)
    y += per_seq
    out = Tensor(y)

    def _bw(g):
        g2 = g.reshape(-1, n)
        gs = g.sum(axis=0)
        gw = np.concatenate([g2.T @ xd.reshape(-1, D), gs.T @ cd], axis=1)
        grads = ((g2 @ wx).reshape(xd.shape), gs @ wc, gw)
        return grads if b is None else grads + (gs.sum(axis=0),)

    inputs = (x, cond, w) if b is None else (x, cond, w, b)
    _record(out, inputs, _bw)
    return out


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    _record(out, tuple(parts), lambda g: tuple(np.split(g, splits, axis=axis)))
    return out


def sum_(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(), dtype=a.dtype))
    shape = a.shape
    _record(out, (a,), lambda g: (np.broadcast_to(g, shape).astype(g.dtype),))
    return out


# ---------------------------------------------------------------------------
# Softmax and losses


def softmax(logits: Tensor, mask: np.ndarray | None = None,
            overwrite: bool = False) -> Tensor:
    """Row-wise stable softmax; masked positions get exactly 0.

    `logits` is 1-D (n,) or 2-D (rows, n); `mask` is a boolean array of
    the same shape, True on positions allowed to receive mass. Every row
    must keep at least one unmasked position. With `overwrite`, the
    result is computed in the buffer of `logits`, which the caller must
    not read afterwards (neither backward pass needs it); for large
    vocabularies this keeps one (rows, n) array live instead of two.
    """
    x = logits.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ShapeError(f"softmax: mask {mask.shape} vs logits {x.shape}")
        if not mask.any(axis=-1).all():
            raise MaskError("softmax: a row has all positions masked")
        neg = np.finfo(x.dtype).min
        x = np.where(mask, x, neg)
        overwrite = True   # x is already a private copy
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=x if overwrite else None)
    np.exp(e, out=e)
    if mask is not None:
        e[~mask] = 0.0
    e /= e.sum(axis=-1, keepdims=True)
    out = Tensor(e.astype(logits.dtype, copy=False))
    sd = out.data

    def _bw(g):
        inner = (g * sd).sum(axis=-1, keepdims=True)
        return (sd * (g - inner),)

    _record(out, (logits,), _bw)
    return out


def nll_rows(probs: Tensor, targets: np.ndarray,
             mask: np.ndarray | None = None) -> Tensor:
    """-log probs[i, targets[i]] per row, clamped at the log floor.

    Probabilities below the floor are flagged with a NumericsWarning and
    contribute zero gradient (the clamp is flat there). Rows where
    `mask` is falsy produce exactly 0 loss and no gradient (used for
    padded targets).
    """
    p = probs.data
    if p.ndim != 2:
        raise ShapeError(f"nll_rows: probs must be 2-D, got {p.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (p.shape[0],):
        raise ShapeError(f"nll_rows: targets {targets.shape} vs probs {p.shape}")
    rows = np.arange(p.shape[0])
    picked = p[rows, targets]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        picked = np.where(mask, picked, 1.0)
    clamped = np.maximum(picked, LOG_FLOOR)
    if (picked < LOG_FLOOR).any():
        warnings.warn("probability clamped at log floor", NumericsWarning,
                      stacklevel=2)
    out = Tensor((-np.log(clamped)).astype(p.dtype, copy=False))
    shape = p.shape
    live = picked >= LOG_FLOOR
    if mask is not None:
        live = live & mask

    def _bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[rows, targets] = np.where(live, -g / clamped, 0.0)
        return (full,)

    _record(out, (probs,), _bw)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    old = a.shape
    _record(out, (a,), lambda g: (g.reshape(old),))
    return out


# ---------------------------------------------------------------------------
# Sequence ops


def stack_steps(steps: list[Tensor]) -> Tensor:
    """Stack T same-shape tensors along a new leading time axis."""
    if not steps:
        raise EmptySequenceError("stack_steps: no timesteps")
    out = Tensor(np.stack([s.data for s in steps], axis=0))
    _record(out, tuple(steps), lambda g: tuple(g[t] for t in range(len(steps))))
    return out


def max_over_time(seq: Tensor, lengths: np.ndarray | None = None) -> Tensor:
    """Per-dimension max over the leading time axis.

    `seq` is (T, d) or (T, B, d). With `lengths` (B,), only timesteps
    t < lengths[b] participate for row b. Backward routes the gradient
    to the first maximal timestep per dimension.
    """
    x = seq.data
    if x.ndim not in (2, 3):
        raise ShapeError(f"max_over_time: expected (T,d) or (T,B,d), got {x.shape}")
    T = x.shape[0]
    if T == 0:
        raise EmptySequenceError("max_over_time: empty sequence")
    if lengths is None:
        masked = x
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        if x.ndim != 3 or lengths.shape != (x.shape[1],):
            raise ShapeError("max_over_time: lengths must be (B,) with (T,B,d) input")
        if (lengths < 1).any():
            raise EmptySequenceError("max_over_time: a row has zero real timesteps")
        valid = (np.arange(T)[:, None] < lengths[None, :])  # (T,B)
        masked = np.where(valid[..., None], x, -np.inf)
    idx = masked.argmax(axis=0)  # first occurrence on ties
    out = Tensor(np.take_along_axis(x, idx[None], axis=0)[0])
    shape = x.shape

    def _bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.put_along_axis(full, idx[None], g[None], axis=0)
        return (full,)

    _record(out, (seq,), _bw)
    return out


def attn_scores(query: Tensor, keys: Tensor) -> Tensor:
    """Dot products of one query per batch row with all timestep keys.

    query (B, A), keys (T, B, A) -> scores (B, T).
    """
    q, k = query.data, keys.data
    if q.ndim != 2 or k.ndim != 3 or k.shape[1:] != q.shape:
        raise ShapeError(f"attn_scores: query {q.shape} vs keys {k.shape}")
    out = Tensor(np.einsum("ba,tba->bt", q, k, optimize=True))

    def _bw(g):
        gq = np.einsum("bt,tba->ba", g, k, optimize=True)
        gk = np.einsum("bt,ba->tba", g, q, optimize=True)
        return (gq, gk)

    _record(out, (query, keys), _bw)
    return out


def attn_combine(weights: Tensor, values: Tensor) -> Tensor:
    """Weighted sum of timestep values: (B,T) x (T,B,A) -> (B,A)."""
    w, v = weights.data, values.data
    if w.ndim != 2 or v.ndim != 3 or (v.shape[0], v.shape[1]) != (w.shape[1], w.shape[0]):
        raise ShapeError(f"attn_combine: weights {w.shape} vs values {v.shape}")
    out = Tensor(np.einsum("bt,tba->ba", w, v, optimize=True))

    def _bw(g):
        gw = np.einsum("ba,tba->bt", g, v, optimize=True)
        gv = np.einsum("bt,ba->tba", w, g, optimize=True)
        return (gw, gv)

    _record(out, (weights, values), _bw)
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
    if hit.any():
        rows = rows.copy()
        rows[hit] = trainable.data[sl[hit]]
    out = Tensor(rows)
    k = trainable.shape[0]

    def _bw(g):
        gt = np.zeros((k, g.shape[-1]), dtype=g.dtype)
        if hit.any():
            np.add.at(gt, sl[hit], g[hit])
        return (gt,)

    _record(out, (trainable,), _bw)
    return out


# ---------------------------------------------------------------------------
# Dropout


def dropout_mask(rng: np.random.Generator, shape, rate: float,
                 dtype=np.float32) -> np.ndarray:
    """Inverted-dropout mask: Bernoulli(1-rate) scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
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

    z (B, 4H) are the gate pre-activations and c (B, H) the cell state.
    Returns the activations [i, f, g, o] (B, 4H), the new cell state,
    its tanh, and the new hidden state: c' = sigmoid(f) * c +
    sigmoid(i) * tanh(g) and h' = sigmoid(o) * tanh(c').
    """
    H = c.shape[-1]
    act = _sigmoid(z)
    act[:, 2 * H:3 * H] = np.tanh(z[:, 2 * H:3 * H])
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
    # h @ w.T, computed as (w @ h.T).T, which OpenBLAS runs about a fifth
    # faster for the (B, H) x (H, 4H) product of a step
    return (w @ h.T).T


def lstm_step(gx: Tensor, h: Tensor, c: Tensor, wh: Tensor,
              rmask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One LSTM step on `lstm_layer`'s kernel: gx (B, 4H) is the step's
    input projection with the bias added, h/c (B, H) the state, `rmask`
    (B, H) a recurrent dropout mask on h. Returns (h', c').

    Two tape records: c' carries the step's whole backward; h' passes
    its gradient on to c' and keeps it for the output gate, so backward
    is complete whichever output a loss reads.
    """
    x, w = gx.data, wh.data
    if x.ndim != 2 or w.ndim != 2 or w.shape != (x.shape[1], x.shape[1] // 4) \
            or x.shape[1] % 4:
        raise ShapeError(f"lstm_step: gx {x.shape} incompatible with wh {w.shape}")
    B, G = x.shape
    H = G // 4
    if h.shape != (B, H) or c.shape != (B, H):
        raise ShapeError(f"lstm_step: state {h.shape}, {c.shape}, "
                         f"expected {(B, H)}")
    h_in = h.data
    if rmask is not None:
        rmask = np.asarray(rmask, dtype=x.dtype)
        if rmask.shape != (B, H):
            raise ShapeError(f"lstm_step: rmask {rmask.shape}, expected {(B, H)}")
        h_in = h_in * rmask
    acts, c_new, tc, h_new = _lstm_gates(x + _recurrent(h_in, w), c.data)
    h_out, c_out = Tensor(h_new), Tensor(c_new)
    if _active_tape() is None:
        return h_out, c_out
    per_dc, per_dh, dc_from_h = _gate_grads(acts, c.data, tc)
    f = acts[:, H:2 * H].copy()   # so that backward keeps no view of acts
    dh_new = [0.0]   # the gradient of h', once its record has run

    def _bw(g):
        dz = np.empty((B, 4, H), dtype=x.dtype)
        np.multiply(per_dc, g[:, None, :], out=dz[:, :3])
        np.multiply(per_dh, dh_new[0], out=dz[:, 3])
        dz = dz.reshape(B, G)
        dh = dz @ w
        if rmask is not None:
            dh *= rmask
        return (dz, dh, g * f, dz.T @ h_in)

    def _bw_h(g):
        dh_new[0] = g
        return (g * dc_from_h,)

    _record(c_out, (gx, h, c, wh), _bw)
    _record(h_out, (c_out,), _bw_h)
    return h_out, c_out


def _prefix_lengths(mask: np.ndarray | None, T: int, B: int, op: str) -> np.ndarray:
    """Row lengths of a (T, B) mask that must be a prefix of each row."""
    if mask is None:
        return np.full(B, T)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (T, B):
        raise ShapeError(f"{op}: mask {mask.shape}, expected {(T, B)}")
    lengths = mask.sum(axis=0)
    if not np.array_equal(mask, np.arange(T)[:, None] < lengths):
        raise MaskError(f"{op}: mask is not a prefix of real steps")
    return lengths


def lstm_layer(gx: Tensor, wh: Tensor, h0: Tensor | None = None,
               c0: Tensor | None = None, mask: np.ndarray | None = None,
               reverse: bool = False, rmask: np.ndarray | None = None) -> Tensor:
    """An LSTM over a whole sequence as one tape record.

    gx (T, B, 4H) holds each step's input projection x_t @ wi.T + b, wh
    (4H, H) the recurrent weights, h0/c0 (B, H) the initial state (None
    is a zero state). Returns the hidden states (T, B, H).

    `mask` (T, B) is True on each row's real steps, which must be a
    prefix: `mask[t, b]` is `t < lengths[b]` (otherwise MaskError);
    None means every row has length T. Pad steps output 0. With
    `reverse` the steps run from T-1 down to 0, so each row's real
    prefix is read backwards starting from (h0, c0), exactly as if it
    had been reversed in place. `rmask` (B, H) is a recurrent dropout
    mask applied to the hidden state entering every step.

    The recurrence is `_lstm_scan`, run here on the calling thread;
    `bilstm_layer` runs it too, one direction on a worker thread.
    """
    x, w = gx.data, wh.data
    if x.ndim != 3 or w.ndim != 2 or w.shape != (x.shape[2], x.shape[2] // 4) \
            or x.shape[2] % 4:
        raise ShapeError(f"lstm_layer: gx {x.shape} incompatible with wh {w.shape}")
    T, B, G = x.shape
    H = G // 4
    if T == 0:
        raise EmptySequenceError("lstm_layer: no timesteps")
    given = [s0 for s0 in (h0, c0) if s0 is not None]
    if any(s0.shape != (B, H) for s0 in given):
        raise ShapeError(f"lstm_layer: initial state {[s0.shape for s0 in given]}, "
                         f"expected {(B, H)}")
    lengths = _prefix_lengths(mask, T, B, "lstm_layer")
    if rmask is not None:
        rmask = np.asarray(rmask, dtype=x.dtype)
        if rmask.shape != (B, H):
            raise ShapeError(f"lstm_layer: rmask {rmask.shape}, expected {(B, H)}")
    hs = np.zeros((T, B, H), dtype=x.dtype)
    bptt = _lstm_scan(x, w, *(None if s0 is None else s0.data for s0 in (h0, c0)),
                      lengths, reverse, rmask, hs, _active_tape() is not None)
    out = Tensor(hs)
    if bptt is not None:
        _record(out, (gx, wh, *given),
                lambda g: tuple(d for d in bptt(g) if d is not None))
    return out


def _lstm_scan(x: np.ndarray, w: np.ndarray, h0: np.ndarray | None,
               c0: np.ndarray | None, lengths: np.ndarray, reverse: bool,
               rmask: np.ndarray | None, hs: np.ndarray, recording: bool):
    """`lstm_layer` on checked arrays and no tape, so any thread can run
    it: writes the states into the zeroed `hs` (T, B, H), maybe a view,
    and returns None or, `recording`, the BPTT g -> (dgx, dwh, dh0, dc0)
    (None for a state not given). Packed sequences, as in the README:
    rows sorted once by descending length, each step over the live
    prefix, several rows always through gemm (`_gemm_rows`)."""
    T, B, G = x.shape
    H = G // 4
    dtype = x.dtype
    order = np.argsort(-lengths, kind="stable")
    live = (lengths > np.arange(T)[:, None]).sum(axis=1)
    steps = np.flatnonzero(live)   # steps with no live row are skipped
    if reverse:
        steps = steps[::-1]
    gemm = B > 1
    # states in sorted row order; rows past the live prefix are left alone
    h, c = (np.zeros((B, H), dtype=dtype) if s0 is None else s0[order]
            for s0 in (h0, c0))
    rm = None if rmask is None else rmask[order]
    # the caches backward reads; with no tape recording nothing reads them
    if recording:
        P = int(live.sum())
        acts = np.empty((P, G), dtype=dtype)
        c_prev, tanh_c, h_in = (np.empty((P, H), dtype=dtype) for _ in range(3))
        s = 0
    for t in steps:
        n = live[t]
        rows = order[:n]
        h_t = h[:n] if rm is None else h[:n] * rm[:n]
        z = x[t, rows] + _recurrent(_gemm_rows(h_t, gemm), w)[:n]
        a_t, c_new, tc_t, h_new = _lstm_gates(z, c[:n])
        if recording:
            acts[s:s + n], c_prev[s:s + n], tanh_c[s:s + n], h_in[s:s + n] = \
                a_t, c[:n], tc_t, h_t
            s += n
        h[:n], c[:n] = h_new, c_new
        hs[t, rows] = h_new
    if not recording:
        return None

    def bptt(g):
        # only dc and dh are left to the loop
        per_dc, per_dh, dc_from_h = _gate_grads(acts, c_prev, tanh_c)
        f = acts[:, H:2 * H]
        dz = np.empty((P, 4, H), dtype=acts.dtype)
        dh = np.zeros((B, H), dtype=g.dtype)
        dc = np.zeros((B, H), dtype=g.dtype)
        end = P
        for t in steps[::-1]:
            n = live[t]
            blk = slice(end - n, end)
            end -= n
            dh_new = g[t, order[:n]] + dh[:n]
            dc_new = dc[:n] + dh_new * dc_from_h[blk]
            np.multiply(per_dc[blk], dc_new[:, None, :], out=dz[blk, :3])
            np.multiply(per_dh[blk], dh_new, out=dz[blk, 3])
            dh_next = (_gemm_rows(dz[blk].reshape(n, G), gemm) @ w)[:n]
            if rm is not None:
                dh_next *= rm[:n]
            dh[:n] = dh_next
            dc[:n] = dc_new * f[blk]
        dz = dz.reshape(P, G)
        dgx = np.zeros((T, B, G), dtype=dz.dtype)
        # (order[:0] keeps the concatenation defined when no row is live)
        dgx[np.repeat(steps, live[steps]),
            np.concatenate([order[:0], *(order[:live[t]] for t in steps)])] = dz
        unsort = np.argsort(order)
        return dgx, dz.T @ h_in, *(None if s0 is None else d[unsort]
                                   for s0, d in ((h0, dh), (c0, dc)))

    return bptt


def _new_worker() -> None:
    """One thread for the life of the process, started on first use; a
    forked child gets its own, as it inherits the executor but no thread."""
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="nliexpl-bilstm")


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


def _at_once(here, there):
    """(here(), there()), `there` run on the worker; waits for both."""
    later = _worker.submit(there)
    try:
        first = here()
    finally:
        second = later.result()
    return first, second


def bilstm_layer(x: Tensor, fwd: LstmParams, bwd: LstmParams,
                 mask: np.ndarray | None = None) -> Tensor:
    """Both directions of an encoder over x (T, B, D), from zero states,
    as one tape record: states (T, B, 2H), `fwd` reading each row forward
    and `bwd` in reverse; `mask` as in `lstm_layer`. Each direction's
    input GEMM, `_lstm_scan` and gradients run at once with the other's,
    `bwd` on the worker thread; checks, tensors and the record stay on
    this one. Bit-identical to `linear`, `lstm_layer` (x2) and `concat`.
    """
    xd = x.data
    H = fwd.wh.shape[-1]
    if xd.ndim != 3 or any((c.wi.shape, c.wh.shape, c.b.shape) != (
            (4 * H, xd.shape[-1]), (4 * H, H), (4 * H,)) for c in (fwd, bwd)):
        raise ShapeError(f"bilstm_layer: x {xd.shape} incompatible with "
                         f"wi {fwd.wi.shape}, {bwd.wi.shape}")
    T, B, D = xd.shape
    if T == 0:
        raise EmptySequenceError("bilstm_layer: no timesteps")
    lengths = _prefix_lengths(mask, T, B, "bilstm_layer")
    recording = _active_tape() is not None
    dtype = np.result_type(xd, fwd.wi.data)
    hs = np.zeros((T, B, 2 * H), dtype)
    # allocated on this thread: memory the worker frees stays in its own
    # malloc arena, where the rest of the process cannot reuse it
    gxs = [np.empty((max(T * B, 2), 4 * H), dtype) for _ in range(2)]

    def direction(cell, reverse, out, gx):
        wi = cell.wi.data
        gx = _flat_matmul(xd, wi.T, gx)
        gx += cell.b.data
        bptt = _lstm_scan(gx.reshape(T, B, 4 * H), cell.wh.data, None, None,
                          lengths, reverse, None, out, recording)

        def grads(g):
            dgx, dwh = bptt(g)[:2]
            dgx = dgx.reshape(-1, 4 * H)
            return ((dgx @ wi).reshape(xd.shape), dgx.T @ xd.reshape(-1, D), dwh,
                    dgx.sum(axis=0))
        return grads

    grads_f, grads_b = _at_once(lambda: direction(fwd, False, hs[..., :H], gxs[0]),
                                lambda: direction(bwd, True, hs[..., H:], gxs[1]))
    out = Tensor(hs)
    if not recording:
        return out

    def _bw(g):
        (dx, *dfwd), (dx_bwd, *dbwd) = _at_once(lambda: grads_f(g[..., :H]),
                                                lambda: grads_b(g[..., H:]))
        dx += dx_bwd
        return (dx, *dfwd, *dbwd)

    _record(out, (x, fwd.wi, fwd.wh, fwd.b, bwd.wi, bwd.wh, bwd.b), _bw)
    return out


# ---------------------------------------------------------------------------
# SGD


@dataclass
class SgdState:
    """Learning-rate schedule state: lr(epoch) = base * decay**epoch."""

    base_lr: float = 0.1
    decay: float = 0.99
    epoch: int = 0

    @property
    def lr(self) -> float:
        return self.base_lr * self.decay ** self.epoch

    def advance_epoch(self) -> None:
        self.epoch += 1


def sgd_step(params: dict[str, Tensor], state: SgdState,
             clip_norm: float | None = None) -> None:
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
    lr = state.lr
    for _, p in live:
        p.data -= (lr * p.grad).astype(p.data.dtype, copy=False)
        p.grad = None
