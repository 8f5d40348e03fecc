"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions (brute
force, full DP matrices, straight-line formula transcriptions) and
shares no code with the package under test. Some exceptions are kept
as references of fused or packed paths: `lstm_layer_dense`, the dense
layer the packed one replaced, shares the step kernels, so the two can
be compared bit for bit; `take_rows`, the gather teacher forcing ran
before `lstm_layer` returned only the real step-rows, takes a (T, B, H)
reference's real rows in the order both LSTM ops return them, and
`dense_steps` scatters the ops' rows back into the (T, B, H) layout;
`lstm_cell`, the single
step composed from generic tape ops (with `sigmoid_` and `slice_last`,
which only it uses), records through the package's tape;
`bilstm_composed`, the six-record encoder that `bilstm_layer` replaced,
runs the package's `linear`, `lstm_layer` (its input projection the
identity, `gate_input_cell`), `dense_steps` and `max_over_time` one
after the other on one thread and returns its states in the (T, B, 2H)
layout `bilstm_layer` returned before it returned its real step-rows;
`teacher_forced_dense`, the decoder's teacher forcing before it gathered
its real target rows, runs a decoder's own recurrence (`lstm_layer`'s
rows scattered by `dense_steps`) and then scores all S * B rows (with
its own `reshape` and masked `nll_rows_masked`);
its attention path and `greedy_composed` are the attention decoder as
it ran before its steps joined `lstm_layer`: one `lstm_step` (two tape
records on the gate kernels) per step, fed by `attend_step`, which
composes each head's context from generic tape ops and the ops only it
used (`attn_scores`, `softmax_masked`, `attn_combine`, `stack_steps`),
over each head's key and value rows scattered into (T_k, B, A)
(`dense_head`, the layout the heads took before the encoder returned
its rows).
`lstm_gates_two_exp` is the gate kernel as it ran before its one tanh
pass, on the two-exp sigmoid (`sigmoid_two_exp`) that `sigmoid_` uses.
`greedy_serial` is greedy decoding as it ran on one thread, on the
package's gate kernels, before the worker made each step's state term.
`nll_rows` after `softmax`, two tape records, is the loss as it ran
before `cross_entropy_rows` fused them; `max_over_time`, the encoder's
pooling as it ran before `bilstm_layer` pooled as it stepped, is the
reference of `bilstm_layer`'s pooled output.
`backward_in_line` is the backward pass as it ran before weight
gradients left the calling thread: every gradient made when its record
is taken back and summed into `.grad` at once; `InlineExecutor` stands in
for the worker thread and runs what it is given at once.
"""

import math
import warnings
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace

import numpy as np

from nliexpl.autodiff import (LOG_FLOOR, EmptySequenceError, LstmParams,
                              NumericsWarning, ShapeError, Tensor,
                              _active_tape, _gate_grads, _gate_terms,
                              _lstm_gates, _record, _recurrent, add, concat,
                              dropout_mask, linear, lstm_layer, mul, sum_,
                              tanh_)
from nliexpl.models import DecodeResult


# ---------------------------------------------------------------------------
# Backward pass on one thread


def backward_in_line(tape, loss):
    """`autodiff.backward` with no deferral: each record's gradients,
    deferred ones called at once, summed into `.grad` in record order. A
    record with another output (`Tape.also`) runs if either has a
    gradient."""
    loss.grad = np.ones_like(loss.data)
    for out, inputs, backward_fn in reversed(tape.records):
        outs = [out, *([tape.also[out]] if out in tape.also else [])]
        if all(t.grad is None for t in outs):
            continue
        for t, gi in zip(inputs, backward_fn(out.grad)):
            if gi is None:
                continue
            gi = gi() if callable(gi) else gi
            t.grad = gi if t.grad is None else t.grad + gi
        for t in outs:
            if not t.is_param:
                t.grad = None
    for out, inputs, _ in tape.records:
        for t in inputs:
            if not t.is_param:
                t.grad = None
    tape.records.clear()
    tape.also.clear()


class InlineExecutor:
    """A stand-in for `autodiff._worker` that runs each task in `submit`."""

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except Exception as exc:
            done.set_exception(exc)
        return done


# ---------------------------------------------------------------------------
# Finite differences


def numeric_grad(f, params, eps=1e-3):
    """Central finite differences of the scalar function `f()`.

    `params` maps name -> Tensor (or any object with a `.data` ndarray);
    f() must re-run the forward pass and return a python float. Data is
    perturbed in place and restored. Use float64 parameters.
    """
    out = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f()
            flat[i] = orig - eps
            f_minus = f()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * eps)
        out[name] = g.reshape(p.data.shape)
    return out


def max_rel_err(analytic, numeric, floor=0.1):
    """Worst-case |a - n| / max(floor, |a|, |n|) over matching arrays."""
    worst = 0.0
    for name in numeric:
        a = np.asarray(analytic[name], dtype=np.float64)
        n = numeric[name]
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


# ---------------------------------------------------------------------------
# Pooling


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


def column_max(seq):
    """Per-column max by explicit iteration; seq is (T, d) or (T, B, d)."""
    seq = np.asarray(seq)
    out = seq[0].copy()
    for t in range(1, seq.shape[0]):
        step = seq[t]
        it = np.nditer(step, flags=["multi_index"])
        for v in it:
            if v > out[it.multi_index]:
                out[it.multi_index] = v
    return out


# ---------------------------------------------------------------------------
# Row layouts


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Rows `rows` of x (..., d) with its leading axes flattened to (N, d):
    a (T, B, d) sequence's row t * B + b is step t of batch row b. `rows`
    are distinct indices in [0, N) (otherwise ShapeError). Returns
    (len(rows), d); backward scatters the gradient into zeros of x's
    shape."""
    flat = x.data.reshape(-1, x.shape[-1])
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or len(np.unique(rows)) < len(rows) \
            or ((rows < 0) | (rows >= len(flat))).any():
        raise ShapeError(f"take_rows: rows must be distinct indices in "
                         f"[0, {len(flat)})")
    out = Tensor(flat[rows])

    def _bw(g):
        full = np.zeros(flat.shape, dtype=g.dtype)
        full[rows] = g
        return (full.reshape(x.shape),)

    _record(out, (x,), _bw)
    return out


def dense_steps(parts: list[Tensor], real: np.ndarray) -> Tensor:
    """LSTM states (P, d_k) of the P real step-rows in time-major order,
    as `lstm_layer` returns them, side by side in the (T, B, sum d_k)
    layout it returned before: row i of each part at the i-th True cell
    of `real` (T, B), pad steps 0. One tape record; backward gathers
    each part's rows."""
    widths = [p.shape[-1] for p in parts]
    out = np.zeros(real.shape + (sum(widths),), parts[0].dtype)
    out[real] = np.concatenate([p.data for p in parts], axis=1)
    splits = np.cumsum(widths)[:-1]
    result = Tensor(out)
    _record(result, tuple(parts),
            lambda g: tuple(np.split(g[real], splits, axis=1)))
    return result


# ---------------------------------------------------------------------------
# Scalar LSTM cell


def scalar_lstm_step(x, h, c, wi, wh, b):
    """Hand evaluation of the gate formulas for H = 1 scalars.

    wi, wh, b are length-4 sequences in (input, forget, cell, output)
    gate order; x, h, c are floats.
    """
    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    pre = [wi[k] * x + wh[k] * h + b[k] for k in range(4)]
    i, f, g, o = sig(pre[0]), sig(pre[1]), math.tanh(pre[2]), sig(pre[3])
    c_new = f * c + i * g
    h_new = o * math.tanh(c_new)
    return h_new, c_new


# ---------------------------------------------------------------------------
# Two-exp gate kernel


def sigmoid_two_exp(a: np.ndarray) -> np.ndarray:
    """The logistic function in its stable two-branch form, 1 / (1 +
    e^-a) for a >= 0 and e^a / (1 + e^a) below, with the branch taken by
    the numerator (e^0 is exactly 1)."""
    return np.exp(np.minimum(a, 0)) / (1.0 + np.exp(-np.abs(a)))


def lstm_gates_two_exp(z: np.ndarray, c: np.ndarray):
    """`autodiff._lstm_gates` as it ran before its one tanh pass: the
    sigmoid of all 4H columns in two exp passes, then tanh over the g
    block. Same arguments and outputs; z is left as it is."""
    H = c.shape[-1]
    act = sigmoid_two_exp(z)
    act[:, 2 * H:3 * H] = np.tanh(z[:, 2 * H:3 * H])
    i, f, g, o = (act[:, k * H:(k + 1) * H] for k in range(4))
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return act, c_new, tc, o * tc


# ---------------------------------------------------------------------------
# Composed LSTM cell


def sigmoid_(a: Tensor) -> Tensor:
    ad = a.data
    out = Tensor(sigmoid_two_exp(ad).astype(ad.dtype, copy=False))
    od = out.data
    _record(out, (a,), lambda g: (g * od * (1.0 - od),))
    return out


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis (used for gate splitting)."""
    out = Tensor(a.data[..., start:stop].copy())
    shape = a.shape

    def _bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[..., start:stop] = g
        return (full,)

    _record(out, (a,), _bw)
    return out


def lstm_cell(x: Tensor, h: Tensor, c: Tensor,
              params: LstmParams) -> tuple[Tensor, Tensor]:
    """One step of canonical LSTM gating out of generic tape ops.

    c' = sigmoid(f) * c + sigmoid(i) * tanh(g); h' = sigmoid(o) * tanh(c').
    Inputs are (B, D) / (B, H); returns (h', c').
    """
    H = params.wh.shape[1]
    if x.shape[-1] != params.wi.shape[1] or h.shape[-1] != H or c.shape[-1] != H:
        raise ShapeError(
            f"lstm_cell: x {x.shape}, h {h.shape}, c {c.shape} vs params "
            f"D={params.wi.shape[1]} H={H}")
    gates = add(linear(x, params.wi, params.b),
                linear(h, params.wh, Tensor(np.zeros(4 * H, h.dtype))))
    i = sigmoid_(slice_last(gates, 0, H))
    f = sigmoid_(slice_last(gates, H, 2 * H))
    g = tanh_(slice_last(gates, 2 * H, 3 * H))
    o = sigmoid_(slice_last(gates, 3 * H, 4 * H))
    c_new = add(mul(f, c), mul(i, g))
    h_new = mul(o, tanh_(c_new))
    return h_new, c_new


# ---------------------------------------------------------------------------
# Dense LSTM layer


def lstm_layer_dense(gx: Tensor, wh: Tensor, h0: Tensor | None = None,
                     c0: Tensor | None = None, lengths: np.ndarray | None = None,
                     reverse: bool = False,
                     rmask: np.ndarray | None = None) -> Tensor:
    """The dense `lstm_layer` that the packed one replaced, verbatim but
    for taking row `lengths` (B,) and making its (T, B) mask from them:
    every step runs over all B rows and pad steps blend the state
    through with 0/1 masks. The packed layer must match its float32
    forward states bit for bit.

    An LSTM over a whole sequence as one tape record.

    gx (T, B, 4H) holds each step's input projection x_t @ wi.T + b, wh
    (4H, H) the recurrent weights, h0/c0 (B, H) the initial state (None
    is a zero state). Returns the hidden states (T, B, H).

    `mask` (T, B) is False on pad steps: there the output is 0 and the
    state passes through unchanged. With `reverse` the steps run from
    T-1 down to 0, so each row's real prefix is read backwards starting
    from (h0, c0), exactly as if it had been reversed in place. `rmask`
    (B, H) is a recurrent dropout mask applied to the hidden state
    entering every step.

    Backward is backprop through time: it stacks the gate gradients,
    which are the gradient of gx, and computes the gradient of wh as one
    GEMM over all steps.
    """
    x, w = gx.data, wh.data
    if x.ndim != 3 or w.ndim != 2 or w.shape != (x.shape[2], x.shape[2] // 4) \
            or x.shape[2] % 4:
        raise ShapeError(f"lstm_layer: gx {x.shape} incompatible with wh {w.shape}")
    T, B, G = x.shape
    H = G // 4
    if T == 0:
        raise EmptySequenceError("lstm_layer: no timesteps")
    dtype = x.dtype
    given = [s0 for s0 in (h0, c0) if s0 is not None]
    if any(s0.shape != (B, H) for s0 in given):
        raise ShapeError(f"lstm_layer: initial state {[s0.shape for s0 in given]}, "
                         f"expected {(B, H)}")
    h, c = (np.zeros((B, H), dtype=dtype) if s0 is None else s0.data
            for s0 in (h0, c0))
    keep = None
    if lengths is not None:
        mask = np.arange(T)[:, None] < np.asarray(lengths)
        if mask.shape != (T, B):
            raise ShapeError(f"lstm_layer: mask {mask.shape}, expected {(T, B)}")
        # 0/1 blends instead of np.where, which is slow; exact for the
        # finite states an LSTM produces
        keep = mask[:, :, None].astype(dtype)
        held = 1.0 - keep
    if rmask is not None:
        rmask = np.asarray(rmask, dtype=dtype)
        if rmask.shape != (B, H):
            raise ShapeError(f"lstm_layer: rmask {rmask.shape}, expected {(B, H)}")
    steps = range(T - 1, -1, -1) if reverse else range(T)
    hs = np.empty((T, B, H), dtype=dtype)
    # the caches backward reads; with no tape recording nothing reads them
    recording = _active_tape() is not None
    if recording:
        acts = np.empty_like(x)
        c_prev, tanh_c, h_in = (np.empty((T, B, H), dtype=dtype)
                                for _ in range(3))
    for t in steps:
        h_t = h if rmask is None else h * rmask
        a_t, c_new, tc_t, h_new = _lstm_gates(x[t] + _recurrent(h_t, w), c)
        if recording:
            acts[t], c_prev[t], tanh_c[t], h_in[t] = a_t, c, tc_t, h_t
        if keep is None:
            h, c = h_new, c_new
            hs[t] = h
        else:
            hs[t] = h_new * keep[t]
            h = hs[t] + h * held[t]
            c = c_new * keep[t] + c * held[t]
    out = Tensor(hs)
    if not recording:
        return out

    def _bw(g):
        i, f, gc, o = (acts[..., k * H:(k + 1) * H] for k in range(4))
        # d(gate pre-activation) per unit of the c' gradient (i, f, g) or
        # of the h' gradient (o); only dc and dh are left to the loop
        per_dc = np.stack([gc * i * (1.0 - i), c_prev * f * (1.0 - f),
                           i * (1.0 - gc * gc)], axis=2)
        per_dh = tanh_c * o * (1.0 - o)
        dc_from_h = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty((T, B, 4, H), dtype=acts.dtype)
        dh = np.zeros((B, H), dtype=g.dtype)
        dc = np.zeros((B, H), dtype=g.dtype)
        for t in reversed(steps):
            dh_new = g[t] + dh
            dc_new = dc
            if keep is not None:
                dh_new *= keep[t]
                dc_new = dc * keep[t]
            dc_new = dc_new + dh_new * dc_from_h[t]
            np.multiply(per_dc[t], dc_new[:, None, :], out=dz[t, :, :3])
            np.multiply(per_dh[t], dh_new, out=dz[t, :, 3])
            dh_next = dz[t].reshape(B, G) @ w
            if rmask is not None:
                dh_next *= rmask
            dc_next = dc_new * f[t]
            if keep is not None:
                dh_next += dh * held[t]
                dc_next += dc * held[t]
            dh, dc = dh_next, dc_next
        dz = dz.reshape(T, B, G)
        dw = dz.reshape(-1, G).T @ h_in.reshape(-1, H)
        return (dz, dw) + tuple(d for s0, d in ((h0, dh), (c0, dc))
                                if s0 is not None)

    _record(out, (gx, wh, *given), _bw)
    return out


def gate_input_cell(wh: Tensor) -> LstmParams:
    """A cell with recurrent weights `wh` (4H, H) whose input projection
    is the identity with a zero bias, so that `lstm_layer(gx, cell)`
    runs on given gate inputs gx (T, B, 4H): multiplying by 1 and adding
    0s is exact in any float dtype, and the gradient of gx is that of
    the gate inputs."""
    G = wh.shape[0]
    return LstmParams(wi=Tensor(np.eye(G, dtype=wh.dtype)), wh=wh,
                      b=Tensor(np.zeros(G, dtype=wh.dtype)))


def bilstm_composed(x: Tensor, fwd: LstmParams, bwd: LstmParams,
                    lengths: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """The encoder as it ran before `bilstm_layer`, in six tape records:
    per direction an input `linear` and an `lstm_layer` on its gate
    inputs (the backward one reversed), the two halves side by side in
    the (T, B, 2H) layout (`dense_steps`, where `concat` joined the two
    (T, B, H) halves `lstm_layer` returned), then `max_over_time`.
    Returns (pooled, states)."""
    halves = [lstm_layer(linear(x, cell.wi, cell.b), gate_input_cell(cell.wh),
                         lengths=lengths, reverse=reverse)
              for cell, reverse in ((fwd, False), (bwd, True))]
    T, B = x.shape[:2]
    real = np.arange(T)[:, None] < (np.full(B, T) if lengths is None else lengths)
    states = dense_steps(halves, real)
    return max_over_time(states, lengths), states


# ---------------------------------------------------------------------------
# Softmax and NLL composed


def softmax(logits: Tensor) -> Tensor:
    """Row-wise stable softmax of `logits`, 1-D (n,) or 2-D (rows, n)."""
    x = logits.data
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    out = Tensor(e)

    def _bw(g):
        inner = (g * e).sum(axis=-1, keepdims=True)
        return (e * (g - inner),)

    _record(out, (logits,), _bw)
    return out


def nll_rows(probs: Tensor, targets: np.ndarray) -> Tensor:
    """-log probs[i, targets[i]] per row, clamped at the log floor.

    Probabilities below the floor are flagged with a NumericsWarning and
    contribute zero gradient (the clamp is flat there).
    """
    p = probs.data
    if p.ndim != 2:
        raise ShapeError(f"nll_rows: probs must be 2-D, got {p.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (p.shape[0],):
        raise ShapeError(f"nll_rows: targets {targets.shape} vs probs {p.shape}")
    rows = np.arange(p.shape[0])
    picked = p[rows, targets]
    clamped = np.maximum(picked, LOG_FLOOR)
    if (picked < LOG_FLOOR).any():
        warnings.warn("probability clamped at log floor", NumericsWarning,
                      stacklevel=2)
    out = Tensor((-np.log(clamped)).astype(p.dtype, copy=False))
    live = picked >= LOG_FLOOR

    def _bw(g):
        full = np.zeros(p.shape, dtype=g.dtype)
        full[rows, targets] = np.where(live, -g / clamped, 0.0)
        return (full,)

    _record(out, (probs,), _bw)
    return out


# ---------------------------------------------------------------------------
# Dense teacher forcing


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    old = a.shape
    _record(out, (a,), lambda g: (g.reshape(old),))
    return out


def nll_rows_masked(probs: Tensor, targets: np.ndarray,
                    mask: np.ndarray) -> Tensor:
    """`nll_rows` as it was with a row mask: rows where `mask` is falsy
    produce exactly 0 loss and no gradient (padded targets)."""
    p = probs.data
    rows = np.arange(p.shape[0])
    mask = np.asarray(mask, dtype=bool)
    picked = np.where(mask, p[rows, targets], 1.0)
    clamped = np.maximum(picked, LOG_FLOOR)
    out = Tensor((-np.log(clamped)).astype(p.dtype, copy=False))
    live = (picked >= LOG_FLOOR) & mask

    def _bw(g):
        full = np.zeros(p.shape, dtype=g.dtype)
        full[rows, targets] = np.where(live, -g / clamped, 0.0)
        return (full,)

    _record(out, (probs,), _bw)
    return out


# ---------------------------------------------------------------------------
# Composed attention decoder


def stack_steps(steps: list[Tensor]) -> Tensor:
    """Stack T same-shape tensors along a new leading time axis."""
    if not steps:
        raise EmptySequenceError("stack_steps: no timesteps")
    out = Tensor(np.stack([s.data for s in steps], axis=0))
    _record(out, tuple(steps), lambda g: tuple(g[t] for t in range(len(steps))))
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


def softmax_masked(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise stable softmax where masked positions get exactly 0.

    `mask` is a boolean array of the logits' shape, True on positions
    allowed to receive mass; a row with none is a ValueError.
    """
    x = logits.data
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"softmax: mask {mask.shape} vs logits {x.shape}")
    if not mask.any(axis=-1).all():
        raise ValueError("softmax: a row has all positions masked")
    e = np.where(mask, x, np.finfo(x.dtype).min)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e[~mask] = 0.0
    e /= e.sum(axis=-1, keepdims=True)
    out = Tensor(e.astype(logits.dtype, copy=False))
    sd = out.data

    def _bw(g):
        inner = (g * sd).sum(axis=-1, keepdims=True)
        return (sd * (g - inner),)

    _record(out, (logits,), _bw)
    return out


def lstm_step(gx: Tensor, h: Tensor, c: Tensor, wh: Tensor,
              rmask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One LSTM step on the package's gate kernels: gx (B, 4H) is the
    step's input projection with the bias added, h/c (B, H) the state,
    `rmask` (B, H) a recurrent dropout mask on h. Returns (h', c').

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


def dense_head(head):
    """An `autodiff.Attention` head with its key and value rows in the
    (T_k, B, A) layout the composed attention reads (`dense_steps`, pad
    steps 0), T_k the longest key length."""
    lengths = np.asarray(head.lengths)
    real = np.arange(lengths.max())[:, None] < lengths
    return replace(head, keys=dense_steps([head.keys], real),
                   values=dense_steps([head.values], real))


def head_step(head, h: Tensor) -> tuple[Tensor, Tensor]:
    """One attention head (an `autodiff.Attention`, its keys and values
    as `dense_head` lays them out) read from the decoder state h (B, H):
    (context (B, A), weights (B, T_k))."""
    query = tanh_(linear(h, head.wc, head.bc))
    width = head.keys.shape[0]
    real = np.arange(width)[None, :] < np.asarray(head.lengths)[:, None]
    weights = softmax_masked(attn_scores(query, head.keys), real)
    return attn_combine(weights, head.values), weights


def attend_step(decoder, emb: Tensor, heads, h: Tensor, c: Tensor,
                rmask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One attention decoder step from the state (h, c): the input
    [p_ctx, h_ctx, embedding] attends with h; returns (h', c')."""
    contexts = [head_step(head, h)[0] for head in heads]
    gx = linear(concat([*contexts, emb]), decoder.cell.wi, decoder.cell.b)
    return lstm_step(gx, h, c, decoder.cell.wh, rmask)


def teacher_forced_dense(decoder, embedding, source: Tensor,
                         inputs: np.ndarray, targets: np.ndarray,
                         lengths: np.ndarray, rng=None,
                         attn_ctx=None) -> DecodeResult:
    """`LstmDecoder.teacher_forced` as it was before it gathered the real
    target rows, with the same signature: the decoder's recurrence (with
    attention, one `attend_step` per step over all B rows), then the
    output projection, softmax and NLL over all S * B time-major rows,
    the pad rows' NLL zeroed by a mask."""
    B, S = inputs.shape
    target_mask = np.arange(S)[None, :] < lengths[:, None]
    h, c = decoder._init_state(source)
    rmask = None
    if rng is not None and decoder.dropout > 0.0:
        rmask = dropout_mask(rng, (B, decoder.hidden), decoder.dropout,
                             embedding.frozen.dtype)
    if decoder.attention:
        heads = [dense_head(a) for a in attn_ctx]
        steps = []
        for s in range(S):
            h, c = attend_step(decoder, embedding.lookup(inputs[:, s]),
                               heads, h, c, rmask)
            steps.append(h)
        hs = stack_steps(steps)
    else:
        hs = dense_steps([lstm_layer(embedding.lookup(inputs.T), decoder.cell,
                                     h, c, lengths,
                                     cond=decoder._cond(source, attn_ctx),
                                     rmask=rmask)], target_mask.T)
    rows = reshape(hs, (S * B, decoder.hidden))
    probs = softmax(linear(rows, decoder.w_out, decoder.b_out))
    flat_targets = targets.T.reshape(-1)
    flat_mask = target_mask.T.reshape(-1)
    nll = nll_rows_masked(probs, flat_targets, flat_mask)
    hits = probs.data.argmax(axis=1) == flat_targets
    return DecodeResult(nll_sum=sum_(nll), n_tokens=int(target_mask.sum()),
                        n_correct=int((hits & flat_mask).sum()))


def greedy_composed(decoder, embedding, source: Tensor, start_ids,
                    eos_id: int, attn_ctx=None):
    """`LstmDecoder.greedy` of the attention decoder as it was, with the
    same signature: one `attend_step` per step, then the output layer."""
    h, c = decoder._init_state(source)
    current = np.asarray(start_ids, dtype=np.int64)
    emitted = [[] for _ in current]
    done = np.zeros(len(current), dtype=bool)
    heads = [dense_head(a) for a in attn_ctx]
    for _ in range(decoder.max_len):
        h, c = attend_step(decoder, embedding.lookup(current), heads, h, c)
        nxt = linear(h, decoder.w_out, decoder.b_out).data.argmax(axis=1)
        for i in np.flatnonzero(~done & (nxt != eos_id)):
            emitted[i].append(int(nxt[i]))
        done |= nxt == eos_id
        if done.all():
            break
        current = nxt
    return emitted, [len(e) == 0 for e in emitted]


def greedy_serial(decoder, embedding, source: Tensor, start_ids, eos_id: int,
                  attn_ctx=None):
    """`LstmDecoder.greedy` as it ran on one thread, with the same
    signature, returning also the final state (h, c): each step's gate
    input x_t @ wx.T + the per-sequence term, plus the recurrent term,
    plus the heads' attention term, in that order, then the gates and
    the output head h @ w_out.T."""
    h, c = (t.data for t in decoder._init_state(source))
    wx, per_seq, ctx = _gate_terms(decoder.cell, decoder._cond(source, attn_ctx),
                                   np.arange(len(h)), False)
    wh, b_out = decoder.cell.wh.data, decoder.b_out.data
    w_out = decoder.w_out.data.T
    current = np.asarray(start_ids, dtype=np.int64)
    emitted = [[] for _ in current]
    done = np.zeros(len(current), dtype=bool)
    for _ in range(decoder.max_len):
        z = embedding.lookup(current).data @ wx.T + per_seq
        z = z + _recurrent(h, wh)
        if ctx is not None:
            z += ctx.term(h)
        _, c, _, h = _lstm_gates(z, c)
        logits = h @ w_out
        logits += b_out
        nxt = logits.argmax(axis=1)
        for i in np.flatnonzero(~done & (nxt != eos_id)):
            emitted[i].append(int(nxt[i]))
        done |= nxt == eos_id
        if done.all():
            break
        current = nxt
    return emitted, [len(e) == 0 for e in emitted], (h, c)


# ---------------------------------------------------------------------------
# Levenshtein (full-matrix DP)


def levenshtein_full(a, b):
    """Textbook full-matrix edit distance with unit costs."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


# ---------------------------------------------------------------------------
# BLEU (brute force, from the definition)


def _ngram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def brute_force_bleu(candidates, reference_sets, max_n=4):
    """Corpus BLEU computed naively from the definition.

    Clipped modified n-gram precisions for n = 1..4 with add-one
    smoothing on n >= 2 whenever the clipped count is zero (also when
    the denominator is zero), geometric mean with uniform weights, and
    brevity penalty exp(1 - r/c) for c < r where r sums each segment's
    closest reference length (ties -> shorter).
    """
    clipped = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    c_len = 0
    r_len = 0
    for cand, refs in zip(candidates, reference_sets):
        c_len += len(cand)
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(cand)), len(ref))
            if best is None or key < best:
                best = key
        r_len += best[1]
        for n in range(1, max_n + 1):
            cand_counts = Counter(_ngram_list(cand, n))
            for gram, count in cand_counts.items():
                max_in_refs = 0
                for ref in refs:
                    seen = 0
                    for i in range(len(ref) - n + 1):
                        if tuple(ref[i:i + n]) == gram:
                            seen += 1
                    max_in_refs = max(max_in_refs, seen)
                clipped[n] += min(count, max_in_refs)
                totals[n] += count
    log_sum = 0.0
    for n in range(1, max_n + 1):
        num, den = clipped[n], totals[n]
        if n >= 2 and num == 0:
            num, den = num + 1, den + 1
        if num == 0 or den == 0:
            return 0.0
        log_sum += 0.25 * math.log(num / den)
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_sum)


# ---------------------------------------------------------------------------
# Attention (straight-line transcription of the projection pipeline)


def straight_line_attention(h_p, h_h, h_dec, weights, p_mask, h_mask):
    """One attention step of the dual-head projection pipeline, written
    as unvectorized loops over timesteps.

    h_p: (Tp, A_in) premise states for ONE example; h_h: (Th, A_in);
    h_dec: (H_dec,); weights: dict with w1_p, b1_p, wc_p, bc_p, w2_p,
    b2_p and the _h twins (numpy arrays, (out, in) layout); masks are
    boolean per timestep. Returns (p_ctx, h_ctx, w_p, w_h).
    """
    def head(states, mask, w1, b1, wc, bc, w2, b2):
        T = states.shape[0]
        proj1 = [np.tanh(w1 @ states[t] + b1) for t in range(T)]
        projc = np.tanh(wc @ h_dec + bc)
        raw = np.array([float(projc @ proj1[t]) for t in range(T)])
        exps = np.zeros(T)
        m = max(raw[t] for t in range(T) if mask[t])
        for t in range(T):
            if mask[t]:
                exps[t] = math.exp(raw[t] - m)
        w = exps / exps.sum()
        proj2 = [np.tanh(w2 @ states[t] + b2) for t in range(T)]
        ctx = np.zeros_like(proj2[0])
        for t in range(T):
            ctx = ctx + w[t] * proj2[t]
        return ctx, w

    p_ctx, w_p = head(h_p, p_mask, weights["w1_p"], weights["b1_p"],
                      weights["wc_p"], weights["bc_p"], weights["w2_p"],
                      weights["b2_p"])
    h_ctx, w_h = head(h_h, h_mask, weights["w1_h"], weights["b1_h"],
                      weights["wc_h"], weights["bc_h"], weights["w2_h"],
                      weights["b2_h"])
    return p_ctx, h_ctx, w_p, w_h
