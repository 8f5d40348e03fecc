"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions (brute
force, full DP matrices, straight-line formula transcriptions) and
shares no code with the package under test. Three exceptions are kept
as references of the fused LSTM ops: `lstm_layer_dense`, the dense
layer the packed one replaced, shares the step kernels, so the two can
be compared bit for bit; `lstm_cell`, the single step composed from
generic tape ops (with `sigmoid_` and `slice_last`, which only it
uses), records through the package's tape; `bilstm_composed`, the
five-record encoder that `bilstm_layer` replaced, runs the package's
`linear`, `lstm_layer` and `concat` one after the other on one thread.
"""

import math
from collections import Counter

import numpy as np

from nliexpl.autodiff import (EmptySequenceError, LstmParams, ShapeError,
                              Tensor, _active_tape, _lstm_gates, _record,
                              _recurrent, _sigmoid, add, concat, linear,
                              lstm_layer, mul, tanh_)


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
# Composed LSTM cell


def sigmoid_(a: Tensor) -> Tensor:
    ad = a.data
    out = Tensor(_sigmoid(ad).astype(ad.dtype, copy=False))
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
    gates = add(linear(x, params.wi, params.b), linear(h, params.wh))
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
                     c0: Tensor | None = None, mask: np.ndarray | None = None,
                     reverse: bool = False,
                     rmask: np.ndarray | None = None) -> Tensor:
    """The dense `lstm_layer` that the packed one replaced, verbatim:
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
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
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


def bilstm_composed(x: Tensor, fwd: LstmParams, bwd: LstmParams,
                    mask: np.ndarray | None = None) -> Tensor:
    """The encoder's two directions as they ran before `bilstm_layer`,
    in five tape records: per direction an input `linear` and an
    `lstm_layer` (the backward one reversed), then `concat` of the two
    (T, B, H) halves."""
    halves = [lstm_layer(linear(x, cell.wi, cell.b), cell.wh, mask=mask,
                         reverse=reverse)
              for cell, reverse in ((fwd, False), (bwd, True))]
    return concat(halves)


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
