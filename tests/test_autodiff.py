"""Tests for the tape-based autodiff engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nliexpl import autodiff as ad
from oracles import (column_max, lstm_layer_dense, max_rel_err, numeric_grad,
                     scalar_lstm_step)


def f64(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


def f64_param(x, name):
    return ad.param(np.asarray(x, dtype=np.float64), name)


def check_op_gradient(build_loss, params, eps=1e-3, tol=1e-4):
    """Analytic grads from one backward vs central differences (float64)."""
    for p in params.values():
        p.grad = None
    with ad.Tape() as tape:
        loss = build_loss()
    ad.backward(tape, loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}
    numeric = {}

    def run():
        return float(build_loss().data)

    numeric = numeric_grad(run, params, eps=eps)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: max rel err {err:.3e}"


class TestElementwise:
    def test_add_sub_mul_values(self):
        a, b = f64([1.0, 2.0]), f64([3.0, -1.0])
        np.testing.assert_allclose(ad.add(a, b).data, [4.0, 1.0])
        np.testing.assert_allclose(ad.sub(a, b).data, [-2.0, 3.0])
        np.testing.assert_allclose(ad.mul(a, b).data, [3.0, -2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(f64([1.0]), f64([1.0, 2.0]))

    def test_abs_sign_subgradient_zero_at_zero(self):
        x = f64_param([-2.0, 0.0, 3.0], "x")
        with ad.Tape() as tape:
            loss = ad.sum_(ad.abs_(x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_binary_gradients(self, op):
        rng = np.random.default_rng(0)
        a = f64_param(rng.normal(size=(3, 4)), "a")
        b = f64_param(rng.normal(size=(3, 4)), "b")
        check_op_gradient(lambda: ad.sum_(op(a, b)), {"a": a, "b": b})

    @pytest.mark.parametrize("op", [ad.tanh_, ad.sigmoid_, ad.abs_])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(1)
        a = f64_param(rng.normal(size=(2, 5)) + 0.1, "a")
        check_op_gradient(lambda: ad.sum_(op(a)), {"a": a})


class TestAffine:
    def test_matmul_linear_values(self):
        a = f64([[1.0, 2.0], [3.0, 4.0]])
        b = f64([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(ad.matmul(a, b).data, a.data)
        w = f64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # (out=3, in=2)
        bias = f64([1.0, 1.0, 1.0])
        y = ad.linear(f64([[1.0, 1.0]]), w, bias)
        np.testing.assert_allclose(y.data, [[4.0, 8.0, 12.0]])

    def test_sum_of_linear_map_grad_is_input_broadcast(self):
        # loss = sum(W @ x): dL/dW[i, j] = x[j] for every row i
        rng = np.random.default_rng(2)
        x = f64(rng.normal(size=(4, 1)))
        w = f64_param(rng.normal(size=(3, 4)), "w")
        with ad.Tape() as tape:
            loss = ad.sum_(ad.matmul(w, x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(w.grad, np.tile(x.data.T, (3, 1)))

    def test_linear_gradients_2d_and_3d(self):
        rng = np.random.default_rng(3)
        w = f64_param(rng.normal(size=(3, 4)), "w")
        b = f64_param(rng.normal(size=3), "b")
        x2 = f64_param(rng.normal(size=(5, 4)), "x2")
        check_op_gradient(lambda: ad.sum_(ad.linear(x2, w, b)),
                          {"w": w, "b": b, "x2": x2})
        x3 = f64_param(rng.normal(size=(2, 5, 4)), "x3")
        check_op_gradient(lambda: ad.sum_(ad.tanh_(ad.linear(x3, w, b))),
                          {"w": w, "b": b, "x3": x3})

    def test_cond_linear_matches_linear_on_concatenated_input(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(4, 3, 2))
        cond = rng.normal(size=(3, 5))
        w = f64(rng.normal(size=(6, 7)))
        b = f64(rng.normal(size=6))
        cat = np.concatenate([x, np.broadcast_to(cond, (4, 3, 5))], axis=2)
        np.testing.assert_allclose(ad.cond_linear(f64(x), f64(cond), w, b).data,
                                   ad.linear(f64(cat), w, b).data, rtol=1e-12)
        with pytest.raises(ad.ShapeError):
            ad.cond_linear(f64(x), f64(cond[:, :4]), w, b)

    def test_concat_slice_gradients(self):
        rng = np.random.default_rng(4)
        a = f64_param(rng.normal(size=(2, 3)), "a")
        b = f64_param(rng.normal(size=(2, 2)), "b")

        def loss():
            cat = ad.concat([a, b])
            return ad.sum_(ad.mul(ad.slice_last(cat, 1, 4), ad.slice_last(cat, 0, 3)))

        check_op_gradient(loss, {"a": a, "b": b})


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = ad.softmax(f64([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_two_term_closed_form_with_mask(self):
        # mask position 2 of [1, 2, 3]: remaining mass is the two-term
        # logistic split 1/(1+e) and e/(1+e)
        e = math.e
        out = ad.softmax(f64([1.0, 2.0, 3.0]), mask=np.array([True, True, False]))
        np.testing.assert_allclose(out.data, [1 / (1 + e), e / (1 + e), 0.0],
                                   rtol=1e-12)
        assert out.data[2] == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, logits, c):
        base = ad.softmax(f64(logits)).data
        shifted = ad.softmax(f64([v + c for v in logits])).data
        np.testing.assert_allclose(base, shifted, atol=1e-6)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, logits):
        out = ad.softmax(f64(logits)).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out > 0).all()

    def test_all_masked_is_error(self):
        with pytest.raises(ad.MaskError):
            ad.softmax(f64([1.0, 2.0]), mask=np.array([False, False]))

    def test_rowwise_mask_zeroes_exactly(self):
        logits = f64(np.arange(6, dtype=np.float64).reshape(2, 3))
        mask = np.array([[True, False, True], [True, True, True]])
        out = ad.softmax(logits, mask=mask).data
        assert out[0, 1] == 0.0
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_overwrite_gives_identical_values_in_the_logits_buffer(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(size=(4, 6)).astype(np.float32)
        expected = ad.softmax(ad.Tensor(logits.copy())).data
        t = ad.Tensor(logits)
        out = ad.softmax(t, overwrite=True)
        np.testing.assert_array_equal(out.data, expected)
        assert np.shares_memory(out.data, logits)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = f64_param(rng.normal(size=(3, 5)), "x")
        mask = np.ones((3, 5), dtype=bool)
        mask[1, 2] = False
        w = rng.normal(size=(3, 5))

        def loss():
            return ad.sum_(ad.mul_const(ad.softmax(x, mask=mask), w))

        check_op_gradient(loss, {"x": x})


class TestCrossEntropy:
    def test_certain_prediction_is_zero(self):
        loss = ad.nll_rows(f64([[1.0, 0.0, 0.0]]), np.array([0]))
        assert float(loss.data[0]) == 0.0

    def test_uniform_four_way(self):
        loss = ad.nll_rows(f64([[0.25] * 4]), np.array([2]))
        np.testing.assert_allclose(float(loss.data[0]), math.log(4), rtol=1e-12)

    def test_sequence_sum_three_halves(self):
        # three timesteps at gold-token probability 0.5 sum to 3*ln 2
        probs = f64(np.full((3, 2), 0.5))
        steps = ad.nll_rows(probs, np.array([0, 1, 0]))
        total = ad.sum_(steps)
        np.testing.assert_allclose(float(total.data), 3 * math.log(2), rtol=1e-12)

    def test_zero_probability_clamped_and_flagged(self):
        with pytest.warns(ad.NumericsWarning):
            loss = ad.nll_rows(f64([[1.0, 0.0]]), np.array([1]))
        np.testing.assert_allclose(float(loss.data[0]), -math.log(ad.LOG_FLOOR))

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(6)
        x = f64_param(rng.normal(size=(4, 6)), "x")
        targets = np.array([1, 0, 5, 2])

        def loss():
            return ad.sum_(ad.nll_rows(ad.softmax(x), targets))

        check_op_gradient(loss, {"x": x})


class TestMaxOverTime:
    def test_basic(self):
        out = ad.max_over_time(f64([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_allclose(out.data, [3.0, 5.0])

    def test_single_timestep_identity(self):
        out = ad.max_over_time(f64([[7.0, -1.0]]))
        np.testing.assert_allclose(out.data, [7.0, -1.0])

    def test_empty_sequence_error(self):
        with pytest.raises(ad.EmptySequenceError):
            ad.max_over_time(ad.Tensor(np.zeros((0, 3), dtype=np.float32)))

    def test_matches_brute_force_on_random_tensors(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t = rng.integers(1, 7)
            d = rng.integers(1, 5)
            x = rng.normal(size=(t, d))
            np.testing.assert_array_equal(ad.max_over_time(f64(x)).data,
                                          column_max(x))

    def test_random_6x4_with_gradient(self):
        rng = np.random.default_rng(8)
        x = f64_param(rng.normal(size=(6, 4)), "x")
        np.testing.assert_array_equal(
            ad.max_over_time(ad.Tensor(x.data)).data, column_max(x.data))
        check_op_gradient(lambda: ad.sum_(ad.max_over_time(x)), {"x": x})

    def test_tie_routes_to_first_occurrence(self):
        x = f64_param([[2.0], [2.0], [1.0]], "x")
        with ad.Tape() as tape:
            loss = ad.sum_(ad.max_over_time(x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [[1.0], [0.0], [0.0]])

    def test_lengths_exclude_padding(self):
        x = np.zeros((4, 2, 3))
        x[:, 0, :] = [[-1.0, -2.0, -3.0], [-4.0, -5.0, -6.0], [9.0, 9.0, 9.0], [9.0, 9.0, 9.0]]
        x[:, 1, :] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0], [9.0, 9.0, 9.0]]
        out = ad.max_over_time(f64(x), lengths=np.array([2, 3]))
        np.testing.assert_allclose(out.data[0], [-1.0, -2.0, -3.0])
        np.testing.assert_allclose(out.data[1], [7.0, 8.0, 9.0])

    def test_batched_gradient_with_lengths(self):
        rng = np.random.default_rng(9)
        x = f64_param(rng.normal(size=(5, 3, 4)), "x")
        lengths = np.array([2, 5, 3])
        check_op_gradient(lambda: ad.sum_(ad.max_over_time(x, lengths=lengths)),
                          {"x": x})


class TestSequenceOps:
    def test_stack_steps(self):
        steps = [f64(np.full((2, 3), t, dtype=float)) for t in range(4)]
        stacked = ad.stack_steps(steps)
        assert stacked.shape == (4, 2, 3)
        np.testing.assert_allclose(stacked.data[:, 1, 0], [0, 1, 2, 3])

    def test_attention_contractions_gradient(self):
        rng = np.random.default_rng(11)
        q = f64_param(rng.normal(size=(2, 3)), "q")
        k = f64_param(rng.normal(size=(5, 2, 3)), "k")
        v = f64_param(rng.normal(size=(5, 2, 3)), "v")

        def loss():
            w = ad.softmax(ad.attn_scores(q, k))
            return ad.sum_(ad.attn_combine(w, v))

        check_op_gradient(loss, {"q": q, "k": k, "v": v})


class TestEmbedding:
    def test_frozen_rows_and_trainable_slots(self):
        frozen = np.arange(12, dtype=np.float64).reshape(4, 3)
        trainable = f64_param(np.full((2, 3), 100.0), "rows")
        slots = np.array([-1, 0, -1, 1])
        ids = np.array([0, 1, 3, 1])
        out = ad.embedding_lookup(frozen, ids, trainable, slots)
        np.testing.assert_allclose(out.data[0], frozen[0])
        np.testing.assert_allclose(out.data[1], trainable.data[0])
        np.testing.assert_allclose(out.data[2], trainable.data[1])

    def test_gradient_accumulates_only_into_trainable(self):
        frozen = np.zeros((4, 3))
        trainable = f64_param(np.zeros((1, 3)), "rows")
        slots = np.array([-1, -1, 0, -1])
        with ad.Tape() as tape:
            out = ad.embedding_lookup(frozen, np.array([2, 2, 0]), trainable, slots)
            loss = ad.sum_(out)
        ad.backward(tape, loss)
        np.testing.assert_allclose(trainable.grad, [[2.0, 2.0, 2.0]])

    def test_gradient_check(self):
        rng = np.random.default_rng(12)
        frozen = rng.normal(size=(5, 4))
        trainable = f64_param(rng.normal(size=(2, 4)), "rows")
        slots = np.array([-1, 0, -1, 1, -1])
        ids = np.array([1, 3, 3, 0])

        def loss():
            return ad.sum_(ad.tanh_(ad.embedding_lookup(frozen, ids, trainable, slots)))

        check_op_gradient(loss, {"rows": trainable})


class TestLstmCell:
    def test_all_zero_weights_give_zero_hidden(self):
        H, D = 3, 2
        zeros = lambda *s: ad.param(np.zeros(s, dtype=np.float64), "z")
        params = ad.LstmParams(wi=zeros(4 * H, D), wh=zeros(4 * H, H), b=zeros(4 * H))
        x, h, c = f64(np.zeros((1, D))), f64(np.zeros((1, H))), f64(np.zeros((1, H)))
        h2, c2 = ad.lstm_cell(x, h, c, params)
        np.testing.assert_allclose(h2.data, 0.0)
        np.testing.assert_allclose(c2.data, 0.0)

    def test_saturated_gates_pass_input_through(self):
        # H=1: big biases force i~1, f~0, o~1; candidate g = tanh(x)
        big = 20.0
        wi = np.array([[0.0], [0.0], [1.0], [0.0]])
        wh = np.zeros((4, 1))
        b = np.array([big, -big, 0.0, big])
        params = ad.LstmParams(wi=f64_param(wi, "wi"), wh=f64_param(wh, "wh"),
                               b=f64_param(b, "b"))
        for x_val in (-1.2, 0.4, 2.0):
            h2, c2 = ad.lstm_cell(f64([[x_val]]), f64([[0.3]]), f64([[0.9]]), params)
            exp_h, exp_c = scalar_lstm_step(x_val, 0.3, 0.9,
                                            wi[:, 0], wh[:, 0], b)
            np.testing.assert_allclose(c2.data.item(), exp_c, rtol=1e-12)
            np.testing.assert_allclose(h2.data.item(), exp_h, rtol=1e-12)
            np.testing.assert_allclose(c2.data.item(), math.tanh(x_val), atol=1e-6)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        wi = rng.normal(size=(4, 1))
        wh = rng.normal(size=(4, 1))
        b = rng.normal(size=4)
        params = ad.LstmParams(wi=f64_param(wi, "wi"), wh=f64_param(wh, "wh"),
                               b=f64_param(b, "b"))
        h2, c2 = ad.lstm_cell(f64([[0.7]]), f64([[-0.2]]), f64([[0.5]]), params)
        exp_h, exp_c = scalar_lstm_step(0.7, -0.2, 0.5, wi[:, 0], wh[:, 0], b)
        np.testing.assert_allclose(h2.data.item(), exp_h, rtol=1e-12)
        np.testing.assert_allclose(c2.data.item(), exp_c, rtol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        rng = np.random.default_rng(14)
        params = ad.init_lstm(rng, input_dim=3, hidden=4, prefix="cell")
        np.testing.assert_allclose(params.b.data[4:8], 1.0)
        np.testing.assert_allclose(params.b.data[:4], 0.0)
        bound = 1.0 / math.sqrt(3)
        assert np.abs(params.wi.data).max() <= bound

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(15)
        params = ad.init_lstm(rng, input_dim=3, hidden=4, prefix="cell")
        with pytest.raises(ad.ShapeError):
            ad.lstm_cell(f64(np.zeros((1, 5))), f64(np.zeros((1, 4))),
                         f64(np.zeros((1, 4))), params)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        D, H = 3, 2
        params = {
            "wi": f64_param(rng.normal(size=(4 * H, D)) * 0.5, "wi"),
            "wh": f64_param(rng.normal(size=(4 * H, H)) * 0.5, "wh"),
            "b": f64_param(rng.normal(size=4 * H) * 0.5, "b"),
            "x": f64_param(rng.normal(size=(2, D)), "x"),
        }
        lstm = ad.LstmParams(wi=params["wi"], wh=params["wh"], b=params["b"])
        h0 = f64(rng.normal(size=(2, H)))
        c0 = f64(rng.normal(size=(2, H)))

        def loss():
            h, c = ad.lstm_cell(params["x"], h0, c0, lstm)
            h, c = ad.lstm_cell(params["x"], h, c, lstm)  # two chained steps
            return ad.sum_(ad.mul(h, h))

        check_op_gradient(loss, params)


def _cell_scan(gx, wh, h0, c0, lengths, reverse, rmask):
    """Reference for `lstm_layer`: the composed `lstm_cell`, run row by
    row over each row's real prefix (read backwards for `reverse`), with
    one leaf per input step so every gradient can be compared."""
    T, B, G = gx.shape
    H = G // 4
    eye = ad.LstmParams(wi=f64(np.eye(G)), wh=None, b=f64(np.zeros(G)))
    leaves = [[f64_param(gx[t, b:b + 1], "gx") for b in range(B)]
              for t in range(T)]
    w = f64_param(wh, "wh")
    starts = [(f64_param(h0[b:b + 1], "h0"), f64_param(c0[b:b + 1], "c0"))
              for b in range(B)]
    eye.wh = w
    outs = {}
    with ad.Tape() as tape:
        for b in range(B):
            h, c = starts[b]
            steps = range(lengths[b])
            for t in (reversed(steps) if reverse else steps):
                h_in = h if rmask is None else ad.mul_const(h, rmask[b:b + 1])
                h, c = ad.lstm_cell(leaves[t][b], h_in, c, eye)
                outs[t, b] = h
    return leaves, w, starts, outs, tape


# (T, row lengths) for the packed-versus-dense comparison; a batch whose
# rows all have length T runs with no mask
PACKING_CASES = {
    "one-row-of-length-1": (5, [5, 1, 3, 2]),
    "equal-lengths": (6, [4, 4, 4]),
    "every-row-length-T": (5, [5, 5, 5]),
    "one-row-batch": (6, [4]),
    "one-row-batch-length-T": (3, [3]),
    "last-live-row-alone": (6, [6, 2, 3, 2]),
}


def _layer_run(layer, arrays, mask, reverse, rmask, weights, dtype):
    """States and input gradients of `layer` under a weighted-sum loss;
    `arrays` holds gx, wh and optionally h0, c0."""
    p = {name: ad.param(np.asarray(v, dtype=dtype), name)
         for name, v in arrays.items()}
    with ad.Tape() as tape:
        hs = layer(p["gx"], p["wh"], p.get("h0"), p.get("c0"), mask=mask,
                   reverse=reverse,
                   rmask=None if rmask is None else rmask.astype(dtype))
        loss = ad.sum_(ad.mul_const(hs, weights.astype(dtype)))
    ad.backward(tape, loss)
    return hs.data, {name: t.grad for name, t in p.items()}


class TestLstmLayer:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_matches_composed_cell_scan(self, reverse, dropout):
        """States and the gradients of gx, wh, h0 and c0 agree with a
        scan of `lstm_cell` over mixed row lengths (float64, 1e-10)."""
        rng = np.random.default_rng(21)
        T, B, H = 5, 4, 3
        lengths = np.array([5, 1, 3, 2])
        gx = rng.normal(size=(T, B, 4 * H))
        wh = rng.normal(size=(4 * H, H)) * 0.6
        h0 = rng.normal(size=(B, H))
        c0 = rng.normal(size=(B, H))
        rmask = (ad.dropout_mask(np.random.default_rng(3), (B, H), 0.5, np.float64)
                 if dropout else None)
        weights = rng.normal(size=(T, B, H))
        real = np.arange(T)[:, None] < lengths[None, :]

        leaves, w_ref, starts, outs, ref_tape = _cell_scan(
            gx, wh, h0, c0, lengths, reverse, rmask)
        with ref_tape:
            terms = [ad.sum_(ad.mul_const(h, weights[t, b:b + 1]))
                     for (t, b), h in outs.items()]
            ref_loss = terms[0]
            for term in terms[1:]:
                ref_loss = ad.add(ref_loss, term)
        ad.backward(ref_tape, ref_loss)

        p = {"gx": f64_param(gx, "gx"), "wh": f64_param(wh, "wh"),
             "h0": f64_param(h0, "h0"), "c0": f64_param(c0, "c0")}
        with ad.Tape() as tape:
            hs = ad.lstm_layer(p["gx"], p["wh"], p["h0"], p["c0"], mask=real,
                               reverse=reverse, rmask=rmask)
            loss = ad.sum_(ad.mul_const(hs, weights))
        ad.backward(tape, loss)

        close = dict(rtol=1e-10, atol=1e-10)
        expected = np.zeros((T, B, H))
        for (t, b), h in outs.items():
            expected[t, b] = h.data[0]
        np.testing.assert_allclose(hs.data, expected, **close)
        ref_dgx = np.zeros_like(gx)
        for t in range(T):
            for b in range(B):
                if leaves[t][b].grad is not None:
                    ref_dgx[t, b] = leaves[t][b].grad[0]
        np.testing.assert_allclose(p["gx"].grad, ref_dgx, **close)
        np.testing.assert_allclose(p["wh"].grad, w_ref.grad, **close)
        np.testing.assert_allclose(
            p["h0"].grad, np.concatenate([h.grad for h, _ in starts]), **close)
        np.testing.assert_allclose(
            p["c0"].grad, np.concatenate([c.grad for _, c in starts]), **close)

    @pytest.mark.parametrize("case", sorted(PACKING_CASES))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_dense_oracle(self, case, reverse):
        """The packed layer against the dense one it replaced, with and
        without h0/c0 and recurrent dropout: float64 states and gradients
        within 1e-10, float32 states bit-equal."""
        T, lengths = PACKING_CASES[case]
        B, H = len(lengths), 8
        lengths = np.array(lengths)
        mask = (None if (lengths == T).all()
                else np.arange(T)[:, None] < lengths[None, :])
        rng = np.random.default_rng(26)
        for given in (False, True):
            for dropout in (False, True):
                arrays = {"gx": rng.normal(size=(T, B, 4 * H)),
                          "wh": rng.normal(size=(4 * H, H)) * 0.6}
                if given:
                    arrays.update(h0=rng.normal(size=(B, H)),
                                  c0=rng.normal(size=(B, H)))
                rmask = (ad.dropout_mask(rng, (B, H), 0.5, np.float64)
                         if dropout else None)
                weights = rng.normal(size=(T, B, H))
                runs = {(layer, dtype): _layer_run(layer, arrays, mask, reverse,
                                                   rmask, weights, dtype)
                        for layer in (ad.lstm_layer, lstm_layer_dense)
                        for dtype in (np.float64, np.float32)}
                hs, grads = runs[ad.lstm_layer, np.float64]
                hs_ref, grads_ref = runs[lstm_layer_dense, np.float64]
                close = dict(rtol=1e-10, atol=1e-10)
                np.testing.assert_allclose(hs, hs_ref, **close)
                assert grads.keys() == grads_ref.keys()
                for name in grads:
                    np.testing.assert_allclose(grads[name], grads_ref[name],
                                               err_msg=name, **close)
                np.testing.assert_array_equal(
                    runs[ad.lstm_layer, np.float32][0],
                    runs[lstm_layer_dense, np.float32][0])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths,extra", [([6, 2, 3, 2, 1], 3), ([3], 0)])
    def test_recurrent_gemm_runs_live_rows_only(self, monkeypatch, reverse,
                                                lengths, extra):
        """Forward and backward each feed the recurrent GEMM every real
        step-row once and no pad row, plus a repeated row at each step
        where one row of several is left live (the gemm rule); a one-row
        batch has no repeats."""
        fed = []
        gemm_rows = ad._gemm_rows

        def counting(a, gemm):
            rows = gemm_rows(a, gemm)
            fed.append(rows.shape[0])
            return rows

        monkeypatch.setattr(ad, "_gemm_rows", counting)
        rng = np.random.default_rng(27)
        T, B, H = 8, len(lengths), 4
        mask = np.arange(T)[:, None] < np.array(lengths)[None, :]
        gx = f64_param(rng.normal(size=(T, B, 4 * H)), "gx")
        wh = f64_param(rng.normal(size=(4 * H, H)), "wh")
        with ad.Tape() as tape:
            loss = ad.sum_(ad.lstm_layer(gx, wh, mask=mask, reverse=reverse))
        forward = sum(fed)
        ad.backward(tape, loss)
        backward = sum(fed) - forward
        assert forward == backward == sum(lengths) + extra

    def test_rejects_non_prefix_mask(self):
        gx, wh = f64(np.zeros((4, 2, 8))), f64(np.zeros((8, 2)))
        hole = np.array([[1, 1], [0, 1], [1, 1], [0, 0]], dtype=bool)
        late = np.array([[0, 1], [1, 1], [1, 0], [0, 0]], dtype=bool)
        for mask in (hole, late):
            with pytest.raises(ad.MaskError, match="not a prefix"):
                ad.lstm_layer(gx, wh, mask=mask)

    def test_padding_never_changes_real_steps(self):
        rng = np.random.default_rng(22)
        H = 2
        gx = rng.normal(size=(3, 1, 4 * H)).astype(np.float32)
        wh = ad.tensor(rng.normal(size=(4 * H, H)))
        pads = rng.normal(size=(2, 1, 4 * H))
        padded = np.concatenate([gx, pads]).astype(np.float32)
        for reverse in (False, True):
            short = ad.lstm_layer(ad.tensor(gx), wh, reverse=reverse)
            long = ad.lstm_layer(ad.tensor(padded), wh, reverse=reverse,
                                 mask=np.arange(5)[:, None] < np.array([[3]]))
            np.testing.assert_array_equal(long.data[:3], short.data)
            np.testing.assert_array_equal(long.data[3:], 0.0)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_same_states_with_and_without_tape(self, reverse, dropout):
        """Without a tape the backward caches are skipped; the states
        must not change by a bit (float32, mixed lengths, given h0/c0)."""
        rng = np.random.default_rng(24)
        T, B, H = 6, 5, 8
        gx = ad.tensor(rng.normal(size=(T, B, 4 * H)).astype(np.float32))
        wh, h0, c0 = (ad.tensor(rng.normal(size=shape).astype(np.float32))
                      for shape in ((4 * H, H), (B, H), (B, H)))
        mask = np.arange(T)[:, None] < np.array([[6, 1, 3, 6, 2]])
        rmask = (ad.dropout_mask(rng, (B, H), 0.5, np.float32)
                 if dropout else None)
        kw = dict(mask=mask, reverse=reverse, rmask=rmask)
        with ad.Tape() as tape:
            taped = ad.lstm_layer(gx, wh, h0, c0, **kw)
        assert len(tape.records) == 1
        untaped = ad.lstm_layer(gx, wh, h0, c0, **kw)
        assert untaped.data.dtype == np.float32
        np.testing.assert_array_equal(untaped.data, taped.data)

    def test_no_backward_caches_without_tape(self):
        """The caches (acts, c_prev, tanh_c, h_in) take six times the
        output; forward-only, the peak allocation stays near the output."""
        import tracemalloc
        rng = np.random.default_rng(25)
        T, B, H = 40, 5, 8
        gx = ad.tensor(rng.normal(size=(T, B, 4 * H)))
        wh = ad.tensor(rng.normal(size=(4 * H, H)))
        tracemalloc.start()
        try:
            hs = ad.lstm_layer(gx, wh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * hs.data.nbytes

    def test_step_kernel_matches_cell(self):
        rng = np.random.default_rng(23)
        params = ad.init_lstm(rng, input_dim=3, hidden=4, prefix="cell",
                              dtype=np.float64)
        x, h, c = (f64(rng.normal(size=(2, n))) for n in (3, 4, 4))
        h_ref, c_ref = ad.lstm_cell(x, h, c, params)
        gx = ad.linear(x, params.wi, params.b).data
        h2, c2 = ad.lstm_step(gx, params.wh.data, h.data, c.data)
        np.testing.assert_allclose(h2, h_ref.data, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(c2, c_ref.data, rtol=1e-12, atol=1e-14)

    def test_one_tape_record(self):
        gx = f64_param(np.zeros((6, 2, 8)), "gx")
        with ad.Tape() as tape:
            ad.lstm_layer(gx, f64(np.zeros((8, 2))), reverse=True)
        assert len(tape.records) == 1

    def test_shape_errors(self):
        gx = f64(np.zeros((3, 2, 8)))
        with pytest.raises(ad.ShapeError):
            ad.lstm_layer(gx, f64(np.zeros((8, 3))))
        with pytest.raises(ad.ShapeError):
            ad.lstm_layer(gx, f64(np.zeros((8, 2))), mask=np.ones((2, 3), bool))
        with pytest.raises(ad.EmptySequenceError):
            ad.lstm_layer(f64(np.zeros((0, 2, 8))), f64(np.zeros((8, 2))))


class TestTapeDiscipline:
    def test_backward_twice_is_error(self):
        x = f64_param([2.0], "x")
        with ad.Tape() as tape:
            loss = ad.sum_(ad.mul(x, x))
        ad.backward(tape, loss)
        with pytest.raises(ad.TapeError):
            ad.backward(tape, loss)

    def test_backward_without_forward_is_error(self):
        tape = ad.Tape()
        loss = f64([1.0])
        with pytest.raises(ad.TapeError):
            ad.backward(tape, loss)

    def test_recording_after_backward_is_error(self):
        x = f64_param([2.0], "x")
        with ad.Tape() as tape:
            loss = ad.sum_(ad.mul(x, x))
            ad.backward(tape, loss)
            with pytest.raises(ad.TapeError):
                ad.mul(x, x)

    def test_non_scalar_loss_rejected(self):
        x = f64_param([1.0, 2.0], "x")
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            ad.backward(tape, y)

    def test_intermediates_freed_params_kept(self):
        x = f64_param([1.0, 2.0], "x")
        with ad.Tape() as tape:
            mid = ad.mul(x, x)
            loss = ad.sum_(mid)
        ad.backward(tape, loss)
        assert x.grad is not None
        assert mid.grad is None
        assert not tape.records

    def test_grad_accumulates_across_reuse(self):
        x = f64_param([3.0], "x")
        with ad.Tape() as tape:
            loss = ad.sum_(ad.add(ad.mul(x, x), ad.mul(x, x)))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_joint_loss_gradient_linearity(self):
        # grad of a*l1 + (1-a)*l2 equals the weighted sum of grads
        rng = np.random.default_rng(17)
        alpha = 0.6
        w = f64_param(rng.normal(size=(3, 3)), "w")
        x1 = f64(rng.normal(size=(3, 1)))
        x2 = f64(rng.normal(size=(3, 1)))

        def l1():
            return ad.sum_(ad.tanh_(ad.matmul(w, x1)))

        def l2():
            return ad.sum_(ad.mul(ad.matmul(w, x2), ad.matmul(w, x2)))

        grads = []
        for fn in (l1, l2):
            with ad.Tape() as tape:
                loss = fn()
            ad.backward(tape, loss)
            grads.append(w.grad.copy())
            w.grad = None
        with ad.Tape() as tape:
            joint = ad.add(ad.scale(l1(), alpha), ad.scale(l2(), 1 - alpha))
        ad.backward(tape, joint)
        np.testing.assert_allclose(w.grad, alpha * grads[0] + (1 - alpha) * grads[1],
                                   rtol=1e-10)

    def test_no_tape_means_no_recording(self):
        x = f64_param([1.0], "x")
        y = ad.mul(x, x)
        assert y.grad is None  # forward-only path


class TestDropout:
    def test_rate_zero_is_identity(self):
        m = ad.dropout_mask(np.random.default_rng(0), (1, 2), 0.0, np.float64)
        np.testing.assert_array_equal(m, np.ones((1, 2)))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ad.dropout_mask(np.random.default_rng(0), (1,), 1.0)

    def test_inverted_scaling_preserves_mean(self):
        # Monte-Carlo: mean over 10,000 masks within 2% of x
        rng = np.random.default_rng(42)
        x = np.full(16, 3.0)
        acc = np.zeros(16)
        trials = 10_000
        for _ in range(trials):
            acc += x * ad.dropout_mask(rng, x.shape, 0.5, np.float64)
        mean = acc / trials
        np.testing.assert_allclose(mean.mean(), 3.0, rtol=0.02)

    def test_mask_values_are_zero_or_scaled(self):
        rng = np.random.default_rng(43)
        m = ad.dropout_mask(rng, (1000,), 0.5, np.float64)
        assert set(np.unique(m)) <= {0.0, 2.0}

    def test_mask_gradient_flows_through(self):
        rng = np.random.default_rng(44)
        x = f64_param(np.ones((2, 3)), "x")
        m = ad.dropout_mask(np.random.default_rng(7), (2, 3), 0.5, np.float64)

        def loss():
            return ad.sum_(ad.mul_const(x, m))

        check_op_gradient(loss, {"x": x})


class TestSgd:
    def test_basic_step(self):
        p = ad.param(np.array([1.0], dtype=np.float32), "p")
        p.grad = np.array([2.0], dtype=np.float32)
        ad.sgd_step({"p": p}, ad.SgdState())
        np.testing.assert_allclose(p.data, [0.8], rtol=1e-6)
        assert p.grad is None

    def test_lr_schedule_closed_form(self):
        state = ad.SgdState()
        assert state.lr == 0.1
        state.advance_epoch()
        np.testing.assert_allclose(state.lr, 0.099, rtol=1e-12)
        state.epoch = 10
        np.testing.assert_allclose(state.lr, 0.1 * 0.99 ** 10, rtol=1e-12)
        np.testing.assert_allclose(state.lr, 0.09044, rtol=1e-4)

    def test_lr_monotone_non_increasing(self):
        state = ad.SgdState()
        last = state.lr
        for _ in range(100):
            state.advance_epoch()
            assert 0 < state.lr <= last
            last = state.lr

    def test_zero_gradient_leaves_params(self):
        p = ad.param(np.array([1.5], dtype=np.float32), "p")
        p.grad = np.zeros(1, dtype=np.float32)
        ad.sgd_step({"p": p}, ad.SgdState())
        np.testing.assert_allclose(p.data, [1.5])

    def test_nan_gradient_aborts_whole_step(self):
        p1 = ad.param(np.array([1.0], dtype=np.float32), "p1")
        p2 = ad.param(np.array([1.0], dtype=np.float32), "p2")
        p1.grad = np.array([0.5], dtype=np.float32)
        p2.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(ad.GradientError, match="p2"):
            ad.sgd_step({"p1": p1, "p2": p2}, ad.SgdState())
        np.testing.assert_allclose(p1.data, [1.0])  # untouched

    def test_clip_norm(self):
        p = ad.param(np.array([0.0, 0.0], dtype=np.float32), "p")
        p.grad = np.array([3.0, 4.0], dtype=np.float32)  # norm 5
        ad.sgd_step({"p": p}, ad.SgdState(), clip_norm=1.0)
        np.testing.assert_allclose(p.data, [-0.1 * 0.6, -0.1 * 0.8], rtol=1e-6)


class TestDeterminism:
    def test_identical_seed_gives_bit_identical_loss(self):
        def run():
            rng = np.random.default_rng(123)
            w = ad.param(rng.normal(size=(4, 4)).astype(np.float32), "w")
            x = ad.tensor(rng.normal(size=(4, 2)).astype(np.float32))
            with ad.Tape() as tape:
                loss = ad.sum_(ad.tanh_(ad.matmul(w, x)))
            ad.backward(tape, loss)
            return float(loss.data), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)
