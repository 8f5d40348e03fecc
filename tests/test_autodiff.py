"""Tests for the tape-based autodiff engine."""

import ast
import inspect
import itertools
import math
import os
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nliexpl import autodiff as ad
from model_utils import toy_setup
from oracles import (InlineExecutor, backward_in_line, bilstm_composed,
                     column_max, dense_steps, gate_input_cell, lstm_cell,
                     lstm_layer_dense, lstm_gates_two_exp, lstm_step,
                     max_over_time, max_rel_err, nll_rows, numeric_grad,
                     scalar_lstm_step, sigmoid_, slice_last, softmax,
                     stack_steps, take_rows)


def f64(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


def f32(x):
    return ad.Tensor(np.asarray(x, dtype=np.float32))


def f64_param(x, name):
    return ad.param(np.asarray(x, dtype=np.float64), name)


def zero_bias(w):
    """A bias of zeros for `linear` with weight w (out, in), not a
    parameter."""
    return ad.Tensor(np.zeros(w.shape[0], w.dtype))


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

    @pytest.mark.parametrize("op", [ad.tanh_, sigmoid_, ad.abs_])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(1)
        a = f64_param(rng.normal(size=(2, 5)) + 0.1, "a")
        check_op_gradient(lambda: ad.sum_(op(a)), {"a": a})


class TestAffine:
    def test_matmul_linear_values(self):
        a = f64([[1.0, 2.0], [3.0, 4.0]])
        eye = f64([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(ad.linear(a, eye, zero_bias(eye)).data, a.data)
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
            loss = ad.sum_(ad.linear(f64(x.data.T), w, zero_bias(w)))
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

    def test_concat_slice_gradients(self):
        rng = np.random.default_rng(4)
        a = f64_param(rng.normal(size=(2, 3)), "a")
        b = f64_param(rng.normal(size=(2, 2)), "b")

        def loss():
            cat = ad.concat([a, b])
            return ad.sum_(ad.mul(slice_last(cat, 1, 4), slice_last(cat, 0, 3)))

        check_op_gradient(loss, {"a": a, "b": b})


def fresh(x):
    """x as a new tensor on the tape: `cross_entropy_rows` overwrites its
    logits, so a check that calls it again needs logits of its own."""
    return ad.scale(x, 1.0)


class TestSoftmax:
    """The softmax of `cross_entropy_rows`, left in the logits' buffer,
    and the attention heads' softmax over a row's real keys."""

    def test_uniform_on_equal_logits(self):
        logits = f64([[0.0, 0.0, 0.0]])
        loss = ad.cross_entropy_rows(logits, np.array([1]))
        np.testing.assert_allclose(logits.data, [[1 / 3] * 3])
        np.testing.assert_allclose(loss.data, [math.log(3)], rtol=1e-12)

    def test_two_term_closed_form_with_mask(self):
        """Attention weights are a softmax over a row's real keys: scores
        [1, 2] of a row of key length 2 split as the two-term logistic
        1/(1+e) and e/(1+e), and the pad key (row 1 has 3) gets exactly
        0."""
        e = math.e
        # query tanh(atanh(0.5)) = 0.5 against row 0's keys 2, 4; key rows
        # in time-major order (t, b): (0, 0), (0, 1), (1, 0), (1, 1), (2, 1)
        head = ad.Attention(wc=f64(np.zeros((1, 1))), bc=f64([math.atanh(0.5)]),
                            keys=f64(np.array([2.0, 1.0, 4.0, 1.0, 1.0])[:, None]),
                            values=f64(np.zeros((5, 1))), lengths=np.array([2, 3]))
        _, [(_, w)] = ad._Contexts([head], None, np.arange(2), False).attend(
            np.zeros((2, 1)))
        np.testing.assert_allclose(w[0], [1 / (1 + e), e / (1 + e), 0.0],
                                   rtol=1e-12)
        assert w[0, 2] == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, logits, c):
        base, shifted = f64([logits]), f64([[v + c for v in logits]])
        top = np.array([np.argmax(logits)])   # never clamped
        losses = [ad.cross_entropy_rows(t, top).data for t in (base, shifted)]
        np.testing.assert_allclose(base.data, shifted.data, atol=1e-6)
        np.testing.assert_allclose(*losses, atol=1e-6)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, logits):
        t = f64([logits])
        ad.cross_entropy_rows(t, np.array([np.argmax(logits)]))
        assert abs(t.data.sum() - 1.0) < 1e-6
        assert (t.data > 0).all()

    def test_all_masked_is_error(self):
        """An attention row with no real key (key length 0), or more real
        keys than key rows, is a ShapeError."""
        cell = ad.init_lstm(np.random.default_rng(0), 2 + 3, 2, "cell",
                            dtype=np.float64)
        for lengths in ([0, 4], [2, 3]):
            head = ad.Attention(f64(np.zeros((2, 2))), f64(np.zeros(2)),
                                f64(np.zeros((4, 2))), f64(np.zeros((4, 2))),
                                np.array(lengths))
            with pytest.raises(ad.ShapeError, match="attention head 0"):
                ad.lstm_layer(f64(np.zeros((4, 2, 3))), cell,
                              f64(np.zeros((2, 2))), f64(np.zeros((2, 2))),
                              cond=[head])

    def test_rowwise_mask_zeroes_exactly(self):
        rng = np.random.default_rng(41)
        head = ad.Attention(f64(rng.normal(size=(2, 3))), f64(np.zeros(2)),
                            f64(rng.normal(size=(4, 2))),
                            f64(rng.normal(size=(4, 2))), np.array([1, 3]))
        _, [(_, w)] = ad._Contexts([head], None, np.arange(2), False).attend(
            rng.normal(size=(2, 3)))
        assert (w[0, 1:] == 0.0).all()
        np.testing.assert_allclose(w.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_overwrite_gives_identical_values_in_the_logits_buffer(self):
        """The probabilities are the composed softmax's bit for bit
        (float32), in the array the logits came in."""
        rng = np.random.default_rng(42)
        logits = rng.normal(size=(4, 6)).astype(np.float32)
        expected = softmax(ad.Tensor(logits.copy())).data
        t = ad.Tensor(logits)
        ad.cross_entropy_rows(t, np.array([0, 5, 2, 2]))
        assert t.data is logits
        np.testing.assert_array_equal(logits, expected)

    def test_gradient(self):
        """Finite differences with a different upstream gradient per row."""
        rng = np.random.default_rng(5)
        x = f64_param(rng.normal(size=(3, 5)), "x")
        w = rng.normal(size=3)

        def loss():
            return ad.sum_(ad.mul(ad.cross_entropy_rows(fresh(x),
                                                        np.array([4, 0, 2])),
                                  f64(w)))

        check_op_gradient(loss, {"x": x})

    def test_composed_reference_gradient(self):
        """The reference softmax (`oracles.softmax`) under finite
        differences, with an arbitrary gradient on every probability."""
        rng = np.random.default_rng(5)
        x = f64_param(rng.normal(size=(3, 5)), "x")
        w = rng.normal(size=(3, 5))

        def loss():
            return ad.sum_(ad.mul(softmax(x), f64(w)))

        check_op_gradient(loss, {"x": x})


class TestCrossEntropy:
    def test_certain_prediction_is_zero(self):
        # exp(-1000) is 0 in float64: the gold class holds all the mass
        loss = ad.cross_entropy_rows(f64([[0.0, -1e3, -1e3]]), np.array([0]))
        assert float(loss.data[0]) == 0.0

    def test_uniform_four_way(self):
        loss = ad.cross_entropy_rows(f64([[0.3] * 4]), np.array([2]))
        np.testing.assert_allclose(float(loss.data[0]), math.log(4), rtol=1e-12)

    def test_sequence_sum_three_halves(self):
        # three timesteps at gold-token probability 0.5 sum to 3*ln 2
        steps = ad.cross_entropy_rows(f64(np.full((3, 2), -1.5)),
                                      np.array([0, 1, 0]))
        total = ad.sum_(steps)
        np.testing.assert_allclose(float(total.data), 3 * math.log(2), rtol=1e-12)

    def test_zero_probability_clamped_and_flagged(self):
        with pytest.warns(ad.NumericsWarning):
            loss = ad.cross_entropy_rows(f64([[0.0, -1e3]]), np.array([1]))
        np.testing.assert_allclose(float(loss.data[0]), -math.log(ad.LOG_FLOOR))

    @pytest.mark.parametrize("clamped", [[1], [0, 3, 4], [0, 1, 2, 3, 4, 5]])
    def test_one_warning_counts_the_clamped_rows(self, clamped):
        """k clamped rows of 6 raise one NumericsWarning that names k, and
        get exactly zero gradient; the other rows do not."""
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 4))
        targets = np.array([3, 1, 0, 2, 2, 1])
        logits[clamped, targets[clamped]] = -1e3
        x = f64_param(logits, "x")
        with ad.Tape() as tape, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss = ad.sum_(ad.cross_entropy_rows(fresh(x), targets))
        assert [str(w.message) for w in caught] == [
            f"{len(clamped)} of 6 target probabilities clamped at the log floor"]
        assert caught[0].category is ad.NumericsWarning
        ad.backward(tape, loss)
        live = np.setdiff1d(np.arange(6), clamped)
        assert (x.grad[clamped] == 0.0).all()
        assert (x.grad[live] != 0.0).all()

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(6)
        x = f64_param(rng.normal(size=(4, 6)), "x")
        targets = np.array([1, 0, 5, 2])

        def loss():
            return ad.sum_(ad.cross_entropy_rows(fresh(x), targets))

        check_op_gradient(loss, {"x": x})

    def test_shape_errors(self):
        with pytest.raises(ad.ShapeError, match="2-D"):
            ad.cross_entropy_rows(f64([0.0, 1.0]), np.array([0]))
        with pytest.raises(ad.ShapeError, match="targets"):
            ad.cross_entropy_rows(f64([[0.0, 1.0]]), np.array([0, 1]))

    @pytest.mark.parametrize("case", ["clamped", "three-way", "sequence-rows"])
    def test_matches_composed_reference(self, case):
        """Against `oracles.nll_rows` after `oracles.softmax` (float64,
        1e-10): the per-row NLL and the logits' gradient under a
        different upstream gradient per row, for a batch with a clamped
        row, V = 3, and the real rows of a (T, B, V) sequence gathered by
        `oracles.take_rows`, as teacher forcing gathered them."""
        rng = np.random.default_rng(8)
        if case == "sequence-rows":
            x = f64_param(rng.normal(size=(4, 3, 7)) * 3, "x")
            rows = np.array([0, 1, 2, 3, 5, 6, 9])   # t * B + b

            def logits():
                return take_rows(x, rows)
        else:
            x = f64_param(rng.normal(size=(5, 7 if case == "clamped" else 3)) * 3,
                          "x")

            def logits():
                return fresh(x)
        n = len(logits().data)
        targets = rng.integers(0, x.shape[-1], size=n)
        if case == "clamped":
            x.data[2, targets[2]] = -1e3
        weights = f64(rng.normal(size=n))
        runs = []
        for per_row in (ad.cross_entropy_rows,
                        lambda t, y: nll_rows(softmax(t), y)):
            with ad.Tape() as tape, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                nll = per_row(logits(), targets)
                loss = ad.sum_(ad.mul(nll, weights))
            assert len(caught) == (case == "clamped")
            values = nll.data.copy()
            ad.backward(tape, loss)
            runs.append((values, x.grad))
            x.grad = None
        (values, grad), (values_ref, grad_ref) = runs
        np.testing.assert_allclose(values, values_ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-10, atol=1e-10)
        if case == "clamped":
            assert (grad.reshape(n, -1)[2] == 0.0).all()

    def test_float32_values_and_argmax_match_composed_reference(self):
        """In float32, at the benchmark's output-head width, the per-row
        NLL is the composed reference's bit for bit, and so is the count
        of rows whose probabilities' argmax (left in the logits' buffer)
        is the target, as teacher forcing counts correct tokens."""
        rng = np.random.default_rng(9)
        logits = (rng.normal(size=(300, 3129)) * 4).astype(np.float32)
        targets = np.where(rng.random(300) < 0.3, logits.argmax(axis=1),
                           rng.integers(0, 3129, size=300))
        probs_ref = softmax(ad.Tensor(logits.copy()))
        nll_ref = nll_rows(probs_ref, targets).data
        t = ad.Tensor(logits)
        nll = ad.cross_entropy_rows(t, targets).data
        assert nll.dtype == np.float32
        np.testing.assert_array_equal(nll, nll_ref)
        hits = (t.data.argmax(axis=1) == targets).sum()
        assert hits == (probs_ref.data.argmax(axis=1) == targets).sum() > 0


class TestTakeRows:
    """The gather of the references' real step-rows (oracles)."""

    def test_time_major_rows_and_scatter_back(self):
        """Row t * B + b of a (T, B, d) sequence is x[t, b]; the gradient
        of each taken row lands in its cell and every other cell is 0."""
        x = f64_param(np.arange(24.0).reshape(4, 3, 2), "x")
        rows = np.array([5, 0, 10])
        with ad.Tape() as tape:
            out = take_rows(x, rows)
            loss = ad.sum_(ad.mul(out, f64(np.arange(6.0).reshape(3, 2))))
        np.testing.assert_array_equal(out.data, [x.data[1, 2], x.data[0, 0],
                                                 x.data[3, 1]])
        ad.backward(tape, loss)
        expected = np.zeros((4, 3, 2))
        expected[1, 2], expected[0, 0], expected[3, 1] = [0, 1], [2, 3], [4, 5]
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("rows", [[0, 3, 0], [12], [-1], [[0, 1]]])
    def test_rejects_repeated_or_outside_rows(self, rows):
        with pytest.raises(ad.ShapeError):
            take_rows(f64(np.zeros((4, 3, 2))), np.array(rows))


class TestMaxOverTime:
    """The reference of `bilstm_layer`'s pooled output (oracles)."""

    def test_basic(self):
        out = max_over_time(f64([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_allclose(out.data, [3.0, 5.0])

    def test_single_timestep_identity(self):
        out = max_over_time(f64([[7.0, -1.0]]))
        np.testing.assert_allclose(out.data, [7.0, -1.0])

    def test_empty_sequence_error(self):
        with pytest.raises(ad.EmptySequenceError):
            max_over_time(ad.Tensor(np.zeros((0, 3), dtype=np.float32)))

    def test_matches_brute_force_on_random_tensors(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t = rng.integers(1, 7)
            d = rng.integers(1, 5)
            x = rng.normal(size=(t, d))
            np.testing.assert_array_equal(max_over_time(f64(x)).data,
                                          column_max(x))

    def test_random_6x4_with_gradient(self):
        rng = np.random.default_rng(8)
        x = f64_param(rng.normal(size=(6, 4)), "x")
        np.testing.assert_array_equal(
            max_over_time(ad.Tensor(x.data)).data, column_max(x.data))
        check_op_gradient(lambda: ad.sum_(max_over_time(x)), {"x": x})

    def test_tie_routes_to_first_occurrence(self):
        x = f64_param([[2.0], [2.0], [1.0]], "x")
        with ad.Tape() as tape:
            loss = ad.sum_(max_over_time(x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [[1.0], [0.0], [0.0]])

    def test_lengths_exclude_padding(self):
        x = np.zeros((4, 2, 3))
        x[:, 0, :] = [[-1.0, -2.0, -3.0], [-4.0, -5.0, -6.0], [9.0, 9.0, 9.0], [9.0, 9.0, 9.0]]
        x[:, 1, :] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0], [9.0, 9.0, 9.0]]
        out = max_over_time(f64(x), lengths=np.array([2, 3]))
        np.testing.assert_allclose(out.data[0], [-1.0, -2.0, -3.0])
        np.testing.assert_allclose(out.data[1], [7.0, 8.0, 9.0])

    def test_batched_gradient_with_lengths(self):
        rng = np.random.default_rng(9)
        x = f64_param(rng.normal(size=(5, 3, 4)), "x")
        lengths = np.array([2, 5, 3])
        check_op_gradient(lambda: ad.sum_(max_over_time(x, lengths=lengths)),
                          {"x": x})


class TestSequenceOps:
    def test_stack_steps(self):
        """The composed attention reference's stacking op (oracles)."""
        steps = [f64(np.full((2, 3), t, dtype=float)) for t in range(4)]
        stacked = stack_steps(steps)
        assert stacked.shape == (4, 2, 3)
        np.testing.assert_allclose(stacked.data[:, 1, 0], [0, 1, 2, 3])

    def test_attention_contractions_gradient(self):
        """The attention term's scores, weights and contexts inside
        `lstm_layer`: finite differences of the query weights, keys and
        values of one head, rows of several key lengths."""
        rng = np.random.default_rng(11)
        p = {"wc": f64_param(rng.normal(size=(3, 2)), "wc"),
             "bc": f64_param(rng.normal(size=3), "bc"),
             "keys": f64_param(rng.normal(size=(7, 3)), "keys"),
             "values": f64_param(rng.normal(size=(7, 3)), "values")}
        head = ad.Attention(p["wc"], p["bc"], p["keys"], p["values"],
                            np.array([5, 2]))
        cell = ad.LstmParams(f64(rng.normal(size=(8, 3 + 1)) * 0.5),
                             f64(rng.normal(size=(8, 2)) * 0.5), f64(np.zeros(8)))
        x, h0 = f64(rng.normal(size=(3, 2, 1))), f64(rng.normal(size=(2, 2)))
        w = rng.normal(size=(3, 2, 2)).reshape(6, 2)   # one per (t, b)

        def loss():
            return ad.sum_(ad.mul(ad.lstm_layer(x, cell, h0, h0, cond=[head]),
                                  f64(w)))

        check_op_gradient(loss, p)


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


def _fused_step(x, h, c, params, rmask=None):
    return lstm_step(ad.linear(x, params.wi, params.b), h, c, params.wh, rmask)


def _product_probe(products):
    """An ndarray subclass whose views append the operand shapes of every
    matmul that reads one of them to `products`."""
    class Seen(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kw):
            if ufunc is np.matmul:
                products.append(tuple(a.shape for a in inputs))
            inputs = tuple(a.view(np.ndarray) if isinstance(a, Seen) else a
                           for a in inputs)
            return getattr(ufunc, method)(*inputs, **kw)

    return Seen


def _array_step(x, h, c, params):
    """(h', c') of the step every LSTM path runs (`autodiff._lstm_step`)."""
    _, (_, c2, _, h2) = ad._lstm_step(
        x.data @ params.wi.data.T + params.b.data, h.data, c.data,
        params.wh.data, None, None)
    return h2, c2


def _both_steps(x, h, c, params):
    """(h', c') arrays of the reference step, then of `_array_step`."""
    h_ref, c_ref = _fused_step(x, h, c, params)
    return [(h_ref.data, c_ref.data), _array_step(x, h, c, params)]


def _composed_step(x, h, c, params, rmask=None):
    return lstm_cell(x, h if rmask is None else ad.mul(h, f64(rmask)), c,
                     params)


def _step_loss(step, kind, x, h0, c0, params, rmask, w_h, w_c):
    """A scalar that reads h' only, c' only, both, or both after two
    chained steps."""
    h, c = step(x, h0, c0, params, rmask)
    if kind == "chained":
        h, c = step(x, h, c, params, rmask)
    terms = [ad.sum_(ad.mul(out, f64(w))) for out, w, read in
             ((h, w_h, kind != "c"), (c, w_c, kind != "h")) if read]
    return terms[0] if len(terms) == 1 else ad.add(*terms)


def _step_setup(seed, B=3, D=3, H=2, dropout=False):
    rng = np.random.default_rng(seed)
    params = {
        "wi": f64_param(rng.normal(size=(4 * H, D)) * 0.5, "wi"),
        "wh": f64_param(rng.normal(size=(4 * H, H)) * 0.5, "wh"),
        "b": f64_param(rng.normal(size=4 * H) * 0.5, "b"),
        "x": f64_param(rng.normal(size=(B, D)), "x"),
        "h0": f64_param(rng.normal(size=(B, H)), "h0"),
        "c0": f64_param(rng.normal(size=(B, H)), "c0"),
    }
    rmask = (ad.dropout_mask(rng, (B, H), 0.5, np.float64) if dropout
             else None)
    weights = rng.normal(size=(B, H)), rng.normal(size=(B, H))
    return params, rmask, weights


class TestLstmCell:
    """`lstm_step`, the step of the composed attention decoder that the
    attention op is checked against (oracles), against the gate formulas,
    the composed cell and finite differences; the value checks also run
    the step every LSTM path of the package runs (`_lstm_step`)."""

    def test_all_zero_weights_give_zero_hidden(self):
        H, D = 3, 2
        zeros = lambda *s: ad.param(np.zeros(s, dtype=np.float64), "z")
        params = ad.LstmParams(wi=zeros(4 * H, D), wh=zeros(4 * H, H), b=zeros(4 * H))
        x, h, c = f64(np.zeros((1, D))), f64(np.zeros((1, H))), f64(np.zeros((1, H)))
        for h2, c2 in _both_steps(x, h, c, params):
            np.testing.assert_allclose(h2, 0.0)
            np.testing.assert_allclose(c2, 0.0)

    def test_saturated_gates_pass_input_through(self):
        # H=1: big biases force i~1, f~0, o~1; candidate g = tanh(x)
        big = 20.0
        wi = np.array([[0.0], [0.0], [1.0], [0.0]])
        wh = np.zeros((4, 1))
        b = np.array([big, -big, 0.0, big])
        params = ad.LstmParams(wi=f64_param(wi, "wi"), wh=f64_param(wh, "wh"),
                               b=f64_param(b, "b"))
        for x_val in (-1.2, 0.4, 2.0):
            exp_h, exp_c = scalar_lstm_step(x_val, 0.3, 0.9,
                                            wi[:, 0], wh[:, 0], b)
            for h2, c2 in _both_steps(f64([[x_val]]), f64([[0.3]]),
                                      f64([[0.9]]), params):
                np.testing.assert_allclose(c2.item(), exp_c, rtol=1e-12)
                np.testing.assert_allclose(h2.item(), exp_h, rtol=1e-12)
                np.testing.assert_allclose(c2.item(), math.tanh(x_val), atol=1e-6)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        wi = rng.normal(size=(4, 1))
        wh = rng.normal(size=(4, 1))
        b = rng.normal(size=4)
        params = ad.LstmParams(wi=f64_param(wi, "wi"), wh=f64_param(wh, "wh"),
                               b=f64_param(b, "b"))
        exp_h, exp_c = scalar_lstm_step(0.7, -0.2, 0.5, wi[:, 0], wh[:, 0], b)
        for h2, c2 in _both_steps(f64([[0.7]]), f64([[-0.2]]), f64([[0.5]]),
                                  params):
            np.testing.assert_allclose(h2.item(), exp_h, rtol=1e-12)
            np.testing.assert_allclose(c2.item(), exp_c, rtol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        rng = np.random.default_rng(14)
        params = ad.init_lstm(rng, input_dim=3, hidden=4, prefix="cell")
        np.testing.assert_allclose(params.b.data[4:8], 1.0)
        np.testing.assert_allclose(params.b.data[:4], 0.0)
        bound = 1.0 / math.sqrt(3)
        assert np.abs(params.wi.data).max() <= bound

    def test_dimension_mismatch(self):
        state = f64(np.zeros((2, 4)))
        wh = f64(np.zeros((16, 4)))
        for gx, h, c in ((f64(np.zeros((2, 12))), state, state),
                         (f64(np.zeros((2, 16))), f64(np.zeros((1, 4))), state),
                         (f64(np.zeros((2, 16))), state, f64(np.zeros((2, 3)))),
                         (f64(np.zeros((3, 2, 16))), state, state)):
            with pytest.raises(ad.ShapeError):
                lstm_step(gx, h, c, wh)
        with pytest.raises(ad.ShapeError, match="rmask"):
            lstm_step(f64(np.zeros((2, 16))), state, state, wh,
                      rmask=np.ones((1, 4)))

    def test_gradient_matches_finite_differences(self):
        """Two chained steps with recurrent dropout, both outputs read."""
        params, rmask, (w_h, w_c) = _step_setup(16, B=2, dropout=True)
        lstm = ad.LstmParams(wi=params["wi"], wh=params["wh"], b=params["b"])
        check_op_gradient(
            lambda: _step_loss(_fused_step, "chained", params["x"],
                               params["h0"], params["c0"], lstm, rmask, w_h, w_c),
            params)

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("kind", ["h", "c", "both"])
    def test_finite_differences_whichever_output_is_read(self, kind, dropout):
        """h' only, c' only or both: the backward is complete whichever
        output the loss reads."""
        params, rmask, (w_h, w_c) = _step_setup(31, dropout=dropout)
        lstm = ad.LstmParams(wi=params["wi"], wh=params["wh"], b=params["b"])
        check_op_gradient(
            lambda: _step_loss(_fused_step, kind, params["x"], params["h0"],
                               params["c0"], lstm, rmask, w_h, w_c),
            params)

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("kind", ["h", "c", "both", "chained"])
    def test_matches_composed_cell(self, kind, dropout):
        """Values and every gradient agree with the composed cell of the
        oracle file in float64, within 1e-10."""
        runs = []
        for step in (_fused_step, _composed_step):
            params, rmask, (w_h, w_c) = _step_setup(32, B=4, D=5, H=3,
                                                    dropout=dropout)
            lstm = ad.LstmParams(wi=params["wi"], wh=params["wh"],
                                 b=params["b"])
            with ad.Tape() as tape:
                loss = _step_loss(step, kind, params["x"], params["h0"],
                                  params["c0"], lstm, rmask, w_h, w_c)
            ad.backward(tape, loss)
            runs.append((float(loss.data),
                         {name: p.grad for name, p in params.items()}))
        (fused, grads), (composed, ref) = runs
        np.testing.assert_allclose(fused, composed, rtol=1e-10)
        for name in ref:
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-10,
                                       atol=1e-10, err_msg=name)

    def test_two_tape_records_of_one_tensor_output_each(self):
        params, rmask, _ = _step_setup(33, dropout=True)
        lstm = ad.LstmParams(wi=params["wi"], wh=params["wh"], b=params["b"])
        gx = ad.linear(params["x"], lstm.wi, lstm.b)
        with ad.Tape() as tape:
            h, c = lstm_step(gx, params["h0"], params["c0"], lstm.wh, rmask)
        assert [out for out, _, _ in tape.records] == [c, h]
        assert [inputs for _, inputs, _ in tape.records] == [
            (gx, params["h0"], params["c0"], lstm.wh), (c,)]

    def test_same_values_with_and_without_tape(self):
        """float32 bits do not depend on whether a tape records."""
        rng = np.random.default_rng(34)
        B, H = 5, 8
        gx, h0, c0, wh = (f32(rng.normal(size=shape)) for shape in
                          ((B, 4 * H), (B, H), (B, H), (4 * H, H)))
        rmask = ad.dropout_mask(rng, (B, H), 0.5, np.float32)
        with ad.Tape():
            taped = lstm_step(gx, h0, c0, wh, rmask)
        untaped = lstm_step(gx, h0, c0, wh, rmask)
        for a, b in zip(taped, untaped):
            assert b.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)


def _gx_layer(gx, wh, *args, **kw):
    """`lstm_layer` on given gate inputs gx (T, B, 4H), the signature of
    `lstm_layer_dense`."""
    return ad.lstm_layer(gx, gate_input_cell(wh), *args, **kw)


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
                h_in = h if rmask is None else ad.mul(h, f64(rmask[b:b + 1]))
                h, c = lstm_cell(leaves[t][b], h_in, c, eye)
                outs[t, b] = h
    return leaves, w, starts, outs, tape


# (T, row lengths) for the packed-versus-dense comparison; a batch whose
# rows all have length T runs with no lengths given
PACKING_CASES = {
    "one-row-of-length-1": (5, [5, 1, 3, 2]),
    "equal-lengths": (6, [4, 4, 4]),
    "every-row-length-T": (5, [5, 5, 5]),
    "one-row-batch": (6, [4]),
    "one-row-batch-length-T": (3, [3]),
    "last-live-row-alone": (6, [6, 2, 3, 2]),
}
# `lstm_layer` also takes a row of length 0, which an encoder refuses
LAYER_CASES = {**PACKING_CASES, "a-row-of-length-0": (5, [3, 0, 5, 1])}


def _real_rows(T, B, lengths):
    """The flat index t * B + b of the real step-rows (t, b), in the
    time-major order of `lstm_layer`'s output rows."""
    return np.flatnonzero(np.arange(T)[:, None]
                          < (np.full(B, T) if lengths is None else lengths))


def _dense_real_rows(gx, wh, *args, lengths=None, **kw):
    """`lstm_layer_dense` gathered at the real step-rows (`take_rows`)."""
    T, B = gx.shape[:2]
    return take_rows(lstm_layer_dense(gx, wh, *args, lengths=lengths, **kw),
                     _real_rows(T, B, lengths))


def _layer_run(layer, arrays, lengths, reverse, rmask, weights, dtype):
    """States and input gradients of `layer` under a weighted-sum loss;
    `arrays` holds gx, wh and optionally h0, c0."""
    p = {name: ad.param(np.asarray(v, dtype=dtype), name)
         for name, v in arrays.items()}
    with ad.Tape() as tape:
        hs = layer(p["gx"], p["wh"], p.get("h0"), p.get("c0"), lengths=lengths,
                   reverse=reverse,
                   rmask=None if rmask is None else rmask.astype(dtype))
        loss = ad.sum_(ad.mul(hs, ad.Tensor(weights.astype(dtype))))
    ad.backward(tape, loss)
    return hs.data, {name: t.grad for name, t in p.items()}


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=24),
           st.integers(0, 3))
    def test_rank_is_the_double_argsort(self, lengths, extra):
        """Each packed row's time-major rank (`_packing`) equals the
        double argsort of the flat indices, zero-length rows included,
        and is that row's place among the real step-rows in t * B + b
        order."""
        lengths = np.array(lengths)
        T = max(int(lengths.max()) + extra, 1)
        _, _, index, rank = ad._packing(lengths, T)
        np.testing.assert_array_equal(rank, np.argsort(np.argsort(index)))
        np.testing.assert_array_equal(_real_rows(T, len(lengths), lengths)[rank],
                                      index)

    @pytest.mark.parametrize("lengths", [None, [4, 4, 4], [4, 1, 3], [2, 2, 2]])
    def test_real_rows_are_a_view_when_no_row_pads(self, lengths):
        """x's real step-rows (`_check_lstm`) are x's rows themselves when
        every row runs all T steps, the packing being the identity; else
        a gather. Either way they equal x's rows at the packed index."""
        T, B, D = 4, 3, 5
        x = ad.Tensor(np.random.default_rng(30).normal(size=(T, B, D)))
        cell = ad.init_lstm(np.random.default_rng(30), D, 2, "c")
        pack, xp, _ = ad._check_lstm("op", x, [cell],
                                     None if lengths is None else np.array(lengths))
        np.testing.assert_array_equal(xp, x.data.reshape(T * B, D)[pack[2]])
        assert np.shares_memory(xp, x.data) == (lengths in (None, [4, 4, 4]))


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

        leaves, w_ref, starts, outs, ref_tape = _cell_scan(
            gx, wh, h0, c0, lengths, reverse, rmask)
        with ref_tape:
            terms = [ad.sum_(ad.mul(h, f64(weights[t, b:b + 1])))
                     for (t, b), h in outs.items()]
            ref_loss = terms[0]
            for term in terms[1:]:
                ref_loss = ad.add(ref_loss, term)
        ad.backward(ref_tape, ref_loss)

        p = {"gx": f64_param(gx, "gx"), "wh": f64_param(wh, "wh"),
             "h0": f64_param(h0, "h0"), "c0": f64_param(c0, "c0")}
        real = _real_rows(T, B, lengths)
        with ad.Tape() as tape:
            hs = _gx_layer(p["gx"], p["wh"], p["h0"], p["c0"], lengths=lengths,
                           reverse=reverse, rmask=rmask)
            loss = ad.sum_(ad.mul(hs, f64(weights.reshape(T * B, H)[real])))
        ad.backward(tape, loss)

        close = dict(rtol=1e-10, atol=1e-10)
        expected = np.zeros((T, B, H))
        for (t, b), h in outs.items():
            expected[t, b] = h.data[0]
        np.testing.assert_allclose(hs.data, expected.reshape(T * B, H)[real],
                                   **close)
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

    @pytest.mark.parametrize("case", sorted(LAYER_CASES))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_dense_oracle(self, case, reverse):
        """The packed layer against the dense one it replaced, gathered at
        the real step-rows, with and without h0/c0 and recurrent dropout:
        float64 states and gradients within 1e-10, float32 states
        bit-equal."""
        T, lengths = LAYER_CASES[case]
        B, H = len(lengths), 8
        lengths = None if min(lengths) == T else np.array(lengths)
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
                weights = rng.normal(size=(T, B, H)).reshape(T * B, H)[
                    _real_rows(T, B, lengths)]
                runs = {(layer, dtype): _layer_run(layer, arrays, lengths,
                                                   reverse, rmask, weights,
                                                   dtype)
                        for layer in (_gx_layer, _dense_real_rows)
                        for dtype in (np.float64, np.float32)}
                hs, grads = runs[_gx_layer, np.float64]
                hs_ref, grads_ref = runs[_dense_real_rows, np.float64]
                close = dict(rtol=1e-10, atol=1e-10)
                np.testing.assert_allclose(hs, hs_ref, **close)
                assert grads.keys() == grads_ref.keys()
                for name in grads:
                    np.testing.assert_allclose(grads[name], grads_ref[name],
                                               err_msg=name, **close)
                np.testing.assert_array_equal(
                    runs[_gx_layer, np.float32][0],
                    runs[_dense_real_rows, np.float32][0])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths,extra", [([6, 2, 3, 2, 1], 3), ([3], 3)])
    def test_recurrent_gemm_runs_live_rows_only(self, reverse, lengths, extra):
        """Forward and backward each feed the recurrent GEMM every real
        step-row once and no pad row, plus a repeated row at each step
        where one row is live (the gemm rule), a one-row batch's steps
        included. The products are seen through an ndarray subclass that
        wh is a view of: forward (wh @ h.T).T, whose rows are h.T's
        columns, and backward dz @ wh. The input GEMMs are counted by
        `test_input_gemms_read_real_rows_only`."""
        products = []
        T, B, D, H = 8, len(lengths), 3, 4
        rng = np.random.default_rng(27)
        x = f64_param(rng.normal(size=(T, B, D)), "x")
        cell = ad.init_lstm(rng, D, H, "cell", dtype=np.float64)
        cell.wh.data = cell.wh.data.view(_product_probe(products))
        with ad.Tape() as tape:
            loss = ad.sum_(ad.lstm_layer(x, cell, lengths=np.array(lengths),
                                         reverse=reverse))
        forward = [b[1] for _, b in products]
        ad.backward(tape, loss)
        backward = [a[0] for a, _ in products[len(forward):]]
        assert sum(forward) == sum(backward) == sum(lengths) + extra

    @pytest.mark.parametrize("directions", ["forward", "reverse", "both"])
    @pytest.mark.parametrize("lengths", [[6, 2, 3, 2, 1], [3], [0, 1, 0]])
    def test_input_gemms_read_real_rows_only(self, directions, lengths):
        """The input GEMM and both of its gradient GEMMs (of x and of wi)
        read every real step-row once and no pad row, plus the repeated
        row of a one-row product (the gemm rule), in each direction. The
        products are seen through an ndarray subclass that x and wi are
        views of, so every product with either is recorded. An encoder
        pools each row, so `bilstm_layer` refuses a row of length 0
        before any product."""
        products = []
        Seen = _product_probe(products)
        T, B, D, H = 8, len(lengths), 3, 4
        G, P = 4 * H, sum(lengths)
        rng = np.random.default_rng(27)
        x = f64_param(rng.normal(size=(T, B, D)), "x")
        cells = [ad.init_lstm(rng, D, H, f"cell{k}", dtype=np.float64)
                 for k in range(2)]
        for t in (x, *(cell.wi for cell in cells)):
            t.data = t.data.view(Seen)
        with ad.Tape() as tape:
            if directions == "both" and 0 in lengths:
                with pytest.raises(ad.EmptySequenceError):
                    ad.bilstm_layer(x, *cells, lengths=np.array(lengths))
                assert products == [] and tape.records == []
                return
            if directions == "both":
                hs = ad.bilstm_layer(x, *cells, lengths=np.array(lengths))[1]
            else:
                hs = ad.lstm_layer(x, cells[0], lengths=np.array(lengths),
                                   reverse=directions == "reverse")
            loss = ad.sum_(hs)
        forward = len(products)
        ad.backward(tape, loss)
        n = 2 if directions == "both" else 1
        assert products[:forward] == [((P + (P == 1), D), (D, G))] * n
        assert sorted(products[forward:]) == sorted(
            [((P + (P == 1), G), (G, D)), ((G, P), (P, D))] * n)

    def test_one_row_products_run_as_gemm(self):
        """At B = 1 no product reaches numpy with a one-row row operand
        (or a one-column column operand, as the recurrent term's (w @
        h.T).T has): each runs as a two-row gemm (`_gemm_rows`). Checked
        for `linear` on 2-D and 3-D input (forward and input gradient),
        `lstm_layer` with a cond Tensor, `bilstm_layer` with one real
        step-row and one `lstm_stepper` step, through an ndarray subclass
        that every input and weight is a view of."""
        products = []
        Seen = _product_probe(products)
        T, D, H, C = 4, 3, 4, 2
        rng = np.random.default_rng(29)

        def seen(*tensors):
            for t in tensors:
                t.data = t.data.view(Seen)
            return tensors

        def only_gemm(name):
            assert products, name
            assert all(a[0] > 1 and b[-1] > 1 for a, b in products), \
                (name, products)
            products.clear()

        w, b = seen(f64_param(rng.normal(size=(5, D)), "w"),
                    f64_param(rng.normal(size=5), "b"))
        x, x3, seq, cond, h0, c0 = seen(
            *(f64_param(rng.normal(size=shape), name) for name, shape in (
                ("x", (1, D)), ("x3", (1, 1, D)), ("seq", (T, 1, D)),
                ("cond", (1, C)), ("h0", (1, H)), ("c0", (1, H)))))
        dec, *enc = (ad.init_lstm(rng, D + C * (k == 0), H, f"cell{k}",
                                  dtype=np.float64) for k in range(3))
        seen(*(t for cell in (dec, *enc) for t in (cell.wi, cell.wh)))
        taped = {
            "linear 2-D": lambda: ad.linear(x, w, b),
            "linear 3-D": lambda: ad.linear(x3, w, b),
            "lstm_layer": lambda: ad.lstm_layer(seq, dec, h0, c0, np.array([3]),
                                                cond),
            "bilstm_layer": lambda: ad.bilstm_layer(seq, *enc, np.array([1]))[1],
        }
        for name, op in taped.items():
            with ad.Tape() as tape:
                loss = ad.sum_(op())
            ad.backward(tape, loss)
            only_gemm(name)
        with ad.lstm_stepper(dec, h0, c0, cond) as step:
            step(seq.data[0])
        only_gemm("lstm_stepper")

    def test_padding_never_changes_real_steps(self):
        rng = np.random.default_rng(22)
        H = 2
        gx = rng.normal(size=(3, 1, 4 * H)).astype(np.float32)
        wh = f32(rng.normal(size=(4 * H, H)))
        pads = rng.normal(size=(2, 1, 4 * H))
        padded = np.concatenate([gx, pads]).astype(np.float32)
        for reverse in (False, True):
            short = _gx_layer(f32(gx), wh, reverse=reverse)
            long = _gx_layer(f32(padded), wh, reverse=reverse,
                             lengths=np.array([3]))
            np.testing.assert_array_equal(long.data, short.data)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_same_states_with_and_without_tape(self, reverse, dropout):
        """Without a tape the backward caches are skipped; the states
        must not change by a bit (float32, mixed lengths, given h0/c0)."""
        rng = np.random.default_rng(24)
        T, B, H = 6, 5, 8
        gx = f32(rng.normal(size=(T, B, 4 * H)))
        wh, h0, c0 = (f32(rng.normal(size=shape))
                      for shape in ((4 * H, H), (B, H), (B, H)))
        rmask = (ad.dropout_mask(rng, (B, H), 0.5, np.float32)
                 if dropout else None)
        kw = dict(lengths=np.array([6, 1, 3, 6, 2]), reverse=reverse,
                  rmask=rmask)
        with ad.Tape() as tape:
            taped = _gx_layer(gx, wh, h0, c0, **kw)
        assert len(tape.records) == 1
        untaped = _gx_layer(gx, wh, h0, c0, **kw)
        assert untaped.data.dtype == np.float32
        np.testing.assert_array_equal(untaped.data, taped.data)

    def test_no_backward_caches_without_tape(self):
        """Forward-only, the peak allocation stays near the input
        projection's chunk buffer plus the output (here T * B = 480 rows
        are one chunk, four times the output); a taped run's caches
        (acts, c_prev, tanh_c, h_in) take seven times the output more."""
        import tracemalloc
        rng = np.random.default_rng(25)
        T, B, H = 60, 8, 32
        x = f32(rng.normal(size=(T, B, 3)))
        cell = ad.init_lstm(rng, 3, H, "cell")
        peaks = []
        for taped in (False, True):
            tape = ad.Tape()
            tracemalloc.start()
            try:
                if taped:
                    with tape:
                        hs = ad.lstm_layer(x, cell)
                else:
                    hs = ad.lstm_layer(x, cell)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 8 * hs.data.nbytes < peaks[1]

    def test_gate_pass_matches_two_exp_kernel(self):
        """The gate kernel against the two-exp one it replaced
        (`oracles.lstm_gates_two_exp`) in float64, within 1e-10 on the
        activations, c', tanh c' and h': random z, z = 0, and z up to
        +-60 where the gates saturate; no RuntimeWarning."""
        rng = np.random.default_rng(31)
        n, H = 16, 8
        zs = [rng.normal(scale=3.0, size=(n, 4 * H)), np.zeros((n, 4 * H)),
              rng.uniform(-60.0, 60.0, size=(n, 4 * H)),
              np.tile([60.0, -60.0], (n, 2 * H))]
        c = rng.normal(size=(n, H))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in zs:
                got = ad._lstm_gates(z.copy(), c)
                for a, b in zip(got, lstm_gates_two_exp(z, c)):
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_step_kernel_matches_cell(self):
        """The step every LSTM path runs (`_lstm_step`) against the
        composed cell."""
        rng = np.random.default_rng(23)
        params = ad.init_lstm(rng, input_dim=3, hidden=4, prefix="cell",
                              dtype=np.float64)
        x, h, c = (f64(rng.normal(size=(2, n))) for n in (3, 4, 4))
        h_ref, c_ref = lstm_cell(x, h, c, params)
        h2, c2 = _array_step(x, h, c, params)
        np.testing.assert_allclose(h2, h_ref.data, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(c2, c_ref.data, rtol=1e-12, atol=1e-14)

    def test_one_tape_record(self):
        """The input projection, the cond term and the recurrence are one
        record, whose inputs are x, the cell and whatever else is given."""
        rng = np.random.default_rng(28)
        cell = ad.init_lstm(rng, 5, 2, "cell", dtype=np.float64)
        x, h0, c0, cond = (f64(rng.normal(size=shape)) for shape in
                           ((6, 3, 3), (3, 2), (3, 2), (3, 2)))
        with ad.Tape() as tape:
            ad.lstm_layer(x, cell, h0, c0, cond=cond, reverse=True)
        assert [inputs for _, inputs, _ in tape.records] == [
            (x, cell.wi, cell.wh, cell.b, h0, c0, cond)]
        wide = f64(rng.normal(size=(6, 3, 5)))
        with ad.Tape() as tape:
            ad.lstm_layer(wide, cell, c0=c0)
        assert [inputs for _, inputs, _ in tape.records] == [
            (wide, cell.wi, cell.wh, cell.b, c0)]

    def test_shape_errors(self):
        rng = np.random.default_rng(29)
        cell = ad.init_lstm(rng, 3, 2, "cell", dtype=np.float64)
        x, state = f64(np.zeros((3, 2, 3))), f64(np.zeros((2, 2)))
        calls = [lambda: ad.lstm_layer(f64(np.zeros((3, 2, 4))), cell),
                 lambda: ad.lstm_layer(f64(np.zeros((3, 3))), cell),
                 lambda: ad.lstm_layer(f64(np.zeros((3, 2, 2))), cell,
                                       cond=f64(np.zeros((2, 2)))),
                 lambda: ad.lstm_layer(f64(np.zeros((3, 2, 2))), cell,
                                       cond=f64(np.zeros((3, 1)))),
                 lambda: ad.lstm_layer(x, cell, f64(np.zeros((2, 3))), state),
                 lambda: ad.lstm_layer(x, cell, state, f64(np.zeros((1, 2)))),
                 lambda: ad.lstm_layer(x, cell, rmask=np.ones((2, 3)))]
        # lengths (B,) = (2,) integers in [0, T] = [0, 3]
        calls += [lambda lengths=lengths: ad.lstm_layer(x, cell, lengths=lengths)
                  for lengths in (np.array([3]), np.array([[3, 3]]),
                                  np.array([3.0, 2.0]), np.array([True, True]),
                                  np.array([-1, 2]), np.array([2, 4]))]
        for call in calls:
            with pytest.raises(ad.ShapeError):
                call()
        with pytest.raises(ad.EmptySequenceError):
            ad.lstm_layer(f64(np.zeros((0, 2, 3))), cell)

    def test_cond_matches_linear_on_concatenated_input(self):
        """With `cond`, against `linear` over the explicitly concatenated
        [x_t, cond] feeding the dense layer, gathered at the real
        step-rows: states and the gradients of x, cond, wi, wh, b, h0 and
        c0 within 1e-10 (float64), for every packing case and a row of
        length 0, both directions, with and without h0/c0 and recurrent
        dropout."""
        rng = np.random.default_rng(30)
        D, C, H = 3, 2, 4
        close = dict(rtol=1e-10, atol=1e-10)
        for T, lengths in LAYER_CASES.values():
            B = len(lengths)
            lengths = None if min(lengths) == T else np.array(lengths)
            for reverse, given, dropout in itertools.product((False, True),
                                                             repeat=3):
                arrays = {"x": rng.normal(size=(T, B, D)),
                          "cond": rng.normal(size=(B, C)),
                          "wi": rng.normal(size=(4 * H, D + C)) * 0.5,
                          "wh": rng.normal(size=(4 * H, H)) * 0.5,
                          "b": rng.normal(size=4 * H) * 0.5}
                if given:
                    arrays.update(h0=rng.normal(size=(B, H)),
                                  c0=rng.normal(size=(B, H)))
                rmask = (ad.dropout_mask(rng, (B, H), 0.5, np.float64)
                         if dropout else None)
                real = _real_rows(T, B, lengths)
                weights = ad.Tensor(rng.normal(size=(T, B, H)).reshape(
                    T * B, H)[real])
                runs = []
                for fused in (True, False):
                    p = {k: f64_param(v, k) for k, v in arrays.items()}
                    cell = ad.LstmParams(p["wi"], p["wh"], p["b"])
                    kw = dict(lengths=lengths, reverse=reverse, rmask=rmask)
                    with ad.Tape() as tape:
                        if fused:
                            hs = ad.lstm_layer(p["x"], cell, p.get("h0"),
                                               p.get("c0"), cond=p["cond"], **kw)
                        else:
                            cat = ad.concat([p["x"], stack_steps([p["cond"]] * T)])
                            hs = take_rows(lstm_layer_dense(
                                ad.linear(cat, p["wi"], p["b"]), p["wh"],
                                p.get("h0"), p.get("c0"), **kw), real)
                        loss = ad.sum_(ad.mul(hs, weights))
                    ad.backward(tape, loss)
                    runs.append((hs.data, {k: t.grad for k, t in p.items()}))
                (hs, grads), (hs_ref, grads_ref) = runs
                np.testing.assert_allclose(hs, hs_ref, **close)
                for name in arrays:
                    np.testing.assert_allclose(grads[name], grads_ref[name],
                                               err_msg=name, **close)

    @pytest.mark.parametrize("kind", ["none", "tensor", "attention"])
    def test_matches_padded_projection(self, kind):
        """Against the input projection of all T * B step-rows: `linear`
        of x, bias included, feeding a cell whose x columns of wi are the
        identity and whose bias is 0, cond's columns as they are. States
        and every gradient (x, wi, wh, b, h0, c0 and cond's tensors)
        within 1e-10 (float64), for every packing case and a row of
        length 0, both directions, with and without recurrent dropout,
        with no cond, a cond Tensor or attention heads."""
        rng = np.random.default_rng(38)
        D, C, H = 3, 2, 4
        G = 4 * H
        close = dict(rtol=1e-10, atol=1e-10)
        for T, lengths in LAYER_CASES.values():
            B = len(lengths)
            lengths = None if min(lengths) == T else np.array(lengths)
            for reverse, dropout in itertools.product((False, True), repeat=2):
                key_lengths = []
                if kind == "attention":
                    arrays, key_lengths = _attention_arrays(rng, T, B, D, H)
                else:
                    arrays = {"x": rng.normal(size=(T, B, D)),
                              "wi": rng.normal(size=(4 * H, D + C * (
                                  kind == "tensor"))) * 0.5,
                              "wh": rng.normal(size=(4 * H, H)) * 0.5,
                              "b": rng.normal(size=4 * H) * 0.5,
                              "h0": rng.normal(size=(B, H)),
                              "c0": rng.normal(size=(B, H))}
                    if kind == "tensor":
                        arrays["cond"] = rng.normal(size=(B, C))
                width = arrays["wi"].shape[1]
                xs = slice(width - D, width) if kind == "attention" else slice(0, D)
                rmask = (ad.dropout_mask(rng, (B, H), 0.5, np.float64)
                         if dropout else None)
                weights = ad.Tensor(rng.normal(size=(T, B, H)).reshape(
                    T * B, H)[_real_rows(T, B, lengths)])
                runs = []
                for packed in (True, False):
                    x, cell, h0, c0, heads, p = _attention_inputs(
                        arrays, key_lengths, np.float64)
                    cond = heads if kind == "attention" else p.get("cond")
                    kw = dict(lengths=lengths, cond=cond, reverse=reverse,
                              rmask=rmask)
                    if not packed:
                        wi = arrays["wi"]
                        wx = f64_param(wi[:, xs], "wx")
                        eye = f64_param(np.concatenate(
                            [wi[:, :xs.start], np.eye(G), wi[:, xs.stop:]],
                            axis=1), "eye")
                        ref = ad.LstmParams(eye, cell.wh, f64(np.zeros(G)))
                    with ad.Tape() as tape:
                        if packed:
                            hs = ad.lstm_layer(x, cell, h0, c0, **kw)
                        else:
                            hs = ad.lstm_layer(ad.linear(x, wx, cell.b), ref,
                                               h0, c0, **kw)
                        loss = ad.sum_(ad.mul(hs, weights))
                    ad.backward(tape, loss)
                    grads = {k: t.grad for k, t in p.items()}
                    if not packed:
                        grads["wi"] = np.concatenate(
                            [eye.grad[:, :xs.start], wx.grad,
                             eye.grad[:, xs.start + G:]], axis=1)
                    runs.append((hs.data, grads))
                (hs, grads), (hs_ref, grads_ref) = runs
                np.testing.assert_allclose(hs, hs_ref, **close)
                assert grads.keys() == grads_ref.keys() == arrays.keys()
                for name in grads:
                    np.testing.assert_allclose(grads[name], grads_ref[name],
                                               err_msg=name, **close)


class TestPadSteps:
    """Pad steps appended to a batch change no bit of what the LSTM ops
    compute: the input projection and its gradients, like the recurrence,
    read the real step-rows only (float32, at the benchmark's encoder
    input width)."""

    T, B, D, H, EXTRA = 25, 64, 300, 128, 6

    def _runs(self, layer, arrays):
        """States and gradients of `layer(p)` under a weighted-sum loss,
        on x as given and on x with EXTRA pad steps of noise appended
        (whose loss weights are noise too). A layer that returns
        (pooled, states) has its pooled vector in the loss, and in the
        gradients as "pooled"."""
        rng = np.random.default_rng(46)
        noise = rng.normal(size=(self.EXTRA, self.B, self.D)).astype(np.float32)
        weights = rng.normal(size=(self.T + self.EXTRA, self.B, 2 * self.H))
        pool_w = ad.Tensor(rng.normal(size=(self.B, 2 * self.H)).astype(np.float32))
        runs = []
        for extra in (0, self.EXTRA):
            p = {k: ad.param(np.asarray(v, dtype=np.float32), k)
                 for k, v in arrays.items()}
            p["x"].data = np.concatenate([p["x"].data, noise[:extra]])
            w = weights[:self.T + extra].astype(np.float32)
            with ad.Tape() as tape:
                out = layer(p)
                pooled, hs = out if isinstance(out, tuple) else (None, out)
                w = w[np.arange(len(w))[:, None] < self._lengths()]   # real rows
                loss = ad.sum_(ad.mul(hs, ad.Tensor(w[..., :hs.shape[-1]])))
                if pooled is not None:
                    loss = ad.add(loss, ad.sum_(ad.mul(pooled, pool_w)))
            ad.backward(tape, loss)
            grads = {k: t.grad for k, t in p.items()}
            if pooled is not None:
                grads["pooled"] = pooled.data
            runs.append((hs.data, grads))
        return runs

    def _lengths(self):
        lengths = np.random.default_rng(47).integers(1, self.T + 1, size=self.B)
        lengths[0] = self.T
        return lengths

    def _assert_same(self, runs):
        (hs, grads), (hs_pad, grads_pad) = runs
        np.testing.assert_array_equal(hs_pad, hs)
        np.testing.assert_array_equal(grads_pad["x"][self.T:], 0.0)
        grads_pad["x"] = grads_pad["x"][:self.T]
        assert grads.keys() == grads_pad.keys()
        for name in grads:
            np.testing.assert_array_equal(grads_pad[name], grads[name],
                                          err_msg=name)

    @pytest.mark.parametrize("cond", [False, True])
    def test_lstm_layer(self, cond):
        rng = np.random.default_rng(45)
        T, B, D, H, C = self.T, self.B, self.D, self.H, 32
        cell = ad.init_lstm(rng, D + C * cond, H, "cell")
        arrays = {"x": rng.normal(size=(T, B, D)), "wi": cell.wi.data,
                  "wh": cell.wh.data, "b": cell.b.data,
                  "h0": rng.normal(size=(B, H)) * 0.5,
                  "c0": rng.normal(size=(B, H)) * 0.5}
        if cond:
            arrays["cond"] = rng.normal(size=(B, C))
        lengths = self._lengths()
        self._assert_same(self._runs(lambda p: ad.lstm_layer(
            p["x"], ad.LstmParams(p["wi"], p["wh"], p["b"]), p["h0"], p["c0"],
            lengths=lengths, cond=p.get("cond")), arrays))

    def test_bilstm_layer(self):
        rng = np.random.default_rng(48)
        T, B, D, H = self.T, self.B, self.D, self.H
        cells = [ad.init_lstm(rng, D, H, d) for d in ("fwd", "bwd")]
        arrays = {"x": rng.normal(size=(T, B, D)),
                  **{f"{k}.{d}": getattr(cell, k).data
                     for d, cell in zip(("fwd", "bwd"), cells)
                     for k in ("wi", "wh", "b")}}
        lengths = self._lengths()

        def layer(p):
            return ad.bilstm_layer(p["x"], *(ad.LstmParams(
                p[f"wi.{d}"], p[f"wh.{d}"], p[f"b.{d}"]) for d in ("fwd", "bwd")),
                lengths=lengths)

        self._assert_same(self._runs(layer, arrays))


def _attention_arrays(rng, T, B, D, H, widths=(4, 3), A=2):
    """Arrays of an attention `lstm_layer`: x (T, B, D), a cell reading
    [contexts, x] and heads over up to `widths` keys with random key
    lengths, their keys and values the real rows (sum(lengths), A)."""
    arrays = {"x": rng.normal(size=(T, B, D)),
              "wi": rng.normal(size=(4 * H, A * len(widths) + D)) * 0.5,
              "wh": rng.normal(size=(4 * H, H)) * 0.5,
              "b": rng.normal(size=4 * H) * 0.5,
              "h0": rng.normal(size=(B, H)), "c0": rng.normal(size=(B, H))}
    for k, width in enumerate(widths):
        arrays.update({f"wc{k}": rng.normal(size=(A, H)),
                       f"bc{k}": rng.normal(size=A),
                       f"keys{k}": rng.normal(size=(width, B, A)),
                       f"values{k}": rng.normal(size=(width, B, A))})
    key_lengths = [rng.integers(1, width + 1, size=B) for width in widths]
    for k, (width, lengths) in enumerate(zip(widths, key_lengths)):
        for name in (f"keys{k}", f"values{k}"):
            arrays[name] = arrays[name][np.arange(width)[:, None] < lengths]
    return arrays, key_lengths


def _attention_inputs(arrays, key_lengths, dtype):
    """(x, cell, h0, c0, heads, every tensor by name) of `arrays`."""
    p = {name: ad.param(np.asarray(v, dtype=dtype), name)
         for name, v in arrays.items()}
    heads = [ad.Attention(p[f"wc{k}"], p[f"bc{k}"], p[f"keys{k}"],
                          p[f"values{k}"], lengths)
             for k, lengths in enumerate(key_lengths)]
    return (p["x"], ad.LstmParams(p["wi"], p["wh"], p["b"]), p["h0"], p["c0"],
            heads, p)


class TestAttentionLayer:
    """`lstm_layer` with `Attention` heads as its `cond`: the attention
    decoder's teacher forcing. Its values and gradients are checked
    against the composed decoder in test_models and by finite
    differences in criterion 1."""

    def test_one_tape_record(self):
        """The whole sequence is one record, whose inputs are x, the
        cell, h0, c0 and each head's wc, bc, keys and values."""
        arrays, key_lengths = _attention_arrays(np.random.default_rng(40),
                                                5, 3, 2, 4)
        x, cell, h0, c0, heads, _ = _attention_inputs(arrays, key_lengths,
                                                      np.float64)
        with ad.Tape() as tape:
            ad.lstm_layer(x, cell, h0, c0, np.array([5, 1, 3]), cond=heads)
        assert [inputs for _, inputs, _ in tape.records] == [
            (x, cell.wi, cell.wh, cell.b, h0, c0,
             *(t for a in heads for t in (a.wc, a.bc, a.keys, a.values)))]

    @pytest.mark.parametrize("dropout", [False, True])
    def test_same_states_with_and_without_tape(self, dropout):
        """Without a tape the backward caches are skipped; the states
        must not change by a bit (float32, mixed lengths)."""
        rng = np.random.default_rng(42)
        arrays, key_lengths = _attention_arrays(rng, 6, 5, 3, 8)
        x, cell, h0, c0, heads, _ = _attention_inputs(arrays, key_lengths,
                                                      np.float32)
        rmask = (ad.dropout_mask(rng, (5, 8), 0.5, np.float32)
                 if dropout else None)
        kw = dict(lengths=np.array([6, 1, 3, 6, 2]), cond=heads, rmask=rmask)
        with ad.Tape() as tape:
            taped = ad.lstm_layer(x, cell, h0, c0, **kw)
        assert len(tape.records) == 1
        untaped = ad.lstm_layer(x, cell, h0, c0, **kw)
        assert untaped.data.dtype == np.float32
        np.testing.assert_array_equal(untaped.data, taped.data)

    @pytest.mark.parametrize("attention", [False, True])
    def test_stepper_runs_the_layers_step(self, attention, monkeypatch):
        """Greedy decoding's `lstm_stepper`, fed a sequence one step at a
        time, gives `lstm_layer`'s states bit for bit when every row is
        real (float32), with either kind of `cond`, for one row (the gemv
        path) and several, its state terms made on the worker or by an
        executor that runs each task as it is given."""
        for B, inline in itertools.product((4, 1), (False, True)):
            rng = np.random.default_rng(43)
            T, D, H = 5, 3, 8
            arrays, key_lengths = _attention_arrays(rng, T, B, D, H)
            x, cell, h0, c0, heads, _ = _attention_inputs(arrays, key_lengths,
                                                          np.float32)
            cond = heads
            if not attention:
                cond = f32(rng.normal(size=(B, 2)))
                cell = ad.LstmParams(f32(rng.normal(size=(4 * H, D + 2))),
                                     cell.wh, cell.b)
            states = ad.lstm_layer(x, cell, h0, c0, cond=cond).data.reshape(
                T, B, H)   # every row real: row t * B + b is (t, b)
            with monkeypatch.context() as m:
                if inline:
                    m.setattr(ad, "_worker", InlineExecutor())
                with ad.lstm_stepper(cell, h0, c0, cond) as step:
                    for t in range(T):
                        np.testing.assert_array_equal(
                            step(x.data[t]), states[t],
                            err_msg=f"B={B} inline={inline}")

    def test_contexts_scatter_rows_in_their_order(self):
        """Each head's key and value rows land once in zeros (B, T_k, A),
        row i holding batch row order[i]'s real steps, T_k its longest
        length, at the places `rows` lists, where the op gathers their
        gradients back."""
        arrays, key_lengths = _attention_arrays(np.random.default_rng(49),
                                                3, 4, 2, 4)
        *_, heads, _ = _attention_inputs(arrays, key_lengths, np.float32)
        for order in (np.arange(4), np.array([1, 0, 3, 2])):
            ctx = ad._Contexts(heads, None, order, False)
            for a, lengths, head, rows in zip(heads, key_lengths, ctx.heads,
                                              ctx.rows):
                real = np.arange(lengths.max())[:, None] < lengths
                for t, arr in zip((a.keys, a.values), head[2:4]):
                    dense = np.zeros(real.shape + (2,), np.float32)
                    dense[real] = t.data   # (T_k, B, A), pad steps 0
                    np.testing.assert_array_equal(
                        arr, dense.transpose(1, 0, 2)[order])
                    np.testing.assert_array_equal(arr[rows], t.data)

    def test_shape_errors(self):
        rng = np.random.default_rng(44)
        arrays, key_lengths = _attention_arrays(rng, 4, 2, 3, 2)
        rows = key_lengths[1].sum()
        for change in ({"keys0": (4, 2, 2), "values0": (4, 2, 2)},   # padded
                       {"values1": (rows, 1)}, {"wc0": (2, 3)}, {"bc1": (3,)},
                       {"keys1": (rows + 1, 2), "values1": (rows + 1, 2)}):
            x, cell, h0, c0, heads, _ = _attention_inputs(
                {**arrays, **{k: np.zeros(v) for k, v in change.items()}},
                key_lengths, np.float64)
            with pytest.raises(ad.ShapeError):
                ad.lstm_layer(x, cell, h0, c0, cond=heads)
        for lengths in (np.array([1]), np.array([1.0, 2.0])):
            x, cell, h0, c0, heads, _ = _attention_inputs(
                arrays, [lengths, key_lengths[1]], np.float64)
            with pytest.raises(ad.ShapeError, match="attention head 0"):
                ad.lstm_layer(x, cell, h0, c0, cond=heads)


def _bilstm_arrays(rng, T, B, D, H):
    return {"x": rng.normal(size=(T, B, D)),
            **{f"{d}.{k}": rng.normal(size=shape) * 0.5
               for d in ("fwd", "bwd")
               for k, shape in (("wi", (4 * H, D)), ("wh", (4 * H, H)),
                                ("b", (4 * H,)))}}


def _bilstm_params(arrays, dtype):
    p = {name: ad.param(np.asarray(v, dtype=dtype), name)
         for name, v in arrays.items()}
    cells = [ad.LstmParams(p[f"{d}.wi"], p[f"{d}.wh"], p[f"{d}.b"])
             for d in ("fwd", "bwd")]
    return p, cells


def _bilstm_run(layer, arrays, lengths, weights, dtype):
    """States and the gradients of x and both cells' weights of `layer`
    under a weighted-sum loss of its states (P, 2H) (weights drawn as
    (T, B, 2H), taken at the real step-rows) and, with `weights` a pair
    (states', pooled's), of its pooled vector too; with a pair, the
    pooled vector is returned in the gradients as "pooled"."""
    p, (fwd, bwd) = _bilstm_params(arrays, dtype)
    w_states, w_pooled = weights if isinstance(weights, tuple) else (weights, None)
    T, B, width = w_states.shape
    w_states = w_states.reshape(T * B, width)[_real_rows(T, B, lengths)]
    with ad.Tape() as tape:
        pooled, hs = layer(p["x"], fwd, bwd, lengths=lengths)
        loss = ad.sum_(ad.mul(hs, ad.Tensor(w_states.astype(dtype))))
        if w_pooled is not None:
            loss = ad.add(loss, ad.sum_(ad.mul(
                pooled, ad.Tensor(w_pooled.astype(dtype)))))
    ad.backward(tape, loss)
    grads = {name: t.grad for name, t in p.items()}
    if w_pooled is not None:
        grads["pooled"] = pooled.data
    return hs.data, grads


def _composed_rows(x, fwd, bwd, lengths=None):
    """`bilstm_composed` with its (T, B, 2H) states taken at the real
    step-rows (`take_rows`), in `bilstm_layer`'s order."""
    pooled, states = bilstm_composed(x, fwd, bwd, lengths)
    return pooled, take_rows(states, _real_rows(*x.shape[:2], lengths))


class TestBilstmLayer:
    @pytest.mark.parametrize("case", sorted(PACKING_CASES))
    def test_matches_composed_directions(self, case):
        """Against `linear` -> `lstm_layer` x2 -> `concat` ->
        `max_over_time` (`_composed_rows`), under a loss of both outputs:
        float32 and float64 states bit-equal, float32 pooled vector and
        both wh gradients bit-equal, the float32 gradients of x, wi and b
        within float32 rounding (they sum the real step-rows only, in
        packed order, where `linear` sums all T * B rows), and the
        float64 pooled vector and all seven gradients within 1e-10."""
        T, lengths = PACKING_CASES[case]
        B, D, H = len(lengths), 5, 8
        lengths = None if min(lengths) == T else np.array(lengths)
        rng = np.random.default_rng(31)
        arrays = _bilstm_arrays(rng, T, B, D, H)
        weights = (rng.normal(size=(T, B, 2 * H)), rng.normal(size=(B, 2 * H)))
        for dtype in (np.float32, np.float64):
            hs, grads = _bilstm_run(ad.bilstm_layer, arrays, lengths, weights,
                                    dtype)
            hs_ref, grads_ref = _bilstm_run(_composed_rows, arrays, lengths,
                                            weights, dtype)
            assert hs.dtype == dtype and len(grads) == 8
            assert hs.shape == (sum(PACKING_CASES[case][1]), 2 * H)
            np.testing.assert_array_equal(hs, hs_ref)
            if dtype == np.float32:
                for name in grads:
                    if name.endswith(".wh") or name == "pooled":
                        np.testing.assert_array_equal(
                            grads[name], grads_ref[name], err_msg=name)
                    else:
                        eps = 4 * np.finfo(np.float32).eps
                        np.testing.assert_allclose(
                            grads[name], grads_ref[name], err_msg=name,
                            rtol=eps, atol=eps)
            else:
                close = dict(rtol=1e-10, atol=1e-10)
                for name in grads:
                    np.testing.assert_allclose(grads[name], grads_ref[name],
                                               err_msg=name, **close)

    def test_matches_composed_directions_random_lengths(self):
        """float64 states bit-equal to the composition's and gradients
        within 1e-10, over random batch sizes and row lengths."""
        rng = np.random.default_rng(32)
        close = dict(rtol=1e-10, atol=1e-10)
        for _ in range(12):
            T, B = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            lengths = rng.integers(1, T + 1, size=B)
            arrays = _bilstm_arrays(rng, T, B, 3, 4)
            weights = rng.normal(size=(T, B, 8))
            hs, grads = _bilstm_run(ad.bilstm_layer, arrays, lengths, weights,
                                    np.float64)
            hs_ref, grads_ref = _bilstm_run(_composed_rows, arrays, lengths,
                                            weights, np.float64)
            np.testing.assert_array_equal(hs, hs_ref)
            for name in grads:
                np.testing.assert_allclose(grads[name], grads_ref[name],
                                           err_msg=name, **close)

    def test_one_tape_record_for_both_outputs(self):
        """One record whose out is the states, the pooled vector being
        its other output (`Tape.also`); with no states, one record whose
        out is the pooled vector. The composed encoder wrote six."""
        p, (fwd, bwd) = _bilstm_params(
            _bilstm_arrays(np.random.default_rng(33), 4, 3, 5, 2), np.float64)
        inputs = (p["x"], *(p[f"{d}.{k}"] for d in ("fwd", "bwd")
                            for k in ("wi", "wh", "b")))
        with ad.Tape() as tape:
            pooled, states = ad.bilstm_layer(p["x"], fwd, bwd)
        assert [r[:2] for r in tape.records] == [(states, inputs)]
        assert tape.also == {states: pooled}
        with ad.Tape() as tape:
            pooled, states = ad.bilstm_layer(p["x"], fwd, bwd, states=False)
        assert states is None
        assert [r[:2] for r in tape.records] == [(pooled, inputs)]
        assert tape.also == {}
        with ad.Tape() as tape:
            bilstm_composed(p["x"], fwd, bwd)
        assert len(tape.records) == 6

    def test_no_backward_caches_without_tape(self):
        """Forward-only, the peak allocation stays near the two
        directions' input-projection chunk buffers plus the output (here
        T * B = 300 rows are one chunk, two buffers being four times the
        output); a taped run's caches take seven times the output more."""
        import tracemalloc
        p, (fwd, bwd) = _bilstm_params(
            _bilstm_arrays(np.random.default_rng(34), 60, 5, 8, 32), np.float32)
        peaks = []
        for taped in (False, True):
            tape = ad.Tape()
            tracemalloc.start()
            try:
                if taped:
                    with tape:
                        _, hs = ad.bilstm_layer(p["x"], fwd, bwd)
                else:
                    _, hs = ad.bilstm_layer(p["x"], fwd, bwd)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 7 * hs.data.nbytes < peaks[1]

    def test_errors_match_composition_before_any_work(self, monkeypatch):
        """Shape and lengths errors are the composition's types and come
        from the calling thread before the worker gets anything."""
        class NoWorker:
            def submit(self, *args):
                raise AssertionError("work was sent to the worker")

        monkeypatch.setattr(ad, "_worker", NoWorker())
        T, B, D, H = 4, 2, 5, 2
        good = _bilstm_arrays(np.random.default_rng(35), T, B, D, H)
        cases = [({"fwd.wi": np.zeros((4 * H, D + 1))}, None),
                 ({"bwd.wh": np.zeros((4 * H, H + 1))}, None),
                 ({"fwd.b": np.zeros(4 * H + 1)}, None),
                 ({"x": np.zeros((T, B))}, None),
                 ({"x": np.zeros((0, B, D))}, None),
                 ({}, np.full(B + 1, T)),
                 ({}, np.array([T, 1.5])),
                 ({}, np.array([T, -1])),
                 ({}, np.array([T + 1, 1])),
                 ({}, np.array([T, 0]))]
        for change, lengths in cases:
            p, (fwd, bwd) = _bilstm_params({**good, **change}, np.float64)
            errors = []
            for layer in (ad.bilstm_layer, bilstm_composed):
                with pytest.raises(ValueError) as info:
                    layer(p["x"], fwd, bwd, lengths=lengths)
                errors.append(type(info.value))
            assert errors[0] is errors[1], (change, lengths)
            assert errors[0] in (ad.ShapeError, ad.EmptySequenceError)

    @pytest.mark.parametrize("in_backward", [False, True])
    def test_worker_exception_reaches_caller(self, monkeypatch, in_backward):
        """An exception raised on the worker (the reverse direction) is
        the one the caller sees, and the worker keeps working after it."""
        boom = RuntimeError("reverse direction failed")
        direction = ad._lstm_direction

        def failing(*args, **kw):
            grads = direction(*args, **kw)
            if kw.get("reverse") and not in_backward:
                raise boom
            if kw.get("reverse") and grads is not None:
                def failing_grads(*g):
                    raise boom
                return failing_grads
            return grads

        p, (fwd, bwd) = _bilstm_params(
            _bilstm_arrays(np.random.default_rng(36), 4, 3, 5, 2), np.float64)
        monkeypatch.setattr(ad, "_lstm_direction", failing)
        with pytest.raises(RuntimeError) as info:
            with ad.Tape() as tape:
                loss = ad.sum_(ad.bilstm_layer(p["x"], fwd, bwd)[0])
            ad.backward(tape, loss)
        assert info.value is boom
        monkeypatch.setattr(ad, "_lstm_direction", direction)
        for out, ref in zip(ad.bilstm_layer(p["x"], fwd, bwd),
                            _composed_rows(p["x"], fwd, bwd)):
            np.testing.assert_array_equal(out.data, ref.data)


    def test_runs_in_a_forked_child(self):
        """A child forked after the worker started gets a worker of its
        own instead of waiting forever on the parent's."""
        import multiprocessing
        p, (fwd, bwd) = _bilstm_params(
            _bilstm_arrays(np.random.default_rng(37), 4, 3, 5, 2), np.float64)
        expected = [t.data for t in ad.bilstm_layer(p["x"], fwd, bwd)]

        def child():
            same = all(np.array_equal(t.data, e) for t, e in zip(
                ad.bilstm_layer(p["x"], fwd, bwd), expected))
            os._exit(0 if same else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
        assert proc.exitcode == 0


def _pooled_by_oracle(x, fwd, bwd, lengths=None):
    """`bilstm_layer`'s states, pooled by `max_over_time` (oracles) of
    their (T, B, 2H) layout (`dense_steps`) instead of by the op itself."""
    _, states = ad.bilstm_layer(x, fwd, bwd, lengths=lengths)
    T, B = x.shape[:2]
    real = np.arange(T)[:, None] < (np.full(B, T) if lengths is None else lengths)
    return max_over_time(dense_steps([states], real), lengths), states


def _no_states(x, fwd, bwd, lengths=None):
    return ad.bilstm_layer(x, fwd, bwd, lengths=lengths, states=False)


def _pooling_run(layer, arrays, lengths, reads, dtype):
    """(pooled, states or None, the gradients of x and both cells'
    weights) of `layer` under a weighted-sum loss of its pooled vector,
    its states or both (`reads`). A third of the states' weights are
    -0.0, so a sum that adds a +0.0 where it should not shows in the
    sign of a zero gradient."""
    p, (fwd, bwd) = _bilstm_params(arrays, dtype)
    T, B = arrays["x"].shape[:2]
    rng = np.random.default_rng(49)
    w_pooled = ad.Tensor(rng.normal(size=(B, 2 * fwd.wh.shape[1])).astype(dtype))
    w_states = rng.normal(size=(T, B, w_pooled.shape[1])).astype(dtype)
    w_states.reshape(-1)[::3] = -0.0
    with ad.Tape() as tape:
        pooled, hs = layer(p["x"], fwd, bwd, lengths=lengths)
        terms = [ad.sum_(ad.mul(pooled, w_pooled))] if reads != "states" else []
        if reads != "pooled":
            w = w_states.reshape(T * B, -1)[_real_rows(T, B, lengths)]
            terms.append(ad.sum_(ad.mul(hs, ad.Tensor(w))))
        loss = terms[0] if len(terms) == 1 else ad.add(*terms)
    ad.backward(tape, loss)
    return (pooled.data, None if hs is None else hs.data,
            {name: t.grad for name, t in p.items()})


class TestBilstmPooling:
    """`bilstm_layer`'s pooled output against `max_over_time` of its
    states, the separate op it ran as before."""

    CASES = {"lengths": (5, [5, 1, 3, 2]), "no-lengths": (4, [4, 4, 4]),
             "one-row-of-length-1": (3, [1])}

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_max_over_time_of_states(self, case, ties, dtype):
        """Under a loss of both outputs, the pooled vector and all seven
        gradients bit-equal. With all-zero weights every state is 0, so
        each dimension ties over all of a row's steps, and only the
        earliest step's input may reach wi's gradient, in both
        directions."""
        T, lengths = self.CASES[case]
        B, D, H = len(lengths), 3, 4
        lengths = None if case == "no-lengths" else np.array(lengths)
        rng = np.random.default_rng(38)
        arrays = _bilstm_arrays(rng, T, B, D, H)
        if ties:
            arrays.update({k: np.zeros_like(v) for k, v in arrays.items()
                           if k != "x"})
        weights = (rng.normal(size=(T, B, 2 * H)), rng.normal(size=(B, 2 * H)))
        _, grads = _bilstm_run(ad.bilstm_layer, arrays, lengths, weights, dtype)
        _, grads_ref = _bilstm_run(_pooled_by_oracle, arrays, lengths, weights,
                                   dtype)
        assert grads["pooled"].dtype == dtype
        assert grads["pooled"].shape == (B, 2 * H)
        assert not ties or not grads["pooled"].any()
        assert grads.keys() == grads_ref.keys() and len(grads) == 8
        for name in grads:
            np.testing.assert_array_equal(grads[name], grads_ref[name],
                                          err_msg=name)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_states_ties_match_max_over_time_of_states(self, case, dtype):
        """With no states, under a loss of the pooled vector, all-zero
        weights making every step tie (as above): the pooled vector and
        all seven gradients bit-equal `max_over_time` of the states of a
        call that returns them (without ties: `test_whichever_output_is_read`)."""
        T, lengths = self.CASES[case]
        lengths = None if case == "no-lengths" else np.array(lengths)
        arrays = _bilstm_arrays(np.random.default_rng(40), T, len(self.CASES[case][1]),
                                3, 4)
        arrays.update({k: np.zeros_like(v) for k, v in arrays.items() if k != "x"})
        runs = [_pooling_run(layer, arrays, lengths, "pooled", dtype)
                for layer in (_no_states, _pooled_by_oracle)]
        assert runs[0][1] is None
        self._assert_same(*runs, states=False)

    def test_nan_without_states(self):
        """`test_nan_state_pools_to_nan`'s NaN, on a real step and on a
        pad step, with no states: the pooled vector and every gradient
        are `max_over_time`'s, NaN where its are."""
        T, B, lengths = 5, 3, np.array([5, 3, 2])
        arrays = _bilstm_arrays(np.random.default_rng(39), T, B, 3, 4)
        arrays["x"][2, 0, 1] = np.nan
        arrays["x"][4, 2, 0] = np.nan
        runs = [_pooling_run(layer, arrays, lengths, "pooled", np.float64)
                for layer in (_no_states, _pooled_by_oracle)]
        assert np.isnan(runs[0][0][0]).all() and not np.isnan(runs[0][0][1:]).any()
        self._assert_same(*runs, states=False)

    @pytest.mark.parametrize("reads,states", [("pooled", False), ("pooled", True),
                                              ("states", True), ("both", True)])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_whichever_output_is_read(self, case, reads, states, dtype):
        """Under a loss of the pooled vector only, of the states only or
        of both, the one record gives the outputs and every gradient of
        `bilstm_composed` bit for bit where no row pads (one row of
        length 1 pads with rows whose gradient is 0), and of the states
        pooled by `max_over_time` where rows differ in length (the
        composition's `linear` sums the gradients of x, wi and b over
        all T * B rows in another order)."""
        T, lengths = self.CASES[case]
        lengths = None if case == "no-lengths" else np.array(lengths)
        arrays = _bilstm_arrays(np.random.default_rng(41), T, len(self.CASES[case][1]),
                                3, 4)
        ref = _pooled_by_oracle if case == "lengths" else _composed_rows
        runs = [_pooling_run(layer, arrays, lengths, reads, dtype)
                for layer in (_no_states if not states else ad.bilstm_layer, ref)]
        self._assert_same(*runs, states)

    @pytest.mark.parametrize("reads,states", [("pooled", False), ("pooled", True),
                                              ("states", True), ("both", True)])
    def test_finite_differences(self, reads, states):
        """float64 finite differences of x and both cells' weights,
        whichever output the loss reads."""
        T, B, lengths = 4, 3, np.array([4, 1, 3])
        p, cells = _bilstm_params(_bilstm_arrays(np.random.default_rng(42), T, B, 3, 2),
                                  np.float64)
        rng = np.random.default_rng(43)
        w_states = ad.Tensor(rng.normal(size=(int(lengths.sum()), 4)))
        w_pooled = ad.Tensor(rng.normal(size=(B, 4)))

        def loss():
            pooled, hs = ad.bilstm_layer(p["x"], *cells, lengths, states)
            terms = [ad.sum_(ad.mul(t, w)) for t, w, read in (
                (pooled, w_pooled, reads != "states"),
                (hs, w_states, reads != "pooled")) if read]
            return terms[0] if len(terms) == 1 else ad.add(*terms)

        check_op_gradient(loss, p)

    @staticmethod
    def _assert_same(run, ref, states=True):
        """Pooled vectors, states (if returned) and gradients bit-equal,
        the sign of every zero included."""
        pairs = [("pooled", run[0], ref[0])] + [("states", run[1], ref[1])] * states
        assert run[2].keys() == ref[2].keys() and len(run[2]) == 7
        for name, a, b in pairs + [(k, run[2][k], ref[2][k]) for k in run[2]]:
            np.testing.assert_array_equal(a, b, err_msg=name)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b), err_msg=name)

    def test_no_states_peaks_a_states_array_lower(self, monkeypatch):
        """Untaped, a call with no states peaks at least the states'
        bytes below one that returns them: no states array is made. Both
        directions run on this thread, so the peaks do not depend on how
        the two threads' allocations overlap."""
        import tracemalloc
        monkeypatch.setattr(ad, "_worker", InlineExecutor())
        p, (fwd, bwd) = _bilstm_params(
            _bilstm_arrays(np.random.default_rng(44), 60, 5, 8, 32), np.float32)
        peaks = {}
        for states in (True, False):
            tracemalloc.start()
            try:
                pooled, hs = ad.bilstm_layer(p["x"], fwd, bwd, states=states)
                peaks[states] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert hs is None and pooled.shape == (5, 64)
        assert peaks[True] - peaks[False] >= 60 * 5 * 64 * 4

    def test_nan_state_pools_to_nan(self):
        """A NaN among a row's real states makes that row's pooled values
        NaN; the other rows, and a NaN on a row's pad step, pool no NaN.
        Every gradient is `max_over_time`'s, NaN where its are."""
        T, B, lengths = 5, 3, np.array([5, 3, 2])
        rng = np.random.default_rng(39)
        arrays = _bilstm_arrays(rng, T, B, 3, 4)
        arrays["x"][2, 0, 1] = np.nan   # row 0, a real step
        arrays["x"][4, 2, 0] = np.nan   # row 2, a pad step
        weights = (np.zeros((T, B, 8)), rng.normal(size=(B, 8)))
        runs = [_bilstm_run(layer, arrays, lengths, weights, np.float64)[1]
                for layer in (ad.bilstm_layer, _pooled_by_oracle)]
        assert np.isnan(runs[0]["pooled"][0]).all()
        assert not np.isnan(runs[0]["pooled"][1:]).any()
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name],
                                          err_msg=name)


class TestInputChunks:
    """The LSTM ops project their input a chunk of whole steps at a time
    (`_gate_inputs`), into one buffer per direction (`_gx_buffer`): no
    bit of any output or gradient depends on where the chunks end, and
    what a forward-only run allocates does not grow with the sequence."""

    T, B, D = 48, 24, 16

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=120))
    def test_chunks_hold_whole_steps_and_fit_the_buffer(self, counts):
        """For steps of `counts` real rows each, the chunks run over the
        steps in order; each holds `_CHUNK_ROWS` rows or more unless it is
        the only one, and each fits the buffer made for the largest."""
        counts = np.array(counts)
        stops = ad._chunk_stops(counts)
        assert stops[-1] == len(counts) and stops == sorted(set(stops))
        rows = [counts[a:b].sum() for a, b in zip([0] + stops, stops)]
        assert len(rows) == 1 or min(rows) >= ad._CHUNK_ROWS
        buffer = ad._gx_buffer(counts.sum(), counts.max(), 4, np.float32)
        assert max(rows) <= len(buffer)

    def _lengths(self, rng):
        lengths = rng.integers(3 * self.T // 4, self.T + 1, size=self.B)
        lengths[0] = self.T
        return lengths

    @staticmethod
    def _chunked_and_whole(monkeypatch, run):
        """run() as it is, every direction in three chunks or more, and
        with `_CHUNK_ROWS` raised past P, every direction in one chunk;
        asserts that every output and gradient is bit-equal."""
        chunks, stops = [], ad._chunk_stops

        def counted(counts):
            chunks.append(len(stops(counts)))
            return stops(counts)

        monkeypatch.setattr(ad, "_chunk_stops", counted)
        runs = []
        for chunk_rows, expected in ((ad._CHUNK_ROWS, range(3, 10 ** 9)),
                                     (10 ** 9, [1])):
            monkeypatch.setattr(ad, "_CHUNK_ROWS", chunk_rows)
            chunks.clear()
            runs.append(run())
            assert chunks and all(n in expected for n in chunks), chunks
        (out, grads), (out_whole, grads_whole) = runs
        np.testing.assert_array_equal(out, out_whole)
        assert grads.keys() == grads_whole.keys()
        for name in grads:
            assert grads[name] is not None, name
            np.testing.assert_array_equal(grads[name], grads_whole[name],
                                          err_msg=name)

    @pytest.mark.parametrize("H", [8, 32, 128])
    @pytest.mark.parametrize("case", ["plain", "reverse", "rmask", "cond",
                                      "attention"])
    def test_lstm_layer(self, monkeypatch, case, H):
        """States and every gradient of `lstm_layer` (float32)."""
        rng = np.random.default_rng(53)
        T, B, D = self.T, self.B, self.D
        arrays, key_lengths = _attention_arrays(rng, T, B, D, H)
        if case != "attention":
            C = 5 if case == "cond" else 0
            arrays = {k: arrays[k] for k in ("x", "wh", "b", "h0", "c0")}
            arrays["wi"] = rng.normal(size=(4 * H, D + C)) * 0.5
            if C:
                arrays["cond"] = rng.normal(size=(B, C))
            key_lengths = []
        lengths = self._lengths(rng)
        rmask = ad.dropout_mask(rng, (B, H), 0.5) if case == "rmask" else None
        weights = ad.Tensor(rng.normal(size=(lengths.sum(), H)).astype(np.float32))

        def run():
            x, cell, h0, c0, heads, p = _attention_inputs(arrays, key_lengths,
                                                          np.float32)
            with ad.Tape() as tape:
                hs = ad.lstm_layer(x, cell, h0, c0, lengths,
                                   cond=heads or p.get("cond"),
                                   reverse=case == "reverse", rmask=rmask)
                loss = ad.sum_(ad.mul(hs, weights))
            ad.backward(tape, loss)
            return hs.data, {k: t.grad for k, t in p.items()}

        self._chunked_and_whole(monkeypatch, run)

    @pytest.mark.parametrize("H", [8, 32, 128])
    @pytest.mark.parametrize("ties", [False, True])
    def test_bilstm_layer(self, monkeypatch, ties, H):
        """States, the pooled vector and all seven gradients of
        `bilstm_layer` (float32); with all-zero weights every pooled
        dimension ties over all of a row's steps."""
        rng = np.random.default_rng(54)
        arrays = _bilstm_arrays(rng, self.T, self.B, self.D, H)
        if ties:
            arrays.update({k: np.zeros_like(v) for k, v in arrays.items()
                           if k != "x"})
        lengths = self._lengths(rng)
        weights = (rng.normal(size=(self.T, self.B, 2 * H)),
                   rng.normal(size=(self.B, 2 * H)))
        self._chunked_and_whole(monkeypatch, lambda: _bilstm_run(
            ad.bilstm_layer, arrays, lengths, weights, np.float32))

    @pytest.mark.parametrize("T", [60, 480])
    def test_forward_memory_stays_under_two_buffers(self, T):
        """Without a tape, the peak allocation of `lstm_layer` and of
        `bilstm_layer`, less their outputs, stays under two chunk buffers
        (`_gx_buffer`) per direction, the same at T = 480 as at 60 (B = 8,
        H = 32): there, one projection of all P rows alone would take
        over seven."""
        import tracemalloc
        B, D, H = 8, 3, 32
        rng = np.random.default_rng(55)
        x = f32(rng.normal(size=(T, B, D)))
        cells = [ad.init_lstm(rng, D, H, name) for name in ("fwd", "bwd")]
        buffer = min(T * B, 2 * ad._CHUNK_ROWS + B) * 4 * H * 4   # bytes
        for directions, op in ((1, lambda: (ad.lstm_layer(x, cells[0]),)),
                               (2, lambda: ad.bilstm_layer(x, *cells))):
            tracemalloc.start()
            try:
                outs = op()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra = peak - sum(t.data.nbytes for t in outs)
            assert extra < 2 * directions * buffer, (directions, extra / buffer)


class TestSecondCore:
    """What runs on the worker besides `bilstm_layer`'s reverse direction:
    one half of a large `linear` forward, and the weight gradients that
    `backward` defers."""

    M = ad._SPLIT_MIN

    @pytest.mark.parametrize("rows,n_in,n_out", [
        (817, 512, 3110), (817, 512, 3129), (817, 3129, 512), (M, 512, 4096),
        (M, 64, 2 * M), (M, 300, 2 * M + 1), (M, 4096, 512), (M, 3, 3 * M + 5)])
    def test_split_equals_one_gemm(self, rows, n_in, n_out):
        """The output head's forward and input-gradient shapes on the
        benchmark (V 3110 and 3129), the source projections' input
        gradient, and the smallest products that split: bit for bit the
        unsplit GEMM, with the right operand a weight's transpose (the
        forward) or a weight (the input gradient)."""
        rng = np.random.default_rng(rows + n_out)
        x = rng.normal(size=(rows, n_in)).astype(np.float32)
        for w in (rng.normal(size=(n_out, n_in)).astype(np.float32).T,
                  rng.normal(size=(n_in, n_out)).astype(np.float32)):
            np.testing.assert_array_equal(ad._split_matmul(x, w), x @ w)

    @pytest.mark.parametrize("x_shape,w_shape,dtype,splits", [
        ((2, 512), (3129, 512), np.float32, False),
        ((3, 512), (3129, 512), np.float32, False),
        ((M - 1, 8), (3129, 8), np.float32, False),
        ((3129, 8), (2 * M - 1, 8), np.float32, False),
        ((M, 8), (2 * M, 8), np.float64, False),
        ((M, 8), (2 * M, 8), np.float32, True),
        ((4, M // 4, 8), (2 * M, 8), np.float32, True)])
    def test_linear_splits_only_large_float32_products(
            self, monkeypatch, x_shape, w_shape, dtype, splits):
        """Few rows or outputs never split (up to 18 rows a column half
        can round differently), nor float64 products; `_SPLIT_MIN` rows
        and twice as many outputs do. The values and gradients are those
        of the one-GEMM path either way."""
        split, calls = ad._split_matmul, []
        monkeypatch.setattr(ad, "_split_matmul",
                            lambda *a: calls.append(a) or split(*a))
        rng = np.random.default_rng(61)
        arrays = [rng.normal(size=s).astype(dtype)
                  for s in (x_shape, w_shape, w_shape[:1])]
        runs = []
        for split_min in (ad._SPLIT_MIN, 10 ** 9):
            monkeypatch.setattr(ad, "_SPLIT_MIN", split_min)
            x, w, b = (ad.param(a, name) for a, name in zip(arrays, "xwb"))
            with ad.Tape() as tape:
                y = ad.linear(x, w, b)
                loss = ad.sum_(ad.mul(y, y))
            ad.backward(tape, loss)
            runs.append([y.data, x.grad, w.grad, b.grad])
        assert len(calls) == splits
        for a, c in zip(*runs):
            np.testing.assert_array_equal(a, c)

    @staticmethod
    def _losses(n_tasks, work, boom_at=None):
        """A tape whose backward defers `n_tasks` weight gradients of
        parameters w0, w1, ...; the one at `boom_at` raises. Each records
        its index in `done` when it finishes."""
        done, ws = [], [ad.param(np.ones(3), f"w{k}") for k in range(n_tasks)]

        def task(k):
            def run():
                work()
                if k == boom_at:
                    raise RuntimeError(f"task {k} failed")
                done.append(k)
                return np.full(3, float(k))
            return run

        with ad.Tape() as tape:
            parts = []
            for k, w in enumerate(ws):
                parts.append(ad.Tensor(np.zeros(1)))
                ad._record(parts[-1], (w,), lambda g, k=k: (task(k),))
            loss = ad.sum_(ad.concat(parts))
        return tape, loss, ws, done

    def test_deferred_exception_reaches_caller_after_the_rest(self):
        """A deferred weight gradient that raises: backward raises that
        exception unchanged once every other deferred task has finished,
        and the worker keeps working."""
        n = 8
        tape, loss, ws, done = self._losses(n, lambda: time.sleep(0.01), boom_at=2)
        with pytest.raises(RuntimeError, match="task 2 failed"):
            ad.backward(tape, loss)
        assert sorted(done) == [k for k in range(n) if k != 2]
        assert ad._worker.submit(lambda: 7).result(timeout=30) == 7

    def test_backward_leaves_no_work_pending(self):
        """When backward returns, every deferred task has run: a task
        given to the worker next is the only one in its queue."""
        n = 8
        tape, loss, ws, done = self._losses(n, lambda: time.sleep(0.01))
        ad.backward(tape, loss)
        assert sorted(done) == list(range(n))
        assert ad._worker._work_queue.empty()
        assert ad._worker.submit(lambda: threading.current_thread().name).result(
            timeout=30).startswith("nliexpl-second-core")
        for k, w in enumerate(ws):
            np.testing.assert_array_equal(w.grad, np.full(3, float(k)))

    def test_contributions_fold_in_record_order(self, monkeypatch):
        """A parameter read by records whose gradients are, in record
        order, deferred and not, in float32 values whose sum depends on
        the order: its gradient is the straight-line fold, on the worker
        or with an executor that runs everything at once."""
        vals = np.float32([1e8, 1.0, -1e8, 3.0, 0.5, -7.0, 1e-3])
        grads = []
        for run in ("worker", "inline executor", "in line"):
            if run == "inline executor":
                monkeypatch.setattr(ad, "_worker", InlineExecutor())
            w = ad.param(np.zeros(1, dtype=np.float32), "w")
            with ad.Tape() as tape:
                parts = []
                for k, v in enumerate(vals):
                    out = ad.Tensor(np.zeros(1, dtype=np.float32))
                    contribution = np.full(1, v)
                    # odd records defer their contribution
                    ad._record(out, (w,), (lambda g, c=contribution: (lambda: c,))
                               if k % 2 else (lambda g, c=contribution: (c,)))
                    parts.append(out)
                loss = ad.sum_(ad.concat(parts))
            (backward_in_line if run == "in line" else ad.backward)(tape, loss)
            grads.append(w.grad)
        expected = np.float32(0)
        for v in vals[::-1]:
            expected = np.float32(expected + v)
        assert grads[0][0] == grads[1][0] == grads[2][0] == expected

    def test_fold_survives_fast_thread_switching(self):
        """Many deferred gradients of one shared weight and of separate
        ones, with the interpreter switching threads as often as it can:
        every gradient is the one-thread pass's, bit for bit, each time."""
        rng = np.random.default_rng(63)
        xs = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(40)]
        shared = rng.normal(size=(5, 4)).astype(np.float32)
        own = [rng.normal(size=(5, 5)).astype(np.float32) for _ in xs]

        def grads(backward):
            w = ad.param(shared, "shared")
            ws = [ad.param(a, f"own{k}") for k, a in enumerate(own)]
            with ad.Tape() as tape:
                loss = None
                for x, wk in zip(xs, ws):
                    y = ad.linear(ad.linear(ad.Tensor(x), w, zero_bias(w)), wk,
                                  zero_bias(wk))
                    term = ad.sum_(ad.mul(y, y))
                    loss = term if loss is None else ad.add(loss, term)
            backward(tape, loss)
            return [w.grad] + [wk.grad for wk in ws]

        expected = grads(backward_in_line)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                for a, b in zip(grads(ad.backward), expected):
                    np.testing.assert_array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)

    def test_non_parameter_gradients_are_not_deferred(self, monkeypatch):
        """Only a parameter's gradient goes to the worker: the gradient of
        a non-parameter input is made at once, since the pass reads it."""
        class NoWorker:
            def submit(self, *args):
                raise AssertionError("work was sent to the worker")

        monkeypatch.setattr(ad, "_worker", NoWorker())
        rng = np.random.default_rng(62)
        x, w = (ad.Tensor(rng.normal(size=s)) for s in ((4, 3), (5, 3)))
        with ad.Tape() as tape:
            loss = ad.sum_(ad.linear(ad.tanh_(x), w, zero_bias(w)))
        ad.backward(tape, loss)
        assert x.grad is None and w.grad is None

    def test_split_waits_behind_no_deferred_work(self):
        """`_at_once` runs `there` on the calling thread when the worker
        is still busy with earlier work, instead of waiting behind it."""
        gate = threading.Event()
        blocker = ad._worker.submit(gate.wait, 10)
        try:
            here, there = ad._at_once(lambda: threading.get_ident(),
                                      lambda: threading.get_ident())
            assert here == there == threading.get_ident()
        finally:
            gate.set()
            blocker.result(timeout=30)


class TestTapeDiscipline:
    def test_tape_records_ops_of_its_own_thread_only(self):
        """A tape open on this thread records nothing an op on another
        thread does, and a tape opened there records only that thread's."""
        x = f64_param([2.0], "x")
        seen = {}

        def other():
            ad.mul(x, x)
            with ad.Tape() as inner:
                ad.mul(x, x)
            seen["inner"] = len(inner.records)

        with ad.Tape() as tape:
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert tape.records == []
            ad.mul(x, x)
        assert len(tape.records) == 1 and seen["inner"] == 1

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

    def test_loss_from_another_tape_is_error(self):
        """The loss must be an output recorded on the tape itself."""
        x = f64_param([2.0], "x")
        with ad.Tape() as other:
            loss = ad.sum_(ad.mul(x, x))
        with ad.Tape() as tape:
            ad.sum_(ad.mul(x, x))
        with pytest.raises(ad.TapeError):
            ad.backward(tape, loss)
        with pytest.raises(ad.TapeError):
            ad.backward(tape, x)
        ad.backward(other, loss)
        np.testing.assert_array_equal(x.grad, [4.0])

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
        x1 = f64(rng.normal(size=(3, 1)).T)
        x2 = f64(rng.normal(size=(3, 1)).T)

        def l1():
            return ad.sum_(ad.tanh_(ad.linear(x1, w, zero_bias(w))))

        def l2():
            return ad.sum_(ad.mul(ad.linear(x2, w, zero_bias(w)),
                                  ad.linear(x2, w, zero_bias(w))))

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


def _closure_value(fn, name):
    """What the free variable `name` holds in the closure of `fn`, or of
    a function that closure holds, searched depth first."""
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
    if name in cells:
        return cells[name].cell_contents
    for cell in cells.values():
        if inspect.isfunction(cell.cell_contents):
            found = _closure_value(cell.cell_contents, name)
            if found is not None:
                return found
    return None


class TestBackwardReleases:
    """`backward` pops each record and lets go of it once its gradients
    are routed, so what a late record saved dies before the earlier
    records run, on a pred-expl loss."""

    @staticmethod
    def _pred_expl_loss():
        model, batch, vocab = toy_setup("pred-expl", n=8, hidden=6, embed=5,
                                        dec=6, width=6)
        with ad.Tape() as tape:
            loss, _ = model.loss(batch, alpha=0.6,
                                 rng=np.random.default_rng(5))
        return model, tape, loss, len(vocab)

    @staticmethod
    def _late_saved_refs(tape, V):
        """Weak references to the decoder's logits buffer, which only its
        loss record and the output head's record hold, and to the acts
        cache of the decoder's LSTM record."""
        kinds = [fn.__qualname__.split(".")[0] for _, _, fn in tape.records]
        head = max(k for k, kind in enumerate(kinds) if kind == "cross_entropy_rows")
        decoder = max(k for k, kind in enumerate(kinds) if kind == "lstm_layer")
        logits = tape.records[head][1][0].data
        acts = _closure_value(tape.records[decoder][2], "acts")
        assert logits.shape[1] == V and acts.ndim == 2
        return [weakref.ref(logits), weakref.ref(acts)]

    def test_late_saved_arrays_die_before_the_first_record_runs(self):
        model, tape, loss, V = self._pred_expl_loss()
        refs = self._late_saved_refs(tape, V)
        assert all(r() is not None for r in refs)
        out, inputs, first = tape.records[0]
        seen = []

        def probe(g):
            seen.append([r() is None for r in refs])
            return first(g)

        tape.records[0] = (out, inputs, probe)
        ad.backward(tape, loss)
        assert seen == [[True, True]]

    def test_gradients_equal_a_walk_that_keeps_every_record(self):
        """Every parameter gradient bit for bit that of
        `backward_in_line`, which keeps the records to the end."""
        grads = []
        for backward in (ad.backward, backward_in_line):
            model, tape, loss, _ = self._pred_expl_loss()
            backward(tape, loss)
            grads.append({n: p.grad for n, p in model.params().items()})
        assert grads[0].keys() == grads[1].keys()
        for name, g in grads[0].items():
            assert g.dtype == np.float32, name
            np.testing.assert_array_equal(g, grads[1][name], err_msg=name)

    def test_raise_partway_leaves_the_tape_consumed(self, monkeypatch):
        """A backward function that raises after weight gradients were
        deferred: backward raises it once those have finished, drops the
        records it did not reach, and a second call raises TapeError."""
        made = []

        class Tracked(ad._Deferred):
            def __init__(self, fn):
                super().__init__(fn)
                made.append(self)

        monkeypatch.setattr(ad, "_Deferred", Tracked)
        rng = np.random.default_rng(64)
        x = f64(rng.normal(size=(4, 3)))
        w1, w2 = (f64_param(rng.normal(size=(3, 3)), n) for n in ("w1", "w2"))
        with ad.Tape() as tape:
            h = ad.tanh_(ad.linear(x, w1, zero_bias(w1)))
            y = ad.linear(h, w2, zero_bias(w2))
            loss = ad.sum_(ad.mul(y, y))
        kinds = [fn.__qualname__.split(".")[0] for _, _, fn in tape.records]
        assert kinds[:2] == ["linear", "tanh_"]

        def boom(g):
            raise RuntimeError("boom")

        tape.records[1] = tape.records[1][:2] + (boom,)
        with pytest.raises(RuntimeError, match="boom"):
            ad.backward(tape, loss)
        assert made and all(task.future.done() for task in made)
        assert tape.records == [] and w1.grad is None
        with pytest.raises(ad.TapeError, match="already ran"):
            ad.backward(tape, loss)


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
            return ad.sum_(ad.mul(x, f64(m)))

        check_op_gradient(loss, {"x": x})


class TestSgd:
    def test_basic_step(self):
        p = ad.param(np.array([1.0], dtype=np.float32), "p")
        p.grad = np.array([2.0], dtype=np.float32)
        ad.sgd_step({"p": p}, ad.SgdState(0.1, 0.99))
        np.testing.assert_allclose(p.data, [0.8], rtol=1e-6)
        assert p.grad is None

    def test_lr_schedule_closed_form(self):
        state = ad.SgdState(0.1, 0.99)
        assert state.lr == 0.1
        state.advance_epoch()
        np.testing.assert_allclose(state.lr, 0.099, rtol=1e-12)
        state.epoch = 10
        np.testing.assert_allclose(state.lr, 0.1 * 0.99 ** 10, rtol=1e-12)
        np.testing.assert_allclose(state.lr, 0.09044, rtol=1e-4)

    def test_lr_monotone_non_increasing(self):
        state = ad.SgdState(0.1, 0.99)
        last = state.lr
        for _ in range(100):
            state.advance_epoch()
            assert 0 < state.lr <= last
            last = state.lr

    def test_zero_gradient_leaves_params(self):
        p = ad.param(np.array([1.5], dtype=np.float32), "p")
        p.grad = np.zeros(1, dtype=np.float32)
        ad.sgd_step({"p": p}, ad.SgdState(0.1, 0.99))
        np.testing.assert_allclose(p.data, [1.5])

    def test_nan_gradient_aborts_whole_step(self):
        p1 = ad.param(np.array([1.0], dtype=np.float32), "p1")
        p2 = ad.param(np.array([1.0], dtype=np.float32), "p2")
        p1.grad = np.array([0.5], dtype=np.float32)
        p2.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(ad.GradientError, match="p2"):
            ad.sgd_step({"p1": p1, "p2": p2}, ad.SgdState(0.1, 0.99))
        np.testing.assert_allclose(p1.data, [1.0])  # untouched

    def test_clip_norm(self):
        p = ad.param(np.array([0.0, 0.0], dtype=np.float32), "p")
        p.grad = np.array([3.0, 4.0], dtype=np.float32)  # norm 5
        ad.sgd_step({"p": p}, ad.SgdState(0.1, 0.99), clip_norm=1.0)
        np.testing.assert_allclose(p.data, [-0.1 * 0.6, -0.1 * 0.8], rtol=1e-6)


class TestDeterminism:
    def test_identical_seed_gives_bit_identical_loss(self):
        def run():
            rng = np.random.default_rng(123)
            w = ad.param(rng.normal(size=(4, 4)).astype(np.float32), "w")
            x = f32(rng.normal(size=(4, 2)).T)
            with ad.Tape() as tape:
                loss = ad.sum_(ad.tanh_(ad.linear(x, w, zero_bias(w))))
            ad.backward(tape, loss)
            return float(loss.data), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestNoDeadOps:
    def test_every_module_level_name_is_used_by_the_package(self):
        """Every module-level function and class of every `nliexpl`
        module, private ones included, other than an exception, is read
        by the package outside its own definition or named in
        `nliexpl.__all__`, so a helper or op that a change leaves unused
        cannot stay behind. Tests and re-exports from `__init__` are not
        uses."""
        import importlib

        import nliexpl
        defined, used = [], set()
        for path in sorted(Path(nliexpl.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            module = path.stem
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # what each relative import binds here: (module, name), or
            # (module, None) for a module
            bound = {a.asname or a.name: (node.module, a.name) if node.module
                     else (a.name, None)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     for a in node.names}
            for top in tree.body:
                own = (module, getattr(top, "name", None))
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                    defined.append(own)
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        ref = bound.get(node.id, (module, node.id))
                    elif isinstance(node, ast.Attribute) \
                            and isinstance(node.value, ast.Name) \
                            and bound.get(node.value.id, (0, 0))[1] is None:
                        ref = (bound[node.value.id][0], node.attr)
                    else:
                        continue
                    if ref != own:
                        used.add(ref)
        dead = []
        for module, name in defined:
            obj = getattr(importlib.import_module(f"nliexpl.{module}"), name)
            if (module, name) not in used and getattr(nliexpl, name, None) is not obj \
                    and not (inspect.isclass(obj) and issubclass(obj, BaseException)):
                dead.append(f"{module}.{name}")
        assert {("autodiff", "lstm_layer"), ("autodiff", "_packing"),
                ("models", "BiLstmEncoder")} <= set(defined)
        assert dead == []


class TestNoDeadOptions:
    """A defaulted parameter that no program call passes, or that every
    program call passes as one and the same literal, is a constant
    dressed as an option: each one in `src/nliexpl` is passed by some call
    of its function's name in `src/nliexpl` or `perfbench/` (its tests
    excluded) with a value other than the rest, or is a test seam named
    here. Matching calls by name over-approximates "passed", so this can
    miss a dead option but never fails a live one."""

    ROOT = Path(__file__).resolve().parent.parent
    TEST_SEAMS = {
        "init_lstm(dtype)": "float64 cells for the finite-difference checks",
        "lstm_layer(reverse)": "the reverse-direction kernel run alone, on "
                               "gate inputs, with h0/c0/cond/rmask",
    }

    @staticmethod
    def _defaulted_parameters(src: Path):
        """(label, called name, parameter, position a call passes it at or
        None, default) for each defaulted parameter of a module-level
        function or a class method; a method's position skips self/cls,
        and a class is called by its name for `__init__`."""
        found = []
        for path in sorted(src.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(top, ast.ClassDef):
                    defs = [(top, f) for f in top.body
                            if isinstance(f, ast.FunctionDef)]
                else:
                    defs = [(None, top)] if isinstance(top, ast.FunctionDef) else []
                for cls, fn in defs:
                    args = fn.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    bound = cls is not None and not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in fn.decorator_list)
                    defaulted = list(zip(positional[len(positional)
                                                    - len(args.defaults):],
                                         args.defaults))
                    defaulted += [(a.arg, d) for a, d in zip(args.kwonlyargs,
                                                             args.kw_defaults)
                                  if d is not None]
                    called = cls.name if fn.name == "__init__" else fn.name
                    owner = f"{cls.name}." if cls else ""
                    for name, default in defaulted:
                        at = (positional.index(name) - bound
                              if name in positional else None)
                        found.append((f"{owner}{fn.name}({name})", called,
                                      name, at, default))
        return found

    @classmethod
    def _program_calls(cls):
        """The calls in `src/nliexpl` and `perfbench/`, by the name they
        call."""
        calls = {}
        for path in [*(cls.ROOT / "src" / "nliexpl").glob("*.py"), *(
                p for p in (cls.ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_"))]:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
        return calls

    @staticmethod
    def _argument(call, name: str, at: int | None):
        """The node `call` passes as parameter `name` (at position `at`),
        None if it passes none, or `call` itself if a `*` or `**` may."""
        for k in call.keywords:
            if k.arg in (name, None):
                return k.value if k.arg else call
        if any(isinstance(a, ast.Starred) for a in call.args):
            return call
        return call.args[at] if at is not None and len(call.args) > at else None

    def _arguments(self):
        """(label, [node each program call passes, or None], default) per
        defaulted parameter."""
        calls = self._program_calls()
        return [(label, [self._argument(c, name, at)
                         for c in calls.get(called, ())], default)
                for label, called, name, at, default
                in self._defaulted_parameters(self.ROOT / "src" / "nliexpl")]

    def test_every_defaulted_parameter_is_passed_by_the_program(self):
        unpassed = {label for label, passed, _ in self._arguments()
                    if all(node is None for node in passed)}
        assert unpassed - set(self.TEST_SEAMS) == set(), \
            "no program call passes these; make them constants"
        assert set(self.TEST_SEAMS) - unpassed == set(), \
            "a test seam is gone or now passed by the program"

    def test_no_defaulted_parameter_is_one_literal_on_every_call(self):
        """A parameter that some program call passes, while every call
        passes or leaves at its default one and the same literal."""
        constant = set()
        for label, passed, default in self._arguments():
            values = [default if node is None else node for node in passed]
            if (any(node is not None for node in passed)
                    and all(isinstance(v, ast.Constant) for v in values)
                    and len({ast.dump(v) for v in values}) == 1):
                constant.add(label)
        assert constant == set(), \
            "every program call passes these as one literal; make them constants"
