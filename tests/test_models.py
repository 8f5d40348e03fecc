"""Tests for the architecture zoo."""

import inspect
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nliexpl import autodiff as ad
from nliexpl import models as M
from nliexpl.checkpoint import load_checkpoint, save_checkpoint
from nliexpl.data import (EmbeddingTable, Vocabulary, build_vocab,
                          encode_corpus, make_batch, pad_rows)
from nliexpl.models import (AttentionHead, ExplainThenPredict, ModelConfig,
                            build_model, feature_vector, load_model)
from model_utils import (cast_model, explain_then_predict,
                         full_model_grad_check, label_alone, toy_config,
                         toy_setup)
from oracles import (InlineExecutor, backward_in_line, bilstm_composed,
                     greedy_composed, greedy_serial, max_rel_err, nll_rows,
                     softmax, straight_line_attention, teacher_forced_dense)
from synth import make_examples
from variant_digests import PINNED_ENV


def t(x, dtype=np.float32):
    return ad.Tensor(np.asarray(x, dtype=dtype))


class TestFeatureVector:
    def test_concrete_layout(self):
        fv = feature_vector(t([[1.0, 2.0]]), t([[3.0, 1.0]]))
        np.testing.assert_allclose(fv.f.data, [[1, 2, 3, 1, 2, 1, 3, 2]])

    def test_equal_inputs_zero_difference_block(self):
        u = t([[0.5, -1.5, 2.0]])
        fv = feature_vector(u, t(u.data.copy()))
        np.testing.assert_allclose(fv.f.data[:, 6:9], 0.0)

    def test_product_block_recomputed(self):
        rng = np.random.default_rng(0)
        ud, vd = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        fv = feature_vector(t(ud), t(vd))
        np.testing.assert_allclose(fv.f.data[:, 15:20], ud * vd, atol=1e-6)

    def test_abs_block_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            fv = feature_vector(t(rng.normal(size=(3, 4))),
                                t(rng.normal(size=(3, 4))))
            assert (fv.f.data[:, 8:12] >= 0).all()

    def test_dim_mismatch(self):
        with pytest.raises(ad.ShapeError):
            feature_vector(t([[1.0, 2.0]]), t([[1.0]]))

    def test_constituents_retained(self):
        u, v = t([[1.0, 2.0]]), t([[3.0, 4.0]])
        fv = feature_vector(u, v)
        assert fv.u is u and fv.v is v


class TestClassifier:
    @staticmethod
    def _biased_model(bias):
        """bilstm-max with zero classifier weights: the output bias alone
        sets every row's logits."""
        model, batch, _ = toy_setup("bilstm-max", n=2)
        for p in model.classifier.params().values():
            p.data = np.zeros_like(p.data)
        model.classifier.b3.data = np.array(bias, dtype=np.float32)
        return model, batch

    def test_zero_weights_bias_decides(self):
        model, batch = self._biased_model([0.5, 0.2, 0.2])
        _, _, logits = model._condition(batch)
        np.testing.assert_allclose(logits.data, [[0.5, 0.2, 0.2]] * 2)
        assert (model.eval_batch(batch)[0] == 0).all()

    def test_tie_breaks_to_lowest_class_index(self):
        model, batch = self._biased_model([0.3, 0.3, 0.3])
        assert (model.eval_batch(batch)[0] == 0).all()
        assert (model.loss(batch, rng=None, alpha=None)[1]["preds"] == 0).all()

    def test_labels_read_the_logits_not_the_probabilities(self):
        """Logits 0.1 and the next float32 up have equal probabilities in
        float32 (argmax 0) but distinct logits (argmax 1): the training
        loss takes its predictions from the logits, as `eval_batch`
        does, before its loss op overwrites them with probabilities."""
        bias = [0.1, np.nextafter(np.float32(0.1), np.float32(1)), -3.0]
        probs = softmax(t([bias])).data[0]
        assert probs[0] == probs[1]
        model, batch = self._biased_model(bias)
        preds = model.loss(batch, rng=None, alpha=None)[1]["preds"]
        np.testing.assert_array_equal(preds, model.eval_batch(batch)[0])
        assert (preds == 1).all()

    def test_composition_equals_collapsed_affine(self):
        rng = np.random.default_rng(2)
        clf = M.MlpClassifier(rng, 6, 5)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        logits = clf.logits(t(x)).data
        # collapse the three affine maps by hand
        w1, b1 = clf.w1.data, clf.b1.data
        w2, b2 = clf.w2.data, clf.b2.data
        w3, b3 = clf.w3.data, clf.b3.data
        w = w3 @ w2 @ w1
        b = w3 @ (w2 @ b1 + b2) + b3
        np.testing.assert_allclose(logits, x @ w.T + b, atol=1e-5)

    def test_permuting_output_rows_permutes_logits(self):
        rng = np.random.default_rng(3)
        clf = M.MlpClassifier(rng, 4, 4)
        x = t(rng.normal(size=(2, 4)).astype(np.float32))
        before = clf.logits(x).data.copy()
        clf.w3.data = clf.w3.data[[1, 0, 2]]
        clf.b3.data = clf.b3.data[[1, 0, 2]]
        after = clf.logits(x).data
        np.testing.assert_allclose(after[:, 0], before[:, 1], atol=1e-6)
        np.testing.assert_allclose(after[:, 1], before[:, 0], atol=1e-6)
        np.testing.assert_allclose(after[:, 2], before[:, 2], atol=1e-6)

    def test_exactly_three_affine_layers(self):
        clf = M.MlpClassifier(np.random.default_rng(0), 4, 4)
        names = set(clf.params())
        assert names == {"classifier.l1.w", "classifier.l1.b",
                         "classifier.l2.w", "classifier.l2.b",
                         "classifier.l3.w", "classifier.l3.b"}
        assert clf.w3.shape[0] == 3


class TestEncoder:
    def _encoder_setup(self, hidden=3, embed=4, vocab_words=("dog", "cat", "runs")):
        vocab = build_vocab([list(vocab_words) * 20], min_count=1)
        rng = np.random.default_rng(7)
        table = EmbeddingTable.random(vocab, embed, rng)
        emb = M.WordEmbedding(table, vocab, rng)
        enc = M.BiLstmEncoder(rng, embed, hidden, "enc")
        return vocab, emb, enc

    def test_length_one_u_equals_single_state(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[vocab.token_to_id["dog"]]])
        u, states = enc.encode(emb, ids, np.array([1]), True)
        assert states.shape == u.shape == (1, 6)   # the one real step-row
        np.testing.assert_array_equal(u.data, states.data)

    def test_padding_leaves_u_unchanged(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[vocab.token_to_id["dog"], vocab.token_to_id["runs"]]])
        u_plain, _ = enc.encode(emb, ids, np.array([2]), True)
        padded = np.concatenate([ids, np.zeros((1, 5), dtype=np.int64)], axis=1)
        u_padded, _ = enc.encode(emb, padded, np.array([2]), True)
        np.testing.assert_array_equal(u_plain.data, u_padded.data)

    def test_u_is_columnwise_max_of_real_states(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[7, 8, 9, 7], [8, 9, 0, 0]], dtype=np.int64)
        lengths = np.array([4, 2])
        u, states = enc.encode(emb, ids, lengths, True)
        _, row = np.nonzero(np.arange(4)[:, None] < lengths)   # time-major
        for b in range(2):
            real = states.data[row == b]
            assert len(real) == lengths[b]
            np.testing.assert_allclose(u.data[b], real.max(axis=0), atol=0)

    def test_all_pad_row_is_error(self):
        vocab, emb, enc = self._encoder_setup()
        with pytest.raises(ad.EmptySequenceError):
            enc.encode(emb, np.zeros((1, 3), dtype=np.int64), np.array([0]), True)

    def test_pad_steps_have_no_state_row(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[7, 8, 0, 0]], dtype=np.int64)
        _, states = enc.encode(emb, ids, np.array([2]), True)
        _, unpadded = enc.encode(emb, ids[:, :2], np.array([2]), True)
        assert states.shape == (2, 6)
        np.testing.assert_array_equal(states.data, unpadded.data)

    def test_encodes_start_at_most_one_thread(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[7, 8, 9, 7], [8, 9, 0, 0]], dtype=np.int64)
        before = threading.active_count()
        for k in range(50):
            tape = ad.Tape()
            with tape:
                u, _ = enc.encode(emb, ids, np.array([4, 2]), True)
                loss = ad.sum_(u)
            if k % 2:
                ad.backward(tape, loss)
        assert threading.active_count() <= before + 1

    def test_pred_expl_loss_writes_ten_fewer_records(self, monkeypatch):
        """Each of the two encodes is one record where the composed
        encoder wrote six."""
        model, batch, _ = toy_setup("pred-expl")
        counts = []

        def composed(x, fwd, bwd, lengths, states):
            return bilstm_composed(x, fwd, bwd, lengths)

        for layer in (ad.bilstm_layer, composed):
            monkeypatch.setattr(ad, "bilstm_layer", layer)
            with ad.Tape() as tape:
                model.loss(batch, rng=np.random.default_rng(0),
                           alpha=0.6)
            counts.append(len(tape.records))
        assert counts[1] - counts[0] == 10


class TestWordEmbedding:
    def test_label_rows_trainable_and_distinct(self):
        vocab = build_vocab([["dog"] * 20], min_count=1)
        rng = np.random.default_rng(0)
        emb = M.WordEmbedding(EmbeddingTable.random(vocab, 4, rng), vocab, rng)
        e_row = emb.lookup(np.array([vocab.label_vocab_id(0)])).data
        n_row = emb.lookup(np.array([vocab.label_vocab_id(1)])).data
        assert not np.array_equal(e_row, n_row)
        np.testing.assert_array_equal(e_row[0], emb.label_rows.data[0])

    def test_frozen_rows_never_gradient(self):
        vocab = build_vocab([["dog"] * 20], min_count=1)
        rng = np.random.default_rng(0)
        emb = M.WordEmbedding(EmbeddingTable.random(vocab, 4, rng), vocab, rng)
        frozen_before = emb.frozen.copy()
        with ad.Tape() as tape:
            out = emb.lookup(np.array([vocab.token_to_id["dog"],
                                       vocab.label_vocab_id(2)]))
            loss = ad.sum_(out)
        ad.backward(tape, loss)
        assert emb.label_rows.grad is not None
        np.testing.assert_array_equal(emb.frozen, frozen_before)


def attend(pairs, h):
    """The contexts and each head's weights of the attention that every
    decoder step runs (`autodiff._Contexts.attend`), for (head, states
    (T, B, d), key lengths) triples and decoder states h, each head
    reading the real step-rows of its states as the encoder returns
    them; also the heads."""
    heads = [head.precompute(t(states[np.arange(len(states))[:, None]
                                      < np.asarray(lengths)]),
                             np.asarray(lengths))
             for head, states, lengths in pairs]
    ctx, qa = ad._Contexts(heads, None, np.arange(len(h)), False).attend(
        np.asarray(h, dtype=np.float32))
    return ctx, [w for _, w in qa], heads


class TestAttention:
    def _setup(self, state_dim=4, dec_dim=3, attn_dim=3, seed=0):
        rng = np.random.default_rng(seed)
        head_p = AttentionHead(rng, state_dim, dec_dim, attn_dim, "attention.premise")
        head_h = AttentionHead(rng, state_dim, dec_dim, attn_dim, "attention.hypothesis")
        return head_p, head_h

    def test_single_real_token_gets_weight_one(self):
        head_p, _ = self._setup()
        rng = np.random.default_rng(1)
        states = rng.normal(size=(3, 2, 4))   # row 1 is 3 long
        ctx, [w], [head] = attend([(head_p, states, [1, 3])],
                                  rng.normal(size=(2, 3)))
        np.testing.assert_allclose(w[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(ctx[0], head.values.data[0], atol=1e-7)

    def test_identical_states_give_uniform_weights(self):
        head_p, _ = self._setup()
        rng = np.random.default_rng(2)
        one = rng.normal(size=(1, 1, 4))
        states = np.repeat(np.concatenate([one, rng.normal(size=(1, 1, 4))],
                                          axis=1), 5, axis=0)   # row 1 is 5 long
        _, [w], _ = attend([(head_p, states, [4, 5])], rng.normal(size=(2, 3)))
        np.testing.assert_allclose(w[0, :4], 0.25, atol=1e-6)
        assert w[0, 4] == 0.0

    def test_heads_share_shapes_not_weights(self):
        head_p, head_h = self._setup()
        for (np_, pp), (nh, ph) in zip(sorted(head_p.params().items()),
                                       sorted(head_h.params().items())):
            assert pp.shape == ph.shape
            assert pp is not ph

    def test_matches_straight_line_oracle(self):
        """Two rows each: row 0's premise has pad steps, row 1's none."""
        rng = np.random.default_rng(3)
        head_p, head_h = self._setup(state_dim=6, dec_dim=4, attn_dim=5, seed=4)
        Tp, Th = 5, 4
        h_p = rng.normal(size=(Tp, 2, 6)).astype(np.float32)
        h_h = rng.normal(size=(Th, 2, 6)).astype(np.float32)
        h_dec = rng.normal(size=(2, 4)).astype(np.float32)
        lp, lh = [3, 5], [4, 2]
        ctx, (w_p, w_h), _ = attend([(head_p, h_p, lp), (head_h, h_h, lh)],
                                    h_dec)
        weights = {
            "w1_p": head_p.w1.data, "b1_p": head_p.b1.data,
            "wc_p": head_p.wc.data, "bc_p": head_p.bc.data,
            "w2_p": head_p.w2.data, "b2_p": head_p.b2.data,
            "w1_h": head_h.w1.data, "b1_h": head_h.b1.data,
            "wc_h": head_h.wc.data, "bc_h": head_h.bc.data,
            "w2_h": head_h.w2.data, "b2_h": head_h.b2.data,
        }
        for b in range(2):
            exp_p, exp_h, exp_wp, exp_wh = straight_line_attention(
                h_p[:, b, :].astype(np.float64), h_h[:, b, :].astype(np.float64),
                h_dec[b].astype(np.float64), weights, np.arange(Tp) < lp[b],
                np.arange(Th) < lh[b])
            np.testing.assert_allclose(ctx[b, :5], exp_p, atol=1e-5)
            np.testing.assert_allclose(ctx[b, 5:], exp_h, atol=1e-5)
            np.testing.assert_allclose(w_p[b], exp_wp, atol=1e-5)
            np.testing.assert_allclose(w_h[b], exp_wh, atol=1e-5)

    def test_pad_positions_get_exact_zero_weight(self):
        head_p, _ = self._setup()
        rng = np.random.default_rng(5)
        states = rng.normal(size=(6, 2, 4))
        _, [w], _ = attend([(head_p, states, [3, 6])], rng.normal(size=(2, 3)))
        assert (w[0, 3:] == 0.0).all()
        np.testing.assert_allclose(w.sum(axis=1), [1.0, 1.0], atol=1e-6)


# One row per variant: classifier, explains, needs explanations in its
# batches, takes alpha, selection criterion, encoded sentences.
PAIR = ("premise", "hypothesis")
VARIANT_FACTS = [
    ("bilstm-max", True, False, False, False, "val-accuracy", PAIR),
    ("hyp-to-label", True, False, False, False, "val-accuracy", ("hypothesis",)),
    ("hyp-to-expl", False, True, True, False, "val-perplexity", ("hypothesis",)),
    ("pred-expl", True, True, True, True, "val-accuracy", PAIR),
    ("expl-pred-seq2seq", False, True, True, False, "val-perplexity", PAIR),
    ("expl-pred-att", False, True, True, False, "val-perplexity", PAIR),
    ("expl-to-label", True, False, True, False, "val-accuracy", ("explanation",)),
    ("autoenc", True, False, False, True, "val-accuracy", PAIR),
]


@pytest.mark.parametrize(
    "variant,classifier,explains,needs_expl,alpha,criterion,sentences",
    VARIANT_FACTS)
def test_variant_fact_table(variant, classifier, explains, needs_expl, alpha,
                            criterion, sentences):
    cls = M.VARIANTS[variant]
    assert (cls.has_classifier, cls.explains, cls.needs_explanations,
            cls.takes_alpha, cls.criterion) == (classifier, explains,
                                                needs_expl, alpha, criterion)
    assert cls.sentences == sentences
    assert cls.reads_explanations == (variant == "expl-to-label")
    model, _, _ = toy_setup(variant, n=3)
    assert model.variant == variant
    prefixes = {n.split(".")[0] for n in model.params()}
    assert {p for p in prefixes if p.endswith("_encoder")} == \
        {f"{s}_encoder" for s in sentences}
    assert ("classifier" in prefixes) == classifier


def test_variant_classes_only_declare_facts():
    """All behaviour is derived on BaseModel: each variant class
    subclasses it directly and defines no function of its own."""
    for cls in M.VARIANTS.values():
        assert cls.__bases__ == (M.BaseModel,), cls.__name__
        own = [name for name, value in vars(cls).items()
               if callable(value) or isinstance(value, (classmethod, property))]
        assert not own, f"{cls.__name__} defines {own}"


class TestVariantStructure:
    def test_registry_has_all_eight(self):
        assert set(M.VARIANTS) == {
            "bilstm-max", "hyp-to-label", "hyp-to-expl", "pred-expl",
            "expl-pred-seq2seq", "expl-pred-att", "expl-to-label", "autoenc"}

    def _names(self, variant):
        model, _, _ = toy_setup(variant, n=3)
        return set(model.params()), model

    def test_hyp_to_label_has_no_premise_encoder(self):
        names, _ = self._names("hyp-to-label")
        assert not any(n.startswith("premise_encoder") for n in names)
        assert any(n.startswith("hypothesis_encoder") for n in names)
        assert any(n.startswith("classifier") for n in names)
        assert not any(n.startswith("decoder") for n in names)

    def test_seq2seq_is_pred_expl_without_classifier(self):
        seq_names, _ = self._names("expl-pred-seq2seq")
        pe_names, _ = self._names("pred-expl")
        assert not any(n.startswith("classifier") for n in seq_names)
        assert pe_names - seq_names == {n for n in pe_names
                                        if n.startswith("classifier")}

    def test_attention_variant_has_two_heads(self):
        names, _ = self._names("expl-pred-att")
        assert any(n.startswith("attention.premise") for n in names)
        assert any(n.startswith("attention.hypothesis") for n in names)
        p = {n.split(".", 2)[2] for n in names if n.startswith("attention.premise")}
        h = {n.split(".", 2)[2] for n in names if n.startswith("attention.hypothesis")}
        assert p == h == {"w1", "b1", "wc", "bc", "w2", "b2"}

    def test_pred_expl_manifest(self, tmp_path):
        names, model = self._names("pred-expl")
        assert model.manifest()["variant"] == "pred-expl"
        assert any(n.startswith("classifier") for n in names)
        assert any(n.startswith("decoder.cond") for n in names)
        model.save(tmp_path / "ckpt")
        _, manifest = load_checkpoint(tmp_path / "ckpt")
        trainable = [(e["name"], tuple(e["shape"]))
                     for e in manifest["tensors"] if e["trainable"]]
        assert trainable == [(n, p.shape) for n, p in model.params().items()]
        assert "parameters" not in manifest["meta"]["model"]

    def test_autoenc_decoder_is_shared(self, monkeypatch):
        model, batch, _ = toy_setup("autoenc", n=4)
        seen = []
        original = M.LstmDecoder.teacher_forced

        def spy(self, *args, **kw):
            seen.append(self)
            return original(self, *args, **kw)

        monkeypatch.setattr(M.LstmDecoder, "teacher_forced", spy)
        model.loss(batch, rng=None, alpha=0.6)
        assert len(seen) == 2 and seen[0] is seen[1] is model.decoder

    def test_expl_to_label_uses_only_explanations(self):
        names, _ = self._names("expl-to-label")
        assert any(n.startswith("explanation_encoder") for n in names)
        assert not any(n.startswith("premise_encoder") for n in names)
        assert not any(n.startswith("hypothesis_encoder") for n in names)

    def test_attention_decoder_has_no_cond_projection(self):
        names, _ = self._names("expl-pred-att")
        assert not any(n.startswith("decoder.cond") for n in names)
        assert any(n.startswith("decoder.h0") for n in names)

    @pytest.mark.parametrize("setting", [
        {"decoder_hidden": 0}, {"embed_dim": -1}, {"max_decode_len": 0},
        {"dropout": 1.0}, {"dropout": -0.2}, {"dropout": float("nan")}])
    def test_malformed_config_rejected(self, setting):
        with pytest.raises(M.ModelError):
            ModelConfig(variant="pred-expl", **setting)

    def test_unknown_variant_rejected(self):
        vocab = Vocabulary(["a"])
        table = EmbeddingTable.random(vocab, 4, np.random.default_rng(0))
        with pytest.raises(M.ModelError, match="unknown variant"):
            build_model(ModelConfig(variant="bert"), vocab, table,
                        np.random.default_rng(0))


EXPLAINING = ["pred-expl", "expl-pred-att", "expl-pred-seq2seq",
              "hyp-to-expl"]


class TestDecoding:
    def test_greedy_terminates_within_cap(self):
        model, batch, _ = toy_setup("pred-expl", n=4, max_len=40)
        preds, _, (expl, empty) = model.eval_batch(batch, greedy=True)
        assert all(len(e) <= 40 for e in expl)
        assert len(expl) == batch.size

    def test_hyp_to_expl_respects_cap(self):
        model, batch, _ = toy_setup("hyp-to-expl", n=4, max_len=7)
        _, _, (expl, empty) = model.eval_batch(batch, greedy=True)
        assert all(len(e) <= 7 for e in expl)

    def test_label_token_changes_first_step_logits(self):
        model, batch, vocab = toy_setup("pred-expl", n=2)
        fv, _, _ = model.features(batch)
        dec, emb = model.decoder, model.embedding

        def first_logits(label_class):
            ids = np.full(batch.size, vocab.label_vocab_id(label_class),
                          dtype=np.int64)
            with ad.lstm_stepper(dec.cell, *dec._init_state(fv.f),
                                 dec._cond(fv.f, None)) as step:
                return step(emb.lookup(ids).data) @ dec.w_out.data.T

        assert not np.allclose(first_logits(0), first_logits(2))

    def test_teacher_forced_token_counts(self):
        model, batch, _ = toy_setup("pred-expl", n=4)
        nll, tokens, correct = model.explanation_nll(batch)
        assert tokens == int((batch.explanation_len - 1).sum())
        assert 0 <= correct <= tokens
        assert nll > 0

    def test_teacher_forcing_equals_sum_of_one_row_batches(self):
        """The decoder skips the pad steps of mixed-length explanations:
        summed NLL, token and correct counts and every parameter gradient
        equal the sums over unpadded one-row batches (float64, the
        tolerance of the finite-difference suite)."""
        model, batch, vocab = toy_setup("pred-expl", n=5)
        assert len(set(batch.explanation_len)) > 1
        cast_model(model, np.float64)
        params = model.params()

        def forced(b):
            for p in params.values():
                p.grad = None
            with ad.Tape() as tape:
                fv, ctx, _ = model._condition(b)
                res = model._teacher_forced(fv.f, b.explanation,
                                            b.explanation_len, b.labels, ctx=ctx)
            ad.backward(tape, res.nll_sum)
            grads = {name: np.zeros_like(p.data) if p.grad is None
                     else p.grad.copy() for name, p in params.items()}
            grads["nll"] = np.asarray(res.nll_sum.data)
            return grads, res.n_tokens, res.n_correct

        whole, tokens, correct = forced(batch)
        rows = [forced(make_batch([e], with_explanations=True))
                for e in encode_corpus(make_examples(5, seed=0), vocab)]
        assert tokens == sum(r[1] for r in rows)
        assert correct == sum(r[2] for r in rows)
        summed = {name: sum(r[0][name] for r in rows) for name in whole}
        assert max_rel_err(whole, summed) < 1e-4

    @pytest.mark.parametrize("variant,alpha", [
        ("pred-expl", 0.6), ("expl-pred-att", None), ("hyp-to-expl", None),
        ("autoenc", 0.6)])
    def test_real_rows_match_dense_oracle(self, monkeypatch, variant, alpha):
        """Scoring the gathered real target rows against the dense path
        that scored all S * B rows and zeroed the pad ones: each decoded
        sequence's NLL sum, token and correct counts, the training loss
        (recurrent dropout on) and every gradient agree (float64, 1e-10)."""
        model, batch, _ = toy_setup(variant, n=8, hidden=5, dec=6)
        assert len(set(batch.explanation_len)) > 1
        cast_model(model, np.float64)
        params = model.params()
        runs = []
        for forced in (M.LstmDecoder.teacher_forced, teacher_forced_dense):
            results = []

            def spy(self, *args, forced=forced, **kw):
                results.append(forced(self, *args, **kw))
                return results[-1]

            monkeypatch.setattr(M.LstmDecoder, "teacher_forced", spy)
            with ad.Tape() as tape:
                loss, _ = model.loss(batch, rng=np.random.default_rng(4),
                                     alpha=alpha)
            ad.backward(tape, loss)
            grads = {name: p.grad for name, p in params.items()}
            for p in params.values():
                p.grad = None
            runs.append((float(loss.data), grads,
                         [(float(r.nll_sum.data), r.n_tokens, r.n_correct)
                          for r in results]))
        (loss, grads, seqs), (loss_ref, grads_ref, seqs_ref) = runs
        close = dict(rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(loss, loss_ref, **close)
        assert len(seqs) == len(seqs_ref) == (2 if variant == "autoenc" else 1)
        for (nll, *counts), (nll_ref, *counts_ref) in zip(seqs, seqs_ref):
            np.testing.assert_allclose(nll, nll_ref, **close)
            assert counts == counts_ref
        assert grads.keys() == grads_ref.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], grads_ref[name],
                                       err_msg=name, **close)

    @pytest.mark.parametrize("variant", ["pred-expl", "expl-pred-att"])
    def test_float32_nll_and_hits_match_composed_loss(self, monkeypatch,
                                                      variant):
        """Teacher forcing's NLL sum and correct-token count (float32) are
        those of the composed reference loss (`oracles.nll_rows` after
        `oracles.softmax`) on the same logits, bit for bit."""
        model, batch, vocab = toy_setup(variant, n=8, hidden=5, dec=6)
        # every row's last target, <eos>, is then its argmax
        model.decoder.b_out.data[vocab.eos_id] = 5.0
        fused, refs = ad.cross_entropy_rows, []

        def spy(logits, targets):
            probs = softmax(ad.Tensor(logits.data.copy()))
            refs.append((float(ad.sum_(nll_rows(probs, targets)).data),
                         int((probs.data.argmax(axis=1) == targets).sum())))
            return fused(logits, targets)

        monkeypatch.setattr(ad, "cross_entropy_rows", spy)
        _, (nll, _, correct), _ = model.eval_batch(batch, nll=True)
        assert refs == [(nll, correct)]
        assert correct > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("variant", EXPLAINING)
    def test_greedy_agrees_with_teacher_forcing_on_its_output(self, variant,
                                                               seed):
        """Teacher-forced on its own greedy output from the same first
        word, each row's argmax equals greedy's choice at every position
        greedy decided: the emitted tokens, plus <eos> where a row
        stopped before the cap. A capped row decides nothing after its
        last token, so its forced row has no <eos> (float64)."""
        model, batch, vocab = toy_setup(variant, n=10, seed=seed, max_len=6,
                                        dec=6)
        cast_model(model, np.float64)
        dec, cap = model.decoder, model.cfg.max_decode_len
        # a larger random output layer varies the picks by row and step;
        # the <eos> bias then rises until some row stops before the cap
        rng = np.random.default_rng(seed)
        dec.w_out.data = rng.normal(size=dec.w_out.shape) * 10
        for bias in np.arange(0.0, 40.0, 0.05):
            dec.b_out.data[vocab.eos_id] = bias
            preds, _, (emitted, _) = model.eval_batch(batch, greedy=True)
            if min(map(len, emitted)) < cap:
                break
        stopped = [len(e) < cap for e in emitted]
        assert any(stopped) and not all(stopped)
        ids, lengths = pad_rows([[vocab.bos_id, *e] + [vocab.eos_id] * early
                                 for e, early in zip(emitted, stopped)])
        fv, ctx, _ = model._condition(batch)
        res = model._teacher_forced(fv.f, ids, lengths, preds, ctx=ctx)
        decided = sum(len(e) for e in emitted) + sum(stopped)
        assert res.n_tokens == decided
        assert res.n_correct == decided

    @pytest.mark.parametrize("variant,alpha,records,sequences", [
        ("hyp-to-expl", None, 12, 1), ("pred-expl", 0.6, 28, 1),
        ("expl-pred-seq2seq", None, 19, 1), ("expl-pred-att", None, 26, 1),
        ("autoenc", 0.6, 37, 2)])
    def test_decoded_sequence_is_one_record(self, variant, alpha, records,
                                            sequences):
        """Teacher forcing's input projection, source term (attention
        included) and recurrence are one `lstm_layer` record per decoded
        sequence, which pins each toy loss's record count whatever its
        length; its real step-rows go straight to the output head, with
        no gather record between. No record comes from a composed-cell
        op, and every record has one Tensor output and a one-argument
        backward. `records` is the count when each encode wrote two
        records (its states, then its pooled vector); each writes one."""
        model, batch, _ = toy_setup(variant)
        with ad.Tape() as tape:
            model.loss(batch, rng=np.random.default_rng(0),
                       alpha=alpha)
        kinds = Counter(fn.__qualname__.split(".")[0]
                        for _, _, fn in tape.records)
        assert kinds["lstm_layer"] == sequences
        assert len(tape.records) == records - len(model.sentences)
        assert kinds["bilstm_layer"] == len(model.sentences)
        assert not kinds.keys() & {"lstm_cell", "lstm_step", "slice_last",
                                   "sigmoid_", "stack_steps", "take_rows"}
        for out, _, fn in tape.records:
            assert isinstance(out, ad.Tensor)
            assert len(inspect.signature(fn).parameters) == 1

    def test_attention_matches_composed_reference(self, monkeypatch):
        """The attention decoder's one `lstm_layer` against its composed
        reference (one `lstm_step` and the heads' generic tape ops per
        step over all rows, `oracles.teacher_forced_dense`), with the
        heads' key lengths varying by row and a decoded row of length 1:
        the training loss (recurrent dropout on), every gradient, the NLL
        with its token and correct-token counts (float64, 1e-10), and the
        greedy ids of `oracles.greedy_composed`."""
        model, batch, vocab = toy_setup("expl-pred-att", n=8, hidden=5, dec=6,
                                        max_len=7)
        cast_model(model, np.float64)
        rng = np.random.default_rng(11)
        for name in ("premise", "hypothesis"):
            ids, lengths = getattr(batch, name), rng.integers(1, 7, size=8)
            ids[np.arange(ids.shape[1]) >= lengths[:, None]] = vocab.pad_id
            setattr(batch, f"{name}_len", lengths)
        batch.explanation_len[2] = 2   # <bos> w: one decoded step
        batch.explanation[2, 2:] = vocab.pad_id
        assert len(set(batch.premise_len)) > 1
        params = model.params()
        runs = []
        for forced, greedy in ((M.LstmDecoder.teacher_forced, M.LstmDecoder.greedy),
                               (teacher_forced_dense, greedy_composed)):
            monkeypatch.setattr(M.LstmDecoder, "teacher_forced", forced)
            monkeypatch.setattr(M.LstmDecoder, "greedy", greedy)
            with ad.Tape() as tape:
                loss, _ = model.loss(batch, rng=np.random.default_rng(4), alpha=None)
            ad.backward(tape, loss)
            grads = {name: p.grad for name, p in params.items()}
            for p in params.values():
                p.grad = None
            _, scored, generated = model.eval_batch(batch, nll=True,
                                                    greedy=True)
            runs.append((float(loss.data), grads, scored, generated))
        (loss, grads, scored, generated), (loss_ref, grads_ref, scored_ref,
                                           generated_ref) = runs
        close = dict(rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(loss, loss_ref, **close)
        assert grads.keys() == grads_ref.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], grads_ref[name],
                                       err_msg=name, **close)
        np.testing.assert_allclose(scored[0], scored_ref[0], **close)
        assert scored[1:] == scored_ref[1:]
        assert generated == generated_ref

    def test_pred_expl_generation_conditions_on_predicted_label(self):
        model, batch, vocab = toy_setup("pred-expl", n=3)
        preds = model.eval_batch(batch, greedy=True)[0]
        np.testing.assert_array_equal(preds, model.eval_batch(batch)[0])


class TestBothThreads:
    """A pred-expl loss large enough that `linear` splits the output head
    over both threads and backward defers weight gradients to the
    worker: the float32 loss and every gradient are those of one thread."""

    @staticmethod
    def _setup():
        examples = make_examples(40, seed=3)
        # words no sentence uses, so that the output head splits
        unused = [[f"unused{k}" for k in range(2 * ad._SPLIT_MIN)]]
        vocab = build_vocab([e.premise for e in examples]
                            + [e.hypothesis for e in examples]
                            + [e.explanations[0] for e in examples] + unused,
                            min_count=1)
        cfg = toy_config("pred-expl", hidden=8, embed=6, dec=8, width=8)
        rng = np.random.default_rng(4)
        model = build_model(cfg, vocab, EmbeddingTable.random(vocab, 6, rng), rng)
        batch = make_batch(encode_corpus(examples, vocab), with_explanations=True)
        return model, batch

    def test_fold_order_does_not_depend_on_the_worker(self, monkeypatch):
        """Against the same run with an executor that runs each task as
        it is given, and against the pass with nothing deferred
        (`backward_in_line`), bit for bit; the label-word rows, read by
        three lookups, included."""
        model, batch = self._setup()
        params = model.params()
        split, deferred = ad._split_matmul, ad._Deferred
        counts = {"split": 0, "deferred": 0}

        def counted_split(*args):
            counts["split"] += 1
            return split(*args)

        class Counted(deferred):
            def __init__(self, fn):
                counts["deferred"] += 1
                super().__init__(fn)

        monkeypatch.setattr(ad, "_split_matmul", counted_split)
        monkeypatch.setattr(ad, "_Deferred", Counted)

        def run(backward):
            for p in params.values():
                p.grad = None
            with ad.Tape() as tape:
                loss, _ = model.loss(batch, alpha=0.6,
                                     rng=np.random.default_rng(5))
            reads = sum(any(t is model.embedding.label_rows for t in inputs)
                        for _, inputs, _ in tape.records)
            backward(tape, loss)
            return reads, [loss.data] + [p.grad for p in params.values()]

        reads, on_worker = run(ad.backward)
        assert reads == 3
        assert counts["split"] == 1 and counts["deferred"] >= 8
        monkeypatch.setattr(ad, "_worker", InlineExecutor())
        for backward in (ad.backward, backward_in_line):
            _, other = run(backward)
            assert len(other) == len(on_worker)
            for a, b in zip(on_worker, other):
                assert a.dtype == np.float32
                np.testing.assert_array_equal(a, b)

    def test_greedy_and_small_evals_never_split(self, monkeypatch):
        """Greedy decoding (arrays, no `linear`) and evaluation at toy
        sizes stay on the one-GEMM path."""
        def no_split(*args):
            raise AssertionError("a product was split")

        monkeypatch.setattr(ad, "_split_matmul", no_split)
        model, batch, _ = toy_setup("pred-expl", n=12)
        model.eval_batch(batch, greedy=True)
        model.explanation_nll(batch)
        model.eval_batch(batch)


class TestGreedyOnBothThreads:
    """Greedy decoding hands each step's state term to the worker while
    this thread runs the output head: the ids and states are those of the
    serial loop, and no work is left behind however the loop ends."""

    @staticmethod
    def _greedy_args(variant, max_len):
        """A float32 decoder of width 64 and greedy's arguments for a
        32-row batch (its heads as `attn_ctx`)."""
        model, batch, vocab = toy_setup(variant, n=32, seed=6, hidden=16,
                                        embed=8, dec=64, width=8,
                                        max_len=max_len)
        fv, ctx, logits = model._condition(batch)
        preds = None if logits is None else logits.data.argmax(axis=1)
        starts = model._first_words(preds, batch.size)
        assert model.decoder.hidden == 64 and len(starts) == 32
        return model.decoder, (model.embedding, fv.f, starts, vocab.eos_id), ctx

    @pytest.mark.parametrize("variant", ["pred-expl", "expl-pred-att"])
    def test_matches_serial_reference(self, variant, monkeypatch):
        """Ids, empty flags and the final h and c equal those of the loop
        as it ran on one thread (`oracles.greedy_serial`), bit for bit."""
        dec, args, ctx = self._greedy_args(variant, max_len=12)
        assert dec.attention is (variant == "expl-pred-att")
        gates, last = ad._lstm_gates, []

        def spy(z, c):
            out = gates(z, c)
            last[:] = out[1], out[3]
            return out

        monkeypatch.setattr(ad, "_lstm_gates", spy)
        emitted, empty = dec.greedy(*args, attn_ctx=ctx)
        emitted_ref, empty_ref, (h_ref, c_ref) = greedy_serial(
            dec, *args, attn_ctx=ctx)
        assert (emitted, empty) == (emitted_ref, empty_ref)
        assert max(map(len, emitted)) > 1
        c, h = last
        assert h.dtype == c.dtype == np.float32
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_array_equal(c, c_ref)

    def test_same_under_fast_thread_switching(self):
        """With the interpreter switching threads as often as it can, the
        ids are the serial loop's every time."""
        dec, args, ctx = self._greedy_args("expl-pred-att", max_len=8)
        expected = greedy_serial(dec, *args, attn_ctx=ctx)[:2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert dec.greedy(*args, attn_ctx=ctx) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("worker", ["slow", "busy"])
    @pytest.mark.parametrize("exit_by", ["length cap", "<eos>", "exception"])
    def test_leaves_no_work_pending(self, exit_by, worker, monkeypatch):
        """Every task greedy gives the worker is done or cancelled when it
        returns, whether it stops at the length cap, when every row has
        emitted <eos> or on an exception raised between steps; with the
        worker slow (each task still running when its result is due) or
        busy (every task still queued, so this thread takes it)."""
        dec, (embedding, *args), ctx = self._greedy_args("expl-pred-att",
                                                         max_len=6)
        eos = args[-1]
        if exit_by == "<eos>":   # every row emits <eos> at once
            dec.b_out.data[:] = -10.0
            dec.b_out.data[eos] = 10.0
        else:                    # no row ever does
            dec.b_out.data[eos] = -10.0
        lookups = []

        class Embedding:
            def lookup(self, ids):
                lookups.append(ids)
                if exit_by == "exception" and len(lookups) == 3:
                    raise RuntimeError("between steps")
                return embedding.lookup(ids)

        futures, real = [], ad._worker

        class Recording:
            def submit(self, fn, *a):
                futures.append(real.submit(fn, *a))
                return futures[-1]

        term = ad._state_term

        def slow_term(*a):
            if threading.current_thread().name.startswith("nliexpl-second-core"):
                time.sleep(0.02)
            return term(*a)

        monkeypatch.setattr(ad, "_worker", Recording())
        monkeypatch.setattr(ad, "_state_term", slow_term)
        gate = threading.Event()
        blocker = real.submit(gate.wait, 30) if worker == "busy" else None
        try:
            if exit_by == "exception":
                with pytest.raises(RuntimeError, match="between steps"):
                    dec.greedy(Embedding(), *args, attn_ctx=ctx)
            else:
                generated = dec.greedy(Embedding(), *args, attn_ctx=ctx)
            assert futures and all(f.done() for f in futures)
            if worker == "busy":
                assert all(f.cancelled() for f in futures)
        finally:
            gate.set()
            if blocker is not None:
                blocker.result(timeout=30)
        assert len(lookups) == {"length cap": 6, "<eos>": 1,
                                "exception": 3}[exit_by]
        if exit_by != "exception":
            assert generated == greedy_serial(dec, embedding, *args,
                                              attn_ctx=ctx)[:2]


class TestPipeline:
    @staticmethod
    def _classifier_sharing(vocab, seed=17):
        cfg = M.ModelConfig(variant="expl-to-label", embed_dim=5,
                            encoder_hidden=4, classifier_width=6)
        table = EmbeddingTable.random(vocab, cfg.embed_dim,
                                      np.random.default_rng(seed))
        return build_model(cfg, vocab, table, np.random.default_rng(seed + 1))

    def test_label_depends_only_on_generated_explanation(self):
        gen, batch, vocab = toy_setup("expl-pred-seq2seq", n=5, seed=2)
        clf = self._classifier_sharing(vocab)
        pipe = ExplainThenPredict(gen, clf)
        labels, expl, _ = explain_then_predict(pipe, batch)
        assert [label_alone(clf, e) for e in expl] == labels.tolist()

    def test_empty_generation_flagged_not_fatal(self):
        gen, batch, vocab = toy_setup("expl-pred-seq2seq", n=3, seed=0)
        # force immediate <eos>: bias the output layer hard
        gen.decoder.b_out.data[:] = -10.0
        gen.decoder.b_out.data[vocab.eos_id] = 10.0
        clf = self._classifier_sharing(vocab)
        labels, expl, empty = explain_then_predict(
            ExplainThenPredict(gen, clf), batch)
        assert all(empty)
        assert len(labels) == 3

    def test_classifier_led_generator_labels_its_explanations(self):
        gen, batch, vocab = toy_setup("pred-expl", n=3)
        clf = self._classifier_sharing(vocab)
        labels, expl, _ = explain_then_predict(ExplainThenPredict(gen, clf),
                                               batch)
        assert [label_alone(clf, e) for e in expl] == labels.tolist()

    @pytest.mark.parametrize("variant", ["bilstm-max", "hyp-to-label",
                                         "hyp-to-expl"])
    def test_classifier_that_cannot_label_explanations_rejected(self,
                                                                variant):
        gen, _, vocab = toy_setup("expl-pred-seq2seq", n=3)
        clf, _, _ = toy_setup(variant, n=3)   # same corpus, same vocabulary
        assert clf.vocab.sha256() == vocab.sha256()
        with pytest.raises(M.ModelError, match="does not label explanations"):
            ExplainThenPredict(gen, clf)

    def test_classifier_with_another_vocabulary_rejected(self):
        gen, _, _ = toy_setup("expl-pred-seq2seq", n=3, seed=0)
        clf, _, _ = toy_setup("expl-to-label", n=5, seed=4)
        with pytest.raises(M.ModelError, match="different vocabularies"):
            ExplainThenPredict(gen, clf)

    def test_labels_all_generations_in_one_encode(self, monkeypatch):
        gen, batch, vocab = toy_setup("expl-pred-att", n=5, seed=2)
        clf = self._classifier_sharing(vocab)
        widths = []
        encode = M.BiLstmEncoder.encode

        def spy(encoder, embedding, ids, lengths, states=True):
            widths.append(ids.shape[0])
            return encode(encoder, embedding, ids, lengths, states)

        monkeypatch.setattr(M.BiLstmEncoder, "encode", spy)
        labels, _, _ = explain_then_predict(ExplainThenPredict(gen, clf),
                                            batch)
        # two generator encodes, then one classifier encode of all 5 rows
        assert widths == [5, 5, 5] and len(labels) == 5

    def test_expl_to_label_deterministic(self):
        clf, batch, _ = toy_setup("expl-to-label", n=4)
        a = clf.eval_batch(batch)[0]
        b = clf.eval_batch(batch)[0]
        np.testing.assert_array_equal(a, b)

    def test_attention_single_token_premise_context_fixed(self):
        # with one real premise position, p_ctx is proj2 of that token
        # no matter what the decoder state is
        rng = np.random.default_rng(9)
        head = AttentionHead(rng, 4, 3, 3, "attention.premise")
        states = rng.normal(size=(1, 1, 4))
        ctx1, _, [att] = attend([(head, states, [1])], rng.normal(size=(1, 3)))
        ctx2, _, _ = attend([(head, states, [1])], rng.normal(size=(1, 3)))
        np.testing.assert_allclose(ctx1, ctx2, atol=1e-7)
        np.testing.assert_allclose(ctx1[0], att.values.data[0], atol=1e-7)


class TestRecurrentDropout:
    def test_one_mask_per_sequence_reused_across_timesteps(self, monkeypatch):
        model, batch, _ = toy_setup("pred-expl", n=4)
        calls = []
        original = ad.dropout_mask

        def spy(rng, shape, rate, dtype=np.float32):
            calls.append((shape, rate))
            return original(rng, shape, rate, dtype)

        monkeypatch.setattr(ad, "dropout_mask", spy)
        monkeypatch.setattr(M.ad, "dropout_mask", spy, raising=False)
        model.loss(batch, rng=np.random.default_rng(0), alpha=0.6)
        # exactly one mask drawn for the whole sequence, sized (B, H)
        assert calls == [((batch.size, model.decoder.hidden), 0.5)]

    def test_eval_mode_draws_no_mask(self, monkeypatch):
        model, batch, _ = toy_setup("pred-expl", n=4)
        calls = []
        monkeypatch.setattr(
            ad, "dropout_mask",
            lambda *a, **k: calls.append(a) or np.ones((4, 4), np.float32))
        model.loss(batch, rng=None, alpha=0.6)
        assert calls == []

    def test_dropout_changes_training_loss_only(self):
        model, batch, _ = toy_setup("pred-expl", n=4)
        train_a = float(model.loss(batch, alpha=0.6,
                                   rng=np.random.default_rng(1))[0].data)
        train_b = float(model.loss(batch, alpha=0.6,
                                   rng=np.random.default_rng(2))[0].data)
        eval_a = float(model.loss(batch, rng=None, alpha=0.6)[0].data)
        eval_b = float(model.loss(batch, rng=None, alpha=0.6)[0].data)
        assert train_a != train_b   # different masks
        assert eval_a == eval_b     # identity path


class TestGradients:
    @pytest.mark.parametrize("variant,alpha", [
        ("pred-expl", 0.6),
        ("expl-pred-att", None),
    ])
    def test_full_model_finite_differences(self, variant, alpha):
        model, batch, _ = toy_setup(variant, n=3, hidden=3, embed=4, dec=3,
                                    width=4)
        full_model_grad_check(model, batch, alpha=alpha)


class TestSaveLoad:
    @pytest.mark.parametrize("variant,alpha", [("pred-expl", 0.6),
                                               ("expl-to-label", None)])
    def test_round_trip_preserves_behavior(self, tmp_path, variant, alpha):
        model, batch, _ = toy_setup(variant, n=4)
        loss_before = float(model.loss(batch, rng=None, alpha=alpha)[0].data)
        model.save(tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        loss_after = float(loaded.loss(batch, rng=None, alpha=alpha)[0].data)
        assert loss_before == loss_after
        assert loaded.param_hash() == model.param_hash()

    @pytest.mark.parametrize("variant", ["pred-expl", "expl-pred-att"])
    def test_parent_layout_checkpoint_loads(self, tmp_path, variant):
        """Checkpoints written before the parts listed their own weights
        hold the decoder cell after its output layer and repeat each
        trainable name and shape in meta.model.parameters. They load."""
        model, _, _ = toy_setup(variant, n=3)
        params = model.params()
        cell = [n for n in params if n.startswith("decoder.cell.")]
        order = [n for n in params if n not in cell] + cell
        assert order != list(params)
        arrays = {n: params[n].data for n in order}
        arrays["embedding.frozen"] = model.embedding.frozen
        listed = [{"name": n, "shape": list(params[n].shape)} for n in order]
        meta = {"model": {**model.manifest(), "parameters": listed},
                "vocab_tokens": model.vocab.id_to_token[
                    model.vocab.reserved_size:]}
        save_checkpoint(tmp_path / "old", arrays, trainable=set(params),
                        meta=meta)
        assert load_model(tmp_path / "old").param_hash() == model.param_hash()

    @pytest.mark.parametrize("edit,named", [
        (lambda arrays, meta: arrays.pop("embedding.frozen"), "embedding.frozen"),
        (lambda arrays, meta: meta.pop("vocab_tokens"), "vocab_tokens"),
        (lambda arrays, meta: meta["model"]["config"].update(colour="blue"),
         "colour"),
        (lambda arrays, meta: arrays.update(stray=np.zeros(3, np.float32)),
         "stray"),
        (lambda arrays, meta: meta["model"]["config"].update(
            variant="bilstm-max"), "decoder.cell.wi")],
        ids=["no-frozen-table", "no-vocab-tokens", "unknown-config-key",
             "extra-tensor", "variant-without-decoder"])
    def test_malformed_checkpoint_rejected(self, tmp_path, edit, named):
        """A checkpoint that does not hold exactly the model its meta
        describes is a ModelError naming the key or tensors at fault;
        a pred-expl checkpoint relabelled bilstm-max would otherwise
        load without its decoder."""
        model, _, _ = toy_setup("pred-expl", n=3)
        model.save(tmp_path / "ckpt")
        arrays, manifest = load_checkpoint(tmp_path / "ckpt")
        edit(arrays, manifest["meta"])
        save_checkpoint(tmp_path / "edited", arrays, set(arrays),
                        manifest["meta"])
        with pytest.raises(M.ModelError, match=named):
            load_model(tmp_path / "edited")

    def test_frozen_table_is_a_view_of_the_blob(self, tmp_path):
        """A loaded model's frozen embedding table is not copied: it lies
        in the checkpoint blob that every parameter is a view into
        (`load_checkpoint`), and holds the saved rows."""
        model, _, _ = toy_setup("pred-expl", n=3)
        model.save(tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        blobs = {id(p.data.base): p.data.base for p in loaded.params().values()}
        assert len(blobs) == 1
        (blob,) = blobs.values()
        assert loaded.embedding.frozen.dtype == np.float32
        assert np.shares_memory(loaded.embedding.frozen, blob)
        np.testing.assert_array_equal(loaded.embedding.frozen,
                                      model.embedding.frozen)

    def test_manifest_survives(self, tmp_path):
        model, batch, vocab = toy_setup("expl-pred-att", n=3)
        model.save(tmp_path / "ckpt", extra_meta={"note": "test"})
        loaded = load_model(tmp_path / "ckpt")
        assert loaded.variant == "expl-pred-att"
        assert loaded.vocab.id_to_token == vocab.id_to_token


class TestParentParity:
    def test_every_variant_matches_recorded_digests(self):
        """Float32, all 8 variants at H = 4 and 16: checkpoint names and
        shapes, init values, loss, gradients, one SGD step, evaluation
        outputs and a save/load round trip match the recorded digests
        (variant_digests.py)."""
        here = Path(__file__).parent
        env = {**os.environ, **PINNED_ENV,
               "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        proc = subprocess.run([sys.executable, str(here / "variant_digests.py")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        want = json.loads((here / "fixtures" / "variant_digests.json").read_text())
        assert got.keys() == want.keys()
        for key, fields in want.items():
            for name, value in fields.items():
                assert got[key][name] == value, f"{key}: {name} differs"


class TestPaddingInvariance:
    @pytest.mark.parametrize("variant", ["bilstm-max", "pred-expl",
                                         "expl-pred-att", "hyp-to-expl"])
    def test_extra_padding_changes_nothing(self, variant):
        """Pad columns on every sentence, 60 on the explanation, change
        no bit of the loss, any parameter's gradient, the explanation NLL
        or the generations (float32). At this size, scoring every padded
        target row and zeroing the pad ones changed the loss or NLL of
        each explaining variant: the sums ran over more rows."""
        model, batch, vocab = toy_setup(variant, n=24, seed=8, hidden=16,
                                        dec=16)
        alpha = 0.6 if model.takes_alpha else None

        def widen(ids, extra=4):
            pad = np.zeros((ids.shape[0], extra), dtype=np.int64)
            return np.concatenate([ids, pad], axis=1)

        padded = type(batch)(
            ids=batch.ids, premise=widen(batch.premise),
            premise_len=batch.premise_len, hypothesis=widen(batch.hypothesis),
            hypothesis_len=batch.hypothesis_len, labels=batch.labels,
            explanation=widen(batch.explanation, 60),
            explanation_len=batch.explanation_len)
        def loss_and_grads(b):
            with ad.Tape() as tape:
                loss = model.loss(b, rng=None, alpha=alpha)[0]
            ad.backward(tape, loss)
            grads = {name: p.grad for name, p in model.params().items()}
            for p in model.params().values():
                p.grad = None
            return float(loss.data), grads

        (l1, grads), (l2, grads_padded) = map(loss_and_grads, (batch, padded))
        assert l1 == l2
        for name, g in grads.items():
            assert (g is None) == (grads_padded[name] is None), name
            if g is not None:
                np.testing.assert_array_equal(grads_padded[name], g, err_msg=name)
        if model.explains:
            assert model.explanation_nll(batch) == model.explanation_nll(padded)
            g1 = model.eval_batch(batch, greedy=True)[2][0]
            g2 = model.eval_batch(padded, greedy=True)[2][0]
            assert g1 == g2
