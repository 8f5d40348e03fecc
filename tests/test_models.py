"""Tests for the architecture zoo."""

import inspect
import json
import os
import subprocess
import sys
import threading
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
from model_utils import (full_model_grad_check, label_alone, toy_config,
                         toy_setup)
from oracles import bilstm_composed, max_rel_err, straight_line_attention
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
        assert (model.predict_labels(batch) == 0).all()

    def test_tie_breaks_to_lowest_class_index(self):
        model, batch = self._biased_model([0.3, 0.3, 0.3])
        assert (model.predict_labels(batch) == 0).all()
        assert (model.loss(batch, train=False)[1]["preds"] == 0).all()

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
        u, states = enc.encode(emb, ids, np.array([1]))
        np.testing.assert_array_equal(u.data, states.data[0])

    def test_padding_leaves_u_unchanged(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[vocab.token_to_id["dog"], vocab.token_to_id["runs"]]])
        u_plain, _ = enc.encode(emb, ids, np.array([2]))
        padded = np.concatenate([ids, np.zeros((1, 5), dtype=np.int64)], axis=1)
        u_padded, _ = enc.encode(emb, padded, np.array([2]))
        np.testing.assert_array_equal(u_plain.data, u_padded.data)

    def test_u_is_columnwise_max_of_real_states(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[7, 8, 9, 7], [8, 9, 0, 0]], dtype=np.int64)
        lengths = np.array([4, 2])
        u, states = enc.encode(emb, ids, lengths)
        for b in range(2):
            real = states.data[:lengths[b], b, :]
            np.testing.assert_allclose(u.data[b], real.max(axis=0), atol=0)

    def test_all_pad_row_is_error(self):
        vocab, emb, enc = self._encoder_setup()
        with pytest.raises(ad.EmptySequenceError):
            enc.encode(emb, np.zeros((1, 3), dtype=np.int64), np.array([0]))

    def test_pad_states_are_zero(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[7, 8, 0, 0]], dtype=np.int64)
        _, states = enc.encode(emb, ids, np.array([2]))
        np.testing.assert_array_equal(states.data[2:], 0.0)

    def test_encodes_start_at_most_one_thread(self):
        vocab, emb, enc = self._encoder_setup()
        ids = np.array([[7, 8, 9, 7], [8, 9, 0, 0]], dtype=np.int64)
        before = threading.active_count()
        for k in range(50):
            tape = ad.Tape()
            with tape:
                u, _ = enc.encode(emb, ids, np.array([4, 2]))
                loss = ad.sum_(u)
            if k % 2:
                ad.backward(tape, loss)
        assert threading.active_count() <= before + 1

    def test_pred_expl_loss_writes_eight_fewer_records(self, monkeypatch):
        """Each of the two encodes is one record where the composed
        directions wrote five."""
        model, batch, _ = toy_setup("pred-expl")
        counts = []
        for layer in (ad.bilstm_layer, bilstm_composed):
            monkeypatch.setattr(ad, "bilstm_layer", layer)
            with ad.Tape() as tape:
                model.loss(batch, train=True, rng=np.random.default_rng(0),
                           alpha=0.6)
            counts.append(len(tape.records))
        assert counts[1] - counts[0] == 8


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


class TestAttention:
    def _setup(self, state_dim=4, dec_dim=3, attn_dim=3, seed=0):
        rng = np.random.default_rng(seed)
        head_p = AttentionHead(rng, state_dim, dec_dim, attn_dim, "attention.premise")
        head_h = AttentionHead(rng, state_dim, dec_dim, attn_dim, "attention.hypothesis")
        return head_p, head_h

    def test_single_real_token_gets_weight_one(self):
        head_p, _ = self._setup()
        rng = np.random.default_rng(1)
        states = t(rng.normal(size=(3, 1, 4)))
        proj1, proj2 = head_p.precompute(states)
        mask = np.array([[True, False, False]])
        ctx, w = head_p.step(t(rng.normal(size=(1, 3))), proj1, proj2, mask)
        np.testing.assert_allclose(w.data, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(ctx.data[0], proj2.data[0, 0], atol=1e-7)

    def test_identical_states_give_uniform_weights(self):
        head_p, _ = self._setup()
        rng = np.random.default_rng(2)
        one = rng.normal(size=(1, 1, 4))
        states = t(np.repeat(one, 5, axis=0))
        proj1, proj2 = head_p.precompute(states)
        mask = np.array([[True, True, True, True, False]])
        _, w = head_p.step(t(rng.normal(size=(1, 3))), proj1, proj2, mask)
        np.testing.assert_allclose(w.data[0, :4], 0.25, atol=1e-6)
        assert w.data[0, 4] == 0.0

    def test_heads_share_shapes_not_weights(self):
        head_p, head_h = self._setup()
        for (np_, pp), (nh, ph) in zip(sorted(head_p.params().items()),
                                       sorted(head_h.params().items())):
            assert pp.shape == ph.shape
            assert pp is not ph

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        head_p, head_h = self._setup(state_dim=6, dec_dim=4, attn_dim=5, seed=4)
        Tp, Th = 5, 4
        h_p = rng.normal(size=(Tp, 1, 6)).astype(np.float32)
        h_h = rng.normal(size=(Th, 1, 6)).astype(np.float32)
        h_dec = rng.normal(size=(1, 4)).astype(np.float32)
        p_mask = np.array([[True, True, True, False, False]])
        h_mask = np.array([[True, True, True, True]])
        proj_p = head_p.precompute(t(h_p))
        proj_h = head_h.precompute(t(h_h))
        p_ctx, w_p = head_p.step(t(h_dec), *proj_p, p_mask)
        h_ctx, w_h = head_h.step(t(h_dec), *proj_h, h_mask)
        weights = {
            "w1_p": head_p.w1.data, "b1_p": head_p.b1.data,
            "wc_p": head_p.wc.data, "bc_p": head_p.bc.data,
            "w2_p": head_p.w2.data, "b2_p": head_p.b2.data,
            "w1_h": head_h.w1.data, "b1_h": head_h.b1.data,
            "wc_h": head_h.wc.data, "bc_h": head_h.bc.data,
            "w2_h": head_h.w2.data, "b2_h": head_h.b2.data,
        }
        exp_p, exp_h, exp_wp, exp_wh = straight_line_attention(
            h_p[:, 0, :].astype(np.float64), h_h[:, 0, :].astype(np.float64),
            h_dec[0].astype(np.float64), weights, p_mask[0], h_mask[0])
        np.testing.assert_allclose(p_ctx.data[0], exp_p, atol=1e-5)
        np.testing.assert_allclose(h_ctx.data[0], exp_h, atol=1e-5)
        np.testing.assert_allclose(w_p.data[0], exp_wp, atol=1e-5)
        np.testing.assert_allclose(w_h.data[0], exp_wh, atol=1e-5)

    def test_pad_positions_get_exact_zero_weight(self):
        head_p, _ = self._setup()
        rng = np.random.default_rng(5)
        states = t(rng.normal(size=(6, 2, 4)))
        proj1, proj2 = head_p.precompute(states)
        mask = np.array([[True] * 3 + [False] * 3, [True] * 6])
        _, w = head_p.step(t(rng.normal(size=(2, 3))), proj1, proj2, mask)
        assert (w.data[0, 3:] == 0.0).all()
        np.testing.assert_allclose(w.data.sum(axis=1), [1.0, 1.0], atol=1e-6)


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
    model, _, _ = toy_setup(variant, n=3)
    assert model.variant == variant
    prefixes = {n.split(".")[0] for n in model.params()}
    assert {p for p in prefixes if p.endswith("_encoder")} == \
        {f"{s}_encoder" for s in sentences}
    assert ("classifier" in prefixes) == classifier


@pytest.mark.parametrize("variant", [row[0] for row in VARIANT_FACTS
                                     if not row[2]])
def test_non_explaining_variant_refuses_explanations(variant):
    model, batch, _ = toy_setup(variant, n=3)
    for call in (lambda: model.generate(batch),
                 lambda: model.explanation_nll(batch),
                 lambda: model.eval_batch(batch, nll=True),
                 lambda: model.eval_batch(batch, greedy=True)):
        with pytest.raises(M.ModelError, match="does not explain"):
            call()


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
        model.loss(batch, train=False, alpha=0.6)
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
        expl, empty, preds = model.generate(batch)
        assert all(len(e) <= 40 for e in expl)
        assert len(expl) == batch.size

    def test_hyp_to_expl_respects_cap(self):
        model, batch, _ = toy_setup("hyp-to-expl", n=4, max_len=7)
        expl, empty = model.generate(batch)
        assert all(len(e) <= 7 for e in expl)

    def test_label_token_changes_first_step_logits(self):
        model, batch, vocab = toy_setup("pred-expl", n=2)
        fv, _, _ = model.features(batch)
        dec, emb = model.decoder, model.embedding

        def first_logits(label_class):
            ids = np.full(batch.size, vocab.label_vocab_id(label_class),
                          dtype=np.int64)
            h, c = dec._init_state(fv.f)
            cond = ad.linear(fv.f, dec.w_cond, dec.b_cond)
            x = ad.concat([emb.lookup(ids), cond])
            h, c = ad.lstm_step(ad.linear(x, dec.cell.wi, dec.cell.b), h, c,
                                dec.cell.wh)
            return ad.linear(h, dec.w_out, dec.b_out).data

        assert not np.allclose(first_logits(0), first_logits(2))

    def test_teacher_forced_token_counts(self):
        model, batch, _ = toy_setup("pred-expl", n=4)
        nll, tokens, correct = model.explanation_nll(batch, use_gold_label=True)
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
        model.cast_(np.float64)
        params = model.params()

        def forced(b):
            for p in params.values():
                p.grad = None
            with ad.Tape() as tape:
                fv, ctx, _ = model._condition(b)
                res = model._teacher_forced(fv.f, b.explanation,
                                            b.explanation_len, b.labels,
                                            train=False, ctx=ctx)
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
        model.cast_(np.float64)
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
        res = model._teacher_forced(fv.f, ids, lengths, preds, train=False,
                                    ctx=ctx)
        decided = sum(len(e) for e in emitted) + sum(stopped)
        assert res.n_tokens == decided
        assert res.n_correct == decided

    def test_attention_loss_records_two_lstm_steps_per_decoder_step(self):
        """Each attention decoder step is one fused `lstm_step` (two
        records); no record comes from a composed-cell op, and every
        record has one Tensor output and a one-argument backward."""
        model, batch, _ = toy_setup("expl-pred-att", n=4)
        with ad.Tape() as tape:
            model.loss(batch, train=True, rng=np.random.default_rng(0))
        kinds = Counter(fn.__qualname__.split(".")[0]
                        for _, _, fn in tape.records)
        assert kinds["lstm_step"] == 2 * (batch.explanation.shape[1] - 1)
        assert not kinds.keys() & {"lstm_cell", "slice_last", "sigmoid_",
                                   "mul_const", "matmul"}
        for out, _, fn in tape.records:
            assert isinstance(out, ad.Tensor)
            assert len(inspect.signature(fn).parameters) == 1

    @pytest.mark.parametrize("variant,alpha,records,sequences", [
        ("hyp-to-expl", None, 14, 1), ("pred-expl", 0.6, 31, 1),
        ("expl-pred-seq2seq", None, 21, 1), ("autoenc", 0.6, 42, 2)])
    def test_decoded_sequence_is_one_record(self, variant, alpha, records,
                                            sequences):
        """Without attention, teacher forcing's input projection, source
        term and recurrence are one `lstm_layer` record per decoded
        sequence, which pins each toy loss's record count."""
        model, batch, _ = toy_setup(variant)
        with ad.Tape() as tape:
            model.loss(batch, train=True, rng=np.random.default_rng(0),
                       alpha=alpha)
        kinds = Counter(fn.__qualname__.split(".")[0]
                        for _, _, fn in tape.records)
        assert kinds["lstm_layer"] == sequences
        assert len(tape.records) == records

    def test_pred_expl_generation_conditions_on_predicted_label(self):
        model, batch, vocab = toy_setup("pred-expl", n=3)
        _, _, preds = model.generate(batch)
        np.testing.assert_array_equal(preds, model.predict_labels(batch))


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
        labels, expl, _ = pipe.predict(batch)
        assert [label_alone(clf, e) for e in expl] == labels.tolist()

    def test_empty_generation_flagged_not_fatal(self):
        gen, batch, vocab = toy_setup("expl-pred-seq2seq", n=3, seed=0)
        # force immediate <eos>: bias the output layer hard
        gen.decoder.b_out.data[:] = -10.0
        gen.decoder.b_out.data[vocab.eos_id] = 10.0
        clf = self._classifier_sharing(vocab)
        labels, expl, empty = ExplainThenPredict(gen, clf).predict(batch)
        assert all(empty)
        assert len(labels) == 3

    @pytest.mark.parametrize("variant", ["autoenc", "bilstm-max"])
    def test_generator_that_cannot_explain_rejected(self, variant):
        gen, _, vocab = toy_setup(variant, n=3)
        with pytest.raises(M.ModelError, match="cannot generate"):
            ExplainThenPredict(gen, self._classifier_sharing(vocab))

    def test_classifier_led_generator_labels_its_explanations(self):
        gen, batch, vocab = toy_setup("pred-expl", n=3)
        clf = self._classifier_sharing(vocab)
        labels, expl, _ = ExplainThenPredict(gen, clf).predict(batch)
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

        def spy(encoder, embedding, ids, lengths):
            widths.append(ids.shape[0])
            return encode(encoder, embedding, ids, lengths)

        monkeypatch.setattr(M.BiLstmEncoder, "encode", spy)
        labels, _, _ = ExplainThenPredict(gen, clf).predict(batch)
        # two generator encodes, then one classifier encode of all 5 rows
        assert widths == [5, 5, 5] and len(labels) == 5

    def test_expl_to_label_deterministic(self):
        clf, batch, _ = toy_setup("expl-to-label", n=4)
        a = clf.predict_labels(batch)
        b = clf.predict_labels(batch)
        np.testing.assert_array_equal(a, b)

    def test_attention_single_token_premise_context_fixed(self):
        # with one real premise position, p_ctx is proj2 of that token
        # no matter what the decoder state is
        rng = np.random.default_rng(9)
        head = AttentionHead(rng, 4, 3, 3, "attention.premise")
        states = t(rng.normal(size=(1, 1, 4)))
        proj1, proj2 = head.precompute(states)
        mask = np.array([[True]])
        ctx1, _ = head.step(t(rng.normal(size=(1, 3))), proj1, proj2, mask)
        ctx2, _ = head.step(t(rng.normal(size=(1, 3))), proj1, proj2, mask)
        np.testing.assert_allclose(ctx1.data, ctx2.data, atol=1e-7)
        np.testing.assert_allclose(ctx1.data[0], proj2.data[0, 0], atol=1e-7)


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
        model.loss(batch, train=True, rng=np.random.default_rng(0), alpha=0.6)
        # exactly one mask drawn for the whole sequence, sized (B, H)
        assert calls == [((batch.size, model.decoder.hidden), 0.5)]

    def test_eval_mode_draws_no_mask(self, monkeypatch):
        model, batch, _ = toy_setup("pred-expl", n=4)
        calls = []
        monkeypatch.setattr(
            ad, "dropout_mask",
            lambda *a, **k: calls.append(a) or np.ones((4, 4), np.float32))
        model.loss(batch, train=False, alpha=0.6)
        assert calls == []

    def test_dropout_changes_training_loss_only(self):
        model, batch, _ = toy_setup("pred-expl", n=4)
        train_a = float(model.loss(batch, train=True, alpha=0.6,
                                   rng=np.random.default_rng(1))[0].data)
        train_b = float(model.loss(batch, train=True, alpha=0.6,
                                   rng=np.random.default_rng(2))[0].data)
        eval_a = float(model.loss(batch, train=False, alpha=0.6)[0].data)
        eval_b = float(model.loss(batch, train=False, alpha=0.6)[0].data)
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
        loss_before = float(model.loss(batch, train=False, alpha=alpha)[0].data)
        model.save(tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        loss_after = float(loaded.loss(batch, train=False, alpha=alpha)[0].data)
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
        outputs and a save/load round trip match what the code computed
        before the parts listed their own weights (variant_digests.py)."""
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
                                         "expl-pred-att"])
    def test_extra_padding_changes_nothing(self, variant):
        model, batch, vocab = toy_setup(variant, n=4)
        alpha = 0.6 if variant == "pred-expl" else None

        def widen(ids, extra=4):
            pad = np.zeros((ids.shape[0], extra), dtype=np.int64)
            return np.concatenate([ids, pad], axis=1)

        padded = type(batch)(
            ids=batch.ids, premise=widen(batch.premise),
            premise_len=batch.premise_len, hypothesis=widen(batch.hypothesis),
            hypothesis_len=batch.hypothesis_len, labels=batch.labels,
            explanation=batch.explanation, explanation_len=batch.explanation_len)
        l1 = float(model.loss(batch, train=False, alpha=alpha)[0].data)
        l2 = float(model.loss(padded, train=False, alpha=alpha)[0].data)
        assert l1 == l2
        if variant != "bilstm-max":
            g1 = model.generate(batch)[0]
            g2 = model.generate(padded)[0]
            assert g1 == g2
