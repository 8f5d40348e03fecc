"""Tests for metrics and the evaluation protocol."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nliexpl import evaluation as E
from nliexpl.config import SCHEMA
from nliexpl.data import encode_corpus, iterate_batches, load_corpus
from nliexpl.models import (BiLstmEncoder, ExplainThenPredict, LstmDecoder,
                            ModelError)
from nliexpl.training import _validation_metrics
from model_utils import explain_then_predict, report_from_json, toy_setup
from oracles import brute_force_bleu
from synth import make_examples, text_example

token = st.sampled_from(["the", "cat", "dog", "runs", "sits", "a"])
sentence = st.lists(token, min_size=1, max_size=8)


class TestLabelAccuracy:
    def test_all_correct(self):
        assert E.label_accuracy([0, 1, 2], [0, 1, 2]) == 100.0

    def test_one_of_four(self):
        assert E.label_accuracy([0, 0, 0, 0], [0, 1, 1, 1]) == 25.0

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=50)
        golds = rng.integers(0, 3, size=50)
        base = E.label_accuracy(preds, golds)
        perm = rng.permutation(50)
        assert E.label_accuracy(preds[perm], golds[perm]) == base

    def test_empty_is_error(self):
        with pytest.raises(E.EvaluationError):
            E.label_accuracy([], [])


class TestBleu:
    def test_identical_single_reference_is_exactly_one(self):
        cand = ["a", "dog", "runs", "in", "the", "park"]
        assert E.bleu([cand], [[list(cand)]]) == 1.0

    def test_short_identical_candidate_still_one(self):
        # fewer than 4 tokens: high-order counts are 0/0, smoothing
        # yields exactly 1
        assert E.bleu([["hi", "there"]], [[["hi", "there"]]]) == 1.0

    def test_degenerate_repetition_value(self):
        # hand-derived with the brute-force oracle: p1 clipped to 1/4,
        # higher orders add-one smoothed -> 0.31947...
        got = E.bleu([["the"] * 4], [[["the", "cat"]]])
        np.testing.assert_allclose(got, 0.31947155212313627, rtol=1e-12)

    def test_brevity_penalty_closed_form(self):
        # candidate shorter than its only reference
        cand = ["a", "dog", "runs"]
        ref = ["a", "dog", "runs", "fast", "today"]
        got = E.bleu([cand], [[ref]])
        # precisions: p1=1, p2=1, p3=1, p4 smoothed 1/1; bp = exp(1-5/3)
        assert got == pytest.approx(math.exp(1 - 5 / 3), rel=1e-9)

    def test_multi_reference_clipping(self):
        cand = ["the", "cat", "sat"]
        refs = [["the", "cat"], ["cat", "sat", "down"]]
        got = E.bleu([cand], [refs])
        oracle = brute_force_bleu([cand], [refs])
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(1)
        words = ["a", "b", "c", "d", "e"]
        for _ in range(30):
            n = rng.integers(1, 5)
            cands, refs = [], []
            for _ in range(n):
                cands.append([words[rng.integers(5)]
                              for _ in range(rng.integers(1, 9))])
                refs.append([[words[rng.integers(5)]
                              for _ in range(rng.integers(1, 9))]
                             for _ in range(rng.integers(1, 4))])
            assert E.bleu(cands, refs) == brute_force_bleu(cands, refs)

    @given(st.lists(st.tuples(
        st.lists(st.sampled_from(["a", "b", "c"]), max_size=6),
        st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=6),
                 min_size=1, max_size=4).filter(any)), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_repeated_ngrams_and_empty_orders_match_brute_force(self, corpus):
        """Three words, so n-grams repeat; candidates of 0-6 tokens, so
        some orders have no n-gram; empty references, which `bleu` drops
        and the oracle is given without. After the counts both do the
        same float operations, so the scores are equal."""
        cands = [c for c, _ in corpus]
        refs = [r for _, r in corpus]
        assert E.bleu(cands, refs) == brute_force_bleu(
            cands, [[r for r in rs if r] for rs in refs])

    @given(st.lists(st.tuples(sentence, st.lists(sentence, min_size=1,
                                                 max_size=3)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_range_and_self_reference_property(self, corpus):
        cands = [c for c, _ in corpus]
        refs = [r for _, r in corpus]
        score = E.bleu(cands, refs)
        assert 0.0 <= score <= 1.0
        # adding the candidate itself as an extra reference never hurts
        augmented = [r + [c] for (c, r) in zip(cands, refs)]
        assert E.bleu(cands, augmented) >= score - 1e-12

    def test_empty_candidates_score_zero(self):
        """Candidates that are all empty score 0.0, as in the oracle: no
        unigram, so the first precision is 0/0."""
        refs = [[["a", "dog"]], [["the", "cat", "sits"], ["a", "cat"]]]
        assert E.bleu([[], []], refs) == 0.0 == brute_force_bleu([[], []], refs)

    def test_empty_corpus_is_error(self):
        with pytest.raises(E.EvaluationError):
            E.bleu([], [])

    def test_no_usable_reference_is_error(self):
        with pytest.raises(E.EvaluationError):
            E.bleu([["a"]], [[[]]])


class TestInterAnnotatorBleu:
    @staticmethod
    def _example(*explanations):
        return text_example("p", "h", "neutral", *explanations)

    def test_identical_triples_score_one(self):
        ex = [self._example(*["a dog runs"] * 3) for _ in range(4)]
        score, used, skipped = E.inter_annotator_bleu(ex)
        assert score == 1.0 and used == 4 and skipped == 0

    def test_disjoint_third_explanation_near_zero(self):
        ex = [self._example("a dog runs far", "the dog moves fast",
                            "nothing matches anything here")
              for _ in range(3)]
        score, _, _ = E.inter_annotator_bleu(ex)
        assert score < 0.05

    def test_examples_without_three_explanations_skipped(self):
        ex = [self._example(*["a b c"] * 3), self._example("a b c")]
        score, used, skipped = E.inter_annotator_bleu(ex)
        assert used == 1 and skipped == 1

    def test_nothing_usable_is_error(self):
        with pytest.raises(E.EvaluationError):
            E.inter_annotator_bleu([self._example("a b c")])


class _StubModel:
    """Duck-typed stand-in exposing only the teacher-forced NLL of
    `eval_batch`."""

    def __init__(self, nll_per_token):
        self.nll_per_token = nll_per_token

    def eval_batch(self, batch, nll=False, greedy=False):
        tokens = int((batch.explanation_len - 1).sum())
        return None, (self.nll_per_token * tokens, tokens, 0), None


class TestPerplexity:
    def _encoded(self, n=8):
        examples = make_examples(n, seed=0)
        from nliexpl.data import build_vocab
        vocab = build_vocab([e.explanations[0] for e in examples]
                            + [e.premise for e in examples]
                            + [e.hypothesis for e in examples], min_count=1)
        return encode_corpus(examples, vocab), vocab

    def test_uniform_model_equals_vocab_size(self):
        encoded, vocab = self._encoded()
        stub = _StubModel(math.log(len(vocab)))
        res = E.perplexity(stub, encoded, 64)
        np.testing.assert_allclose(res.perplexity, len(vocab), rtol=1e-12)

    def test_perfect_model_is_one(self):
        encoded, _ = self._encoded()
        res = E.perplexity(_StubModel(0.0), encoded, 64)
        assert res.perplexity == 1.0

    def test_uniform_real_model(self):
        # zeroed output layer -> exactly uniform next-token distribution
        model, batch, vocab = toy_setup("expl-pred-seq2seq", n=6)
        model.decoder.w_out.data[:] = 0.0
        model.decoder.b_out.data[:] = 0.0
        examples = make_examples(6, seed=0)
        encoded = encode_corpus(examples, vocab)
        res = E.perplexity(model, encoded, batch_size=3)
        np.testing.assert_allclose(res.perplexity, len(vocab), rtol=1e-4)

    def test_matches_independent_per_token_accumulation(self):
        model, _, vocab = toy_setup("expl-pred-seq2seq", n=5)
        examples = make_examples(5, seed=0)
        encoded = encode_corpus(examples, vocab)
        res = E.perplexity(model, encoded, batch_size=2)
        # independent accumulation: one example at a time
        total, count = 0.0, 0
        for enc in encoded:
            nll, tokens, _ = model.explanation_nll(
                __import__("nliexpl.data", fromlist=["make_batch"])
                .make_batch([enc], with_explanations=True))
            total += nll
            count += tokens
        np.testing.assert_allclose(res.perplexity, math.exp(total / count),
                                   rtol=1e-6)
        # exp/log round trip against the reported summed NLL
        np.testing.assert_allclose(math.log(res.perplexity) * res.n_tokens,
                                   res.total_nll, rtol=1e-9)

    def test_zero_tokens_is_error(self):
        with pytest.raises(E.EvaluationError):
            E.perplexity(_StubModel(0.0), [], 64)


class TestExplAtK:
    def _records(self, scores, correct=True):
        return [E.AnnotationRecord(f"r{i}", correct, k, n)
                for i, (k, n) in enumerate(scores)]

    def test_partial_mean_over_correct_subset(self):
        records = self._records([(3468, 10000)] * 80)
        assert E.expl_at_k(records, "partial") == pytest.approx(34.68, abs=1e-9)

    def test_all_full_scores(self):
        records = self._records([(1, 1)] * 7)
        assert E.expl_at_k(records, "partial") == 100.0

    def test_mode_is_checked_in_one_place(self):
        """`expl_at_k_mode` is the one check: `expl_at_k` calls it, and it
        parses the config key `[eval] expl_at_k_mode`."""
        assert SCHEMA["eval"]["expl_at_k_mode"] is E.expl_at_k_mode
        assert [E.expl_at_k_mode(m) for m in E.EXPL_AT_K_MODES] == ["partial",
                                                                     "strict"]
        with pytest.raises(E.EvaluationError, match="unknown mode 'bogus'"):
            E.expl_at_k(self._records([(1, 1)]), "bogus")

    def test_incorrect_label_records_ignored_entirely(self):
        records = self._records([(1, 1)] * 4)
        noise = self._records([(0, 1)] * 10, correct=False)
        assert E.expl_at_k(records + noise, "partial") == 100.0
        # their scores are irrelevant too
        noise2 = self._records([(1, 1)] * 10, correct=False)
        assert E.expl_at_k(records + noise2, "partial") == 100.0

    def test_order_invariance(self):
        records = self._records([(1, 2), (0, 1), (2, 3), (1, 1)])
        assert (E.expl_at_k(records, "partial")
                == E.expl_at_k(records[::-1], "partial"))

    def test_strict_mode_counts_full_credit_only(self):
        records = self._records([(1, 1), (1, 2), (1, 1), (0, 1)])
        assert E.expl_at_k(records, mode="strict") == 50.0

    def test_empty_correct_subset_undefined(self):
        records = self._records([(1, 1)] * 3, correct=False)
        assert E.expl_at_k(records, "partial") is None

    def test_entailment_scores_are_rational_k_of_n(self):
        with pytest.raises(E.EvaluationError):
            E.AnnotationRecord("x", True, 5, 3)
        with pytest.raises(E.EvaluationError):
            E.AnnotationRecord("x", True, -1, 3)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("id,predicted_label_correct,k,n\n"
                        "a,true,1,2\nb,false,0,1\n" + "".join(
                            f"r{i},{flag},1,1\n" for i, flag in enumerate(
                                ["1", "TRUE", " Yes ", "0", "No"])))
        records = E.load_annotations(path)
        assert records[0].score == 0.5
        # the flag is 1/true/yes or 0/false/no in any case
        assert [r.predicted_label_correct for r in records] == [
            True, False, True, True, True, False, False]

    @pytest.mark.parametrize("body,match", [
        ("id,predicted_label_correct,k,n\na,true,1,1\nb,true,one,2\n",
         r"ann\.csv:3: k and n must be integers, got 'one' and '2'"),
        ("id,predicted_label_correct,k,n\na,true,1,1\nb,true,1\n",
         r"ann\.csv:3: 3 cells, fewer than the header's 4"),
        ("id,predicted_label_correct,k,n\na,1,1,1,extra\n",
         r"ann\.csv:2: 5 cells, more than the header's 4"),
        ("id,predicted_label_correct,k,n\na,true,1,1.5\n",
         r"ann\.csv:2: k and n must be integers"),
        ("id,predicted_label_correct,k,n\na,1,5,3\n",
         r"ann\.csv:2: a: bad partial score 5/3"),
        ("id,predicted_label_correct,k\na,true,1\n",
         r"ann\.csv:1: missing columns \['n'\]"),
        ("id,predicted_label_correct,k,n\na,1,1,1\na,1,1,1\nb,0,1,1\n",
         r"ann\.csv: example id 'a' repeated on rows 2 and 3"),
        ("id,predicted_label_correct,k,n\na,banana,1,1\nb,,1,1\nc,1,1,1\n",
         r"ann\.csv:2: predicted_label_correct must be one of "
         r"1/true/yes/0/false/no, got 'banana'"),
        ("id,predicted_label_correct,k,n\na,YES,1,1\nb,,1,1\nc,1,1,1\n",
         r"ann\.csv:3: predicted_label_correct .* got ''"),
        ("id,predicted_label_correct,k,n\na,No,1,1\nb,True,1,1\nc,2,1,1\n",
         r"ann\.csv:4: predicted_label_correct .* got '2'"),
    ])
    def test_bad_csv_names_file_and_row(self, tmp_path, body, match):
        path = tmp_path / "ann.csv"
        path.write_text(body)
        with pytest.raises(E.EvaluationError, match=match):
            E.load_annotations(path)


    def test_bytes_not_utf8_name_file_and_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_bytes(b"id,predicted_label_correct,k,n\na,1,1,1\n"
                         b"b\xff,0,1,1\n")
        with pytest.raises(E.EvaluationError,
                           match=r"ann\.csv:3: not UTF-8 text"):
            E.load_annotations(path)

class TestEvaluateModel:
    def test_classifier_report(self):
        model, _, vocab = toy_setup("bilstm-max", n=8)
        examples = make_examples(8, seed=0)
        encoded = encode_corpus(examples, vocab)
        report = E.evaluate_model(model, encoded, examples, split="test",
                                  batch_size=4)
        assert report.accuracy is not None
        assert report.perplexity is None   # no decoder
        assert report.counts["examples"] == 8
        assert report.provenance["split"] == "test"

    def test_generator_report_with_pipeline(self):
        gen, _, vocab = toy_setup("expl-pred-att", n=6, seed=3)
        clf, _, _ = toy_setup("expl-to-label", n=6, seed=3)
        examples = make_examples(6, seed=3)
        encoded = encode_corpus(examples, vocab)
        report = E.evaluate_model(gen, encoded, examples, split="valid",
                                  batch_size=3, expl_classifier=clf)
        assert report.accuracy is not None
        assert report.perplexity is not None and report.perplexity >= 1.0
        assert report.bleu is not None and 0.0 <= report.bleu <= 1.0

    def test_report_json_round_trip(self):
        report = E.EvalReport(accuracy=50.0, bleu=0.25,
                              counts={"examples": 4},
                              provenance={"split": "valid"})
        clone = report_from_json(report.to_json())
        assert clone == report
        assert "accuracy" in report.table()

    def test_bleu_scores_the_explained_examples(self):
        """One example without explanations leaves perplexity out, as it
        needs every example explained, but not BLEU: that scores the
        others' generations against their references."""
        model, _, vocab = toy_setup("pred-expl", n=6, seed=1)
        examples = make_examples(6, seed=1)
        examples[2] = replace(examples[2], explanation_texts=[])
        encoded = encode_corpus(examples, vocab)
        report = E.evaluate_model(model, encoded, examples, "valid", 3)
        assert len(encoded) == 6 and report.perplexity is None
        rest = [enc for enc in encoded if enc.id != examples[2].id]
        assert report.counts["bleu_candidates"] == len(rest) == 5
        by_id = {e.id: e for e in examples}
        cands = [vocab.decode(g) for g in E.generate_all(model, rest, 3)[0]]
        assert report.bleu == E.bleu(
            cands, [by_id[enc.id].explanations[:2] for enc in rest])

    def test_evaluation_is_deterministic(self):
        model, _, vocab = toy_setup("pred-expl", n=6, seed=1)
        examples = make_examples(6, seed=1)
        encoded = encode_corpus(examples, vocab)
        r1 = E.evaluate_model(model, encoded, examples, "valid", 3)
        r2 = E.evaluate_model(model, encoded, examples, "valid", 3)
        assert r1 == r2


def _transfer(model, path, batch_size, expl_classifier=None):
    """`transfer_eval` of the corpus CSV at `path`, loaded and encoded
    with the default columns and limits, as `generate` loads it."""
    examples, _ = load_corpus(path, split="transfer")
    return E.transfer_eval(model, encode_corpus(examples, model.vocab),
                           examples, "transfer", batch_size, expl_classifier)


class TestTransferEval:
    def test_read_only_and_deterministic(self, tmp_path):
        from synth import write_corpus_csv
        model, _, vocab = toy_setup("pred-expl", n=6, seed=2)
        path = tmp_path / "transfer.csv"
        write_corpus_csv(path, make_examples(10, seed=5))
        before = model.param_hash()
        r1, dumps1 = _transfer(model, path, 64)
        r2, dumps2 = _transfer(model, path, 64)
        assert model.param_hash() == before
        assert r1 == r2 and dumps1 == dumps2
        assert r1.accuracy is not None
        assert len(dumps1) == 10
        assert {"id", "premise", "hypothesis", "predicted_label",
                "explanation"} <= set(dumps1[0])

    def test_unmappable_labels_skipped_and_counted(self, tmp_path):
        """`generate` counts the rows it skipped into its report."""
        from nliexpl.cli import main
        path = tmp_path / "weird.csv"
        path.write_text("gold_label,Sentence1,Sentence2\n"
                        "entailment,a dog runs,a dog moves\n"
                        "unknown,a cat sits,a cat rests\n")
        model, _, _ = toy_setup("bilstm-max", n=4)
        model.save(tmp_path / "ckpt")
        assert main(["generate", "--checkpoint", str(tmp_path / "ckpt"),
                     "--corpus", str(path), "--split", "transfer",
                     "--out-root", str(tmp_path / "runs")]) == 0
        (report_path,) = (tmp_path / "runs").glob("*/reports/generate_report.json")
        report = report_from_json(report_path.read_text())
        assert report.counts["skipped_rows"] == 1
        assert report.counts["examples"] == 1


VARIANTS = ["bilstm-max", "hyp-to-label", "hyp-to-expl", "pred-expl",
            "expl-pred-seq2seq", "expl-pred-att", "expl-to-label", "autoenc"]
# every variant alone, and each generator-only one with an expl-to-label
# classifier for explain-then-predict labels
PASS_CASES = ([(v, False) for v in VARIANTS]
              + [(v, True) for v in ("hyp-to-expl", "expl-pred-seq2seq",
                                     "expl-pred-att")])


class _AllocationSpy:
    """`autodiff`'s numpy, recording the shape of each array that
    np.empty, np.zeros and np.full make there."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def _made(self, make, shape, *args, **kwargs):
        self.shapes.append(tuple(np.atleast_1d(shape)))
        return make(shape, *args, **kwargs)

    def empty(self, shape, *args, **kwargs):
        return self._made(np.empty, shape, *args, **kwargs)

    def zeros(self, shape, *args, **kwargs):
        return self._made(np.zeros, shape, *args, **kwargs)

    def full(self, shape, *args, **kwargs):
        return self._made(np.full, shape, *args, **kwargs)


def _pass_setup(variant, n=7, seed=4):
    model, _, vocab = toy_setup(variant, n=n, seed=seed, max_len=12)
    clf = None
    if not model.has_classifier:
        clf, _, _ = toy_setup("expl-to-label", n=n, seed=seed)
    examples = make_examples(n, seed=seed)
    return model, clf, examples, encode_corpus(examples, vocab)


def _labels_by_batch(model, clf, batches):
    if model.has_classifier:
        return np.concatenate([model.eval_batch(b)[0] for b in batches])
    pipe = ExplainThenPredict(model, clf)
    return np.concatenate([explain_then_predict(pipe, b)[0] for b in batches])


def _reference_report(model, clf, encoded, examples, batch_size):
    """evaluate_model rebuilt from separate per-batch calls of the views,
    one loop per metric; every batch carries the gold explanations."""
    batches = list(iterate_batches(encoded, batch_size, with_explanations=True))
    report = E.EvalReport(provenance={
        "split": "valid", "variant": model.variant,
        "reference_policy": "gold explanations 1-2",
        "vocab_sha256": model.vocab.sha256()})
    report.counts["examples"] = len(encoded)
    if model.has_classifier or clf is not None:
        report.accuracy = E.label_accuracy(
            _labels_by_batch(model, clf, batches),
            np.concatenate([b.labels for b in batches]))
    if model.explains:
        scored = [model.explanation_nll(b) for b in batches]
        total = sum(nll for nll, _, _ in scored)
        tokens = sum(t for _, t, _ in scored)
        report.perplexity = math.exp(total / tokens)
        report.counts["explanation_tokens"] = tokens
        report.provenance["perplexity_total_nll"] = total
        by_id = {e.id: e for e in examples}
        cands = [model.vocab.decode(g) for b in batches
                 for g in model.eval_batch(b, greedy=True)[2][0]]
        report.bleu = E.bleu(cands, [by_id[e.id].explanations[:2]
                                     for e in encoded])
        report.counts["bleu_candidates"] = len(cands)
    return report


def _reference_transfer(model, clf, path, batch_size):
    examples, _ = load_corpus(path, split="transfer")
    encoded = encode_corpus(examples, model.vocab)
    batches = list(iterate_batches(encoded, batch_size,
                                   with_explanations=False))
    report = E.EvalReport(provenance={
        "split": "transfer", "variant": model.variant,
        "vocab_sha256": model.vocab.sha256()})
    report.counts["examples"] = len(encoded)
    preds = None
    if model.has_classifier or clf is not None:
        preds = _labels_by_batch(model, clf, batches)
        report.accuracy = E.label_accuracy(
            preds, np.concatenate([b.labels for b in batches]))
    # one row per example; a model that does not explain gives ""
    texts = [""] * len(encoded)
    if model.explains:
        texts = [" ".join(model.vocab.decode(g))
                 for b in batches for g in model.eval_batch(b, greedy=True)[2][0]]
    by_id = {e.id: e for e in examples}
    dumps = [{"id": enc.id, "premise": by_id[enc.id].premise_text,
              "hypothesis": by_id[enc.id].hypothesis_text,
              "predicted_label": None if preds is None else int(preds[i]),
              "explanation": text}
             for i, (enc, text) in enumerate(zip(encoded, texts, strict=True))]
    return report, dumps


class TestOnePass:
    """The evaluation pass gives what separate per-batch calls of
    eval_batch labels / explanation_nll / generate / explain-then-predict
    give, encodes and decodes each batch once, and computes only what
    its caller reads."""

    @pytest.mark.parametrize("variant, with_clf", PASS_CASES)
    def test_evaluate_model_matches_per_batch_views(self, variant, with_clf):
        model, clf, examples, encoded = _pass_setup(variant)
        clf = clf if with_clf else None
        got = E.evaluate_model(model, encoded, examples, split="valid",
                               batch_size=3, expl_classifier=clf)
        ref = _reference_report(model, clf, encoded, examples, 3)
        assert got.to_json() == ref.to_json()

    @pytest.mark.parametrize("variant, with_clf", PASS_CASES)
    def test_transfer_eval_matches_per_batch_views(self, tmp_path, variant,
                                                   with_clf):
        from synth import write_corpus_csv
        model, clf, _, _ = _pass_setup(variant)
        clf = clf if with_clf else None
        path = tmp_path / "transfer.csv"
        write_corpus_csv(path, make_examples(8, seed=9))
        if variant == "expl-to-label":
            # transfer batches carry no gold explanation to label
            with pytest.raises(ModelError, match="no explanations"):
                _transfer(model, path, 3)
            return
        report, dumps = _transfer(model, path, 3,
                                  expl_classifier=clf)
        ref_report, ref_dumps = _reference_transfer(model, clf, path, 3)
        assert report.to_json() == ref_report.to_json()
        assert dumps == ref_dumps

    @pytest.mark.parametrize("variant", ["pred-expl", "bilstm-max"])
    def test_model_with_its_own_classifier_refuses_an_explanation_classifier(
            self, variant):
        """Every evaluation call that takes `expl_classifier` refuses one
        for a model that labels with its own classifier, naming the
        variant, rather than leave it unused."""
        model, _, examples, encoded = _pass_setup(variant)
        clf, _, _ = toy_setup("expl-to-label", n=7, seed=4)
        for call in (lambda: E.evaluation_pass(model, encoded, 3,
                                               expl_classifier=clf),
                     lambda: E.predict_all(model, encoded, 3, clf),
                     lambda: E.evaluate_model(model, encoded, examples, "valid",
                                              3, expl_classifier=clf),
                     lambda: E.transfer_eval(model, encoded, examples,
                                             "transfer", 3, clf)):
            with pytest.raises(ModelError, match=f"{variant} labels with "
                               "its own classifier"):
                call()

    @pytest.mark.parametrize("variant", ["pred-expl", "expl-to-label"])
    def test_batches_carry_explanations_only_when_read(self, monkeypatch,
                                                       variant):
        """A pass pads the gold explanations into its batches for the NLL
        or for a model that encodes them, never just for labels or
        greedy output; an example without one is then named."""
        import nliexpl.data as D
        model, _, _, encoded = _pass_setup(variant)
        made, make = [], D.make_batch
        monkeypatch.setattr(D, "make_batch", lambda chunk, with_expl: (
            made.append(with_expl), make(chunk, with_expl))[1])
        reads = variant == "expl-to-label"
        E.predict_all(model, encoded, 3, None)
        assert made == [reads] * 3
        if model.explains:
            made.clear()
            E.generate_all(model, encoded, 3)
            E.perplexity(model, encoded, 3)
            assert made == [False] * 3 + [True] * 3
        bare = replace(encoded[4], explanations=[])
        with pytest.raises(E.EvaluationError, match=rf"1 example\(s\) have none: {bare.id}$"):
            E.evaluation_pass(model, [*encoded[:4], bare], 3, nll=model.explains)

    @pytest.mark.parametrize("variant", ["hyp-to-expl", "expl-pred-att"])
    def test_explain_then_predict_makes_no_unread_states(self, monkeypatch,
                                                          variant):
        """An explain-then-predict pass makes no (P, 2H) array in any
        encode whose states nothing reads: the explanation classifier's,
        and every encode of a generator without attention heads. The
        attention generator's encodes, whose states the heads read, do
        make one, so the spy sees such arrays where they are made."""
        import nliexpl.autodiff as ad
        model, clf, _, encoded = _pass_setup(variant)
        spy, layer, calls = _AllocationSpy(), ad.bilstm_layer, []

        def encode(x, fwd, bwd, lengths, states):
            spy.shapes.clear()
            out = layer(x, fwd, bwd, lengths, states)
            calls.append(((int(lengths.sum()), 2 * fwd.wh.shape[1]) in spy.shapes,
                          fwd is clf.explanation_encoder.fwd))
            return out

        monkeypatch.setattr(ad, "np", spy)
        monkeypatch.setattr(ad, "bilstm_layer", encode)
        res = E.evaluation_pass(model, encoded, 3, expl_classifier=clf)
        assert len(res.preds) == len(encoded)
        heads = bool(model.heads)
        batches = 3   # 7 examples, 3 a batch
        assert sorted(calls) == sorted(
            [(heads, False)] * len(model.sentences) * batches
            + [(False, True)] * batches)

    @staticmethod
    def _count_calls(monkeypatch):
        counts = Counter()
        for cls, name, key in ((BiLstmEncoder, "encode", None),
                               (LstmDecoder, "greedy", "greedy"),
                               (LstmDecoder, "teacher_forced", "teacher_forced")):
            def counted(self, *args, _orig=getattr(cls, name), _key=key, **kwargs):
                counts[_key or self.prefix] += 1
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        return counts

    @pytest.mark.parametrize("variant", ["pred-expl", "expl-pred-att",
                                         "hyp-to-expl"])
    def test_transfer_eval_encodes_and_decodes_once_per_batch(
            self, monkeypatch, tmp_path, variant):
        from synth import write_corpus_csv
        model, clf, _, _ = _pass_setup(variant)
        path = tmp_path / "transfer.csv"
        write_corpus_csv(path, make_examples(7, seed=9))   # 3 batches
        counts = self._count_calls(monkeypatch)
        _transfer(model, path, 3, expl_classifier=clf)
        expected = {f"{name}_encoder": 3 for name in model.sentences}
        if clf is not None:
            expected["explanation_encoder"] = 3
        assert counts == Counter(expected, greedy=3)

    @pytest.mark.parametrize("variant", ["pred-expl", "expl-pred-att"])
    def test_views_compute_only_what_they_return(self, monkeypatch, variant):
        model, clf, _, encoded = _pass_setup(variant)   # 3 batches
        counts = self._count_calls(monkeypatch)
        E.predict_all(model, encoded, 3, expl_classifier=clf)
        # explain-then-predict labels need the generations, nothing else
        assert counts["teacher_forced"] == 0
        assert counts["greedy"] == (0 if clf is None else 3)
        counts.clear()
        E.perplexity(model, encoded, 3)
        assert counts["greedy"] == 0 and counts["teacher_forced"] == 3
        counts.clear()
        E.generate_all(model, encoded, 3)
        assert counts["teacher_forced"] == 0 and counts["greedy"] == 3

    def test_validation_never_decodes_greedily(self, monkeypatch):
        model, _, _, encoded = _pass_setup("pred-expl")
        counts = self._count_calls(monkeypatch)
        metrics = _validation_metrics(model, encoded, 3)
        assert counts == Counter(premise_encoder=3, hypothesis_encoder=3,
                                 teacher_forced=3)
        assert set(metrics) == {"val_accuracy", "val_perplexity",
                                "val_token_accuracy"}

    def test_nothing_to_compute_gives_empty_output(self, monkeypatch):
        """A pass asked for nothing decodes nothing and gives an empty
        EvalOutput."""
        model, _, _, encoded = _pass_setup("hyp-to-expl")
        counts = self._count_calls(monkeypatch)
        res = E.evaluation_pass(model, encoded, 3)
        assert counts["greedy"] == counts["teacher_forced"] == 0
        assert res == E.EvalOutput()
