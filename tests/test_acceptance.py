"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints one `[acceptance] criterion N PASS` line (visible with
`pytest -s` or in the captured output). Stated runtime budgets are
asserted inside the tests themselves.
"""

import ast
import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest

from nliexpl import autodiff as ad
from nliexpl.data import (EmbeddingTable, build_vocab, encode_corpus,
                          iterate_batches, make_batch, tokenize)
from nliexpl.evaluation import bleu as corpus_bleu
from nliexpl.evaluation import evaluate_model, label_accuracy, predict_all
from nliexpl.data import Batch
from nliexpl.models import AttentionHead, ExplainThenPredict, build_model
from nliexpl.quality import (HYPOTHESIS_SLOT, PREMISE_SLOT, TEMPLATES,
                             is_uninformative, normalize, validate_annotation,
                             instantiate_templates)
from nliexpl.training import TrainConfig, TrainData, train
from model_utils import (explain_then_predict, full_model_grad_check,
                         label_alone, toy_config, toy_setup)
from oracles import (brute_force_bleu, levenshtein_full, max_rel_err,
                     numeric_grad, straight_line_attention)
from synth import make_examples, random_sentence
from test_quality import _example_from_case, load_annotation_cases

FIXTURES = Path(__file__).parent / "fixtures"


def _report(n, message, t0, budget=None):
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {n} over budget: {elapsed:.1f}s"
        print(f"[acceptance] criterion {n} PASS ({elapsed:.1f}s < {budget}s): "
              f"{message}")
    else:
        print(f"[acceptance] criterion {n} PASS ({elapsed:.1f}s): {message}")


def _grad_check(build_loss, params, tol=1e-4):
    """Finite differences of one loss; returns the names of the ops its
    tape recorded (the `__qualname__` prefix of each backward function)."""
    for p in params.values():
        p.grad = None
    with ad.Tape() as tape:
        loss = build_loss()
    ops = {fn.__qualname__.split(".")[0] for _, _, fn in tape.records}
    ad.backward(tape, loss)
    analytic = {n: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for n, p in params.items()}
    numeric = numeric_grad(lambda: float(build_loss().data), params, eps=1e-3)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"max rel err {err:.3e}"
    return ops


def _op_level_checks():
    """Criterion 1's op-level finite-difference checks (float64
    parameters throughout); returns the names of the ops they recorded."""
    rng = np.random.default_rng(0)
    ops = set()

    def check(build_loss, params):
        ops.update(_grad_check(build_loss, params))

    def p64(shape, name, scale=0.7):
        return ad.param(rng.normal(size=shape) * scale, name)

    a = p64((3, 4), "a")
    b = p64((3, 4), "b")
    check(lambda: ad.sum_(ad.add(a, b)), {"a": a, "b": b})
    check(lambda: ad.sum_(ad.mul(ad.sub(a, b), a)), {"a": a, "b": b})
    check(lambda: ad.sum_(ad.scale(ad.abs_(a), 1.7)), {"a": a})
    check(lambda: ad.sum_(ad.tanh_(a)), {"a": a})

    m1 = p64((3, 4), "m1")
    m2 = p64((2, 4), "m2")
    check(lambda: ad.sum_(ad.linear(m1, m2, ad.Tensor(np.zeros(2)))),
          {"m1": m1, "m2": m2})
    w = p64((5, 4), "w")
    bias = p64((5,), "bias")
    check(lambda: ad.sum_(ad.tanh_(ad.linear(a, w, bias))),
          {"a": a, "w": w, "bias": bias})
    check(lambda: ad.sum_(ad.mul(ad.concat([a, b]), ad.concat([b, a]))),
          {"a": a, "b": b})

    # `cross_entropy_rows` overwrites its logits, so each call gets its own
    sm = p64((3, 5), "sm")
    weights = rng.normal(size=3)
    check(lambda: ad.sum_(ad.cross_entropy_rows(ad.scale(sm, 1.0),
                                                np.array([1, 4, 2]))),
          {"sm": sm})
    check(lambda: ad.sum_(ad.mul(ad.cross_entropy_rows(
        ad.linear(a, w, bias), np.array([0, 3, 4])), ad.Tensor(weights))),
        {"a": a, "w": w, "bias": bias})
    ce = p64((1, 6), "ce")
    check(lambda: ad.sum_(ad.cross_entropy_rows(ad.scale(ce, 1.0),
                                                np.array([3]))), {"ce": ce})

    frozen = rng.normal(size=(7, 4))
    rows = p64((2, 4), "rows")
    slots = np.array([-1, 0, -1, 1, -1, -1, -1])
    ids = np.array([1, 3, 0, 3])
    check(lambda: ad.sum_(ad.tanh_(ad.embedding_lookup(
        frozen, ids, rows, slots))), {"rows": rows})

    drop = ad.dropout_mask(np.random.default_rng(5), (3, 4), 0.5, np.float64)
    check(lambda: ad.sum_(ad.mul(a, ad.Tensor(drop))), {"a": a})

    seq_cell = ad.LstmParams(p64((8, 4 + 2), "wi", scale=0.5),
                             p64((8, 2), "wh", scale=0.5), p64((8,), "b", scale=0.5))
    x_seq = p64((4, 3, 4), "x_seq")
    h0, c0, cond = p64((3, 2), "h0"), p64((3, 2), "c0"), p64((3, 2), "cond")
    seq_lengths = np.array([1, 4, 3])
    drop_h = ad.dropout_mask(np.random.default_rng(6), (3, 2), 0.5, np.float64)
    # one weight per real step-row (t, b), in `lstm_layer`'s row order
    out_w = rng.normal(size=(4, 3, 2))[np.arange(4)[:, None] < seq_lengths]
    for reverse in (False, True):
        check(lambda: ad.sum_(ad.mul(ad.lstm_layer(
            x_seq, seq_cell, h0, c0, seq_lengths, cond=cond, reverse=reverse,
            rmask=drop_h), ad.Tensor(out_w))),
            {"x_seq": x_seq, "cond": cond, "wi": seq_cell.wi, "wh": seq_cell.wh,
             "b": seq_cell.b, "h0": h0, "c0": c0})
    # teacher forcing: the output head and the loss read the op's real
    # step-rows as it returns them
    head_w = p64((5, 2), "head_w")
    check(lambda: ad.sum_(ad.cross_entropy_rows(ad.linear(ad.lstm_layer(
        x_seq, seq_cell, h0, c0, seq_lengths, cond=cond, rmask=drop_h), head_w,
        ad.Tensor(np.zeros(5))),
        np.array([4, 0, 2, 1, 3, 3, 0, 2]))),
        {"x_seq": x_seq, "cond": cond, "wh": seq_cell.wh, "head_w": head_w})
    # the attention decoder's op: two heads whose rows' key lengths
    # differ, a decoded row of length 1, recurrent dropout on; a head's
    # keys and values are one row per real key step
    heads = [ad.Attention(p64((2, 2), f"wc{k}"), p64((2,), f"bc{k}"),
                          p64((key_lengths.sum(), 2), f"keys{k}"),
                          p64((key_lengths.sum(), 2), f"values{k}"), key_lengths)
             for k, key_lengths in enumerate([np.array([4, 1, 2]),
                                              np.array([2, 3, 1])])]
    att_cell = ad.LstmParams(p64((8, 2 * 2 + 4), "att_wi", scale=0.5),
                             p64((8, 2), "att_wh", scale=0.5),
                             p64((8,), "att_b", scale=0.5))
    check(lambda: ad.sum_(ad.mul(ad.lstm_layer(
        x_seq, att_cell, h0, c0, seq_lengths, cond=heads, rmask=drop_h),
        ad.Tensor(out_w))),
        {"x_seq": x_seq, "wi": att_cell.wi, "wh": att_cell.wh, "b": att_cell.b,
         "h0": h0, "c0": c0, **{t.name: t for head in heads
                                for t in (head.wc, head.bc, head.keys,
                                          head.values)}})
    cells = [ad.init_lstm(rng, 3, 2, d, dtype=np.float64) for d in ("fwd", "bwd")]
    for cell in cells:
        cell.wi.data = rng.normal(size=cell.wi.shape) * 0.5
        cell.wh.data = rng.normal(size=cell.wh.shape) * 0.5
        cell.b.data = rng.normal(size=cell.b.shape) * 0.5
    xs = p64((4, 3, 3), "xs")
    bi_w = rng.normal(size=(4, 3, 4))
    pool_w = rng.normal(size=(3, 4))

    def encoder_loss(lengths):
        # reads both outputs, the pooled vector and the states, whose
        # weights are bi_w's at the real step-rows
        pooled, states = ad.bilstm_layer(xs, *cells, lengths)
        real = np.arange(4)[:, None] < (np.full(3, 4) if lengths is None else lengths)
        return ad.add(ad.sum_(ad.mul(pooled, ad.Tensor(pool_w))),
                      ad.sum_(ad.mul(states, ad.Tensor(bi_w[real]))))

    for lengths in (seq_lengths, None):
        check(lambda: encoder_loss(lengths),
              {"xs": xs, **{t.name: t for cell in cells
                            for t in (cell.wi, cell.wh, cell.b)}})
    return ops


def _recording_ops():
    """The public functions of `autodiff` whose bodies call `_record`."""
    tree = ast.parse(inspect.getsource(ad))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and any(isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "_record"
                    for call in ast.walk(node))}


def test_criterion_1_checks_every_tape_op():
    """Criterion 1's op-level checks record every public op that writes
    to the tape, so a new op cannot go unchecked."""
    recording = _recording_ops()
    assert {"linear", "lstm_layer", "bilstm_layer",
            "cross_entropy_rows"} <= recording
    assert sorted(recording - _op_level_checks()) == []


def test_criterion_1_gradient_suite():
    """Every op and every variant matches finite differences (<1e-4)."""
    t0 = time.monotonic()
    _op_level_checks()

    # -- every model variant end to end (short sequences: saturated
    # states over long sequences produce near-tied max-pool columns
    # whose argmax flips inside the finite-difference step)
    checked = []
    for variant, alpha in [("bilstm-max", None), ("hyp-to-label", None),
                           ("hyp-to-expl", None), ("pred-expl", 0.6),
                           ("expl-pred-seq2seq", None), ("expl-pred-att", None),
                           ("expl-to-label", None), ("autoenc", 0.6)]:
        model, batch, _ = toy_setup(variant, n=3, hidden=3, embed=4, dec=3,
                                    width=4, max_tokens=4)
        full_model_grad_check(model, batch, alpha=alpha)
        checked.append(variant)
    assert len(checked) == 8
    _report(1, "all ops and all 8 variants match finite differences "
               "(rel err < 1e-4, float64 replay)", t0, budget=120)


def _unit_table(vocab, dim, rng):
    """Frozen vectors uniform in [-1, 1): twice `EmbeddingTable.random`'s,
    which scaling by 2 keeps bit for bit."""
    return EmbeddingTable(2 * EmbeddingTable.random(vocab, dim, rng).matrix)


def test_criterion_2_overfit_pred_expl(tmp_path):
    """32-example pred-expl run reaches 100% labels, >95% tokens."""
    t0 = time.monotonic()
    examples = make_examples(32, seed=11)
    vocab = build_vocab([e.premise for e in examples]
                        + [e.hypothesis for e in examples]
                        + [e.explanations[0] for e in examples], min_count=1)
    table = _unit_table(vocab, 32, np.random.default_rng(5))
    encoded = encode_corpus(examples, vocab)
    cfg = TrainConfig(variant="pred-expl", alpha=0.6, epochs=300, seed=0,
                      batch_size=2, embed_dim=32, encoder_hidden=64,
                      classifier_width=64, decoder_hidden=64, dropout=0.5)
    model = build_model(cfg.model_config(), vocab, table,
                        np.random.default_rng([cfg.seed, 0]))
    params = model.params()
    state = ad.SgdState(base_lr=cfg.lr, decay=cfg.decay)
    full = make_batch(encoded, with_explanations=True)
    reached = None
    for epoch in range(cfg.epochs):
        drop_rng = np.random.default_rng([cfg.seed, 1, epoch])
        for batch in iterate_batches(encoded, cfg.batch_size, seed=cfg.seed,
                                     epoch=epoch, shuffle=True,
                                     with_explanations=True):
            with ad.Tape() as tape:
                loss, _ = model.loss(batch, rng=drop_rng, alpha=cfg.alpha)
            ad.backward(tape, loss)
            ad.sgd_step(params, state)
        state.advance_epoch()
        if epoch % 10 == 9:
            acc = label_accuracy(model.predict_labels(full), full.labels)
            _, tokens, correct = model.eval_batch(full, nll=True)[1]
            if acc == 100.0 and correct / tokens > 0.95:
                reached = (epoch, acc, correct / tokens)
                break
    assert reached is not None, "did not overfit within 300 epochs"
    epoch, acc, tok = reached
    _report(2, f"100% label accuracy and {100 * tok:.1f}% token accuracy "
               f"at epoch {epoch} (hidden 64, alpha 0.6)", t0, budget=300)


def test_criterion_3_attention_oracle():
    """The attention both greedy decoding and teacher forcing run at each
    step (`autodiff._Contexts.attend`) equals a straight-line
    transcription on 100 inputs of two heads, each over two rows: one of
    a random length, one as long as the widest, so that the first may
    have pad steps."""
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    for trial in range(100):
        sd = int(rng.integers(2, 7))
        dd = int(rng.integers(2, 6))
        adim = int(rng.integers(2, 6))
        tp = int(rng.integers(1, 8))
        th = int(rng.integers(1, 8))
        head_p = AttentionHead(rng, sd, dd, adim, "attention.premise")
        head_h = AttentionHead(rng, sd, dd, adim, "attention.hypothesis")
        h_p = rng.normal(size=(tp, 2, sd)).astype(np.float32)
        h_h = rng.normal(size=(th, 2, sd)).astype(np.float32)
        h_dec = rng.normal(size=(2, dd)).astype(np.float32)
        lp = np.array([rng.integers(1, tp + 1), tp])
        lh = np.array([rng.integers(1, th + 1), th])
        # the encoder's states: the real step-rows, time-major
        heads = [head_p.precompute(ad.Tensor(h_p[np.arange(tp)[:, None] < lp]), lp),
                 head_h.precompute(ad.Tensor(h_h[np.arange(th)[:, None] < lh]), lh)]
        ctx, [(_, w_p), (_, w_h)] = ad._Contexts(
            heads, None, np.arange(2), False).attend(h_dec)
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
                h_p[:, b].astype(np.float64), h_h[:, b].astype(np.float64),
                h_dec[b].astype(np.float64), weights, np.arange(tp) < lp[b],
                np.arange(th) < lh[b])
            np.testing.assert_allclose(ctx[b, :adim], exp_p, atol=1e-5)
            np.testing.assert_allclose(ctx[b, adim:], exp_h, atol=1e-5)
            np.testing.assert_allclose(w_p[b], exp_wp, atol=1e-5)
            np.testing.assert_allclose(w_h[b], exp_wh, atol=1e-5)
    _report(3, "100 random attention steps match the independent "
               "implementation to 1e-5", t0, budget=10)


def test_criterion_4_bleu_oracle():
    """Corpus BLEU matches brute force to 1e-9; BLEU(c, {c}) == 1.0."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    words = ["a", "b", "c", "d", "e", "f"]
    for trial in range(20):
        n = int(rng.integers(1, 6))
        cands, refs = [], []
        for _ in range(n):
            cands.append([words[rng.integers(6)]
                          for _ in range(rng.integers(1, 10))])
            refs.append([[words[rng.integers(6)]
                          for _ in range(rng.integers(1, 10))]
                         for _ in range(rng.integers(1, 4))])
        got = corpus_bleu(cands, refs)
        want = brute_force_bleu(cands, refs)
        assert abs(got - want) < 1e-9, f"trial {trial}: {got} vs {want}"
    for length in (1, 2, 3, 4, 9):
        cand = [words[rng.integers(6)] for _ in range(length)]
        assert corpus_bleu([cand], [[list(cand)]]) == 1.0
    _report(4, "20 random corpora match the brute-force oracle to 1e-9; "
               "self-BLEU is exactly 1.0", t0, budget=10)


def _perturb(rng, text, k):
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = text
    for _ in range(k):
        op = int(rng.integers(3)) if out else 1
        pos = int(rng.integers(len(out))) if out else 0
        ch = letters[rng.integers(26)]
        if op == 0:
            out = out[:pos] + ch + out[pos + 1:]
        elif op == 1:
            out = out[:pos] + ch + out[pos:]
        else:
            out = out[:pos] + out[pos + 1:]
    return out


def test_criterion_5_template_filter():
    """Self-filtering at distance 0; strict <10 boundary; idempotence."""
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    pairs = [(random_sentence(rng), random_sentence(rng)) for _ in range(50)]
    for premise, hypothesis in pairs:
        for tpl in TEMPLATES:
            label = tpl.label_class if tpl.label_class != "general" else \
                "entailment"
            inst = tpl.pattern.replace(PREMISE_SLOT, premise) \
                              .replace(HYPOTHESIS_SLOT, hypothesis)
            res = is_uninformative(inst, premise, hypothesis, label)
            assert res.uninformative and res.distance == 0, tpl.pattern

    # strict boundary: verified-distance 9 filters, 10 does not
    def boundary_trial(k):
        for _ in range(300):
            premise, hypothesis = random_sentence(rng, 6), random_sentence(rng, 6)
            label = ("entailment", "neutral", "contradiction")[rng.integers(3)]
            candidates = [normalize(c) for c in
                          instantiate_templates(premise, hypothesis, label)]
            base = candidates[rng.integers(len(candidates))]
            perturbed = _perturb(rng, base, k)
            true_min = min(levenshtein_full(normalize(perturbed), c)
                           for c in candidates)
            if true_min != k:
                continue   # edits cancelled or hit another template
            res = is_uninformative(perturbed, premise, hypothesis, label)
            assert res.distance == k
            assert res.uninformative == (k < 10)
            return True
        raise AssertionError(f"could not construct a distance-{k} probe")

    for _ in range(10):
        boundary_trial(9)
        boundary_trial(10)

    # idempotence: filtering the survivors removes nothing
    survivors = []
    for i in range(40):
        premise, hypothesis = random_sentence(rng), random_sentence(rng)
        explanation = random_sentence(rng, 8)
        if not is_uninformative(explanation, premise, hypothesis,
                                "neutral").uninformative:
            survivors.append((explanation, premise, hypothesis))
    assert survivors
    for explanation, premise, hypothesis in survivors:
        assert not is_uninformative(explanation, premise, hypothesis,
                                    "neutral").uninformative
    _report(5, f"all {len(TEMPLATES)} templates self-filter at distance 0 "
               "on 50 pairs; 9-vs-10 edit boundary strict; filter "
               "idempotent", t0, budget=30)


def test_criterion_6_annotation_validators():
    """The 20-case fixture reproduces the annotation rules exactly."""
    t0 = time.monotonic()
    cases = load_annotation_cases()
    assert len(cases) == 20
    for case in cases:
        report = validate_annotation(_example_from_case(case))
        assert sorted(report.codes()) == sorted(case["expected_violations"]), \
            case["id"]
        assert sorted(report.unverifiable) == \
            sorted(case["expected_unverifiable"]), case["id"]
    _report(6, "all 20 fixture cases produce exactly the expected "
               "violations", t0, budget=1)


def test_criterion_7_expl_to_label_directional():
    """Toy label-from-explanation model exceeds 95% held-out accuracy."""
    t0 = time.monotonic()
    examples = make_examples(5000, seed=77)
    train_ex, held_ex = examples[:4500], examples[4500:]
    vocab = build_vocab([e.explanations[0] for e in train_ex], min_count=15)
    table = _unit_table(vocab, 24, np.random.default_rng(3))
    enc_train = encode_corpus(train_ex, vocab)
    enc_held = encode_corpus(held_ex, vocab)

    def run():
        cfg = TrainConfig(variant="expl-to-label", epochs=4, seed=0,
                          batch_size=64, embed_dim=24, encoder_hidden=32,
                          classifier_width=32)
        model = build_model(cfg.model_config(), vocab, table,
                            np.random.default_rng([cfg.seed, 0]))
        params = model.params()
        state = ad.SgdState(base_lr=cfg.lr, decay=cfg.decay)
        accuracy = 0.0
        for epoch in range(cfg.epochs):
            drop_rng = np.random.default_rng([cfg.seed, 1, epoch])
            for batch in iterate_batches(enc_train, cfg.batch_size,
                                         seed=cfg.seed, epoch=epoch,
                                         shuffle=True,
                                         with_explanations=True):
                with ad.Tape() as tape:
                    loss, _ = model.loss(batch, rng=drop_rng)
                ad.backward(tape, loss)
                ad.sgd_step(params, state)
            state.advance_epoch()
            preds, golds = predict_all(model, enc_held, cfg.batch_size)
            accuracy = label_accuracy(preds, golds)
            if accuracy > 95.0:
                break
        return accuracy

    acc1 = run()
    assert acc1 > 95.0, f"held-out accuracy {acc1:.2f}% <= 95%"
    acc2 = run()   # same seed-controlled shuffles: identical outcome
    assert acc1 == acc2
    _report(7, f"held-out accuracy {acc1:.2f}% on 5K synthetic examples "
               "(repeat run identical)", t0, budget=600)


def _expl_classifier_for(vocab, seed):
    """Label-from-explanation model sharing the generator's vocabulary."""
    cfg = toy_config("expl-to-label")
    table = EmbeddingTable.random(vocab, cfg.embed_dim,
                                  np.random.default_rng(seed))
    return build_model(cfg, vocab, table, np.random.default_rng(seed + 1))


def test_criterion_8_pipeline_contract():
    """explain-then-predict label == label of its own explanation."""
    t0 = time.monotonic()
    for variant in ("expl-pred-seq2seq", "expl-pred-att"):
        gen, _, vocab = toy_setup(variant, n=40, seed=8)
        clf = _expl_classifier_for(vocab, seed=90)
        pipe = ExplainThenPredict(gen, clf)
        examples = make_examples(40, seed=21)
        encoded = encode_corpus(examples, vocab)
        agree = 0
        total = 0
        for batch in iterate_batches(encoded, 8, with_explanations=True):
            labels, expls, empty = explain_then_predict(pipe, batch)
            for lab, e in zip(labels, expls):
                agree += int(label_alone(clf, e) == lab)
                total += 1
        assert total == 40
        assert agree == total, f"{variant}: {agree}/{total}"
    # empty generations are flagged and still labeled
    gen, batch, vocab = toy_setup("expl-pred-seq2seq", n=4, seed=8)
    gen.decoder.b_out.data[:] = -10.0
    gen.decoder.b_out.data[vocab.eos_id] = 10.0
    clf = _expl_classifier_for(vocab, seed=91)
    labels, expls, empty = explain_then_predict(ExplainThenPredict(gen, clf),
                                                batch)
    assert all(empty) and len(labels) == 4
    _report(8, "pipeline label equals the explanation classifier's label "
               "on 100% of examples (both generator variants)", t0)


def test_criterion_9_determinism(tmp_path):
    """Identical config+seed: bit-identical losses and EvalReports."""
    t0 = time.monotonic()
    train_ex = make_examples(24, seed=1)
    valid_ex = make_examples(12, seed=2)
    vocab = build_vocab([e.premise for e in train_ex + valid_ex]
                        + [e.hypothesis for e in train_ex + valid_ex]
                        + [e.explanations[0] for e in train_ex + valid_ex],
                        min_count=1)
    table = EmbeddingTable.random(vocab, 8, np.random.default_rng(4))
    data = TrainData(train=encode_corpus(train_ex, vocab),
                     valid=encode_corpus(valid_ex, vocab),
                     vocab=vocab, table=table)
    cfg = TrainConfig(variant="pred-expl", alpha=0.6, epochs=3, seed=5,
                      batch_size=8, embed_dim=8, encoder_hidden=6,
                      classifier_width=6, decoder_hidden=6)
    records = []
    reports = []
    for name in ("one", "two"):
        rec = train(cfg, data, tmp_path / name)
        from nliexpl.models import load_model
        model = load_model(rec.checkpoint_path)
        reports.append(evaluate_model(model, data.valid, valid_ex,
                                      split="valid", batch_size=8))
        records.append(rec)
    l1 = [e["train_loss"] for e in records[0].epochs]
    l2 = [e["train_loss"] for e in records[1].epochs]
    assert l1 == l2, "loss curves differ bit-for-bit"
    assert [e["val_accuracy"] for e in records[0].epochs] == \
        [e["val_accuracy"] for e in records[1].epochs]
    assert reports[0] == reports[1], "EvalReports differ"
    _report(9, "two identical runs: bit-identical loss curves and equal "
               "EvalReports", t0)


def test_criterion_10_padding_invariance_fuzz():
    """1,000 random examples: padding never changes u, v, the encoder
    states (the real step-rows only, in both), labels, or decoded
    sequences."""
    t0 = time.monotonic()
    model, _, vocab = toy_setup("pred-expl", n=6, seed=13, hidden=5, embed=6,
                                dec=5, width=6, max_len=12)
    rng = np.random.default_rng(99)
    vocab_size = len(vocab)
    checked = 0
    for _ in range(1000):
        lp = int(rng.integers(1, 9))
        lh = int(rng.integers(1, 9))
        extra = int(rng.integers(1, 6))
        prem = rng.integers(1, vocab_size, size=lp)
        hyp = rng.integers(1, vocab_size, size=lh)

        def one(ids_p, ids_h):
            batch = Batch(ids=["f"],
                          premise=ids_p[None, :], premise_len=np.array([lp]),
                          hypothesis=ids_h[None, :],
                          hypothesis_len=np.array([lh]),
                          labels=np.array([0]))
            fv, *unread = model.features(batch)
            assert unread == [None, None]   # no attention head reads them
            states = [getattr(model, f"{name}_encoder").encode(
                          model.embedding, ids[None, :], np.array([n]))[1].data
                      for name, ids, n in (("premise", ids_p, lp),
                                           ("hypothesis", ids_h, lh))]
            preds, _, (expl, _) = model.eval_batch(batch, greedy=True)
            return (fv.u.data.copy(), fv.v.data.copy(), states,
                    int(preds[0]), expl[0])

        u1, v1, states1, lab1, dec1 = one(prem, hyp)
        u2, v2, states2, lab2, dec2 = one(
            np.concatenate([prem, np.zeros(extra, dtype=np.int64)]),
            np.concatenate([hyp, np.zeros(extra, dtype=np.int64)]))
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        assert all(np.array_equal(*pair) for pair in zip(states1, states2))
        assert lab1 == lab2
        assert dec1 == dec2
        checked += 1
    assert checked == 1000
    _report(10, "1,000 padded/unpadded example pairs give identical u, v, "
                "encoder states, labels, and decoded sequences", t0)
