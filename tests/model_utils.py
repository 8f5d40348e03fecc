"""Shared builders and helpers for toy-scale model tests."""

import json

import numpy as np

from nliexpl import autodiff as ad
from nliexpl.data import (Batch, EmbeddingTable, build_vocab, encode_corpus,
                          make_batch)
from nliexpl.evaluation import EvalReport
from nliexpl.models import ModelConfig, build_model
from oracles import max_rel_err, numeric_grad
from synth import make_examples


def toy_config(variant, hidden=4, embed=5, dec=4, width=6, max_len=40,
               dropout=0.5):
    return ModelConfig(variant=variant, embed_dim=embed, encoder_hidden=hidden,
                       classifier_width=width, decoder_hidden=dec,
                       max_decode_len=max_len, dropout=dropout)


def toy_setup(variant, n=6, seed=0, max_tokens=None, **cfg_kw):
    """Build a toy model plus one batch over a synthetic corpus.

    `max_tokens` truncates every sentence; gradient checks use short
    sequences so saturated states cannot produce near-tied max-pool
    columns (finite differences would cross the argmax kink).
    """
    examples = make_examples(n, seed=seed)
    if max_tokens is not None:
        for e in examples:
            e.premise = e.premise[:max_tokens]
            e.hypothesis = e.hypothesis[:max_tokens]
            e.explanations = [x[:max_tokens] for x in e.explanations]
    vocab = build_vocab([e.premise for e in examples]
                        + [e.hypothesis for e in examples]
                        + [e.explanations[0] for e in examples], min_count=1)
    cfg = toy_config(variant, **cfg_kw)
    rng = np.random.default_rng(seed + 1)
    table = EmbeddingTable.random(vocab, cfg.embed_dim, rng)
    model = build_model(cfg, vocab, table, rng)
    batch = make_batch(encode_corpus(examples, vocab), with_explanations=True)
    return model, batch, vocab


def label_alone(clf, token_ids):
    """expl-to-label's label for one raw explanation (ids without
    <bos>/<eos>), from a one-row batch that carries nothing else."""
    vocab = clf.vocab
    row = np.array([[vocab.bos_id, *token_ids, vocab.eos_id]], dtype=np.int64)
    batch = Batch(ids=["alone"], premise=None, premise_len=None,
                  hypothesis=None, hypothesis_len=None, labels=None,
                  explanation=row, explanation_len=np.array([row.shape[1]]))
    return int(clf.eval_batch(batch)[0][0])


def explain_then_predict(pipe, batch):
    """(labels, explanation ids, empty flags): `pipe.predict` of its
    generator's own greedy output for `batch`."""
    expl, empty = pipe.generator.eval_batch(batch, greedy=True)[2]
    return pipe.predict(batch, expl), expl, empty


def cast_model(model, dtype):
    """Every parameter and the frozen embedding table of `model` in
    `dtype`, in place (float64 for the gradient checks)."""
    model.embedding.frozen = model.embedding.frozen.astype(dtype)
    for p in model.params().values():
        p.data = p.data.astype(dtype)


def report_from_json(text):
    """The `EvalReport` that `EvalReport.to_json` wrote as `text`."""
    return EvalReport(**json.loads(text))


def full_model_grad_check(model, batch, alpha=None, eps=1e-3, tol=1e-4):
    """Finite-difference check of every parameter of a model (float64)."""
    cast_model(model, np.float64)
    params = model.params()
    for p in params.values():
        p.grad = None
    with ad.Tape() as tape:
        loss, _ = model.loss(batch, rng=None, alpha=alpha)
    ad.backward(tape, loss)
    analytic = {}
    for name, p in params.items():
        analytic[name] = (np.zeros_like(p.data) if p.grad is None
                          else p.grad.copy())
        p.grad = None

    def run():
        return float(model.loss(batch, rng=None, alpha=alpha)[0].data)

    numeric = numeric_grad(run, params, eps=eps)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"{model.variant}: max rel err {err:.3e}"
    return err
