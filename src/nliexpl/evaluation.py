"""Evaluation protocol: accuracy, perplexity, multi-reference BLEU,
inter-annotator BLEU, partial-score aggregation, and transfer runs.

Conventions pinned here so numbers are comparable across runs:
  * perplexity = exp(total teacher-forced NLL / token count) over the
    FIRST gold explanation, <eos> counted, <bos> not;
  * BLEU is corpus-level BLEU-4 in [0, 1] with add-one smoothing on
    n >= 2 whenever a clipped count is zero, brevity penalty from the
    closest reference length (ties to the shorter);
  * generated explanations are scored against gold explanations 1-2,
    the same two references the inter-annotator score uses.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (EncodedExample, Example, csv_rows, iterate_batches,
                   missing_explanations)
from .models import ExplainThenPredict, ModelError

BLEU_MAX_N = 4
EVAL_BATCH_SIZE = 64   # the [eval] batch_size default


class EvaluationError(ValueError):
    pass


def label_accuracy(preds, golds) -> float:
    """Percentage of matching labels."""
    preds = np.asarray(preds)
    golds = np.asarray(golds)
    if preds.shape != golds.shape or preds.size == 0:
        raise EvaluationError(f"bad prediction/gold shapes {preds.shape} vs "
                              f"{golds.shape}")
    return 100.0 * float((preds == golds).sum()) / preds.size


# ---------------------------------------------------------------------------
# BLEU


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_len(cand_len: int, refs) -> int:
    return min((abs(len(r) - cand_len), len(r)) for r in refs)[1]


def bleu(candidates, reference_sets) -> float:
    """Corpus-level BLEU-4 in [0, 1].

    `candidates` is a list of token lists; `reference_sets[i]` is the
    list of reference token lists for candidate i (at least one
    non-empty reference each).
    """
    if not candidates:
        raise EvaluationError("empty candidate corpus")
    if len(candidates) != len(reference_sets):
        raise EvaluationError("candidate/reference length mismatch")
    clipped = [0] * (BLEU_MAX_N + 1)
    totals = [0] * (BLEU_MAX_N + 1)
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, reference_sets):
        refs = [r for r in refs if r]
        if not refs:
            raise EvaluationError("candidate with no non-empty reference")
        cand_len += len(cand)
        ref_len += _closest_ref_len(len(cand), refs)
        for n in range(1, BLEU_MAX_N + 1):
            counts = _ngrams(cand, n)
            if not counts:
                continue
            max_ref = Counter()
            for r in refs:
                for gram, c in _ngrams(r, n).items():
                    if c > max_ref[gram]:
                        max_ref[gram] = c
            clipped[n] += sum(min(c, max_ref[g]) for g, c in counts.items())
            totals[n] += sum(counts.values())
    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        num, den = clipped[n], totals[n]
        if n >= 2 and num == 0:
            num += 1
            den += 1
        if num == 0 or den == 0:   # at n = 1 if every candidate is empty
            return 0.0
        log_sum += math.log(num / den) / BLEU_MAX_N
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum)


def inter_annotator_bleu(examples: list[Example]) -> tuple[float, int, int]:
    """BLEU of explanation 3 against explanations 1-2.

    Returns (score, examples used, examples skipped for lacking three
    explanations).
    """
    cands, refs = [], []
    skipped = 0
    for e in examples:
        if len(e.explanations) >= 3:
            cands.append(e.explanations[2])
            refs.append([e.explanations[0], e.explanations[1]])
        else:
            skipped += 1
    if not cands:
        raise EvaluationError("no examples with three explanations")
    return bleu(cands, refs), len(cands), skipped


# ---------------------------------------------------------------------------
# Human partial-score aggregation


@dataclass
class AnnotationRecord:
    """One manually graded explanation.

    Entailment grades are k-of-n partial scores; neutral/contradiction
    grades are 0-or-1 (n = 1).
    """

    example_id: str
    predicted_label_correct: bool
    k: int
    n: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n or self.n < 1:
            raise EvaluationError(
                f"{self.example_id}: bad partial score {self.k}/{self.n}")

    @property
    def score(self) -> float:
        return self.k / self.n


_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def load_annotations(path) -> list[AnnotationRecord]:
    """Annotation CSV (`data.csv_rows`) columns: id,
    predicted_label_correct, k, n; one row per example id. The flag is 1/true/yes or 0/false/no, in any
    case."""
    records = []
    with csv_rows(path, ("id", "predicted_label_correct", "k", "n"),
                  lambda cells, line: cells["id"], EvaluationError) as (_, rows):
        for rownum, example_id, row in rows:
            try:
                k, n = int(row["k"]), int(row["n"])
            except (TypeError, ValueError):
                raise EvaluationError(
                    f"{path}:{rownum}: k and n must be integers, got "
                    f"{row['k']!r} and {row['n']!r}") from None
            flag = row["predicted_label_correct"]
            correct = _FLAGS.get((flag or "").strip().lower())
            if correct is None:
                raise EvaluationError(
                    f"{path}:{rownum}: predicted_label_correct must be one of "
                    f"1/true/yes/0/false/no, got {flag!r}")
            try:
                records.append(AnnotationRecord(
                    example_id=example_id, k=k, n=n,
                    predicted_label_correct=correct))
            except EvaluationError as err:
                raise EvaluationError(f"{path}:{rownum}: {err}") from None
    return records


EXPL_AT_K_MODES = ("partial", "strict")


def expl_at_k_mode(mode: str) -> str:
    """`mode` if it is one of EXPL_AT_K_MODES, else EvaluationError."""
    if mode not in EXPL_AT_K_MODES:
        raise EvaluationError(f"unknown mode {mode!r}")
    return mode


def expl_at_k(records: list[AnnotationRecord], mode: str) -> float | None:
    """Explanation correctness over the label-correct subset, x100.

    "partial" averages the k/n scores (fractional values come out, e.g.
    34.68); "strict" counts only full scores. Returns None when no
    record has a correct label (undefined).
    """
    expl_at_k_mode(mode)
    subset = [r for r in records if r.predicted_label_correct]
    if not subset:
        return None
    if mode == "strict":
        return 100.0 * sum(1 for r in subset if r.score >= 1.0) / len(subset)
    return 100.0 * sum(r.score for r in subset) / len(subset)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class EvalReport:
    """Metric bundle with provenance of how each number was computed."""

    accuracy: float | None = None
    perplexity: float | None = None
    bleu: float | None = None
    expl_at_k: float | None = None
    counts: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    def table(self) -> str:
        def fmt(v, scale=1.0):
            return "-" if v is None else f"{v * scale:.4f}"

        lines = [
            f"{'metric':<18}{'value':>12}",
            f"{'accuracy %':<18}{fmt(self.accuracy):>12}",
            f"{'perplexity':<18}{fmt(self.perplexity):>12}",
            f"{'bleu':<18}{fmt(self.bleu):>12}",
            f"{'bleu x100':<18}{fmt(self.bleu, 100.0):>12}",
            f"{'expl@k %':<18}{fmt(self.expl_at_k):>12}",
        ]
        for key, val in sorted(self.counts.items()):
            lines.append(f"{key:<18}{val:>12}")
        return "\n".join(lines)


@dataclass
class EvalOutput:
    """One pass over a split, in example order; a list stays empty where
    nothing was asked for. The NLL and token counts are teacher-forced
    over the first gold explanations."""

    preds: list[int] = field(default_factory=list)
    golds: list[int] = field(default_factory=list)
    total_nll: float = 0.0
    n_tokens: int = 0
    n_correct: int = 0
    generated: list[list[int]] = field(default_factory=list)   # no <eos>
    empty: list[bool] = field(default_factory=list)

    @property
    def perplexity(self) -> float:
        return math.exp(self.total_nll / self.n_tokens)

    @property
    def token_accuracy(self) -> float:
        return self.n_correct / self.n_tokens


def evaluation_pass(model, encoded: list[EncodedExample],
                    batch_size: int = EVAL_BATCH_SIZE, nll: bool = False,
                    greedy: bool = False, expl_classifier=None) -> EvalOutput:
    """One `model.eval_batch` per batch, so each batch is encoded once
    for everything the pass gives: labels whenever the model has a
    classifier, teacher-forced NLL with `nll`, greedy explanations with
    `greedy`. A generator without a classifier, given `expl_classifier`,
    labels by explain-then-predict on the same greedy output. Batches
    carry explanations only when the pass reads them (the NLL, or a model
    that encodes them); EvaluationError names any example without one."""
    pipe = None
    if expl_classifier is not None and not model.has_classifier:
        pipe = ExplainThenPredict(model, expl_classifier)
    res = EvalOutput()
    explained = nll or model.reads_explanations
    if explained and (message := missing_explanations(model, encoded)):
        raise EvaluationError(message)
    for batch in iterate_batches(encoded, batch_size,
                                 with_explanations=explained):
        preds, scored, generated = model.eval_batch(
            batch, nll=nll, greedy=greedy or pipe is not None)
        if pipe is not None:
            preds = pipe.predict(batch, generated)[0]
        if preds is not None:
            res.preds += preds.tolist()
            res.golds += batch.labels.tolist()
        if scored is not None:
            res.total_nll += scored[0]
            res.n_tokens += scored[1]
            res.n_correct += scored[2]
        if generated is not None:
            res.generated += generated[0]
            res.empty += generated[1]
    if nll and res.n_tokens == 0:
        raise EvaluationError("no explanation tokens to score")
    return res


def predict_all(model, encoded, batch_size=EVAL_BATCH_SIZE,
                expl_classifier=None):
    """(predicted, gold) labels for every example; a generator without
    a classifier labels by explain-then-predict."""
    if not model.has_classifier and expl_classifier is None:
        raise EvaluationError(f"{model.variant} needs an explanation "
                              "classifier to predict labels")
    res = evaluation_pass(model, encoded, batch_size,
                          expl_classifier=expl_classifier)
    return np.array(res.preds), np.array(res.golds)


def perplexity(model, encoded: list[EncodedExample],
               batch_size: int = EVAL_BATCH_SIZE) -> EvalOutput:
    """Teacher-forced perplexity over the first gold explanations."""
    return evaluation_pass(model, encoded, batch_size, nll=True)


def generate_all(model, encoded, batch_size=EVAL_BATCH_SIZE):
    """Greedy explanations (token-id lists) and empty flags for every example."""
    res = evaluation_pass(model, encoded, batch_size, greedy=True)
    return res.generated, res.empty


def evaluate_model(model, encoded: list[EncodedExample],
                   examples: list[Example], split: str = "valid",
                   batch_size: int = EVAL_BATCH_SIZE,
                   expl_classifier=None) -> EvalReport:
    """Full metric sweep for one model on one split.

    Accuracy comes from the model's own classifier, or from the
    explain-then-predict pipeline for generator-only variants (when an
    explanation classifier is supplied). Perplexity needs every example
    explained; BLEU scores the greedy generations of the examples that
    have gold explanations in `examples` against their first two.
    """
    report = EvalReport(provenance={
        "split": split, "variant": model.variant,
        "reference_policy": "gold explanations 1-2",
        "vocab_sha256": model.vocab.sha256()})
    report.counts["examples"] = len(encoded)
    if model.has_classifier or expl_classifier is not None:
        preds, golds = predict_all(model, encoded, batch_size, expl_classifier)
        report.accuracy = label_accuracy(preds, golds)
    if model.explains and all(e.explanations for e in encoded):
        ppl = perplexity(model, encoded, batch_size)
        report.perplexity = ppl.perplexity
        report.counts["explanation_tokens"] = ppl.n_tokens
        report.provenance["perplexity_total_nll"] = ppl.total_nll
    by_id = {e.id: e for e in examples}
    referenced = [enc for enc in encoded
            if enc.id in by_id and by_id[enc.id].explanations]
    if model.explains and referenced:
        generated = generate_all(model, referenced, batch_size)[0]
        report.bleu = bleu([model.vocab.decode(gen) for gen in generated],
                           [by_id[enc.id].explanations[:2] for enc in referenced])
        report.counts["bleu_candidates"] = len(referenced)
    return report


def transfer_eval(model, encoded: list[EncodedExample],
                  examples: list[Example], split: str = "transfer",
                  batch_size: int = EVAL_BATCH_SIZE, expl_classifier=None):
    """Out-of-domain evaluation without fine-tuning, of `encoded` (an
    encoding of `examples`, which give each row's texts).

    Returns (EvalReport, dump rows): one row per example, ready for
    human annotation, whose explanation is the greedy one for a variant
    that explains and empty for any other. Its label is the model's own;
    for a generator without a classifier, explain-then-predict's on that
    same explanation when `expl_classifier` is given, else empty. No
    parameter is updated. A model that reads explanations (expl-to-label)
    is rejected with ModelError: the corpus is run from its premises and
    hypotheses alone.
    """
    if model.reads_explanations:
        raise ModelError(f"{model.variant} reads explanations, and transfer "
                         "batches carry no explanations (premise/hypothesis "
                         "pairs only)")
    report = EvalReport(provenance={
        "split": split, "variant": model.variant,
        "vocab_sha256": model.vocab.sha256()})
    report.counts["examples"] = len(encoded)
    can_label = model.has_classifier or expl_classifier is not None
    res = evaluation_pass(model, encoded, batch_size, greedy=model.explains,
                          expl_classifier=expl_classifier)
    if can_label:
        report.accuracy = label_accuracy(res.preds, res.golds)
    by_id = {e.id: e for e in examples}
    dumps = [{"id": enc.id, "premise": by_id[enc.id].premise_text,
              "hypothesis": by_id[enc.id].hypothesis_text,
              "predicted_label": res.preds[i] if can_label else None,
              "explanation": " ".join(model.vocab.decode(res.generated[i]))
              if model.explains else ""}
             for i, enc in enumerate(encoded)]
    return report, dumps
