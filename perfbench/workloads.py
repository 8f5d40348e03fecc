"""The three benchmark workloads and their output checks.

Each workload writes its seeded inputs (`prepare`), loads them the way a
user's job would (`setup`, the `setup_s` metric), then repeats one
iteration of fixed work (`iteration`) against the public nliexpl API,
in-process, one iteration after the other (a closed loop with one
client). `summarize` turns an iteration's raw output into counts outside
the timed region; `checks` compares the outputs with independent
references once the loop is done.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
from nliexpl import cli, data, evaluation, models, quality, training

REPO = Path(__file__).resolve().parent.parent
MODEL_SEED = 0          # fixed weights for the untrained inference models
# Weight init, dropout and batch order of the training run: fixed like the
# input structure (see corpus.py), so every seed trains on batches of
# the same padded widths.
TRAIN_SEED = 0
PLANTED_SHARE = 0.1


@dataclass(frozen=True)
class Shape:
    hidden: int            # encoder, decoder and classifier width
    embed: int
    batch: int
    train_batches: int     # pred-expl train split, in batches
    valid_rows: int        # pred-expl valid split (validation + checkpoint)
    vocab_rows: int        # text the vocabularies are built from
    eval_rows: int         # infer-explain test split
    filter_rows: int       # corpus-quality examples, 3 explanations each
    bleu_segments: int
    decode_len: int
    distance_sample: int   # explanations re-checked against the oracle
    loss_band: tuple[float, float] | None   # final train loss over seeds
    min_step_coverage: float | None   # traced share of train step time


FULL = Shape(hidden=512, embed=300, batch=64, train_batches=2, valid_rows=32,
             vocab_rows=384, eval_rows=64, filter_rows=30,
             bleu_segments=600, decode_len=40, distance_sample=12,
             loss_band=(42.5, 44.5), min_step_coverage=0.9)
TINY = Shape(hidden=8, embed=6, batch=4, train_batches=2, valid_rows=4,
             vocab_rows=12, eval_rows=4, filter_rows=4, bleu_segments=10,
             decode_len=4, distance_sample=2, loss_band=None,
             min_step_coverage=None)
SHAPES = {"full": FULL, "tiny": TINY}


def load_oracles():
    """The repository's independent test oracles (full-matrix
    Levenshtein, brute-force BLEU)."""
    spec = importlib.util.spec_from_file_location(
        "nliexpl_oracles", REPO / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _span_seconds(spans, name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


class Workload:
    name = ""
    # Coarse spans kept on in the untraced run so that the stage
    # throughputs can be split out; a handful per iteration.
    stage_spans: frozenset[str] = frozenset()

    def __init__(self, workdir: Path, seed: int, shape: Shape):
        self.dir = workdir
        self.seed = seed
        self.shape = shape

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def iteration(self, state, k: int):
        raise NotImplementedError

    def summarize(self, state, raw, wall: float, spans) -> dict:
        """{"items": n, "wall": s, "stages": {metric: (count, seconds,
        unit)}, ...workload-specific outputs for `checks`}."""
        raise NotImplementedError

    def checks(self, state, outcomes: list[dict]) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class TrainPredExpl(Workload):
    """One `training.train` call: pred-expl, one epoch over a fixed
    number of batches, validation and the best-checkpoint save.

    The vocabulary is built over the whole generated train file (about 3k
    types) and training runs over its first `train_batches` batches.
    """

    name = "train-pred-expl"

    def prepare(self):
        s = self.shape
        rows, _ = corpus.make_rows(self.seed, 0, s.vocab_rows, 1)
        corpus.write_csv(self.dir / "train.csv", rows)
        rows, _ = corpus.make_rows(self.seed, 1, s.valid_rows, 3)
        corpus.write_csv(self.dir / "valid.csv", rows)

    def setup(self):
        train_ex, _ = data.load_corpus(self.dir / "train.csv", split="train")
        valid_ex, _ = data.load_corpus(self.dir / "valid.csv", split="valid")
        vocab = data.build_vocab(
            [t for e in train_ex for t in (e.premise, e.hypothesis,
                                           e.explanations[0])], min_count=1)
        table = data.EmbeddingTable.random(
            vocab, self.shape.embed, np.random.default_rng([self.seed, 99]))
        train_rows = self.shape.batch * self.shape.train_batches
        return training.TrainData(train=data.encode_corpus(train_ex[:train_rows], vocab),
                                  valid=data.encode_corpus(valid_ex, vocab),
                                  vocab=vocab, table=table)

    def config(self) -> training.TrainConfig:
        s = self.shape
        return training.TrainConfig(
            variant="pred-expl", alpha=0.6, epochs=1, seed=TRAIN_SEED,
            batch_size=s.batch, dropout=0.5, embed_dim=s.embed,
            encoder_hidden=s.hidden, classifier_width=s.hidden,
            decoder_hidden=s.hidden, max_decode_len=s.decode_len)

    def iteration(self, state, k):
        out_dir = self.dir / f"train{k}"
        return training.train(self.config(), state, out_dir), out_dir

    def summarize(self, state, raw, wall, spans):
        record, out_dir = raw
        n = len(state.train)
        out = {"items": n, "wall": wall,
               "stages": {"train.examples_per_s": (n, wall, "examples/s")},
               "aborted": record.aborted, "note": record.note,
               "epochs": record.epochs, "param_hash": None}
        if record.checkpoint_path:
            out["param_hash"] = models.load_model(record.checkpoint_path).param_hash()
        shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def checks(self, state, outcomes):
        values = [v for o in outcomes for e in o["epochs"] for v in e.values()]
        hashes = {o["param_hash"] for o in outcomes}
        result = [
            ("train.not_aborted", not any(o["aborted"] for o in outcomes),
             "; ".join(o["note"] for o in outcomes if o["note"])),
            ("train.losses_finite",
             bool(values) and all(math.isfinite(v) for v in values), ""),
            ("train.param_hash_repeats",
             len(outcomes) >= 2 and len(hashes) == 1 and None not in hashes,
             f"{len(hashes)} distinct hashes over {len(outcomes)} runs"),
        ]
        band = self.shape.loss_band
        if band is not None:
            losses = [o["epochs"][-1]["train_loss"] for o in outcomes if o["epochs"]]
            result.append(("train.loss_in_band",
                           bool(losses) and all(band[0] <= v <= band[1] for v in losses),
                           f"final train loss {losses} vs {band}"))
        return result


class InferExplain(Workload):
    """Forward-only evaluation of untrained checkpoints: `evaluate_model`
    on pred-expl, then explain-then-predict with expl-pred-att and an
    expl-to-label classifier."""

    name = "infer-explain"
    stage_spans = frozenset({"evaluation.evaluate_model", "evaluation.predict_all",
                             "evaluation.perplexity", "evaluation.generate_all"})
    variants = ("pred-expl", "expl-pred-att", "expl-to-label")

    def prepare(self):
        s = self.shape
        rows, _ = corpus.make_rows(self.seed, 0, s.vocab_rows, 1)
        vocab = data.build_vocab(
            [data.tokenize(r[col]) for r in rows
             for col in ("Sentence1", "Sentence2", "Explanation_1")], min_count=1)
        table = data.EmbeddingTable.random(
            vocab, s.embed, np.random.default_rng([self.seed, 99]))
        for variant in self.variants:
            cfg = models.ModelConfig(variant=variant, embed_dim=s.embed,
                                     encoder_hidden=s.hidden,
                                     classifier_width=s.hidden,
                                     decoder_hidden=s.hidden,
                                     max_decode_len=s.decode_len)
            model = models.build_model(cfg, vocab, table,
                                       np.random.default_rng(MODEL_SEED))
            model.save(self.dir / variant)
        rows, _ = corpus.make_rows(self.seed, 2, s.eval_rows, 3)
        corpus.write_csv(self.dir / "test.csv", rows)

    def setup(self):
        pe, att, clf = (models.load_model(self.dir / v) for v in self.variants)
        examples, _ = data.load_corpus(self.dir / "test.csv", split="test")
        encoded = data.encode_corpus(examples, pe.vocab)
        return {"pe": pe, "att": att, "clf": clf, "examples": examples,
                "encoded": encoded}

    def iteration(self, state, k):
        b = self.shape.batch
        report = evaluation.evaluate_model(state["pe"], state["encoded"],
                                           state["examples"], split="test",
                                           batch_size=b)
        preds, _ = evaluation.predict_all(state["att"], state["encoded"], b,
                                          expl_classifier=state["clf"])
        return report, preds

    def summarize(self, state, raw, wall, spans):
        report, preds = raw
        n = len(state["encoded"])
        out = {"items": n, "wall": wall, "stages": {},
               "perplexity": report.perplexity, "bleu": report.bleu,
               "accuracy": report.accuracy, "etp_preds": preds.tolist()}
        inner = [s for s in spans if s[3] >= 0
                 and spans[s[3]][0] == "evaluation.evaluate_model"]
        etp = [s for s in spans if s[0] == "evaluation.predict_all" and s[3] < 0]
        if inner and etp:
            tokens = report.counts["explanation_tokens"]
            out["stages"] = {
                "eval.labels_per_s": (n, sum(_span_seconds(inner, "evaluation.predict_all")),
                                      "labels/s"),
                "eval.tokens_per_s": (tokens, sum(_span_seconds(inner, "evaluation.perplexity")),
                                      "tokens/s"),
                "generate.examples_per_s": (n, sum(_span_seconds(inner, "evaluation.generate_all")),
                                            "examples/s"),
                "etp.examples_per_s": (n, sum(_span_seconds(etp, "evaluation.predict_all")),
                                       "examples/s"),
            }
        return out

    def checks(self, state, outcomes):
        oracles = load_oracles()
        pe, encoded, b = state["pe"], state["encoded"], self.shape.batch
        total_nll, tokens = 0.0, 0
        for batch in data.iterate_batches(encoded, b, with_explanations=True):
            nll, n_tok, _ = pe.explanation_nll(batch)
            total_nll += nll
            tokens += n_tok
        ppl = math.exp(total_nll / tokens)
        generated, _ = evaluation.generate_all(pe, encoded, b)
        by_id = {e.id: e for e in state["examples"]}
        cands = [pe.vocab.decode(g) for g in generated]
        refs = [by_id[e.id].explanations[:2] for e in encoded]
        oracle_bleu = oracles.brute_force_bleu(cands, refs)
        first = outcomes[0]
        same = all(o[key] == first[key] for o in outcomes
                   for key in ("perplexity", "bleu", "accuracy", "etp_preds"))
        return [
            ("infer.perplexity_matches_nll",
             all(math.isclose(o["perplexity"], ppl, rel_tol=1e-9) for o in outcomes),
             f"reported {first['perplexity']} vs exp(nll/tokens) {ppl}"),
            ("infer.bleu_matches_oracle",
             all(math.isclose(o["bleu"], oracle_bleu, rel_tol=1e-9, abs_tol=1e-12)
                 for o in outcomes),
             f"reported {first['bleu']} vs oracle {oracle_bleu}"),
            ("infer.etp_labels_valid",
             all(len(o["etp_preds"]) == len(encoded)
                 and set(o["etp_preds"]) <= {0, 1, 2} for o in outcomes), ""),
            ("infer.repeats_exactly", len(outcomes) >= 2 and same, ""),
        ]


class CorpusQuality(Workload):
    """`nliexpl filter` on a 3-explanation CSV with a planted share of
    template copies, then `nliexpl bleu` on line-aligned files."""

    name = "corpus-quality"

    def prepare(self):
        s = self.shape
        rows, self.planted = corpus.make_rows(self.seed, 3, s.filter_rows, 3,
                                              planted_share=PLANTED_SHARE)
        corpus.write_csv(self.dir / "corpus.csv", rows)
        cands, refs1, refs2 = corpus.make_bleu_segments(self.seed, s.bleu_segments)
        for name, segments in (("cand", cands), ("ref1", refs1), ("ref2", refs2)):
            corpus.write_lines(self.dir / f"{name}.txt", segments)
        self.segments = (cands, [list(r) for r in zip(refs1, refs2)])

    def setup(self):
        examples, _ = data.load_corpus(self.dir / "corpus.csv", split="all")
        return {e.id: e for e in examples}

    def iteration(self, state, k):
        d = self.dir
        runs = d / "runs"
        report = d / "filter_report.csv"
        filter_out, bleu_out = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(filter_out):
            rc_filter = cli.main(["filter", "--input", str(d / "corpus.csv"),
                                  "--out", str(report),
                                  "--survivors", str(d / "survivors.csv"),
                                  "--out-root", str(runs)])
        filter_s = time.perf_counter() - start
        with contextlib.redirect_stdout(bleu_out):
            rc_bleu = cli.main(["bleu", "--candidates", str(d / "cand.txt"),
                                "--references", str(d / "ref1.txt"),
                                str(d / "ref2.txt"), "--out-root", str(runs)])
        return rc_filter, rc_bleu, filter_s, bleu_out.getvalue()

    def summarize(self, state, raw, wall, spans):
        rc_filter, rc_bleu, filter_s, bleu_text = raw
        n_expl = sum(len(e.explanation_texts) for e in state.values())
        n_seg = self.shape.bleu_segments
        report = self.dir / "filter_report.csv"
        with open(report, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        words = bleu_text.split()
        out = {"items": n_expl, "wall": wall,
               "stages": {"filter.explanations_per_s": (n_expl, filter_s, "explanations/s"),
                          "bleu.segments_per_s": (n_seg, wall - filter_s, "segments/s")},
               "rc": (rc_filter, rc_bleu), "rows": rows,
               "report_sha256": _sha256(report),
               "bleu": words[1] if len(words) > 1 and words[0] == "bleu" else None}
        shutil.rmtree(self.dir / "runs", ignore_errors=True)
        return out

    def checks(self, state, outcomes):
        oracles = load_oracles()
        rows = outcomes[-1]["rows"]
        filtered = {(r["id"], int(r["explanation_index"])): r["filtered"] == "1"
                    for r in rows}
        missed = [slot for slot in self.planted if not filtered.get(slot)]
        planted = sorted(self.planted)
        free = [key for key in filtered if key not in self.planted]
        half = self.shape.distance_sample // 2
        sample = planted[:half] + free[::max(1, len(free) // half)][:half]
        by_slot = {(r["id"], int(r["explanation_index"])): int(r["distance"])
                   for r in rows}
        wrong = []
        for pair_id, k in sample:
            e = state[pair_id]
            expl = quality.normalize(e.explanation_texts[k])
            best = min(oracles.levenshtein_full(expl, quality.normalize(t))
                       for t in quality.instantiate_templates(
                           e.premise_text, e.hypothesis_text, e.label))
            if best != by_slot[(pair_id, k)]:
                wrong.append((pair_id, k, by_slot[(pair_id, k)], best))
        cands, refs = self.segments
        oracle = f"{oracles.brute_force_bleu(cands, refs):.6f}"
        return [
            ("corpus.cli_exit_codes", all(o["rc"] == (0, 0) for o in outcomes),
             str([o["rc"] for o in outcomes])),
            ("corpus.report_complete",
             len(rows) == sum(len(e.explanation_texts) for e in state.values()), ""),
            ("corpus.planted_filtered", not missed, f"missed {missed[:5]}"),
            ("corpus.distances_match_oracle", bool(sample) and not wrong,
             f"{len(sample)} sampled, mismatches {wrong[:3]}"),
            ("corpus.bleu_matches_oracle",
             all(o["bleu"] == oracle for o in outcomes), f"oracle {oracle}"),
            ("corpus.repeats_exactly",
             len(outcomes) >= 2 and len({o["report_sha256"] for o in outcomes}) == 1,
             ""),
        ]


WORKLOADS = {cls.name: cls for cls in (TrainPredExpl, InferExplain, CorpusQuality)}
