"""Command-line entry point.

Subcommands: filter, validate, train, grid, eval, generate, bleu,
repr-export. A command that gets past its input checks creates a run
directory named by timestamp and seed containing a reproducibility
manifest (resolved config, argv, sha256 of every input file, and the
numpy, BLAS and thread settings it ran under); artifacts land in
checkpoints/, reports/, and dumps/ underneath unless an explicit output
path is given. An invocation refused for its input or an output path
leaves nothing.

Exit codes: 0 success, 1 input/validation failure, 2 runtime error
(argparse itself exits 2 on unknown flags).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError
from .config import (ConfigError, apply_override, empty_config, load_config,
                     resolve_path, set_value)
from .data import (ColumnMap, CorpusFormatError, EmbeddingTable, build_vocab,
                   corpus_rows, encode_corpus, load_corpus, load_embeddings,
                   open_text, pad_rows, tokenize)
from .evaluation import (EvaluationError, EvalReport, bleu, evaluate_model,
                         expl_at_k, inter_annotator_bleu, load_annotations,
                         transfer_eval)
from .models import ModelError, load_model, variant_class
from .quality import FILTER_THRESHOLD, filter_example, validate_annotation
from .training import (ALPHA_GRID, DECODER_GRID, TrainConfig, TrainData,
                       TrainingError, check_splits, grid_select, train)

# Commands that run a model: they warn when neither BLAS thread variable
# is set, since an encoder's concurrent directions then compete for cores.
MODEL_COMMANDS = ("train", "grid", "eval", "generate", "repr-export")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

INPUT_ERRORS = (ConfigError, CorpusFormatError, TrainingError, ModelError,
                CheckpointError, EvaluationError, FileNotFoundError)

# The flags that set one config key: (flag, section, key, type, commands
# taking it; None: every command). The parser adds them and
# `_resolved_config` applies them. `grid` sweeps decoder_hidden and alpha
# itself, so only `train` takes --alpha and --decoder.
_TRAINING = ("train", "grid")
RUN_FLAGS = (
    ("--seed", "training", "seed", int, None),
    ("--variant", "model", "variant", str, _TRAINING),
    ("--alpha", "training", "alpha", float, ("train",)),
    ("--decoder", "model", "decoder_hidden", int, ("train",)),
    ("--encoder", "model", "encoder_hidden", int, _TRAINING),
    ("--epochs", "training", "epochs", int, _TRAINING),
    ("--batch-size", "training", "batch_size", int, _TRAINING),
    ("--expl-classifier", "eval", "expl_classifier", str, ("eval",)),
    ("--annotations", "eval", "annotations", str, ("eval",)),
)


def _start_run(args, config: dict, inputs: list[Path]) -> Path:
    """The run directory and its manifest, made once every input has loaded."""
    seed = config["training"]["seed"]
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = Path(args.out_root) / f"{stamp}-seed{seed}"
    suffix = 0
    while run_dir.exists():
        suffix += 1
        run_dir = Path(args.out_root) / f"{stamp}-seed{seed}.{suffix}"
    for sub in ("checkpoints", "reports", "dumps"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    hashed = {}
    for p in map(Path, filter(None, inputs)):
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            with open(f, "rb") as fh:
                hashed[str(f)] = hashlib.file_digest(fh, "sha256").hexdigest()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "version": __version__,
        "command": args.command,
        "argv": args.argv,
        "config": config,
        "inputs": hashed,
        "environment": {   # what float rounding and speed depend on
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count()},
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1),
                                           encoding="utf-8")
    return run_dir


def _check_outputs(args) -> None:
    """Refuses an --out-root under a file, and an --out or --survivors
    that is a directory or whose directory does not exist."""
    root = Path(args.out_root)
    nearest = next(p for p in (root, *root.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"--out-root {root}: {nearest} is not a directory")
    for dest in ("out", "survivors"):
        path = getattr(args, dest, None)
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ConfigError(f"--{dest} {path}: not a file in an existing "
                              "directory")


def _lines(path) -> list[str]:
    """The lines of the UTF-8 text file `path`, without their endings."""
    with open_text(path) as fh:
        return fh.read().splitlines()


def _resolved_config(args) -> dict:
    config = load_config(args.config) if args.config else empty_config()
    for dotted, raw in args.set or []:
        apply_override(config, dotted, raw)
    for _, section, key, _, _ in RUN_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            set_value(config, section, key, value)
    return config


def _colmap(config: dict) -> ColumnMap:
    """Each ColumnMap field from `[data] col_<field>`, where that is set."""
    data = config["data"]
    return ColumnMap(**{f.name: data[f"col_{f.name}"] for f in fields(ColumnMap)
                        if data.get(f"col_{f.name}")})


def _limits(config: dict) -> dict:
    """The [data] truncation limits, as `encode_corpus` keywords."""
    return dict(sentence_limit=config["data"]["sentence_limit"],
                explanation_limit=config["data"]["explanation_limit"])


def _load_bundle(config: dict):
    """Corpora -> vocabulary -> embeddings -> encoded splits; raises
    TrainingError if a split encodes to nothing or the variant needs an
    explanation an example lacks."""
    data_cfg = config["data"]
    colmap = _colmap(config)
    train_path = resolve_path(data_cfg.get("train"))
    valid_path = resolve_path(data_cfg.get("valid"))
    if train_path is None or valid_path is None:
        raise ConfigError("training needs [data] train and valid paths")
    train_ex, _ = load_corpus(train_path, split="train", colmap=colmap)
    valid_ex, _ = load_corpus(valid_path, split="valid", colmap=colmap)
    if not train_ex:
        raise CorpusFormatError(f"{train_path}: no usable training rows")
    vocab = build_vocab([e.explanations[0] for e in train_ex if e.explanations],
                        min_count=data_cfg["min_count"])
    emb_path = resolve_path(data_cfg.get("embeddings"))
    dim = data_cfg["embedding_dim"]
    if emb_path is not None:
        table = load_embeddings(emb_path, vocab, dim=dim)
    else:
        seed = config["training"]["seed"]
        table = EmbeddingTable.random(vocab, dim,
                                      np.random.default_rng([seed, 99]))
    limits = _limits(config)
    bundle = TrainData(train=encode_corpus(train_ex, vocab, **limits),
                       valid=encode_corpus(valid_ex, vocab, **limits),
                       vocab=vocab, table=table)
    check_splits(_variant(config), bundle)
    return bundle, valid_ex, [train_path, valid_path] + (
        [emb_path] if emb_path else [])


def _variant(config: dict) -> str:
    if not config["model"].get("variant"):
        raise ConfigError("[model] variant is required")
    return config["model"]["variant"]


def _train_config(config: dict, **overrides) -> TrainConfig:
    """The [model] and [training] settings, then `overrides`, as one run."""
    _variant(config)
    return TrainConfig(**{**config["model"], **config["training"], **overrides},
                       embed_dim=config["data"]["embedding_dim"])


# ---------------------------------------------------------------------------
# Commands


def cmd_filter(args, config: dict) -> int:
    path = resolve_path(args.input)
    colmap = _colmap(config)
    examples, skipped = load_corpus(path, split="all", colmap=colmap)
    run_dir = _start_run(args, config, [path])
    report_path = Path(args.out) if args.out else run_dir / "reports" / "filter_report.csv"
    survivors_path = (Path(args.survivors) if args.survivors
                      else run_dir / "reports" / "survivors.csv")
    survivor_ids = set()
    with open(report_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "explanation_index", "filtered",
                         "nearest_template", "distance", "violation_codes"])
        for e in examples:
            rows = filter_example(e, threshold=args.threshold)
            codes = ";".join(validate_annotation(e).codes())
            if not any(r.uninformative for r in rows):
                survivor_ids.add(e.id)
            for k, r in enumerate(rows):
                writer.writerow([e.id, k, int(r.uninformative),
                                 r.nearest_template, r.distance, codes])
    with corpus_rows(path, colmap) as (header, records), \
            open(survivors_path, "w", newline="", encoding="utf-8") as dst:
        writer = csv.DictWriter(dst, fieldnames=header)
        writer.writeheader()
        writer.writerows(cells for _, example_id, cells in records
                         if example_id in survivor_ids)
    print(f"filtered report: {report_path}")
    print(f"survivors: {survivors_path} ({len(survivor_ids)} of "
          f"{len(examples)} examples; {skipped} rows skipped)")
    return 0


def cmd_validate(args, config: dict) -> int:
    path = resolve_path(args.input)
    examples, skipped = load_corpus(path, split="all", colmap=_colmap(config))
    run_dir = _start_run(args, config, [path])
    out_path = Path(args.out) if args.out else run_dir / "reports" / "validation.csv"
    n_failed = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "passed", "violation_codes", "unverifiable",
                         "messages"])
        for e in examples:
            report = validate_annotation(e)
            n_failed += 0 if report.passed else 1
            writer.writerow([report.example_id, int(report.passed),
                             ";".join(report.codes()),
                             ";".join(report.unverifiable),
                             " | ".join(v.message for v in report.violations)])
    print(f"validation report: {out_path} ({n_failed} failing of "
          f"{len(examples)}; {skipped} rows skipped)")
    return 0


def cmd_train(args, config: dict) -> int:
    cfg = _train_config(config)
    bundle, valid_ex, inputs = _load_bundle(config)
    run_dir = _start_run(args, config, inputs)
    record = train(cfg, bundle, run_dir)
    print(f"run dir: {run_dir}")
    for entry in record.epochs:
        metrics = " ".join(f"{k}={v:.4f}" for k, v in entry.items()
                           if k != "epoch")
        print(f"epoch {entry['epoch']}: {metrics}")
    if record.aborted:
        print(f"aborted: {record.note}", file=sys.stderr)
        return 2
    model = load_model(record.checkpoint_path)
    report = evaluate_model(model, bundle.valid, valid_ex, split="valid",
                            batch_size=cfg.batch_size)
    (run_dir / "reports" / "valid_report.json").write_text(report.to_json())
    print(report.table())
    return 0


def _grid_list(flag: str, raw: str, kind) -> list:
    try:
        return [kind(x) for x in raw.split(",")]
    except ValueError:
        raise ConfigError(f"bad value for {flag}: {raw!r}") from None


def cmd_grid(args, config: dict) -> int:
    cls = variant_class(_variant(config))
    if cls.decodes is None:   # every decoder size would train the same run
        if args.decoders:
            raise ConfigError(f"--decoders: {cls.variant} builds no decoder")
        decoders = [config["model"]["decoder_hidden"]]
    elif args.decoders:
        decoders = _grid_list("--decoders", args.decoders, int)
    else:
        decoders = list(DECODER_GRID)
    alphas = [config["training"].get("alpha")]
    if args.alphas:
        alphas = _grid_list("--alphas", args.alphas, float)
    elif cls.takes_alpha:
        alphas = list(ALPHA_GRID)
    configs = [_train_config(config, decoder_hidden=dec, alpha=alpha)
               for dec in decoders for alpha in alphas]
    bundle, _, inputs = _load_bundle(config)
    run_dir = _start_run(args, config, inputs)
    best, records = grid_select(configs, bundle, run_dir / "grid")
    summary = {
        "criterion": best.criterion,
        "best": {"value": best.best_value, "epoch": best.best_epoch,
                 "checkpoint": best.checkpoint_path,
                 "config": best.config},
        "runs": [{"config": r.config, "best_value": r.best_value,
                  "aborted": r.aborted} for r in records],
    }
    (run_dir / "reports" / "grid.json").write_text(json.dumps(summary, indent=1))
    print(f"grid summary: {run_dir / 'reports' / 'grid.json'}")
    if best.checkpoint_path is None:
        # a run keeps a checkpoint unless it aborts in its first epoch
        notes = "; ".join(f"grid{i:02d}: {r.note}" for i, r in enumerate(records))
        print(f"aborted: no run kept a checkpoint ({notes})", file=sys.stderr)
        return 2
    print(f"best {best.criterion}={best.best_value} "
          f"decoder={best.config['decoder_hidden']} alpha={best.config['alpha']}")
    return 0


def _load_eval_inputs(args, config: dict):
    """The checkpoint, [eval] expl_classifier and corpus of `eval` and
    `generate`, loaded: (model, classifier or None, examples, encoded,
    skipped rows, [corpus, checkpoint, classifier or None])."""
    corpus = resolve_path(args.corpus)
    clf_path = config["eval"].get("expl_classifier")
    model = load_model(args.checkpoint)
    expl_clf = load_model(clf_path) if clf_path else None
    examples, skipped = load_corpus(corpus, split=args.split,
                                    colmap=_colmap(config))
    encoded = encode_corpus(examples, model.vocab, **_limits(config))
    inputs = [corpus, args.checkpoint, clf_path]
    return model, expl_clf, examples, encoded, skipped, inputs


def cmd_eval(args, config: dict) -> int:
    model, expl_clf, examples, encoded, skipped, inputs = _load_eval_inputs(args, config)
    ann_path = resolve_path(config["eval"].get("annotations"))
    records = load_annotations(ann_path) if ann_path else None
    counts = {"skipped_rows": skipped}
    if args.inter_annotator:
        try:
            score, used, unused = inter_annotator_bleu(examples)
        except EvaluationError as err:
            raise EvaluationError(f"{inputs[0]}: {err}") from None
        counts.update(inter_annotator_bleu_x100=round(100 * score, 2),
                      inter_annotator_examples=used,
                      inter_annotator_skipped=unused)
    report = evaluate_model(model, encoded, examples, split=args.split,
                            batch_size=config["eval"]["batch_size"],
                            expl_classifier=expl_clf)
    report.counts.update(counts)
    if ann_path:
        report.expl_at_k = expl_at_k(records, config["eval"]["expl_at_k_mode"])
        report.provenance["expl_at_k_mode"] = config["eval"]["expl_at_k_mode"]
    run_dir = _start_run(args, config, [*inputs, ann_path])
    out_path = run_dir / "reports" / "eval_report.json"
    out_path.write_text(report.to_json())
    print(report.table())
    print(f"report: {out_path}")
    return 0


def cmd_generate(args, config: dict) -> int:
    model, expl_clf, examples, encoded, skipped, inputs = _load_eval_inputs(args, config)
    report, dumps = transfer_eval(model, encoded, examples, split=args.split,
                                  batch_size=config["eval"]["batch_size"],
                                  expl_classifier=expl_clf)
    report.counts["skipped_rows"] = skipped
    sha = report.provenance.pop("vocab_sha256")   # it follows the corpus
    report.provenance.update(corpus=str(inputs[0]), vocab_sha256=sha)
    run_dir = _start_run(args, config, inputs)
    out_path = Path(args.out) if args.out else run_dir / "dumps" / "generated.csv"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, ["id", "premise", "hypothesis",
                                     "predicted_label", "explanation"])
        writer.writeheader()
        writer.writerows(dumps)
    (run_dir / "reports" / "generate_report.json").write_text(report.to_json())
    print(f"generated explanations: {out_path} ({len(dumps)} rows)")
    return 0


def cmd_bleu(args, config: dict) -> int:
    cand_path = resolve_path(args.candidates)
    ref_paths = [resolve_path(p) for p in args.references]
    cands = [line.split() for line in _lines(cand_path)]
    if not cands:
        raise EvaluationError(f"{cand_path}: no candidate line")
    ref_files = [_lines(p) for p in ref_paths]
    if any(len(lines) != len(cands) for lines in ref_files):
        counts = ", ".join(f"{p} {len(lines)}" for p, lines in
                           zip([cand_path, *ref_paths], [cands, *ref_files]))
        raise EvaluationError("reference files must align with candidates; "
                              f"lines per file: {counts}")
    refs = [[line.split() for line in lines] for lines in zip(*ref_files)]
    blank = [i for i, r in enumerate(refs, start=1) if not any(r)]
    if blank:
        raise EvaluationError(f"line {blank[0]} is blank in every reference "
                              f"file: {', '.join(map(str, ref_paths))}")
    score = bleu(cands, refs)
    _start_run(args, config, [cand_path] + ref_paths)
    print(f"bleu {score:.6f} (x100: {100 * score:.2f})")
    return 0


def cmd_repr_export(args, config: dict) -> int:
    sent_path = resolve_path(args.sentences)
    model = load_model(args.checkpoint)
    encoder = getattr(model, f"{model.sentences[0]}_encoder")
    sentences = [tokenize(line) for line in _lines(sent_path) if line.strip()]
    if not sentences:
        raise EvaluationError(f"{sent_path}: no sentences to encode")
    size = config["eval"]["batch_size"]
    chunks = []
    for start in range(0, len(sentences), size):
        ids, lengths = pad_rows([model.vocab.encode(tokens)
                                 for tokens in sentences[start:start + size]])
        chunks.append(encoder.encode(model.embedding, ids, lengths, False)[0].data)
    matrix = np.concatenate(chunks)
    run_dir = _start_run(args, config, [sent_path, Path(args.checkpoint)])
    out_path = Path(args.out) if args.out else run_dir / "dumps" / "representations.txt"
    header = f"sentence representations rows={matrix.shape[0]} cols={matrix.shape[1]}"
    np.savetxt(out_path, matrix, header=header)
    print(f"representations: {out_path} shape={matrix.shape}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_command(sub, name: str, fn, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="sectioned key=value config file")
    p.add_argument("--set", nargs=2, action="append", metavar=("KEY", "VALUE"),
                   help="override a config entry, e.g. --set training.lr 0.05")
    p.add_argument("--out-root", default="runs",
                   help="directory that receives run directories")
    for flag, _, key, kind, commands in RUN_FLAGS:
        if commands is None or name in commands:
            p.add_argument(flag, type=kind, dest=key)
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nliexpl",
        description="NLI with natural language explanations: data quality, "
                    "training, evaluation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "filter", cmd_filter,
                     "template-filter uninformative explanations")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="report CSV path")
    p.add_argument("--survivors", help="survivors CSV path")
    p.add_argument("--threshold", type=int, default=FILTER_THRESHOLD)

    p = _add_command(sub, "validate", cmd_validate, "check annotation constraints")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="report CSV path")

    _add_command(sub, "train", cmd_train, "train one configuration")

    p = _add_command(sub, "grid", cmd_grid,
                     "train a hyperparameter grid and select")
    p.add_argument("--decoders", help="comma-separated decoder sizes "
                   "(default: the canonical 512,1024,2048,4096 sweep); a "
                   "variant that builds no decoder refuses it and trains "
                   "[model] decoder_hidden alone")
    p.add_argument("--alphas", help="comma-separated alpha values (default "
                   "for weighted variants: 0.1..0.9 step 0.1)")

    p = _add_command(sub, "eval", cmd_eval, "evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--inter-annotator", action="store_true",
                   help="also report inter-annotator BLEU")

    p = _add_command(sub, "generate", cmd_generate, "dump generated explanations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", help="dump CSV path")

    p = _add_command(sub, "bleu", cmd_bleu,
                     "corpus BLEU of line-aligned token files")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", nargs="+", required=True)

    p = _add_command(sub, "repr-export", cmd_repr_export,
                     "export sentence representations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--out", help="matrix file path")
    return parser


def main(argv=None) -> int:
    """Runs the command `argv` (the process's arguments when None, as the
    console script calls it); returns its exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    args.argv = argv   # what the manifest records
    if args.command in MODEL_COMMANDS and not any(map(os.environ.get,
                                                      BLAS_THREAD_VARS)):
        print("warning: neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS is "
              "set; see 'BLAS threads' in README.md", file=sys.stderr)
    try:
        _check_outputs(args)
        return args.fn(args, _resolved_config(args))
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:   # anything unexpected
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
