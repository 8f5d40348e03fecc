"""Every statement inside a function of `nliexpl` runs, and every branch
goes both ways, on some program path.

A fixed script of program invocations, the traffic, runs under a tracer
on this thread and on the worker thread (`autodiff._worker`): every CLI
command at toy scale, with each feature that a corpus, a config, an
environment variable or a flag can switch on, refused invocations that
reach their message builders, and one iteration of each of perfbench's
tiny workloads. The one traced run feeds two guards.

Lines: a statement inside a function body of `src/nliexpl` that never
ran fails, unless it is a `raise`, sits in an `except` handler, compiles
to no bytecode (a docstring, `global`) or is named in ALLOWED with its
reason. Module and class bodies run at import and are not counted.

Branches: the tracer also records, from opcode events, where each
conditional jump went. A jump that ran and always went the same way
fails, unless its untaken side starts a `raise` or an `except` handler,
either side raises before it leaves the jump's line (the compiler's
re-raise at a `with` exit or an unmatched `except`), it lies in a raise
or a handler itself, its untaken side's line never ran (the line guard
names that line), or ALLOWED names its line. Jumps are found through
their `dis` targets; the copies the compiler makes of one test (a
`while` header's, at the loop's foot) share a line and both
destinations and count as one. This sees what the line guard cannot: a
condition whose other side runs on another path, and a branch inside
one expression.

A new path joins the script when a corpus, config, flag or environment
can reach it, or ALLOWED with its reason when only a caller outside the
program can; a path nothing reaches leaves `src/`. An ALLOWED entry that
names neither an unrun statement nor a one-way branch fails the test too.

The same script, run untraced under PINNED_ENV, must print, warn, exit
and write files as `traffic_digests.py` recorded them.
"""

import ast
import contextlib
import csv
import dis
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import types
import warnings
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import nliexpl
from nliexpl import autodiff as ad
from nliexpl import cli
from nliexpl.data import BOS, RESERVED
from synth import make_examples, write_corpus_csv
from variant_digests import PINNED_ENV

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(nliexpl.__file__).resolve().parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# "module.qualname" (every statement of the function), "module.qualname:
# first line of the statement" or "module.qualname: line of a branch" ->
# why no program path runs it, or takes the branch's other side
ALLOWED = {
    "autodiff.Tensor.__init__: data = np.ascontiguousarray(data)":
        "arrays from outside the package; every op makes contiguous ones",
    "autodiff.Tensor.__repr__": "debugging",
    "autodiff.backward: if not any(out is loss for out, _, _ in records):":
        "a loss that its tape did not make, which the raise after it "
        "refuses: the program always passes the tape that made the loss",
    "autodiff.backward: t.grad = None":
        "an input that no record produced and that is not a parameter: "
        "the models never build one; test_autodiff.py does",
    "autodiff._unproduced: if not t.is_param and t not in produced}":
        "as `backward: t.grad = None`",
    "autodiff._route: if out.grad is None and other.grad is None:":
        "as `_route: return`",
    "autodiff._route: return":
        "a record whose outputs have no gradient: the models never build "
        "one; test_autodiff.py does",
    "autodiff._route: continue":
        "a None gradient (a record's input that takes none): the models "
        "never build one; test_autodiff.py does",
    "autodiff._route: gi = gi()":
        "a non-parameter's deferred gradient: the models never build one; "
        "test_autodiff.py does",
    "autodiff._matmul: and a.dtype == b.dtype == np.float32:":
        "a float64 product: the models compute in float32; the "
        "finite-difference tests in float64",
    "autodiff._check_lstm: P = len(a.keys.data) if a.keys.data.ndim == 2 else 0":
        "attention keys that are not 2-D, which the raise after it refuses: "
        "the attention decoder reads the encoders' (P, 2H) states",
    "autodiff._check_lstm: if s is not None and s.shape != (B, H)]":
        "a state or mask of another shape, which the raise after it names: "
        "the decoders build every one (B, H)",
    "autodiff._chunk_stops: return stops + [len(counts)] if len(counts) else []":
        "a batch whose rows all have no step: a decoder row holds <bos> at "
        "least, and the encoders refuse an empty row",
    "autodiff.bilstm_layer._bw: None if pooled.grad is None else pooled.grad[order])":
        "an encoder whose pooled vector takes no gradient: every variant's "
        "loss reads it; test_autodiff.py reads the states alone",
    "autodiff.sgd_step: live = [(name, p) for name, p in params.items() if p.grad is not None]":
        "a parameter without a gradient: every variant's loss reaches all "
        "of its parameters; TestSgd leaves some out",
    "autodiff.sgd_step: bad = [name for name, p in live if not np.isfinite(p.grad).all()]":
        "a non-finite gradient under a finite loss: no learning rate on the "
        "script's corpora gets one (runs at 1e2-3e38 either train or stop "
        "at a non-finite loss first); TestSgd feeds one",
    "autodiff._OpenTapes.__init__": "runs at import, and on another thread's "
                                    "first use: the worker uses none",
    "autodiff._new_worker": "runs at import and in a forked child "
                            "(test_runs_in_a_forked_child)",
    "cli._check_outputs: nearest = next(p for p in (root, *root.parents) if p.exists())":
        "a path with no existing ancestor: the last one, / or ., exists",
    "cli.cmd_grid: decoders = list(DECODER_GRID)":
        "the default sweep trains decoders 512 to 4096 wide, hundreds of MB "
        "each at any corpus size: too large for the script",
    "checkpoint._map_blob: return np.empty(0, _DTYPE)":
        "a zero-byte params.bin from outside; the program saves none",
    "data._undecodable_line: for lineno, raw in enumerate(fh, start=1):":
        "as the return after the loop, below",
    "data._undecodable_line: return \"?\"":
        "a file that changed between its failed decode and this read: every "
        "UTF-8 error lies inside one line",
    "models.BaseModel.__init_subclass__": "runs at import, as each variant "
                                          "class is made",
}


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode in `code` and the code it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path):
    """(qualified function name, line span, first line) of each statement
    inside a function body of `path` that holds bytecode, is not a raise
    and is not in an except handler. A compound statement's span is its
    header."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    has_code = _code_lines(compile(source, str(path), "exec"))
    found = []

    def add(where, first, last):
        span = range(first, last + 1)
        if has_code.intersection(span):
            line = re.sub(r"\s+# .*", "", text[first - 1]).strip()
            found.append((where, span, line))

    def visit(body, scope, in_function):
        for stmt in body:
            where = ".".join([path.stem, *scope])
            if isinstance(stmt, ast.Raise):
                continue
            inner = [getattr(stmt, k, []) for k in ("body", "orelse", "finalbody")]
            if not any(inner):
                if in_function:
                    add(where, stmt.lineno, stmt.end_lineno)
                continue
            if in_function:   # a header: decorators to the body's first line
                first = min([stmt.lineno, *(d.lineno for d in
                                            getattr(stmt, "decorator_list", []))])
                add(where, first, max(first, stmt.body[0].lineno - 1))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(stmt.body, [*scope, stmt.name],
                      not isinstance(stmt, ast.ClassDef) or in_function)
                continue
            for block in inner:   # except handlers are left out
                visit(block, scope, in_function)

    visit(ast.parse(source).body, [], False)
    return found


# opcodes with a jump target (`dis.hasjrel`, `dis.hasjabs`) that always
# take it; every other one is a branch. Python 3.12 renames the
# conditional jumps, not these.
_JUMPS = set(dis.hasjrel + dis.hasjabs)
_ALWAYS = {op for name, op in dis.opmap.items()
           if name.startswith("JUMP") and "_IF_" not in name}
_RAISES = {dis.opmap["RAISE_VARARGS"], dis.opmap["RERAISE"]}


@functools.cache
def _layout(code: types.CodeType):
    """(branches, lines, side) of `code`: offset -> (target, next offset)
    of each branch, offset -> line of each instruction, and side(offset,
    line), where straight-line code from `offset` leaves `line`: "raise"
    if it raises first, else the line of the first branch or of the first
    instruction on another line."""
    ins = list(dis.get_instructions(code))
    after = {a.offset: b.offset for a, b in zip(ins, ins[1:])}
    by_offset = {i.offset: i for i in ins}
    branches = {i.offset: (i.argval, after[i.offset]) for i in ins
                if i.opcode in _JUMPS - _ALWAYS and i.offset in after}
    lines = {offset: line for start, end, line in code.co_lines()
             for offset in range(start, end, 2)}

    def side(offset, line):
        seen = set()
        while offset in by_offset and offset not in seen:
            seen.add(offset)
            if by_offset[offset].opcode in _RAISES:
                return "raise"
            if offset in branches or lines[offset] not in (line, None):
                return lines[offset]
            i = by_offset[offset]
            offset = i.argval if i.opcode in _ALWAYS else after.get(offset)
        return line   # it returned

    return branches, lines, side


@contextlib.contextmanager
def _traced(ran: set, codes: dict):
    """Records (file, line) of every line that `nliexpl` runs in `ran`,
    and in `codes`, id(code) -> (code, its branches, (branch offset,
    next offset) of every branch taken), on this thread and on a worker
    started for the purpose; restores the worker and both trace hooks
    afterwards."""
    files = {str(p) for p in SRC.glob("*.py")}

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        branches, taken = (codes.get(id(code)) or codes.setdefault(
            id(code), (code, _layout(code)[0], set())))[1:]
        frame.f_trace_opcodes = True
        last = -1

        def local(frame, event, arg):
            nonlocal last
            if event == "opcode":
                if last in branches:
                    taken.add((last, frame.f_lasti))
                last = frame.f_lasti
            elif event == "line":
                ran.add((code.co_filename, frame.f_lineno))
            return local
        return local

    worker, hooks = ad._worker, (sys.gettrace(), threading.gettrace())
    threading.settrace(hook)   # for the threads started from here on
    ad._worker = ThreadPoolExecutor(1, thread_name_prefix="nliexpl-second-core")
    sys.settrace(hook)
    try:
        yield
    finally:
        sys.settrace(hooks[0])
        threading.settrace(hooks[1])
        ad._worker.shutdown(wait=True)
        ad._worker = worker


def _one_way(codes: dict):
    """(file, line, untaken line) of each branch that ran and always went
    the same way, where neither side raises before it leaves the branch's
    line; copies of one test (same line, same two destinations) count as
    one branch."""
    for code, branches, taken in codes.values():
        _, lines, side = _layout(code)
        went = defaultdict(set)
        for at, nxt in taken:
            both = frozenset(branches[at])
            if nxt in both:   # not an exception raised at a FOR_ITER
                went[lines[at], both].add(nxt)
        for (line, both), dests in went.items():
            if len(both) == 2 and len(dests) == 1:
                (untaken,) = both - dests
                sides = side(untaken, line), side(next(iter(dests)), line)
                if "raise" not in sides:
                    yield code.co_filename, line, sides[0]


def _run(argv, code=0):
    """`nliexpl argv`, which must exit with `code`: the traced run's
    runner. `traffic_digests.Recorder` is the recorded run's. Both call
    `cli.main()` as the console script does, on sys.argv; perfbench's
    corpus-quality workload passes main its argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "argv", ["nliexpl", *map(str, argv)]):
        got = cli.main()
    assert got == code, (argv, out.getvalue(), err.getvalue())


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _annotation_corpus(path):
    """The rows of `fixtures/annotation_cases.json`, with highlights,
    plus an id-less row, one whose label is skipped and one whose
    highlight indices lie out of range."""
    def cell(v):
        return "" if v is None else "{" + ",".join(map(str, v)) + "}"

    cases = json.loads((FIXTURES / "annotation_cases.json").read_text())
    rows = [[c["id"], c["label"], c["premise"], c["hypothesis"], c["explanation"],
             cell(c["premise_highlights"]), cell(c["hypothesis_highlights"])]
            for c in cases]
    first = cases[0]
    rows.append(["", first["label"], first["premise"], first["hypothesis"],
                 f"{first['premise']} implies {first['hypothesis']}", "", ""])
    rows.append(["skipped", "-", first["premise"], first["hypothesis"], "", "", ""])
    rows.append(["far", first["label"], first["premise"], first["hypothesis"],
                 f"{first['premise']} so {first['hypothesis']}", "{-1,99}", ""])
    _write_csv(path, ["pairID", "gold_label", "Sentence1", "Sentence2",
                      "Explanation_1", "Sentence1_Highlighted_1",
                      "Sentence2_Highlighted_1"], rows)


def _config(path, **sections):
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()), encoding="utf-8")
    return path


def _traffic(d: Path, monkeypatch, run):
    """The script: every command, each feature switched on, each run
    through `run(argv, code)`. Its outputs are recorded by invocation
    order (`traffic_digests.py`), so a new invocation goes at the end."""
    runs = d / "runs"
    data = d / "data"
    data.mkdir(parents=True)
    monkeypatch.setenv("NLIEXPL_DATA_ROOT", str(data))   # relative paths
    # a BLAS thread variable set, as under PINNED_ENV, whatever the caller's
    # environment: the model commands warn only once both are unset below
    monkeypatch.setenv(cli.BLAS_THREAD_VARS[0], "1")

    # corpora: 70 explained train rows (batches of 64 and 6) with an empty
    # premise; a valid split with three explanations but for one row, and
    # an id-less row; a train split with a row that has no explanation
    train = make_examples(70, seed=0)
    train[5].premise_text = ""
    write_corpus_csv(data / "train.csv", train)
    valid = make_examples(9, seed=50, n_explanations=3)
    valid[0].id = ""
    valid[1].explanation_texts = valid[1].explanation_texts[:2]
    write_corpus_csv(data / "valid.csv", valid)
    gap = make_examples(12, seed=1)
    gap[3].explanation_texts = []
    write_corpus_csv(data / "gap.csv", gap)
    words = sorted({w for e in train for w in e.premise_text.split()})
    (data / "emb.txt").write_text(
        "".join(f"{w} {' '.join(['0.25'] * 6)}\n" for w in words)
        + "\nnotaword " + " ".join(["0.5"] * 6) + "\n", encoding="utf-8")

    _annotation_corpus(d / "cases.csv")
    run(["filter", "--input", d / "cases.csv", "--out-root", runs])
    run(["validate", "--input", d / "cases.csv", "--out-root", runs])
    run(["validate", "--input", d / "cases.csv", "--out", d / "validation.csv",
         "--out-root", runs])

    # every variant; a batch of 64 rows and a classifier 128 wide split
    # products over both threads, and a decoder's 64 explanations make
    # more than one input-projection chunk
    base = dict(data=dict(train="train.csv", valid="valid.csv",
                          embeddings="emb.txt", embedding_dim=6, min_count=1,
                          sentence_limit=30, col_explanations=
                          "Explanation_1, Explanation_2, Explanation_3,"),
                model=dict(encoder_hidden=4, decoder_hidden=4,
                           classifier_width=128, max_decode_len=5),
                training=dict(epochs=1, batch_size=64, seed=3, dropout=0.5),
                eval=dict(batch_size=8))
    cfg = _config(d / "base.ini", **base)
    ckpt = {}
    for variant in ("bilstm-max", "hyp-to-label", "hyp-to-expl", "pred-expl",
                    "expl-pred-seq2seq", "expl-pred-att", "expl-to-label",
                    "autoenc"):
        extra = {"hyp-to-expl": ["--epochs", "2"],   # the best checkpoint replaced
                 "pred-expl": ["--alpha", "0.5", "--set", "training.clip_norm", "1"],
                 "autoenc": ["--alpha", "0.5"]}.get(variant, [])
        root = runs / variant
        run(["train", "--config", cfg, "--variant", variant, *extra,
             "--out-root", root])
        (run_dir,) = root.iterdir()
        ckpt[variant] = run_dir / "checkpoints" / "best"

    # random embeddings and a train split with an example that has no
    # explanation, which only a variant that needs none may train on; then
    # a grid over --alphas, one over the default decoders of a variant that
    # takes no alpha (and builds no decoder), a diverging one over the
    # default alphas, and a diverging train whose probabilities clamp
    gap_cfg = _config(d / "gap.ini", **{
        **base, "data": {**base["data"], "embeddings": "", "train": "gap.csv"}})
    run(["train", "--config", gap_cfg, "--variant", "bilstm-max",
         "--out-root", runs])
    run(["train", "--config", gap_cfg, "--variant", "pred-expl", "--alpha",
         "0.5", "--out-root", runs], code=1)
    run(["grid", "--config", cfg, "--variant", "pred-expl", "--decoders", "4",
         "--alphas", "0.5", "--out-root", runs])
    run(["grid", "--config", cfg, "--variant", "bilstm-max", "--out-root", runs])
    run(["grid", "--config", cfg, "--variant", "pred-expl", "--decoders", "4",
         "--set", "training.lr", "1e30", "--out-root", runs], code=2)
    run(["train", "--config", cfg, "--variant", "expl-pred-seq2seq",
         "--set", "training.lr", "1e30", "--out-root", runs], code=2)

    # evaluation: annotations in both modes, ones that leave expl@k
    # undefined, and none; a corpus with six examples that have no
    # explanation, which a model that reads them refuses
    valid_csv = data / "valid.csv"
    ann, none_correct = d / "ann.csv", d / "none.csv"
    _write_csv(ann, ["id", "predicted_label_correct", "k", "n"],
               [["a", "1", "1", "2"], ["b", "yes", "1", "1"], ["c", "0", "0", "1"]])
    _write_csv(none_correct, ["id", "predicted_label_correct", "k", "n"],
               [["a", "no", "1", "2"]])
    for mode in ("partial", "strict"):
        run(["eval", "--checkpoint", ckpt["pred-expl"], "--corpus", valid_csv,
             "--inter-annotator", "--annotations", ann,
             "--set", "eval.expl_at_k_mode", mode, "--out-root", runs])
    run(["eval", "--checkpoint", ckpt["expl-pred-att"], "--corpus", valid_csv,
         "--expl-classifier", ckpt["expl-to-label"],
         "--annotations", none_correct, "--out-root", runs])
    run(["eval", "--checkpoint", ckpt["bilstm-max"], "--corpus", valid_csv,
         "--out-root", runs])
    bare = make_examples(8, seed=2)
    for e in bare[1:7]:
        e.explanation_texts = []
    write_corpus_csv(d / "bare.csv", bare)
    run(["eval", "--checkpoint", ckpt["expl-to-label"], "--corpus",
         d / "bare.csv", "--out-root", runs], code=1)

    # generation: labelled by explain-then-predict, unlabelled, and by the
    # model's own classifier
    run(["generate", "--checkpoint", ckpt["expl-pred-seq2seq"], "--corpus",
         valid_csv, "--set", "eval.expl_classifier", ckpt["expl-to-label"],
         "--out-root", runs])
    run(["generate", "--checkpoint", ckpt["expl-pred-att"], "--corpus",
         valid_csv, "--out", d / "generated.csv", "--out-root", runs])
    run(["generate", "--checkpoint", ckpt["bilstm-max"], "--corpus",
         data / "train.csv", "--out-root", runs])
    (d / "cand.txt").write_text("a dog runs\nthe cat sits\n")
    (d / "ref.txt").write_text("a dog runs fast\nthe cat sits down\n")
    run(["bleu", "--candidates", d / "cand.txt", "--references", d / "ref.txt",
         "--out-root", runs])

    # refused input that reaches a message builder
    (d / "bad.txt").write_bytes(b"a dog\n\xff runs\n")
    run(["bleu", "--candidates", d / "bad.txt", "--references", d / "ref.txt",
         "--out-root", runs], code=1)
    (d / "short.txt").write_text("a dog runs\n")
    run(["bleu", "--candidates", d / "short.txt", "--references", d / "ref.txt",
         "--out-root", runs], code=1)
    (d / "blank.txt").write_text("a dog runs fast\n \n")
    run(["bleu", "--candidates", d / "cand.txt", "--references", d / "blank.txt",
         d / "blank.txt", "--out-root", runs], code=1)

    # a model command with neither BLAS thread variable set (the warning),
    # then with the worker held busy: every task it hands the worker runs
    # on this thread instead (`_Deferred.steal`)
    (d / "sentences.txt").write_text("a dog runs\n\na cat sits in the park\n")
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    run(["repr-export", "--checkpoint", ckpt["pred-expl"], "--sentences",
         d / "sentences.txt", "--out", d / "repr.txt", "--out-root", runs])
    release = threading.Event()
    busy = ad._worker.submit(release.wait, 60)
    try:
        run(["repr-export", "--checkpoint", ckpt["pred-expl"], "--sentences",
             d / "sentences.txt", "--out-root", runs])
        assert not busy.done()   # the command never waited for the worker
    finally:
        release.set()
        busy.result(timeout=60)

    # with no data root, so that every path is absolute: a train whose
    # embeddings give a reserved token a line and whose corpus has a label
    # word in two explanations, a word in one and an empty hypothesis, with
    # min_count 2, no dropout and lr 0, so that its second epoch does not
    # improve on the first; an eval of an explaining model on a corpus that
    # has no explanation (no perplexity, no BLEU)
    monkeypatch.delenv("NLIEXPL_DATA_ROOT")
    (data / "reserved.txt").write_text(
        (data / "emb.txt").read_text(encoding="utf-8")
        + "<unk> " + " ".join(["0.5"] * 6) + "\n", encoding="utf-8")
    reserved = make_examples(70, seed=0)
    for e in reserved[:2]:
        e.explanation_texts[0] += " neutral"
    reserved[0].explanation_texts[0] += " zebra"
    reserved[6].hypothesis_text = ""
    write_corpus_csv(data / "reserved.csv", reserved)
    flat = _config(d / "flat.ini", **{
        **base, "data": {**base["data"], "train": data / "reserved.csv",
                         "valid": valid_csv, "embeddings": data / "reserved.txt",
                         "min_count": 2},
        "training": {**base["training"], "epochs": 2, "lr": 0, "dropout": 0}})
    run(["train", "--config", flat, "--variant", "pred-expl", "--alpha", "0.5",
         "--out-root", runs])
    unexplained = make_examples(6, seed=3)
    for e in unexplained:
        e.explanation_texts = []
    write_corpus_csv(d / "unexplained.csv", unexplained)
    run(["eval", "--checkpoint", ckpt["pred-expl"], "--corpus",
         d / "unexplained.csv", "--out-root", runs])

    # validation with one highlight column for three explanations; a
    # reference file blank on a line that another one fills; a generator
    # whose output bias makes it emit only <bos>, from a checkpoint
    # directory that also holds a subdirectory
    hl = _config(d / "hl.ini", data={
        "col_premise_highlights": "Sentence1_Highlighted_1",
        "col_hypothesis_highlights": "Sentence2_Highlighted_1"})
    run(["validate", "--config", hl, "--input", valid_csv, "--out-root", runs])
    run(["bleu", "--candidates", d / "cand.txt", "--references", d / "ref.txt",
         d / "blank.txt", "--out-root", runs])
    bos = shutil.copytree(ckpt["expl-pred-seq2seq"], d / "bos")
    (bos / "notes").mkdir()
    (bos / "notes" / "readme.txt").write_text("emits <bos> only\n")
    manifest = json.loads((bos / "manifest.json").read_text(encoding="utf-8"))
    (entry,) = [t for t in manifest["tensors"] if t["name"] == "decoder.out.b"]
    blob = np.memmap(bos / "params.bin", dtype="<f4", mode="r+")
    blob[entry["offset"] // 4 + RESERVED.index(BOS)] = 1e4
    blob.flush()
    del blob
    run(["generate", "--checkpoint", bos, "--corpus", valid_csv,
         "--out-root", runs])

    # refused: an empty corpus file; annotations whose flag column comes
    # last, on a row that stops before it (fewer cells than the header);
    # checkpoints whose manifest gives
    # a tensor's offset as a string and as a boolean; a model size and an
    # epoch count below 1
    (d / "empty.csv").write_text("")
    run(["validate", "--input", d / "empty.csv", "--out-root", runs], code=1)
    _write_csv(d / "flagless.csv", ["id", "k", "n", "predicted_label_correct"],
               [["a", "1", "2"]])
    run(["eval", "--checkpoint", ckpt["bilstm-max"], "--corpus", valid_csv,
         "--annotations", d / "flagless.csv", "--out-root", runs], code=1)
    for name, offset in (("text", "0"), ("flag", False)):
        bad = shutil.copytree(ckpt["bilstm-max"], d / name)
        manifest = json.loads((bad / "manifest.json").read_text(encoding="utf-8"))
        manifest["tensors"][0]["offset"] = offset
        (bad / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        run(["eval", "--checkpoint", bad, "--corpus", valid_csv,
             "--out-root", runs], code=1)
    for flag in ("--encoder", "--epochs"):
        run(["train", "--config", cfg, "--variant", "bilstm-max", flag, "0",
             "--out-root", runs], code=1)
    # refused: a corpus whose last rows stop early, after the id and
    # after the premise (fewer cells than the header)
    shutil.copy(d / "cases.csv", d / "short.csv")
    with open(d / "short.csv", "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["lonely"], ["short", "neutral", "a dog"]])
    run(["filter", "--input", d / "short.csv", "--out-root", runs], code=1)


def _perfbench(d: Path):
    """One iteration of each of perfbench's tiny workloads, checks included."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name, cls in workloads.WORKLOADS.items():
        (d / name).mkdir(parents=True)
        wl = cls(d / name, seed=1, shape=workloads.TINY)
        wl.prepare()
        state = wl.setup()
        out = wl.summarize(state, wl.iteration(state, 0), 1.0, [])
        wl.checks(state, [out])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of the script and perfbench's workloads: the unrun
    statements, (where, line, first line), and the one-way branches,
    (where, line, text, untaken line), that no exemption covers."""
    ran: set = set()
    codes: dict = {}
    d = tmp_path_factory.mktemp("traffic")
    hooks = sys.gettrace(), threading.gettrace()
    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # the diverging runs
        with _traced(ran, codes):
            _traffic(d / "cli", monkeypatch, _run)
            _perfbench(d / "perfbench")
    assert (sys.gettrace(), threading.gettrace()) == hooks
    unrun, counted = [], {}   # counted: (file, line) -> function
    for path in sorted(SRC.glob("*.py")):
        for where, span, first in _statements(path):
            counted.update(dict.fromkeys(((str(path), line) for line in span),
                                         where))
            if not any((str(path), line) in ran for line in span):
                unrun.append((where, span.start, first))
    # a branch in, or with a side in, a raise or a handler (which hold no
    # counted statement) is exempt; a side whose line never ran is the
    # line guard's
    one_way = []
    for file, line, untaken in sorted(_one_way(codes)):
        if (file, line) in counted and (file, untaken) in counted \
                and (file, untaken) in ran:
            text = Path(file).read_text(encoding="utf-8").splitlines()[line - 1]
            one_way.append((counted[file, line], line,
                            re.sub(r"\s+# .*", "", text).strip(), untaken))
    return unrun, one_way


def _allowed(where: str, first: str) -> list[str]:
    """The ALLOWED entries that name a statement or branch line."""
    return [entry for entry in (where, f"{where}: {first}") if entry in ALLOWED]


def test_every_statement_runs_on_a_program_path(traced):
    unrun, _ = traced
    left = [f"{where}:{line}: {first}" for where, line, first in unrun
            if not _allowed(where, first)]
    assert not left, "no program path runs these statements:\n" + "\n".join(left)


def test_every_branch_goes_both_ways_on_a_program_path(traced):
    _, one_way = traced
    left = [f"{where}:{line}: {text}  (never goes to line {untaken})"
            for where, line, text, untaken in one_way
            if not _allowed(where, text)]
    assert not left, "no program path takes the other side of these " \
        "branches:\n" + "\n".join(left)


def test_every_allowed_entry_names_an_unrun_statement_or_a_one_way_branch(
        traced):
    unrun, one_way = traced
    used = {entry for where, _, text, *_ in [*unrun, *one_way]
            for entry in _allowed(where, text)}
    assert set(ALLOWED) - used == set(), \
        "these ALLOWED entries name no statement left unrun and no one-way branch"


@pytest.mark.parametrize("script", ["traffic_digests.py", "variant_digests.py"])
def test_a_digest_script_refuses_an_unpinned_environment(script):
    """Outside PINNED_ENV, each digest script prints nothing, names every
    pin that is unset or set to another value, and exits 1."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env.update(OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / script)],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "OPENBLAS_NUM_THREADS is '2', not '1'" in proc.stderr
    for pin in set(PINNED_ENV) - {"OPENBLAS_NUM_THREADS"}:
        assert f"{pin} is unset" in proc.stderr


def test_every_command_writes_the_recorded_outputs():
    """Each invocation of the script, run under PINNED_ENV with no tracer,
    exits, prints, warns and writes files as `traffic_digests.py`
    recorded them in `fixtures/traffic_digests.json`."""
    env = {**os.environ, **PINNED_ENV,
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "traffic_digests.py")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads((FIXTURES / "traffic_digests.json").read_text())
    assert got.keys() == want.keys(), "the script's invocations changed"
    moved = [f"{key} {' '.join(entry['argv'][:1])}: {field}"
             for key, entry in want.items() for field, value in entry.items()
             if got[key][field] != value]
    assert not moved, "these outputs moved:\n" + "\n".join(moved)
