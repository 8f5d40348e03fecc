"""Every statement inside a function of `nliexpl` runs on some program path.

A fixed script of program invocations, the traffic, runs under a line
tracer on this thread and on the worker thread (`autodiff._worker`): every
CLI command at toy scale, with each feature that a corpus, a config, an
environment variable or a flag can switch on, refused invocations that
reach their message builders, and one iteration of each of perfbench's
tiny workloads. A statement inside a function body of `src/nliexpl` that
never ran fails the test, unless it is a `raise`, sits in an `except`
handler, compiles to no bytecode (a docstring, `global`) or is named in
ALLOWED with its reason. Module and class bodies run at import and are
not counted.

A new path joins the script when a corpus, config, flag or environment
can reach it, or ALLOWED with its reason when only a caller outside the
program can; a path nothing reaches leaves `src/`. An ALLOWED entry that
the traffic runs, or that names no statement, fails the test too.
"""

import ast
import contextlib
import csv
import io
import json
import re
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import nliexpl
from nliexpl import autodiff as ad
from nliexpl import cli
from synth import make_examples, write_corpus_csv

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(nliexpl.__file__).resolve().parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# "module.qualname" (every statement of the function) or "module.qualname:
# first line of the statement" -> why no program path runs it
ALLOWED = {
    "autodiff.Tensor.__init__: data = np.ascontiguousarray(data)":
        "arrays from outside the package; every op makes contiguous ones",
    "autodiff.Tensor.__repr__": "debugging",
    "autodiff.backward: t.grad = None":
        "an input that no record produced and that is not a parameter: "
        "the models never build one; test_autodiff.py does",
    "autodiff._route: return":
        "a record whose outputs have no gradient: the models never build "
        "one; test_autodiff.py does",
    "autodiff._route: continue":
        "a None gradient (a record's input that takes none): the models "
        "never build one; test_autodiff.py does",
    "autodiff._route: gi = gi()":
        "a non-parameter's deferred gradient: the models never build one; "
        "test_autodiff.py does",
    "autodiff._OpenTapes.__init__": "runs at import, and on another thread's "
                                    "first use: the worker uses none",
    "autodiff._new_worker": "runs at import and in a forked child "
                            "(test_runs_in_a_forked_child)",
    "checkpoint._map_blob: return np.empty(0, _DTYPE)":
        "a zero-byte params.bin from outside; the program saves none",
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


@contextlib.contextmanager
def _traced(ran: set):
    """Records (file, line) of every line that `nliexpl` runs in `ran`,
    on this thread and on a worker started for the purpose; restores the
    worker and both trace hooks afterwards."""
    files = {str(p) for p in SRC.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

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


def _run(argv, code=0):
    """`nliexpl argv`, which must exit with `code`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main([str(a) for a in argv])
    assert got == code, (argv, out.getvalue(), err.getvalue())


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _annotation_corpus(path):
    """The rows of `fixtures/annotation_cases.json`, with highlights,
    plus an id-less row and one whose label is skipped."""
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
    _write_csv(path, ["pairID", "gold_label", "Sentence1", "Sentence2",
                      "Explanation_1", "Sentence1_Highlighted_1",
                      "Sentence2_Highlighted_1"], rows)


def _config(path, **sections):
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()), encoding="utf-8")
    return path


def _traffic(d: Path, monkeypatch):
    """The script: every command, each feature switched on."""
    runs = d / "runs"
    data = d / "data"
    data.mkdir(parents=True)
    monkeypatch.setenv("NLIEXPL_DATA_ROOT", str(data))   # relative paths

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
    _run(["filter", "--input", d / "cases.csv", "--out-root", runs])
    _run(["validate", "--input", d / "cases.csv", "--out-root", runs])
    _run(["validate", "--input", d / "cases.csv", "--out", d / "validation.csv",
          "--out-root", runs])

    # every variant; a batch of 64 rows and a classifier 128 wide split
    # products over both threads, and a decoder's 64 explanations make
    # more than one input-projection chunk
    base = dict(data=dict(train="train.csv", valid="valid.csv",
                          embeddings="emb.txt", embedding_dim=6, min_count=1,
                          sentence_limit=30, col_explanations=
                          "Explanation_1, Explanation_2, Explanation_3"),
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
        _run(["train", "--config", cfg, "--variant", variant, *extra,
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
    _run(["train", "--config", gap_cfg, "--variant", "bilstm-max",
          "--out-root", runs])
    _run(["train", "--config", gap_cfg, "--variant", "pred-expl", "--alpha",
          "0.5", "--out-root", runs], code=1)
    _run(["grid", "--config", cfg, "--variant", "pred-expl", "--decoders", "4",
          "--alphas", "0.5", "--out-root", runs])
    _run(["grid", "--config", cfg, "--variant", "bilstm-max", "--out-root", runs])
    _run(["grid", "--config", cfg, "--variant", "pred-expl", "--decoders", "4",
          "--set", "training.lr", "1e30", "--out-root", runs], code=2)
    _run(["train", "--config", cfg, "--variant", "expl-pred-seq2seq",
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
        _run(["eval", "--checkpoint", ckpt["pred-expl"], "--corpus", valid_csv,
              "--inter-annotator", "--annotations", ann,
              "--set", "eval.expl_at_k_mode", mode, "--out-root", runs])
    _run(["eval", "--checkpoint", ckpt["expl-pred-att"], "--corpus", valid_csv,
          "--expl-classifier", ckpt["expl-to-label"],
          "--annotations", none_correct, "--out-root", runs])
    _run(["eval", "--checkpoint", ckpt["bilstm-max"], "--corpus", valid_csv,
          "--out-root", runs])
    bare = make_examples(8, seed=2)
    for e in bare[1:7]:
        e.explanation_texts = []
    write_corpus_csv(d / "bare.csv", bare)
    _run(["eval", "--checkpoint", ckpt["expl-to-label"], "--corpus",
          d / "bare.csv", "--out-root", runs], code=1)

    # generation: labelled by explain-then-predict, unlabelled, and by the
    # model's own classifier
    _run(["generate", "--checkpoint", ckpt["expl-pred-seq2seq"], "--corpus",
          valid_csv, "--set", "eval.expl_classifier", ckpt["expl-to-label"],
          "--out-root", runs])
    _run(["generate", "--checkpoint", ckpt["expl-pred-att"], "--corpus",
          valid_csv, "--out", d / "generated.csv", "--out-root", runs])
    _run(["generate", "--checkpoint", ckpt["bilstm-max"], "--corpus",
          data / "train.csv", "--out-root", runs])
    (d / "cand.txt").write_text("a dog runs\nthe cat sits\n")
    (d / "ref.txt").write_text("a dog runs fast\nthe cat sits down\n")
    _run(["bleu", "--candidates", d / "cand.txt", "--references", d / "ref.txt",
          "--out-root", runs])

    # refused input that reaches a message builder
    (d / "bad.txt").write_bytes(b"a dog\n\xff runs\n")
    _run(["bleu", "--candidates", d / "bad.txt", "--references", d / "ref.txt",
          "--out-root", runs], code=1)
    (d / "short.txt").write_text("a dog runs\n")
    _run(["bleu", "--candidates", d / "short.txt", "--references", d / "ref.txt",
          "--out-root", runs], code=1)
    (d / "blank.txt").write_text("a dog runs fast\n \n")
    _run(["bleu", "--candidates", d / "cand.txt", "--references", d / "blank.txt",
          d / "blank.txt", "--out-root", runs], code=1)

    # a model command with neither BLAS thread variable set (the warning),
    # then with the worker held busy: every task it hands the worker runs
    # on this thread instead (`_Deferred.steal`)
    (d / "sentences.txt").write_text("a dog runs\n\na cat sits in the park\n")
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    _run(["repr-export", "--checkpoint", ckpt["pred-expl"], "--sentences",
          d / "sentences.txt", "--out", d / "repr.txt", "--out-root", runs])
    release = threading.Event()
    busy = ad._worker.submit(release.wait, 60)
    try:
        _run(["repr-export", "--checkpoint", ckpt["pred-expl"], "--sentences",
              d / "sentences.txt", "--out-root", runs])
        assert not busy.done()   # the command never waited for the worker
    finally:
        release.set()
        busy.result(timeout=60)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the diverging runs
def test_every_statement_runs_on_a_program_path(tmp_path, monkeypatch):
    ran: set = set()
    hooks = sys.gettrace(), threading.gettrace()
    with _traced(ran):
        _traffic(tmp_path / "cli", monkeypatch)
        _perfbench(tmp_path / "perfbench")
    assert (sys.gettrace(), threading.gettrace()) == hooks
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        for where, span, first in _statements(path):
            if not any((str(path), line) in ran for line in span):
                unrun.append((where, span.start, first))
    allowed = {entry for where, _, first in unrun
               for entry in (where, f"{where}: {first}") if entry in ALLOWED}
    left = [f"{where}:{line}: {first}" for where, line, first in unrun
            if where not in allowed and f"{where}: {first}" not in allowed]
    assert not left, "no program path runs these statements:\n" + "\n".join(left)
    assert set(ALLOWED) - allowed == set(), \
        "these ALLOWED entries name no statement left unrun"
