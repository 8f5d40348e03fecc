"""Corpus ingestion, tokenization, vocabulary, embeddings, and batching.

Corpora are UTF-8 CSV files with a header; the default column names
(gold_label, Sentence1, Sentence2, Explanation_1..3, plus optional
highlight columns of comma-separated token indices) can be remapped via
:class:`ColumnMap` to adapt other NLI exports.

Tokenizer rule table (deterministic, pinned by tests):
  1. lowercase the text;
  2. split "n't" off its stem (doesn't -> does n't);
  3. split trailing clitics 's 're 've 'd 'll 'm;
  4. runs of [a-z0-9] form one token;
  5. any other non-space character is its own token;
  6. whitespace only separates (runs collapse, never emitted).
"""

from __future__ import annotations

import csv
import hashlib
import logging
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
LABELS = ("entailment", "neutral", "contradiction")
RESERVED = (PAD, UNK, BOS, EOS) + LABELS

SENTENCE_LIMIT = 84
EXPLANATION_LIMIT = 40

_TOKEN_RE = re.compile(r"[a-z0-9]+(?=n't)|n't|'(?:s|re|ve|d|ll|m)|[a-z0-9]+|[^\sa-z0-9]")


class CorpusFormatError(ValueError):
    """Input file violates the documented corpus/embedding format."""


@contextmanager
def open_text(path, error: type[Exception] = CorpusFormatError,
              newline: str | None = None):
    """`path` opened as UTF-8 text for reading. Bytes that are not UTF-8
    raise `error` naming the file and the line that holds them."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise error(f"{path}:{_undecodable_line(path)}: not UTF-8 text "
                        f"({err.reason})") from None


def _undecodable_line(path) -> int | str:
    """The number of the first line of `path` that is not UTF-8 (no
    newline byte occurs inside a UTF-8 character, so each line decodes
    alone), else "?"."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return "?"


def tokenize(text: str) -> list[str]:
    """Lowercase and split `text` per the module rule table."""
    return _TOKEN_RE.findall(text.lower())


def label_to_class(label: str) -> int:
    """entailment -> 0, neutral -> 1, contradiction -> 2."""
    try:
        return LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown label {label!r}") from None


# ---------------------------------------------------------------------------
# Vocabulary


class Vocabulary:
    """Token <-> id maps with reserved entries at the lowest ids.

    Reserved order: <pad>=0, <unk>=1, <bos>=2, <eos>=3, then the three
    label words (entailment, neutral, contradiction) at 4..6. Label
    words are ordinary vocabulary entries; their embedding rows are
    trained by the models.
    """

    def __init__(self, tokens: list[str]):
        for t in tokens:
            if t in RESERVED:
                raise ValueError(f"reserved token {t!r} in vocabulary body")
        self.id_to_token: list[str] = list(RESERVED) + list(tokens)
        self.token_to_id: dict[str, int] = {
            t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    pad_id = 0
    unk_id = 1
    bos_id = 2
    eos_id = 3
    label_ids = (4, 5, 6)
    reserved_size = len(RESERVED)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, self.unk_id) for t in tokens]

    def decode(self, ids) -> list[str]:
        """The tokens of `ids`, without <pad>, <bos> and <eos>."""
        return [self.id_to_token[int(i)] for i in ids
                if i not in (self.pad_id, self.bos_id, self.eos_id)]

    def label_vocab_id(self, label_class: int) -> int:
        return self.label_ids[label_class]

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.id_to_token).encode()).hexdigest()


def build_vocab(corpus, min_count: int) -> Vocabulary:
    """Vocabulary over token lists; tokens seen < min_count map to <unk>.

    Ordering is stable: by descending count, then lexicographic.
    """
    counts: Counter[str] = Counter()
    n_lists = 0
    for tokens in corpus:
        n_lists += 1
        counts.update(tokens)
    if n_lists == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = [t for t, c in counts.items() if c >= min_count and t not in RESERVED]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


# ---------------------------------------------------------------------------
# Embeddings


@dataclass
class EmbeddingTable:
    """Fixed pretrained word vectors, one row per vocabulary id."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def random(cls, vocab: Vocabulary, dim: int,
               rng: np.random.Generator) -> "EmbeddingTable":
        """Frozen random vectors, uniform in [-0.5, 0.5), for synthetic/toy
        corpora that have no pretrained vector file. <pad> stays zero."""
        m = rng.uniform(-0.5, 0.5, size=(len(vocab), dim)).astype(np.float32)
        m[vocab.pad_id] = 0.0
        return cls(matrix=m)


def load_embeddings(path, vocab: Vocabulary, dim: int) -> EmbeddingTable:
    """Read a "token v1 ... v_dim" text file into a |V| x dim table.

    In-vocab tokens get their file rows verbatim; everything else,
    including all reserved tokens, gets the zero vector (label words are
    shadowed by trainable rows inside the models). A row the table
    keeps must hold finite floats and its token appear on no other line.
    """
    matrix = np.zeros((len(vocab), dim), dtype=np.float32)
    line_of: dict[int, int] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected token + {dim} floats, "
                    f"got {len(parts)} fields")
            token = parts[0]
            idx = vocab.token_to_id.get(token)
            if idx is None or idx < vocab.reserved_size:
                continue
            if idx in line_of:
                raise CorpusFormatError(
                    f"{path}:{lineno}: token {token!r} repeated (first on "
                    f"line {line_of[idx]})")
            line_of[idx] = lineno
            try:
                matrix[idx] = np.array(parts[1:], dtype=np.float32)
            except ValueError:
                raise CorpusFormatError(
                    f"{path}:{lineno}: unparsable float") from None
            if not np.isfinite(matrix[idx]).all():
                raise CorpusFormatError(
                    f"{path}:{lineno}: non-finite value for {token!r}")
    return EmbeddingTable(matrix=matrix)


# ---------------------------------------------------------------------------
# Corpus records


@dataclass
class Example:
    """One NLI instance with explanations and optional highlights."""

    id: str
    premise: list[str]
    hypothesis: list[str]
    label: str
    explanations: list[list[str]]
    premise_text: str = ""
    hypothesis_text: str = ""
    explanation_texts: list[str] = field(default_factory=list)
    premise_highlights: list[set[int] | None] = field(default_factory=list)
    hypothesis_highlights: list[set[int] | None] = field(default_factory=list)


@dataclass
class ColumnMap:
    """Maps corpus CSV column names onto Example fields."""

    gold_label: str = "gold_label"
    premise: str = "Sentence1"
    hypothesis: str = "Sentence2"
    explanations: tuple[str, ...] = ("Explanation_1", "Explanation_2",
                                     "Explanation_3")
    premise_highlights: tuple[str, ...] = ("Sentence1_Highlighted_1",
                                           "Sentence1_Highlighted_2",
                                           "Sentence1_Highlighted_3")
    hypothesis_highlights: tuple[str, ...] = ("Sentence2_Highlighted_1",
                                              "Sentence2_Highlighted_2",
                                              "Sentence2_Highlighted_3")
    id: str = "pairID"


def _parse_highlights(cell: str | None, where: str) -> set[int] | None:
    if cell is None:
        return None
    cell = cell.strip().strip("{}")
    if not cell:
        return None
    try:
        return {int(part) for part in cell.split(",")}
    except ValueError:
        raise CorpusFormatError(f"{where}: bad highlight indices {cell!r}") from None


@contextmanager
def csv_rows(path, required, id_of, error: type[Exception]):
    """`path` read as a UTF-8 CSV file with a header: yields (header,
    rows), where rows yields (line, id, cells) for each data row, `line`
    being the line of the file that the row ends on, and `id_of(cells,
    line)` gives a row's id. Raises `error` naming the file and the line
    for bytes that are not UTF-8, a `required` column missing from the
    header, a row with more or fewer cells than the header and a
    repeated id."""
    with open_text(path, error, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise error(f"{path}:1: missing columns {missing}")

        def rows():
            first_line: dict[str, int] = {}
            for cells in reader:
                line = reader.line_num   # counts blank lines and quoted newlines
                if None in cells:   # DictReader's key for cells past the header
                    raise error(f"{path}:{line}: {len(header) + len(cells[None])} "
                                f"cells, more than the header's {len(header)}")
                if None in cells.values():   # its value for cells short of it
                    given = len(header) - list(cells.values()).count(None)
                    raise error(f"{path}:{line}: {given} cells, fewer than the "
                                f"header's {len(header)}")
                row_id = id_of(cells, line)
                if row_id in first_line:
                    raise error(f"{path}: example id {row_id!r} repeated on "
                                f"rows {first_line[row_id]} and {line}")
                first_line[row_id] = line
                yield line, row_id, cells
        yield header, rows()


def corpus_rows(path, colmap: ColumnMap):
    """`csv_rows` for a corpus: label and sentences required; a row's id is
    its id cell, else "row<N>", N the line the row ends on."""
    return csv_rows(path, (colmap.gold_label, colmap.premise, colmap.hypothesis),
                    lambda cells, line: (cells.get(colmap.id) or "").strip()
                    or f"row{line}", CorpusFormatError)


def load_corpus(path, split: str,
                colmap: ColumnMap | None = None) -> tuple[list[Example], int]:
    """Parse a corpus CSV (`corpus_rows`): (examples, skipped_row_count).

    Rows whose gold label is outside the 3-way set are skipped and
    counted rather than rejected, so transfer corpora with extra labels
    load cleanly. Ids are unique, whichever rows carry them: evaluation
    and the filter match outputs to rows by id.
    """
    colmap = colmap or ColumnMap()
    examples: list[Example] = []
    skipped = 0
    with corpus_rows(path, colmap) as (_, rows):
        for rownum, example_id, row in rows:
            label = row[colmap.gold_label].strip().lower()
            if label not in LABELS:
                skipped += 1
                continue
            premise_text = row[colmap.premise].strip()
            hypothesis_text = row[colmap.hypothesis].strip()
            expl_texts = []
            for col in colmap.explanations:
                cell = (row.get(col) or "").strip()
                if cell:
                    expl_texts.append(cell)
            p_high = [_parse_highlights(row.get(c), f"{path}:{rownum}")
                      for c in colmap.premise_highlights[:max(1, len(expl_texts))]]
            h_high = [_parse_highlights(row.get(c), f"{path}:{rownum}")
                      for c in colmap.hypothesis_highlights[:max(1, len(expl_texts))]]
            examples.append(Example(
                id=example_id,
                premise=tokenize(premise_text),
                hypothesis=tokenize(hypothesis_text),
                label=label,
                explanations=[tokenize(t) for t in expl_texts],
                premise_text=premise_text,
                hypothesis_text=hypothesis_text,
                explanation_texts=expl_texts,
                premise_highlights=p_high,
                hypothesis_highlights=h_high,
            ))
    if split in ("valid", "test"):
        short = sum(1 for e in examples if len(e.explanations) < 3)
        if short:
            log.warning("%s: %d %s examples have fewer than 3 explanations",
                        path, short, split)
    elif split == "train":
        missing = sum(1 for e in examples if not e.explanations)
        if missing:
            log.warning("%s: %d train examples have no explanation", path, missing)
    return examples, skipped


# ---------------------------------------------------------------------------
# Encoding and batching


@dataclass
class EncodedExample:
    id: str
    premise: np.ndarray
    hypothesis: np.ndarray
    label: int
    explanations: list[np.ndarray]  # each [<bos> ... <eos>]


def encode_corpus(examples: list[Example], vocab: Vocabulary,
                  sentence_limit: int = SENTENCE_LIMIT,
                  explanation_limit: int = EXPLANATION_LIMIT) -> list[EncodedExample]:
    """Map each Example onto ids; head-keep truncation at the limits, each
    at least 1 (`config` refuses any other). An example with an empty
    premise or hypothesis is skipped with a warning."""
    out = []
    for e in examples:
        if not e.premise or not e.hypothesis:
            log.warning("skipping %s: empty premise or hypothesis", e.id)
            continue
        prem = np.array(vocab.encode(e.premise[:sentence_limit]), dtype=np.int64)
        hyp = np.array(vocab.encode(e.hypothesis[:sentence_limit]), dtype=np.int64)
        expls = [np.array([vocab.bos_id, *vocab.encode(tokens[:explanation_limit]),
                           vocab.eos_id], dtype=np.int64) for tokens in e.explanations]
        out.append(EncodedExample(id=e.id, premise=prem, hypothesis=hyp,
                                  label=label_to_class(e.label), explanations=expls))
    return out


@dataclass
class Batch:
    """Padded id matrices for one batch; pad id is 0 everywhere."""

    ids: list[str]
    premise: np.ndarray
    premise_len: np.ndarray
    hypothesis: np.ndarray
    hypothesis_len: np.ndarray
    labels: np.ndarray
    explanation: np.ndarray | None = None   # includes <bos>/<eos>
    explanation_len: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.ids)


def pad_rows(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Right-pads id rows with <pad>: (ids (B, T), lengths (B,))."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    width = int(lengths.max())
    out = np.full((len(rows), width), Vocabulary.pad_id, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out, lengths


def make_batch(chunk: list[EncodedExample], with_explanations: bool) -> Batch:
    prem, prem_len = pad_rows([e.premise for e in chunk])
    hyp, hyp_len = pad_rows([e.hypothesis for e in chunk])
    labels = np.array([e.label for e in chunk], dtype=np.int64)
    expl = expl_len = None
    if with_explanations:
        expl, expl_len = pad_rows([e.explanations[0] for e in chunk])
    return Batch(ids=[e.id for e in chunk], premise=prem, premise_len=prem_len,
                 hypothesis=hyp, hypothesis_len=hyp_len, labels=labels,
                 explanation=expl, explanation_len=expl_len)


def missing_explanations(model, encoded: list[EncodedExample]) -> str | None:
    """The error message for the examples of `encoded` without the
    explanation that `model` (a model or its variant class) needs, naming
    up to five, or None."""
    ids = [e.id for e in encoded if not e.explanations]
    if not ids:
        return None
    return (f"{model.variant} needs an explanation for every example; {len(ids)} "
            f"example(s) have none: {', '.join(ids[:5])}"
            f"{', ...' if len(ids) > 5 else ''}")


def iterate_batches(encoded: list[EncodedExample], batch_size: int,
                    seed: int = 0, epoch: int = 0, shuffle: bool = False, *,
                    with_explanations: bool):
    """Deterministic batch stream; the final partial batch is emitted.
    Each batch carries every example's first explanation if
    `with_explanations` (`make_batch`).

    Shuffled order mixes the epoch index into the seed so every epoch
    permutes differently yet reproducibly.
    """
    order = np.arange(len(encoded))
    if shuffle:
        order = np.random.default_rng([seed, epoch]).permutation(len(encoded))
    for start in range(0, len(encoded), batch_size):
        chunk = [encoded[i] for i in order[start:start + batch_size]]
        yield make_batch(chunk, with_explanations)
