"""Seeded e-SNLI-shaped inputs for the benchmark.

Everything here is a pure function of the seed it is given. Sentences are
drawn from a fixed synthetic lexicon with Zipfian word frequencies and
Poisson lengths shaped like e-SNLI (Camburu et al. 2018): premises of
about 14 tokens, hypotheses of about 8, explanations of about 12 (capped
at 40). The program under test only ever sees the CSV and text files
written here; the metadata returned alongside (which explanations were
planted as template copies) stays with the benchmark for its checks.

The structure of a split (sentence lengths, labels, which explanation
slots are planted and with which template frame) comes from a fixed draw
shared by every seed, and the seed draws the content (words, template
edits, highlights).
Padded batch widths, and so the work per batch, are then the same for
every seed, and seeds act as replicates of one workload rather than as
workloads of different size.
"""

from __future__ import annotations

import csv

import numpy as np

LABELS = ("entailment", "neutral", "contradiction")

PREMISE_MEAN, HYPOTHESIS_MEAN, EXPLANATION_MEAN = 14, 8, 12
SENTENCE_CAP, EXPLANATION_CAP = 84, 40
MIN_EXPLANATION = 3

LEXICON_SIZE = 8000
ZIPF_EXPONENT = 1.0
STRUCTURE_SEED = 14121

# Uninformative-explanation frames from the e-SNLI paper, copied here so
# the planted share does not depend on the filter's own template list.
PLANT_FRAMES = {
    "general": ["There is <HYPOTHESIS>", "<PREMISE> <HYPOTHESIS>",
                "Sentence 1 states <PREMISE>. Sentence 2 is stating <HYPOTHESIS>"],
    "entailment": ["<PREMISE> implies <HYPOTHESIS>",
                   "If <PREMISE> then <HYPOTHESIS>",
                   "<HYPOTHESIS> is a rephrasing of <PREMISE>"],
    "neutral": ["Just because <PREMISE> doesn't mean <HYPOTHESIS>",
                "The fact that <PREMISE> does not imply <HYPOTHESIS>",
                "One cannot infer that <HYPOTHESIS>"],
    "contradiction": ["<PREMISE> contradicts <HYPOTHESIS>",
                      "Either <PREMISE> or <HYPOTHESIS>",
                      "It cannot be <HYPOTHESIS> if <PREMISE>"],
}
MAX_PLANT_EDITS = 4   # strictly below the filter's 10-edit boundary

CSV_HEADER = (["pairID", "gold_label", "Sentence1", "Sentence2"]
              + [f"Explanation_{k}" for k in (1, 2, 3)]
              + [f"Sentence1_Highlighted_{k}" for k in (1, 2, 3)]
              + [f"Sentence2_Highlighted_{k}" for k in (1, 2, 3)])


def lexicon() -> list[str]:
    """The fixed word list, most frequent first; the same for every seed.

    Every word has three syllables (six letters), so the character length
    of a sentence, and with it the edit-distance work, follows from its
    token count alone.
    """
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    words = [a + b + c for a in syllables[:40] for b in syllables
             for c in syllables[:4]]
    order = np.random.default_rng(20100149).permutation(len(words))
    return [words[i] for i in order[:LEXICON_SIZE]]


class SentenceSource:
    """Draws Zipf-distributed token sequences of Poisson length; lengths
    from `structure`, words from `rng`."""

    def __init__(self, rng: np.random.Generator, structure: np.random.Generator):
        self.rng = rng
        self.structure = structure
        self.words = lexicon()
        ranks = np.arange(1, len(self.words) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def length(self, mean: int, cap: int, floor: int = 1) -> int:
        return int(min(cap, max(floor, self.structure.poisson(mean))))

    def tokens(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        return [self.words[min(i, len(self.words) - 1)] for i in idx]

    def sentence(self, mean: int, cap: int, floor: int = 1) -> str:
        return " ".join(self.tokens(self.length(mean, cap, floor)))


def _highlights(rng: np.random.Generator, n_tokens: int) -> str:
    k = int(rng.integers(1, min(3, n_tokens) + 1))
    picked = sorted(int(i) for i in rng.choice(n_tokens, size=k, replace=False))
    return "{" + ",".join(str(i) for i in picked) + "}"


def plant(rng: np.random.Generator, structure: np.random.Generator,
          premise: str, hypothesis: str, label: str) -> str:
    """A template instantiation with at most MAX_PLANT_EDITS letter edits;
    the frame comes from `structure`, the edits from `rng`."""
    frames = PLANT_FRAMES["general"] + PLANT_FRAMES[label]
    frame = frames[int(structure.integers(len(frames)))]
    text = frame.replace("<PREMISE>", premise).replace("<HYPOTHESIS>", hypothesis)
    chars = list(text)
    letters = [i for i, ch in enumerate(chars) if ch.isalpha()]
    for _ in range(int(rng.integers(0, MAX_PLANT_EDITS + 1))):
        chars[letters[int(rng.integers(len(letters)))]] = "xq"[int(rng.integers(2))]
    return "".join(chars)


def make_rows(seed: int, stream: int, n: int, n_explanations: int,
              planted_share: float = 0.0):
    """Return (rows, planted): CSV rows as dicts and the set of planted
    (pairID, explanation index) slots.

    Exactly round(planted_share * n * n_explanations) explanation slots
    are planted template copies; the rest are free text. Each `stream`
    is an independent draw for the same seed (train, valid, ... splits).
    """
    rng = np.random.default_rng([seed, stream])
    structure = np.random.default_rng([STRUCTURE_SEED, stream])
    source = SentenceSource(rng, structure)
    slots = n * n_explanations
    n_planted = int(round(planted_share * slots))
    planted_slots = set(int(i) for i in structure.choice(slots, size=n_planted,
                                                         replace=False))
    rows, planted = [], set()
    for i in range(n):
        label = LABELS[int(structure.integers(3))]
        premise = source.sentence(PREMISE_MEAN, SENTENCE_CAP)
        hypothesis = source.sentence(HYPOTHESIS_MEAN, SENTENCE_CAP)
        pair_id = f"s{seed}-{stream}-{i}"
        row = {"pairID": pair_id, "gold_label": label,
               "Sentence1": premise, "Sentence2": hypothesis}
        n_prem, n_hyp = len(premise.split()), len(hypothesis.split())
        for k in range(n_explanations):
            if i * n_explanations + k in planted_slots:
                text = plant(rng, structure, premise, hypothesis, label)
                planted.add((pair_id, k))
            else:
                text = source.sentence(EXPLANATION_MEAN, EXPLANATION_CAP,
                                       MIN_EXPLANATION)
            row[f"Explanation_{k + 1}"] = text
            row[f"Sentence1_Highlighted_{k + 1}"] = _highlights(rng, n_prem)
            row[f"Sentence2_Highlighted_{k + 1}"] = _highlights(rng, n_hyp)
        rows.append(row)
    return rows, planted


def write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER, restval="")
        writer.writeheader()
        writer.writerows(rows)


def make_bleu_segments(seed: int, n: int):
    """Line-aligned (candidates, references 1, references 2) token lists.

    Each candidate is its first reference with about a quarter of its
    tokens replaced, so every n-gram order has matches.
    """
    rng = np.random.default_rng([seed, 1000])
    source = SentenceSource(rng, np.random.default_rng([STRUCTURE_SEED, 1000]))
    cands, refs1, refs2 = [], [], []
    for _ in range(n):
        ref1 = source.tokens(source.length(EXPLANATION_MEAN, EXPLANATION_CAP,
                                           MIN_EXPLANATION))
        ref2 = source.tokens(source.length(EXPLANATION_MEAN, EXPLANATION_CAP,
                                           MIN_EXPLANATION))
        cand = list(ref1)
        for j in np.flatnonzero(rng.random(len(cand)) < 0.25):
            cand[j] = source.tokens(1)[0]
        cands.append(cand)
        refs1.append(ref1)
        refs2.append(ref2)
    return cands, refs1, refs2


def write_lines(path, segments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(tokens) + "\n" for tokens in segments))
