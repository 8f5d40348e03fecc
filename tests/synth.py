"""Synthetic corpus builders for toy-scale tests.

Explanations embed label-specific phrasings (implies / just because ...
does not mean / cannot ... at the same time), so a model reading only
the explanation can recover the label.
"""

import csv

import numpy as np

from nliexpl.data import Example

SUBJECTS = ["dog", "cat", "man", "woman", "bird", "boy", "girl", "horse",
            "runner", "child"]
VERBS = ["runs", "sits", "sleeps", "jumps", "walks", "eats", "plays", "swims"]
PLACES = ["park", "street", "field", "house", "beach", "yard", "road", "gym"]
GENERAL = ["person", "animal", "someone", "somebody"]


def _sentences(rng):
    subj = SUBJECTS[rng.integers(len(SUBJECTS))]
    verb = VERBS[rng.integers(len(VERBS))]
    place = PLACES[rng.integers(len(PLACES))]
    premise = f"a {subj} {verb} in the {place}"
    return subj, verb, place, premise


def make_example(rng: np.random.Generator, idx: int, label: str,
                 n_explanations: int = 1) -> Example:
    subj, verb, place, premise = _sentences(rng)
    general = GENERAL[rng.integers(len(GENERAL))]
    if label == "entailment":
        hypothesis = f"a {general} {verb} in the {place}"
        variants = [
            f"a {subj} is a {general} so {subj} {verb} implies {general} {verb}",
            f"every {subj} is a {general} and this one {verb}",
            f"the {subj} that {verb} is also a {general} that {verb}",
        ]
    elif label == "neutral":
        extra = VERBS[rng.integers(len(VERBS))]
        hypothesis = f"a {subj} {extra} in the {place}"
        variants = [
            f"just because the {subj} {verb} does not mean it {extra}",
            f"the {subj} {verb} but maybe it never {extra} there",
            f"a {subj} that {verb} might still not {extra} at all",
        ]
    else:
        other = VERBS[rng.integers(len(VERBS))]
        while other == verb:
            other = VERBS[rng.integers(len(VERBS))]
        hypothesis = f"a {subj} {other} in the {place}"
        variants = [
            f"the {subj} cannot {verb} and {other} at the same time",
            f"one cannot both {verb} and {other} at once",
            f"a {subj} that {verb} is surely not one that {other} too",
        ]
    texts = variants[:n_explanations]
    return Example(
        id=f"syn{idx}",
        label=label,
        premise_text=premise,
        hypothesis_text=hypothesis,
        explanation_texts=texts,
        premise_highlights=[None] * len(texts),
        hypothesis_highlights=[None] * len(texts),
    )


def make_examples(n: int, seed: int = 0, n_explanations: int = 1) -> list[Example]:
    rng = np.random.default_rng(seed)
    labels = ["entailment", "neutral", "contradiction"]
    return [make_example(rng, i, labels[i % 3], n_explanations)
            for i in range(n)]


def write_corpus_csv(path, examples: list[Example]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pairID", "gold_label", "Sentence1", "Sentence2",
                         "Explanation_1", "Explanation_2", "Explanation_3"])
        for e in examples:
            texts = list(e.explanation_texts) + ["", "", ""]
            writer.writerow([e.id, e.label, e.premise_text, e.hypothesis_text,
                             texts[0], texts[1], texts[2]])


def random_sentence(rng: np.random.Generator, n_words: int | None = None) -> str:
    n = int(n_words if n_words is not None else rng.integers(3, 9))
    pool = SUBJECTS + VERBS + PLACES
    return " ".join(pool[rng.integers(len(pool))] for _ in range(n))


def text_example(premise: str, hypothesis: str, label: str,
                 *explanations: str) -> Example:
    """An Example of these texts, without highlights."""
    return Example(id="x", label=label, premise_text=premise,
                   hypothesis_text=hypothesis,
                   explanation_texts=list(explanations),
                   premise_highlights=[], hypothesis_highlights=[])
