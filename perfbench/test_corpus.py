"""Statistics of the seeded input generator.

Run with `python -m pytest -q perfbench`.
"""

import statistics
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

import corpus  # noqa: E402
from oracles import levenshtein_full  # noqa: E402

from nliexpl.data import build_vocab, tokenize  # noqa: E402


def _lengths(rows, column):
    return [len(row[column].split()) for row in rows]


@pytest.fixture(scope="module")
def big():
    return corpus.make_rows(seed=3, stream=0, n=1500, n_explanations=3,
                            planted_share=0.1)


def test_lengths_follow_esnli_shape(big):
    rows, planted = big
    premise = _lengths(rows, "Sentence1")
    hypothesis = _lengths(rows, "Sentence2")
    free = [len(row[f"Explanation_{k + 1}"].split()) for row in rows
            for k in range(3) if (row["pairID"], k) not in planted]
    assert abs(statistics.fmean(premise) - 14) < 0.5
    assert abs(statistics.fmean(hypothesis) - 8) < 0.5
    assert abs(statistics.fmean(free) - 12) < 0.5
    assert max(premise + hypothesis) <= corpus.SENTENCE_CAP
    assert corpus.MIN_EXPLANATION <= min(free) and max(free) <= corpus.EXPLANATION_CAP


def test_planted_share_is_exact(big):
    rows, planted = big
    assert len(planted) == round(0.1 * len(rows) * 3)
    assert {pair_id for pair_id, _ in planted} <= {row["pairID"] for row in rows}


def test_planted_explanations_sit_under_ten_edits():
    rows, planted = corpus.make_rows(seed=5, stream=3, n=40, n_explanations=3,
                                     planted_share=0.1)
    by_id = {row["pairID"]: row for row in rows}
    assert planted
    for pair_id, k in planted:
        row = by_id[pair_id]
        text = row[f"Explanation_{k + 1}"]
        frames = corpus.PLANT_FRAMES["general"] + corpus.PLANT_FRAMES[row["gold_label"]]
        best = min(levenshtein_full(text, frame.replace("<PREMISE>", row["Sentence1"])
                                    .replace("<HYPOTHESIS>", row["Sentence2"]))
                   for frame in frames)
        assert best <= corpus.MAX_PLANT_EDITS < 10


def test_seed_changes_words_but_not_structure():
    a, planted_a = corpus.make_rows(seed=1, stream=2, n=50, n_explanations=3,
                                    planted_share=0.1)
    b, planted_b = corpus.make_rows(seed=2, stream=2, n=50, n_explanations=3,
                                    planted_share=0.1)
    again, _ = corpus.make_rows(seed=1, stream=2, n=50, n_explanations=3,
                                planted_share=0.1)
    assert a == again
    assert [r["Sentence1"] for r in a] != [r["Sentence1"] for r in b]
    for column in ("Sentence1", "Sentence2", "Explanation_1"):
        assert [len(r[column]) for r in a] == [len(r[column]) for r in b]
    assert [r["gold_label"] for r in a] == [r["gold_label"] for r in b]
    assert {k for _, k in planted_a} == {k for _, k in planted_b}


def test_zipf_vocabulary_keeps_a_few_thousand_types():
    rows, _ = corpus.make_rows(seed=4, stream=0, n=384, n_explanations=1)
    texts = [tokenize(row[c]) for row in rows
             for c in ("Sentence1", "Sentence2", "Explanation_1")]
    assert all(t == row.split() for t, row in
               zip(texts, (row[c] for row in rows
                           for c in ("Sentence1", "Sentence2", "Explanation_1"))))
    assert 2000 <= len(build_vocab(texts, min_count=1)) <= 5000


def test_bleu_segments_align():
    cands, refs1, refs2 = corpus.make_bleu_segments(seed=1, n=30)
    assert len(cands) == len(refs1) == len(refs2) == 30
    assert all(len(c) == len(r) for c, r in zip(cands, refs1))
