"""Tests for template filtering and annotation validation."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nliexpl import quality as Q
from nliexpl.data import Example
from oracles import levenshtein_full
from synth import text_example

FIXTURES = Path(__file__).parent / "fixtures"

short_text = st.text(alphabet="abcdef ", max_size=12)

# few letters so characters repeat, plus non-ASCII; up to 200 characters
# so that 40 packed patterns span hundreds of 30-bit CPython int digits
WIDE_ALPHABET = "aab e\u00e9\u00fc\u4e2d"
long_text = st.integers(0, 200).flatmap(lambda n: st.one_of(
    st.text(alphabet=WIDE_ALPHABET, min_size=n, max_size=n),
    st.text(min_size=n, max_size=n)))


@st.composite
def near(draw, text):
    """`text` after a few random edits, so that distances stay small."""
    out = list(text)
    for _ in range(draw(st.integers(0, 14))):
        i = draw(st.integers(0, len(out)))
        c = draw(st.sampled_from(WIDE_ALPHABET))
        op = draw(st.sampled_from("ids"))
        if op == "i":
            out.insert(i, c)
        elif i < len(out):
            if op == "d":
                del out[i]
            else:
                out[i] = c
    return "".join(out)


@st.composite
def packed_cases(draw):
    """(texts, patterns): 0-40 patterns, repeated ones among them as in
    the shipped contradiction list, and texts that are empty, free or a
    few edits off a pattern."""
    n = draw(st.integers(0, 40))
    patterns = draw(st.lists(st.one_of(st.just(""), long_text),
                             min_size=n, max_size=n))
    if patterns:
        patterns += draw(st.lists(st.sampled_from(patterns), max_size=3))
        patterns = draw(st.permutations(patterns))
    texts = draw(st.lists(st.one_of(
        st.just(""), long_text,
        *([st.sampled_from(patterns).flatmap(near)] if patterns else [])),
        min_size=1, max_size=2))
    return texts, patterns


def _oracle(texts, patterns):
    return [[levenshtein_full(t, p) for p in patterns] for t in texts]


class TestEditDistance:
    def test_identity(self):
        assert Q.edit_distances(["abc"], ["abc", "abc"]) == [[0, 0]]

    def test_kitten_sitting(self):
        assert levenshtein_full("kitten", "sitting") == 3
        assert Q.edit_distances(["kitten", "sitting"], ["sitting", "kitten"]) \
            == [[3, 0], [0, 3]]

    def test_pure_insertions(self):
        assert Q.edit_distances(["", "abcd"], ["abcd", "", "ab"]) \
            == [[4, 0, 2], [0, 4, 2]]

    def test_no_texts_or_no_patterns(self):
        assert Q.edit_distances(["abc", ""], []) == [[], []]
        assert Q.edit_distances([], ["abc"]) == []

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(0)
        letters = list("abcde")

        def word():
            return "".join(rng.choice(letters, size=rng.integers(0, 12)))

        for _ in range(60):
            texts = [word() for _ in range(rng.integers(0, 4))]
            patterns = [word() for _ in range(rng.integers(0, 10))]
            assert Q.edit_distances(texts, patterns) == _oracle(texts, patterns)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(2)
        letters = list("abcd")
        for _ in range(300):
            words = ["".join(rng.choice(letters, size=rng.integers(0, 8)))
                     for _ in range(3)]
            d = Q.edit_distances(words, words)
            for i, a in enumerate(words):
                for j, b in enumerate(words):
                    assert d[i][j] == d[j][i]
                    assert (d[i][j] == 0) == (a == b)
                    assert all(d[i][j] <= d[i][k] + d[k][j] for k in range(3))

    def test_forty_long_patterns(self):
        """40 patterns of 150-200 characters pack into more than 6000 bits,
        over 200 CPython int digits, with one of them repeated."""
        rng = np.random.default_rng(5)
        letters = list(WIDE_ALPHABET)

        def word(n):
            return "".join(rng.choice(letters, size=n))

        patterns = [word(rng.integers(150, 201)) for _ in range(39)]
        patterns.insert(20, patterns[7])
        texts = ["", word(180), patterns[7][:170] + word(12)]
        assert sum(len(p) + 1 for p in patterns) > 6000
        assert Q.edit_distances(texts, patterns) == _oracle(texts, patterns)

    @given(st.lists(short_text, max_size=3), st.lists(short_text, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_agrees_with_oracle(self, texts, patterns):
        assert Q.edit_distances(texts, patterns) == _oracle(texts, patterns)

    @given(packed_cases())
    @settings(max_examples=30, deadline=None)
    def test_packed_patterns_agree_with_oracle(self, case):
        """Each pattern's distance is its own: no carry or start bit
        crosses from one packed pattern into the next."""
        texts, patterns = case
        assert Q.edit_distances(texts, patterns) == _oracle(texts, patterns)


class TestNormalize:
    def test_lowercase_whitespace_trailing_period(self):
        assert Q.normalize("A  Dog\truns. ") == "a dog runs"
        assert Q.normalize("no period") == "no period"
        assert Q.normalize("dots..") == "dots."


class TestTemplates:
    def test_label_class_counts(self):
        by_class = {}
        for t in Q.TEMPLATES:
            by_class.setdefault(t.label_class, []).append(t)
        assert set(by_class) == set(Q.LABEL_CLASSES)
        assert len(by_class["general"]) == 8
        assert len(by_class["entailment"]) == 18
        assert len(by_class["neutral"]) == 11
        assert len(by_class["contradiction"]) == 19

    def test_patterns_use_only_known_placeholders(self):
        for t in Q.TEMPLATES:
            stripped = t.pattern.replace(Q.PREMISE_SLOT, "").replace(
                Q.HYPOTHESIS_SLOT, "")
            assert "<" not in stripped and ">" not in stripped

    def test_entailment_instantiation(self):
        out = Q.instantiate_templates("A", "B", "entailment")
        assert "A implies B" in out

    def test_contradiction_instantiation(self):
        out = Q.instantiate_templates("A", "B", "contradiction")
        assert "It can either be A or B" in out

    def test_neutral_instantiation(self):
        out = Q.instantiate_templates("A", "B", "neutral")
        assert "Just because A doesn't mean B" in out

    def test_general_templates_present_for_every_label(self):
        for label in ("entailment", "neutral", "contradiction"):
            out = Q.instantiate_templates("P", "H", label)
            assert "There is P" in out
            assert "Sentence 1 states P. Sentence 2 is stating H" in out

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            Q.instantiate_templates("A", "B", "maybe")

    def test_patterns_are_plain_text(self):
        # instantiation fills each frame verbatim: no optional "(...)"
        # subphrases or "/" alternatives, and one template per frame
        for t in Q.TEMPLATES:
            assert not set("()/") & set(t.pattern), t.pattern
        for label in ("entailment", "neutral", "contradiction"):
            frames = [t for t in Q.TEMPLATES
                      if t.label_class in ("general", label)]
            assert len(Q.instantiate_templates("P", "H", label)) == len(frames)


class TestIsUninformative:
    """Whether an explanation is uninformative (`FilterResult.uninformative`)
    as `nliexpl filter` decides it: `filter_example` at FILTER_THRESHOLD,
    which rates each explanation of an Example on its own."""

    def test_exact_template_distance_zero(self):
        (res,) = Q.filter_example(text_example(
            "A dog runs", "An animal moves", "entailment",
            "a dog runs implies an animal moves"), Q.FILTER_THRESHOLD)
        assert res.uninformative
        assert res.distance == 0

    def test_nine_edits_filtered(self):
        base = Q.normalize("a dog runs in the park implies an animal moves around")
        perturbed = base + "x" * 9
        (res,) = Q.filter_example(text_example(
            "A dog runs in the park", "An animal moves around", "entailment",
            perturbed), Q.FILTER_THRESHOLD)
        assert res.uninformative
        assert res.distance == 9

    def test_distance_ten_not_filtered(self):
        # far from every template: check the reported min distance first
        explanation = "wholly original reasoning with nothing shared"
        (res,) = Q.filter_example(text_example(
            "zq", "xv", "entailment", explanation), Q.FILTER_THRESHOLD)
        assert res.distance >= 10
        assert not res.uninformative

    def test_first_nearest_template_wins(self):
        # "<PREMISE>" and "<HYPOTHESIS>" are the first two frames
        far, near = Q.filter_example(text_example("a", "b", "neutral", "c", "b"),
                                     Q.FILTER_THRESHOLD)
        assert far.nearest_template == "a"
        assert (near.nearest_template, near.distance) == ("b", 0)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        texts = ["".join(rng.choice(list("abcdef "), size=20)) for _ in range(50)]
        e = text_example("abc def", "fed cba", "neutral", *texts)
        for res5, res15 in zip(Q.filter_example(e, threshold=5),
                               Q.filter_example(e, threshold=15)):
            assert res5.distance == res15.distance
            if res5.uninformative:
                assert res15.uninformative

    def test_casing_and_whitespace_ignored(self):
        (res,) = Q.filter_example(text_example(
            "a dog", "an animal", "entailment", "A  DOG implies AN ANIMAL."),
            Q.FILTER_THRESHOLD)
        assert res.uninformative and res.distance == 0

    def test_every_shipped_template_self_filters(self):
        for t in Q.TEMPLATES:
            label = t.label_class if t.label_class != "general" else "neutral"
            inst = t.pattern.replace(Q.PREMISE_SLOT, "a man sings") \
                            .replace(Q.HYPOTHESIS_SLOT, "someone is loud")
            (res,) = Q.filter_example(text_example(
                "a man sings", "someone is loud", label, inst), Q.FILTER_THRESHOLD)
            assert res.uninformative and res.distance == 0, t.pattern

    def test_filter_example_rows(self):
        e = text_example("a dog runs", "an animal moves", "entailment",
                         "a dog runs implies an animal moves",
                         "dogs are animals and running is moving")
        rows = Q.filter_example(e, Q.FILTER_THRESHOLD)
        assert rows[0].uninformative and rows[0].distance == 0
        assert not rows[1].uninformative

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_filter_example_matches_oracle(self, data):
        words = st.sampled_from(["a", "b", "dog", "runs", "park", "\u00e9t\u00e9"])
        premise = " ".join(data.draw(st.lists(words, min_size=1, max_size=6)))
        hypothesis = " ".join(data.draw(st.lists(words, min_size=1, max_size=6)))
        label = data.draw(st.sampled_from(["entailment", "neutral",
                                           "contradiction"]))
        templates = Q.instantiate_templates(premise, hypothesis, label)
        # free text, or a template copy a few edits off
        texts = data.draw(st.lists(st.one_of(
            st.text(alphabet="adog runs.", max_size=60),
            st.tuples(st.sampled_from(templates), st.text(max_size=12)).map(
                lambda tc: tc[0].upper() + tc[1])), min_size=1, max_size=3))
        e = text_example(premise, hypothesis, label, *texts)
        want = []
        for text in texts:
            dists = [levenshtein_full(Q.normalize(text), Q.normalize(t))
                     for t in templates]
            d = min(dists)
            want.append((d < Q.FILTER_THRESHOLD, templates[dists.index(d)], d))
        rows = Q.filter_example(e, Q.FILTER_THRESHOLD)
        assert [(r.uninformative, r.nearest_template, r.distance)
                for r in rows] == want

    def test_filtering_idempotent_on_survivors(self):
        rng = np.random.default_rng(4)
        pool = ["dog", "cat", "runs", "sits", "implies", "park", "happy"]
        texts = [" ".join(rng.choice(pool, size=rng.integers(3, 9)))
                 for _ in range(60)]
        rows = Q.filter_example(text_example(
            "a dog runs", "a cat sits", "entailment", *texts), Q.FILTER_THRESHOLD)
        survivors = [t for t, r in zip(texts, rows) if not r.uninformative]
        assert not any(r.uninformative for r in Q.filter_example(text_example(
            "a dog runs", "a cat sits", "entailment", *survivors),
            Q.FILTER_THRESHOLD))


def _example_from_case(case) -> Example:
    def to_set(v):
        return None if v is None else set(v)

    return Example(
        id=case["id"],
        label=case["label"],
        premise_text=case["premise"],
        hypothesis_text=case["hypothesis"],
        explanation_texts=[case["explanation"]],
        premise_highlights=[to_set(case["premise_highlights"])],
        hypothesis_highlights=[to_set(case["hypothesis_highlights"])],
    )


def load_annotation_cases():
    return json.loads((FIXTURES / "annotation_cases.json").read_text())


class TestValidateAnnotation:
    @pytest.mark.parametrize("case", load_annotation_cases(),
                             ids=lambda c: c["id"])
    def test_fixture_case(self, case):
        report = Q.validate_annotation(_example_from_case(case))
        assert sorted(report.codes()) == sorted(case["expected_violations"])
        assert sorted(report.unverifiable) == sorted(case["expected_unverifiable"])
        assert report.passed == (not case["expected_violations"])

    def test_fixture_covers_every_rule_and_label(self):
        cases = load_annotation_cases()
        assert len(cases) == 20
        labels = {c["label"] for c in cases}
        assert labels == {"entailment", "neutral", "contradiction"}
        seen = {v for c in cases for v in c["expected_violations"]}
        assert {Q.TOO_SHORT, Q.COPY_OF_PREMISE, Q.COPY_OF_HYPOTHESIS,
                Q.MISSING_PREMISE_HIGHLIGHT, Q.MISSING_HYPOTHESIS_HIGHLIGHT,
                Q.FORBIDDEN_PREMISE_HIGHLIGHT, Q.HIGHLIGHTS_UNDERUSED,
                Q.NO_NON_HIGHLIGHTED_WORD} <= seen

    def test_multiple_explanations_validated_independently(self):
        e = Example(id="multi", label="entailment",
                    premise_text="a dog runs fast",
                    hypothesis_text="an animal moves",
                    explanation_texts=["a dog is an animal that moves",
                                       "too short"],
                    premise_highlights=[{0}, {0}],
                    hypothesis_highlights=[None, None])
        report = Q.validate_annotation(e)
        assert Q.TOO_SHORT in report.codes()
        assert any("explanation 1" in v.message for v in report.violations)
