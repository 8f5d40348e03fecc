"""Tests for template filtering and annotation validation."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nliexpl import quality as Q
from nliexpl.data import Example, tokenize
from oracles import levenshtein_full
from synth import text_example

FIXTURES = Path(__file__).parent / "fixtures"

short_text = st.text(alphabet="abcdef ", max_size=12)

# few letters so characters repeat, plus non-ASCII; up to 200 characters
# so the bit vectors span several 30-bit CPython int digits
WIDE_ALPHABET = "aab e\u00e9\u00fc\u4e2d"
long_text = st.integers(0, 200).flatmap(lambda n: st.one_of(
    st.text(alphabet=WIDE_ALPHABET, min_size=n, max_size=n),
    st.text(min_size=n, max_size=n)))
LIMITS = (None, *range(1, 13), 10_000)


@st.composite
def near_pairs(draw):
    """(a, b) with b a few random edits away from a, so distances fall
    on both sides of the small limits."""
    a = draw(long_text)
    b = list(a)
    for _ in range(draw(st.integers(0, 14))):
        i = draw(st.integers(0, len(b)))
        c = draw(st.sampled_from(WIDE_ALPHABET))
        op = draw(st.sampled_from("ids"))
        if op == "i":
            b.insert(i, c)
        elif i < len(b):
            if op == "d":
                del b[i]
            else:
                b[i] = c
    return a, "".join(b)


class TestEditDistance:
    def test_identity(self):
        assert Q.edit_distance("abc", "abc", None) == 0

    def test_kitten_sitting(self):
        assert levenshtein_full("kitten", "sitting") == 3
        assert Q.edit_distance("kitten", "sitting", None) == 3

    def test_pure_insertions(self):
        assert Q.edit_distance("", "abcd", None) == 4
        assert Q.edit_distance("abcd", "", None) == 4

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(0)
        letters = "abcde"
        for _ in range(300):
            a = "".join(rng.choice(list(letters), size=rng.integers(0, 12)))
            b = "".join(rng.choice(list(letters), size=rng.integers(0, 12)))
            assert Q.edit_distance(a, b, None) == levenshtein_full(a, b)

    def test_banded_limit_caps(self):
        rng = np.random.default_rng(1)
        letters = "abc"
        for _ in range(300):
            a = "".join(rng.choice(list(letters), size=rng.integers(0, 15)))
            b = "".join(rng.choice(list(letters), size=rng.integers(0, 15)))
            true_d = levenshtein_full(a, b)
            for limit in (1, 3, 10):
                capped = Q.edit_distance(a, b, limit=limit)
                assert capped == min(true_d, limit)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(2)
        letters = "abcd"
        for _ in range(1000):
            a, b, c = ("".join(rng.choice(list(letters), size=rng.integers(0, 8)))
                       for _ in range(3))
            dab = Q.edit_distance(a, b, None)
            assert dab == Q.edit_distance(b, a, None)
            assert (dab == 0) == (a == b)
            assert dab <= Q.edit_distance(a, c, None) + Q.edit_distance(c, b, None)

    @given(short_text, short_text)
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_agrees_with_oracle(self, a, b):
        assert Q.edit_distance(a, b, None) == levenshtein_full(a, b)

    @given(st.one_of(st.tuples(long_text, long_text), near_pairs()))
    @settings(max_examples=150, deadline=None)
    def test_limit_contract_on_long_strings(self, pair):
        a, b = pair
        true_d = levenshtein_full(a, b)
        for limit in LIMITS:
            want = true_d if limit is None else min(true_d, limit)
            assert Q.edit_distance(a, b, limit) == want, limit
            assert Q.edit_distance(b, a, limit) == want, limit


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
        e = Example(id="x", premise=premise.split(),
                    hypothesis=hypothesis.split(), label=label,
                    explanations=[t.split() for t in texts],
                    premise_text=premise, hypothesis_text=hypothesis,
                    explanation_texts=texts)
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
        premise=tokenize(case["premise"]),
        hypothesis=tokenize(case["hypothesis"]),
        label=case["label"],
        explanations=[tokenize(case["explanation"])],
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
        e = Example(id="multi", premise=tokenize("a dog runs fast"),
                    hypothesis=tokenize("an animal moves"), label="entailment",
                    explanations=[tokenize("a dog is an animal that moves"),
                                  tokenize("too short")],
                    premise_highlights=[{0}, {0}],
                    hypothesis_highlights=[None, None])
        report = Q.validate_annotation(e)
        assert Q.TOO_SHORT in report.codes()
        assert any("explanation 1" in v.message for v in report.violations)
