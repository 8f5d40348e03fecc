"""Data-quality tooling: uninformative-explanation filtering and
annotation-constraint validation.

An explanation is uninformative when its edit distance to any template,
instantiated with the full premise/hypothesis, falls strictly below 10
characters, after normalization (lowercase, whitespace runs collapsed,
one trailing period stripped) so casing and punctuation noise cannot
dominate. `edit_distances` is exact Levenshtein, bit-parallel (Myers 1999,
Hyyro 2003), all templates in one pass (Hyyro, Fredriksson, Navarro 2005).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

PREMISE_SLOT = "<PREMISE>"
HYPOTHESIS_SLOT = "<HYPOTHESIS>"
FILTER_THRESHOLD = 10

LABEL_CLASSES = ("general", "entailment", "neutral", "contradiction")


@dataclass(frozen=True)
class Template:
    """An uninformative-explanation frame for one label class."""

    label_class: str
    pattern: str


_GENERAL = [
    "<PREMISE>",
    "<HYPOTHESIS>",
    "<HYPOTHESIS> <PREMISE>",
    "<PREMISE> <HYPOTHESIS>",
    "Sentence 1 states <PREMISE>. Sentence 2 is stating <HYPOTHESIS>",
    "Sentence 2 states <HYPOTHESIS>. Sentence 1 is stating <PREMISE>",
    "There is <PREMISE>",
    "There is <HYPOTHESIS>",
]

_ENTAILMENT = [
    "<PREMISE> implies <HYPOTHESIS>",
    "If <PREMISE> then <HYPOTHESIS>",
    "<PREMISE> would imply <HYPOTHESIS>",
    "<HYPOTHESIS> is a rephrasing of <PREMISE>",
    "<PREMISE> is a rephrasing of <HYPOTHESIS>",
    "In both sentences <HYPOTHESIS>",
    "<PREMISE> would be <HYPOTHESIS>",
    "<PREMISE> can also be said as <HYPOTHESIS>",
    "<HYPOTHESIS> can also be said as <PREMISE>",
    "<HYPOTHESIS> is a less specific rephrasing of <PREMISE>",
    "This clarifies that <HYPOTHESIS>",
    "If <PREMISE> it means <HYPOTHESIS>",
    "<HYPOTHESIS> in both sentences",
    "<HYPOTHESIS> in both",
    "<HYPOTHESIS> is same as <PREMISE>",
    "<PREMISE> is same as <HYPOTHESIS>",
    "<PREMISE> is a synonym of <HYPOTHESIS>",
    "<HYPOTHESIS> is a synonym of <PREMISE>.",
]

_NEUTRAL = [
    "Just because <PREMISE> doesn't mean <HYPOTHESIS>",
    "Cannot infer the <HYPOTHESIS>",
    "One cannot assume <HYPOTHESIS>",
    "One cannot infer that <HYPOTHESIS>",
    "Cannot assume <HYPOTHESIS>",
    "<PREMISE> does not mean <HYPOTHESIS>",
    "We don't know that <HYPOTHESIS>",
    "The fact that <PREMISE> doesn't mean <HYPOTHESIS>",
    "The fact that <PREMISE> does not imply <HYPOTHESIS>",
    "The fact that <PREMISE> does not always mean <HYPOTHESIS>",
    "The fact that <PREMISE> doesn't always imply <HYPOTHESIS>.",
]

_CONTRADICTION = [
    "In sentence 1 <PREMISE> while in sentence 2 <HYPOTHESIS>",
    "It can either be <PREMISE> or <HYPOTHESIS>",
    "It cannot be <HYPOTHESIS> if <PREMISE>",
    "Either <PREMISE> or <HYPOTHESIS>",
    "Either <HYPOTHESIS> or <PREMISE>",
    "<PREMISE> and other <HYPOTHESIS>",
    "<HYPOTHESIS> and other <PREMISE>",
    "<HYPOTHESIS> after <PREMISE>",
    "<PREMISE> is not the same as <HYPOTHESIS>",
    "<HYPOTHESIS> is not the same as <PREMISE>",
    "<PREMISE> is contradictory to <HYPOTHESIS>",
    "<HYPOTHESIS> is contradictory to <PREMISE>",
    "<PREMISE> contradicts <HYPOTHESIS>",
    "<HYPOTHESIS> contradicts <PREMISE>",
    "<PREMISE> cannot also be <HYPOTHESIS>",
    "<HYPOTHESIS> cannot also be <PREMISE>",
    # the shipped list intentionally repeats one frame
    "Either <PREMISE> or <HYPOTHESIS>",
    "Either <PREMISE> or <HYPOTHESIS> not both at the same time",
    "<PREMISE> or <HYPOTHESIS> not both at the same time.",
]

TEMPLATES: tuple[Template, ...] = tuple(
    [Template("general", p) for p in _GENERAL]
    + [Template("entailment", p) for p in _ENTAILMENT]
    + [Template("neutral", p) for p in _NEUTRAL]
    + [Template("contradiction", p) for p in _CONTRADICTION]
)

_WS_RUN = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase, collapse whitespace runs, strip one trailing period."""
    text = _WS_RUN.sub(" ", text.strip()).lower()
    if text.endswith("."):
        text = text[:-1].rstrip()
    return text


def edit_distances(texts: list[str], patterns: list[str]) -> list[list[int]]:
    """Character-level Levenshtein distance, unit costs, of each text to
    each pattern: `[[d(t, p) for p in patterns] for t in texts]`. Myers'
    algorithm (J. ACM 1999) in Hyyro's 2003 form, all patterns packed into
    one Python int (Hyyro, Fredriksson and Navarro, JEA 2005): one pass per
    text. A zero guard bit after each pattern takes the carry out of its
    `(eq & pv) + pv`; `starts` sets each one's row-0 delta to +1."""
    peq: dict[str, int] = {}
    blocks = []   # (offset, width mask) of each pattern
    starts = mask = off = 0
    for p in patterns:
        own: dict[str, int] = {}
        bit = 1
        for c in p:
            own[c] = own.get(c, 0) | bit
            bit <<= 1
        for c, bits in own.items():
            peq[c] = peq.get(c, 0) | bits << off
        width = (1 << len(p)) - 1
        blocks.append((off, width))
        starts |= 1 << off
        mask |= width << off
        off += len(p) + 1
    out = []
    for text in texts:
        # bit i of pv/mv: D[i+1][j] - D[i][j] is +1/-1 in a pattern, so its
        # D[m][n] = n + popcounts; `mask ^` is a ~ that keeps ints nonnegative
        pv, mv = mask, 0
        for c in text:
            eq = peq.get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask ^ (xh | pv))
            mh = pv & xh
            ph = (ph << 1) | starts
            pv = ((mh << 1) | (mask ^ (xv | ph))) & mask
            mv = ph & xv
        out.append([len(text) + (pv >> o & w).bit_count() - (mv >> o & w).bit_count()
                    for o, w in blocks])
    return out


def instantiate_templates(premise: str, hypothesis: str, label: str) -> list[str]:
    """All general templates plus the given label class's templates, with
    the placeholders replaced by the full sentences."""
    if label not in LABEL_CLASSES:
        raise ValueError(f"unknown label class {label!r}")
    return [tpl.pattern.replace(PREMISE_SLOT, premise)
            .replace(HYPOTHESIS_SLOT, hypothesis)
            for tpl in TEMPLATES if tpl.label_class in ("general", label)]


@dataclass
class FilterResult:
    uninformative: bool
    nearest_template: str
    distance: int


def filter_example(example, threshold: int) -> list[FilterResult]:
    """Each explanation's FilterResult, in the example's order: the first
    template at the minimum distance, uninformative iff that distance is
    strictly below `threshold`. Templates are instantiated, normalized
    and packed once per example."""
    templates = instantiate_templates(example.premise_text,
                                      example.hypothesis_text, example.label)
    results = []
    for ds in edit_distances([normalize(e) for e in example.explanation_texts],
                             [normalize(t) for t in templates]):
        best = min(ds)
        results.append(FilterResult(best < threshold, templates[ds.index(best)], best))
    return results


# ---------------------------------------------------------------------------
# Annotation validation

TOO_SHORT = "too-short"
COPY_OF_PREMISE = "copy-of-premise"
COPY_OF_HYPOTHESIS = "copy-of-hypothesis"
MISSING_PREMISE_HIGHLIGHT = "missing-premise-highlight"
MISSING_HYPOTHESIS_HIGHLIGHT = "missing-hypothesis-highlight"
FORBIDDEN_PREMISE_HIGHLIGHT = "forbidden-premise-highlight"
HIGHLIGHTS_UNDERUSED = "highlights-underused"
NO_NON_HIGHLIGHTED_WORD = "no-non-highlighted-word"
INVALID_HIGHLIGHT_INDEX = "invalid-highlight-index"
UNVERIFIABLE_HIGHLIGHTS = "unverifiable-highlights"


@dataclass
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    example_id: str
    violations: list[Violation] = field(default_factory=list)
    unverifiable: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


def _pick_words(tokens: list[str], indices: set[int], flag, where: str):
    words = set()
    for i in sorted(indices):
        if 0 <= i < len(tokens):
            words.add(tokens[i])
        else:
            flag(INVALID_HIGHLIGHT_INDEX,
                 f"{where} highlight index {i} out of range")
    return words


def validate_annotation(example) -> ValidationReport:
    """Check one Example against the annotation constraints.

    Rules per explanation: (1) at least 3 tokens; (2) not a copy of the
    premise or hypothesis; (3) label-specific highlight minima (and the
    neutral premise prohibition); (4) at least half the highlighted
    words appear in the explanation; (5) at least one explanation word
    is not highlighted. Explanations without any highlight annotation
    get an `unverifiable` marker for rules 3-5 instead of a failure.
    """
    report = ValidationReport(example_id=example.id)
    for k, tokens in enumerate(example.explanations):
        def flag(code: str, message: str) -> None:
            report.violations.append(Violation(code, f"explanation {k}: {message}"))

        if len(tokens) < 3:
            flag(TOO_SHORT, f"only {len(tokens)} tokens")
        if tokens == example.premise:
            flag(COPY_OF_PREMISE, "copies the premise")
        if tokens == example.hypothesis:
            flag(COPY_OF_HYPOTHESIS, "copies the hypothesis")

        p_high = (example.premise_highlights[k]
                  if k < len(example.premise_highlights) else None)
        h_high = (example.hypothesis_highlights[k]
                  if k < len(example.hypothesis_highlights) else None)
        if p_high is None and h_high is None:
            report.unverifiable.append(UNVERIFIABLE_HIGHLIGHTS)
            continue
        p_high = p_high or set()
        h_high = h_high or set()

        label = example.label
        if label in ("entailment", "contradiction") and not p_high:
            flag(MISSING_PREMISE_HIGHLIGHT,
                 f"{label} requires a premise highlight")
        if label in ("contradiction", "neutral") and not h_high:
            flag(MISSING_HYPOTHESIS_HIGHLIGHT,
                 f"{label} requires a hypothesis highlight")
        if label == "neutral" and p_high:
            flag(FORBIDDEN_PREMISE_HIGHLIGHT,
                 "neutral must not highlight the premise")

        words = _pick_words(example.premise, p_high, flag, "premise")
        words |= _pick_words(example.hypothesis, h_high, flag, "hypothesis")
        expl_words = set(tokens)
        if words:
            used = len(words & expl_words)
            if used * 2 < len(words):
                flag(HIGHLIGHTS_UNDERUSED,
                     f"uses {used}/{len(words)} highlighted words")
        if not expl_words - words:
            flag(NO_NON_HIGHLIGHTED_WORD, "contains only highlighted words")
    return report
