"""Per-layer metrics computed from the spans of a traced run.

Each metric is a total over the traced units divided by their number, so
it reads per unit of work (one set-up plus one iteration of the
workload), except where the name says otherwise (`_per_step`, `p50`,
`ratio`, `frac`). `.s` is inclusive span time, `self_s` and the
`autodiff.fwd.*` / `bwd.*` / `accum_s` times are self time. A metric the
workload never exercises reads 0.
"""

from __future__ import annotations

import statistics

from spans import ATTRS, END, LAYERS, NAME, PARENT, START, op_kind

# The autodiff ops reported one by one; every other autodiff function
# (scale, sum_, abs_, sub, reshape, lstm_cell glue, init helpers, ...)
# is pooled under `other`.
OPS = ("linear", "sigmoid_", "tanh_", "slice_last", "mul", "add", "mul_const",
       "concat", "softmax", "nll_rows", "embedding_lookup", "max_over_time",
       "reverse_steps", "stack_steps", "attn_scores", "attn_combine", "other")


def _per_layer_spec() -> list[tuple[str, str]]:
    spec = []
    for op in OPS:
        spec += [(f"autodiff.fwd.{op}.s", "s"), (f"autodiff.fwd.{op}.calls", "count"),
                 (f"autodiff.bwd.{op}.s", "s")]
    spec += [
        ("autodiff.backward.accum_s", "s"),
        ("autodiff.sgd_step.s", "s"),
        ("autodiff.tape.records_per_step", "count"),
        ("autodiff.tape.activation_bytes_per_step", "B"),
        ("autodiff.gemm_flops_per_step", "flop"),
        ("models.encode.s", "s"),
        ("models.encode.calls", "count"),
        ("models.teacher_forced.s", "s"),
        ("models.greedy.s", "s"),
        ("models.greedy.steps", "count"),
        ("models.etp.encode_calls", "count"),
        ("training.step_s.p50", "s"),
        ("training.step_s.p90", "s"),
        ("training.data_wait_s", "s"),
        ("training.validation_s", "s"),
        ("evaluation.predict_all.s", "s"),
        ("evaluation.perplexity.s", "s"),
        ("evaluation.generate_all.s", "s"),
        ("evaluation.bleu.s", "s"),
        ("quality.edit_distance.calls", "count"),
        ("quality.edit_distance.s", "s"),
        ("quality.edit_distance.cells", "count"),
        ("quality.edit_distance.cutoff_ratio", "ratio"),
        ("quality.expand_pattern.calls", "count"),
        ("quality.normalize.calls", "count"),
        ("quality.validate_annotation.s", "s"),
        ("data.load_corpus.s", "s"),
        ("data.tokenize.calls", "count"),
        ("data.encode_corpus.s", "s"),
        ("data.make_batch.s", "s"),
        ("checkpoint.save.s", "s"),
        ("checkpoint.save.bytes", "B"),
        ("checkpoint.load.s", "s"),
    ]
    spec += [(f"{layer}.self_s", "s") for layer in LAYERS]
    spec += [("trace.overhead_frac", "ratio"), ("trace.step_coverage", "ratio")]
    return spec


PER_LAYER = _per_layer_spec()

# Spans reported as inclusive time under a shorter metric name.
INCLUSIVE = {
    "models.BiLstmEncoder.encode": "models.encode",
    "models.LstmDecoder.teacher_forced": "models.teacher_forced",
    "models.LstmDecoder.greedy": "models.greedy",
    "evaluation.predict_all": "evaluation.predict_all",
    "evaluation.perplexity": "evaluation.perplexity",
    "evaluation.generate_all": "evaluation.generate_all",
    "evaluation.bleu": "evaluation.bleu",
    "quality.edit_distance": "quality.edit_distance",
    "quality.validate_annotation": "quality.validate_annotation",
    "data.load_corpus": "data.load_corpus",
    "data.encode_corpus": "data.encode_corpus",
    "data.make_batch": "data.make_batch",
    "checkpoint.save_checkpoint": "checkpoint.save",
    "checkpoint.load_checkpoint": "checkpoint.load",
}
CALLS = {
    "models.BiLstmEncoder.encode": "models.encode.calls",
    "quality.edit_distance": "quality.edit_distance.calls",
    "quality.expand_pattern": "quality.expand_pattern.calls",
    "quality.normalize": "quality.normalize.calls",
    "data.tokenize": "data.tokenize.calls",
}
ETP_SPAN = "models.ExplainThenPredict.predict"
TRAIN_SPAN = "training.train"
BATCH_SPAN = "data.iterate_batches"


# -- counters stored on spans while tracing


def _backward_counts(tape) -> dict:
    records = tape.records
    flops = 0
    for _, inputs, fn in records:
        if op_kind(fn) == "linear":
            x, w = inputs[0].data, inputs[1].data
            # forward 2mnk plus the two backward GEMMs, 4mnk
            flops += 6 * (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]
    return {"records": len(records),
            "act_bytes": sum(out.data.nbytes for out, _, _ in records),
            "gemm_flops": flops}


def _edit_distance_counts(args, kwargs, result) -> dict:
    a, b = args[0], args[1]
    limit = kwargs.get("limit", args[2] if len(args) > 2 else None)
    return {"cells": len(a) * len(b),
            "cut": limit is not None and result == limit}


def _greedy_counts(args, kwargs, result) -> dict:
    emitted = result[0]
    longest = max((len(e) for e in emitted), default=0)
    return {"steps": min(args[0].max_len, longest + 1)}


def _save_counts(args, kwargs, result) -> dict:
    arrays = args[1] if len(args) > 1 else kwargs["arrays"]
    return {"bytes": sum(4 * arr.size for arr in arrays.values())}


COUNTERS = {
    "autodiff.backward": _backward_counts,
    "quality.edit_distance": _edit_distance_counts,
    "models.LstmDecoder.greedy": _greedy_counts,
    "models.BiLstmEncoder.encode": lambda a, k, r: {"prefix": a[0].prefix},
    "checkpoint.save_checkpoint": _save_counts,
}


# -- aggregation


def _op_of(name: str) -> str:
    op = name.rsplit(".", 1)[1]
    return op if op in OPS else "other"


def _has_ancestor(spans, idx: int, name: str) -> bool:
    idx = spans[idx][PARENT]
    while idx >= 0:
        if spans[idx][NAME] == name:
            return True
        idx = spans[idx][PARENT]
    return False


def step_windows(spans) -> list[tuple[int, float, float]]:
    """(train span, start, end) of every training step.

    A step runs from the end of one batch fetch inside `training.train`
    to the start of the next: loss, backward and the SGD update.
    """
    fetches: dict[int, list] = {}
    for s in spans:
        parent = s[PARENT]
        if s[NAME] == BATCH_SPAN and parent >= 0 and spans[parent][NAME] == TRAIN_SPAN:
            fetches.setdefault(parent, []).append(s)
    windows = []
    for parent, seq in fetches.items():
        for a, b in zip(seq, seq[1:]):
            windows.append((parent, a[END], b[START]))
    return windows


def step_coverage(spans, windows) -> float:
    """Share of step time covered by traced calls (the self times of
    everything beneath them add up to their inclusive time)."""
    total = sum(end - start for _, start, end in windows)
    if not total:
        return 0.0
    covered = 0.0
    by_parent: dict[int, list] = {}
    for s in spans:
        if s[NAME] != BATCH_SPAN:
            by_parent.setdefault(s[PARENT], []).append(s)
    for parent, start, end in windows:
        for s in by_parent.get(parent, ()):
            if s[START] >= start and s[END] <= end:
                covered += s[END] - s[START]
    return covered / total


def layer_metrics(spans, self_times, units: int, overhead: float) -> dict:
    """Every PER_LAYER metric as {name: (value, unit)}."""
    units = max(units, 1)
    totals = {name: 0.0 for name, _ in PER_LAYER}
    backward_attrs = []
    for idx, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        own = self_times[idx]
        layer = name.split(".", 1)[0]
        totals[f"{layer}.self_s"] += own
        if name.startswith("autodiff.bwd."):
            totals[f"autodiff.bwd.{_op_of(name)}.s"] += dur
        elif name == "autodiff.backward":
            totals["autodiff.backward.accum_s"] += own
            backward_attrs.append(s[ATTRS])
        elif name == "autodiff.sgd_step":
            totals["autodiff.sgd_step.s"] += dur
        elif layer == "autodiff":
            op = _op_of(name)
            totals[f"autodiff.fwd.{op}.s"] += own
            totals[f"autodiff.fwd.{op}.calls"] += 1
        if name in INCLUSIVE:
            totals[INCLUSIVE[name] + ".s"] += dur
        if name in CALLS:
            totals[CALLS[name]] += 1
        attrs = s[ATTRS]
        if name == "quality.edit_distance":
            totals["quality.edit_distance.cells"] += attrs["cells"]
            totals["quality.edit_distance.cutoff_ratio"] += attrs["cut"]
        elif name == "models.LstmDecoder.greedy":
            totals["models.greedy.steps"] += attrs["steps"]
        elif name == "checkpoint.save_checkpoint":
            totals["checkpoint.save.bytes"] += attrs["bytes"]
        elif (name == "models.BiLstmEncoder.encode"
              and attrs["prefix"] == "explanation_encoder"
              and _has_ancestor(spans, idx, ETP_SPAN)):
            totals["models.etp.encode_calls"] += 1
        elif name == BATCH_SPAN and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == TRAIN_SPAN:
            totals["training.data_wait_s"] += dur
        elif (layer == "evaluation" and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == TRAIN_SPAN):
            totals["training.validation_s"] += dur

    per_step = ("autodiff.tape.records_per_step",
                "autodiff.tape.activation_bytes_per_step",
                "autodiff.gemm_flops_per_step")
    special = set(per_step) | {"quality.edit_distance.cutoff_ratio",
                               "training.step_s.p50", "training.step_s.p90",
                               "trace.overhead_frac", "trace.step_coverage"}
    values = {name: (totals[name] / units if name not in special else 0.0)
              for name, _ in PER_LAYER}
    calls = totals["quality.edit_distance.calls"]
    if calls:
        values["quality.edit_distance.cutoff_ratio"] = (
            totals["quality.edit_distance.cutoff_ratio"] / calls)
    if backward_attrs:
        for metric, key in zip(per_step, ("records", "act_bytes", "gemm_flops")):
            values[metric] = statistics.fmean(a[key] for a in backward_attrs)
    windows = step_windows(spans)
    if windows:
        steps = [end - start for _, start, end in windows]
        values["training.step_s.p50"] = statistics.median(steps)
        values["training.step_s.p90"] = (statistics.quantiles(steps, n=10)[-1]
                                         if len(steps) > 1 else steps[0])
        values["trace.step_coverage"] = step_coverage(spans, windows)
    values["trace.overhead_frac"] = overhead
    units_of = dict(PER_LAYER)
    return {name: (values[name], units_of[name]) for name, _ in PER_LAYER}
