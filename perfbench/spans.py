"""Outside-in span tracer for the nliexpl layers.

`Tracer.install()` replaces the public functions of each layer module
(and the public methods of the classes in `models`) with wrappers that
record a span per call: name, start, end, parent span and a few counts.
A function imported by name into another module (`from .data import
iterate_batches`) is replaced there too, since that is where the call
looks it up. `autodiff.backward` gets a wrapper of its own that times
every recorded backward function, keyed by the op that recorded it.
`uninstall()` puts every original back. Nothing under `src/` changes.

Spans live in memory as [name, start, end, parent index, attrs]; the
runner writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("autodiff", "data", "quality", "models", "training", "evaluation",
          "checkpoint", "cli")
# Methods of these model classes are spans too; everything else in a
# layer is its module-level public functions.
CLASS_LAYERS = ("models",)
# `config` is parse-only and left out.

NAME, START, END, PARENT, ATTRS = range(5)


def op_kind(fn) -> str:
    """`linear.<locals>._bw` -> `linear`: the op that recorded `fn`."""
    return fn.__qualname__.split(".")[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.spans[idx][ATTRS] = counter(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _timed_backward_fn(self, fn):
        name = "autodiff.bwd." + op_kind(fn)
        tracer = self

        def timed(g):
            idx = tracer.open(name)
            try:
                return fn(g)
            finally:
                tracer.close(idx)
        return timed

    # -- installation

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, counters: dict | None = None,
                only: set[str] | None = None) -> None:
        """Wrap every layer, or just the span names in `only`.

        `counters` maps a span name to a function (args, kwargs, result)
        -> attrs stored on that span; for `autodiff.backward` it is
        called with the tape before the backward pass instead.
        """
        counters = counters or {}

        def wanted(name):
            return only is None or name in only

        modules = {layer: importlib.import_module(f"nliexpl.{layer}")
                   for layer in LAYERS}
        package = importlib.import_module("nliexpl")
        everywhere = [package] + list(modules.values())
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name == "autodiff.backward"
                        or not wanted(name) or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                replaced[id(value)] = self._wrap(name, value, counters.get(name))
            if layer in CLASS_LAYERS:
                for cls in vars(mod).values():
                    if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                        continue
                    for attr, value in list(vars(cls).items()):
                        name = f"{layer}.{cls.__name__}.{attr}"
                        if (attr.startswith("_") or not wanted(name)
                                or not inspect.isfunction(value)):
                            continue
                        self._set(cls, attr,
                                  self._wrap(name, value, counters.get(name)))
        for mod in everywhere:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
        if wanted("autodiff.backward"):
            self._install_backward(modules["autodiff"], everywhere,
                                   counters.get("autodiff.backward"))

    def _install_backward(self, ad, everywhere, counter) -> None:
        orig_backward = ad.backward
        tracer = self

        def traced_backward(tape, loss):
            attrs = counter(tape) if counter else None
            tape.records[:] = [(out, inputs, tracer._timed_backward_fn(fn))
                               for out, inputs, fn in tape.records]
            idx = tracer.open("autodiff.backward", attrs)
            try:
                return orig_backward(tape, loss)
            finally:
                tracer.close(idx)
        traced_backward.__wrapped__ = orig_backward
        for mod in everywhere:
            if vars(mod).get("backward") is orig_backward:
                self._set(mod, "backward", traced_backward)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
