"""Outside-in layer tracer for fillcalc, installed by rebinding names.

Each layer is one ``fillcalc`` module.  Its traced entry points are the
functions named in the module's ``__all__`` or re-exported by the package
``__init__``, plus the public methods of ``Word`` and ``WordEditor``.  The
tracer wraps each entry point once and rebinds every alias of it that a
``fillcalc`` module holds (``from .x import y`` copies the function into the
importing module, so patching only the defining module would miss most
calls).  ``uninstall`` puts every original back and ``leftover_wrappers``
proves it did.

A span opens only where a call crosses from one layer into another, or on a
call to one of the ``PINNED`` functions, whose own timings are reported.
It records name, start, end and the index of its parent span; a layer's self
time is its spans' durations minus the parts their child spans cover.
Calls that open no span are still counted.  Entry points in ``COUNT_ONLY``
run millions of times per batch and are counted, never timed; their time
stays with the span that called them.

Nothing in fillcalc waits on I/O, locks or other processes, so a span's
time is all computation and no layer has a waiting time to report.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "words",
    "rewriting",
    "seqbuild",
    "oracle",
    "intlinalg",
    "pulldown",
    "bestvina_brady",
    "constructors",
)

# classes whose public methods are entry points, by layer
CLASSES = {"words": ("Word",), "seqbuild": ("WordEditor",)}

# private methods counted because a metric is defined on them
EXTRA_METHODS = {"words.Word.__init__", "seqbuild.WordEditor._emit"}

COUNT_ONLY = {
    "words.Word.__init__",
    "words.Word.inverse",
    "words.Word.prefix",
    "words.Word.generators",
    "words.Word.is_reduced",
    "words.cyclic_conjugate",
    "seqbuild.WordEditor._emit",
}

PINNED = {
    "rewriting.find_relator_move",
    "rewriting.validate_expression",
    "rewriting.replay_sequence",
    "oracle.area_exact",
    "oracle.find_filling",
    "oracle.dehn_sample",
    "pulldown.flatten_expression",
    "bestvina_brady.bb_relator_scheme",
}

_MARK = "__perfbench_original__"


def _observe_area(counts: Dict[str, int], result) -> None:
    counts["oracle.states"] += result.states
    if result.kind == "budget-exhausted":
        counts["oracle.budget_exhausted"] += 1


def _observe_dehn(counts: Dict[str, int], result) -> None:
    counts["oracle.words_checked"] += result.words_checked


# counters read off the result objects that entry points return
OBSERVERS: Dict[str, Callable] = {
    "oracle.area_exact": _observe_area,
    "oracle.find_filling": _observe_area,
    "oracle.dehn_sample": _observe_dehn,
}


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.raised: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        # (name, layer, start, end, parent index); None while the span is open
        self.spans: List = []
        self._stack: List[Tuple[str, int]] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _count_wrapper(self, fn, name: str):
        calls = self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return traced

    def _span_wrapper(self, fn, name: str, layer: str):
        calls, raised, counts = self.calls, self.raised, self.counts
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pinned = name in PINNED
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            calls[name] += 1
            if not pinned and stack and stack[-1][0] == layer:
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    raised[name] += 1
                    raise
            idx = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            stack.append((layer, idx))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent)
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def _wrap(self, fn, name: str, layer: str):
        if name in COUNT_ONLY:
            traced = self._count_wrapper(fn, name)
        else:
            traced = self._span_wrapper(fn, name, layer)
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        setattr(traced, _MARK, fn)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        import fillcalc

        wrappers: Dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"fillcalc.{layer}"]
            names = set(getattr(module, "__all__", ()))
            names.update(
                name
                for name, value in vars(fillcalc).items()
                if inspect.isfunction(value) and value.__module__ == module.__name__
            )
            for name in sorted(names):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", layer)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, fn in list(vars(cls).items()):
                    qual = f"{layer}.{cls_name}.{attr}"
                    if inspect.isfunction(fn) and (
                        not attr.startswith("_") or qual in EXTRA_METHODS
                    ):
                        self._set(cls, attr, self._wrap(fn, qual, layer))
        originals = {id(getattr(w, _MARK)): w for w in wrappers.values()}
        for module in _fillcalc_modules():
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and getattr(wrapper, _MARK) is value:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, List[float]]]:
        """Per-layer and per-function self time, and per-function span
        durations, from the recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        by_layer: Dict[str, float] = defaultdict(float)
        by_name: Dict[str, float] = defaultdict(float)
        durations: Dict[str, List[float]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, layer, start, end, _ = span
            own = end - start - child[i]
            by_layer[layer] += own
            by_name[name] += own
            durations[name].append(end - start)
        return by_layer, by_name, durations

    def metrics(self, wall: float) -> Dict[str, float]:
        """The per-layer metrics of one traced batch; ``wall`` is the traced
        time (build plus items) that layer shares are taken of."""
        by_layer, by_name, durations = self.self_times()
        calls = self.calls
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(
                n for name, n in calls.items() if name.split(".")[0] == layer
            )
            out[f"{layer}.self_s"] = by_layer[layer]
            out[f"{layer}.share"] = by_layer[layer] / wall
        out["words.word_new"] = calls["words.Word.__init__"]
        out["words.cyclic_conjugate.calls"] = calls["words.cyclic_conjugate"]
        frm = "rewriting.find_relator_move"
        out[f"{frm}.calls"] = calls[frm]
        out[f"{frm}.self_s"] = by_name[frm]
        out[f"{frm}.hit_ratio"] = (
            (calls[frm] - self.raised[frm]) / calls[frm] if calls[frm] else 0.0
        )
        for name in ("rewriting.validate_expression", "rewriting.replay_sequence"):
            out[f"{name}.self_s"] = by_name[name]
        out["seqbuild.moves_emitted"] = calls["seqbuild.WordEditor._emit"]
        area = durations["oracle.area_exact"]
        out["oracle.area_exact.calls"] = calls["oracle.area_exact"]
        out["oracle.area_exact.self_s"] = by_name["oracle.area_exact"]
        out["oracle.area_exact.p50_ms"] = 1000.0 * _median(area) if area else 0.0
        search_s = by_name["oracle.area_exact"] + by_name["oracle.find_filling"]
        out["oracle.states"] = self.counts["oracle.states"]
        out["oracle.states_per_s"] = self.counts["oracle.states"] / search_s if search_s else 0.0
        out["oracle.budget_exhausted"] = self.counts["oracle.budget_exhausted"]
        out["oracle.find_filling.self_s"] = by_name["oracle.find_filling"]
        out["oracle.dehn_sample.self_s"] = by_name["oracle.dehn_sample"]
        out["oracle.words_checked"] = self.counts["oracle.words_checked"]
        out["intlinalg.in_lattice.calls"] = calls["intlinalg.in_lattice"]
        out["pulldown.flatten_expression.self_s"] = by_name["pulldown.flatten_expression"]
        out["pulldown.relator_filling.calls"] = calls["pulldown.relator_filling"]
        out["bestvina_brady.bb_relator_scheme.self_s"] = by_name[
            "bestvina_brady.bb_relator_scheme"
        ]
        out["spans"] = len(self.spans)
        return out


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _fillcalc_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fillcalc" or name.startswith("fillcalc."))
    ]


def leftover_wrappers() -> List[str]:
    """Names in fillcalc modules and traced classes still bound to a tracer
    wrapper; empty after a clean uninstall."""
    found = []
    owners = _fillcalc_modules()
    for layer, class_names in CLASSES.items():
        module = sys.modules.get(f"fillcalc.{layer}")
        if module is not None:
            owners.extend(getattr(module, c) for c in class_names)
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, _MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
