"""Traced runs: timers around the calls into each digitop module.

The tracer patches a public function where its callers look it up (every
digitop module namespace that binds it, or the class for methods), so
src/ is not touched.  Layer-entry calls record a span: name, start, end,
parent and op id.  Hot leaf calls add a count and their summed time to the
innermost open span instead, because one hunt pass makes about 1.5M
distance calls.  Nothing is recorded outside an op, so output checks run
between ops do not count.

A span's self time is its duration minus what its children cover: its
child spans and the leaf calls made directly from it.  Spans stay in
memory during a pass and are written out after it.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

CHECKERS = (
    "check_banach",
    "lipschitz_min",
    "check_kannan",
    "check_quasi",
    "check_ciric5",
    "check_pair_domination",
    "check_saluja",
    "parv_rational_check",
    "weakly_commutative",
    "compatible",
)

# Patched target -> span name.
SPANS = {
    "search.find_counterexample": "search.find",
    "fixpoint.banach_verify": "fixpoint.verify",
    "fixpoint.kannan_verify": "fixpoint.verify",
    "mapkit.has_fpp": "mapkit.has_fpp",
    "documents.load_document": "documents.load",
    "cli.main": "cli.main",
    **{f"contracts.{c}": f"contracts.{c}" for c in CHECKERS},
}
# Patched target -> leaf name.
LEAVES = {
    "space.adjacent": "space.adjacent",
    "exact.compare": "exact.compare",
    "exact.RadicalSum.sign": "exact.sign",
    "metric.DigitalMetricSpace.distance": "metric.distance",
    "mapkit.SelfMap.__call__": "mapkit.selfmap_call",
    "mapkit.orbit": "mapkit.orbit",
    "mapkit.continuity_violation": "mapkit.continuity",
    "mapkit.enumerate_selfmaps": "mapkit.enumerate",
    "fixpoint.alternating_orbit": "fixpoint.alternating_orbit",
    "documents.serialize_document": "documents.serialize",
}
MODULES = ("space", "exact", "metric", "mapkit", "contracts", "fixpoint", "search", "documents", "cli")

# Counts that must repeat exactly between two traced passes of one input.
FINGERPRINT = (
    "search.instances_scanned",
    "search.hypothesis_hits",
    "mapkit.maps_enumerated",
    "metric.distance_calls",
    "metric.distance_keys",
    "exact.sign_calls",
)

# Span fields.
ID, NAME, START, END, PARENT, OP, LEAF_S, RESULT, LEAF_STATS = range(9)


def _checker_holds(result):
    """Whether a checker's condition held; hooks run with tracing paused."""
    if hasattr(result, "condition"):
        return result.condition.holds
    if hasattr(result, "holds"):
        return result.holds
    return result < 1  # lipschitz_min: a contraction


def _search_counts(outcome):
    return outcome.stats["instances_scanned"], outcome.stats["hypothesis_hits"]


# Span name -> what its span keeps of the call's result.
HOOKS = {"search.find": _search_counts}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaf_depth = 0
        self.op_id = 0
        self.keys: set = set()
        self._space_keys: dict = {}
        self._undo: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"digitop.{m}") for m in MODULES}
        namespaces = [importlib.import_module("digitop").__dict__]
        namespaces += [m.__dict__ for m in modules.values()]
        for target, name in {**SPANS, **LEAVES}.items():
            module, *path = target.split(".")
            owner = modules[module]
            if len(path) == 2:
                owner = getattr(owner, path[0])
            attr = path[-1]
            original = owner.__dict__[attr]
            if target in SPANS:
                hook = _checker_holds if name.startswith("contracts.") else HOOKS.get(name)
                wrapper = self._span(name, original, hook)
            elif name == "mapkit.enumerate":
                wrapper = self._generator(name, original)
            else:
                key = self._distance_key if name == "metric.distance" else None
                wrapper = self._leaf(name, original, key)
            if len(path) == 2:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
                continue
            for ns in namespaces:
                for key_name, value in list(ns.items()):
                    if value is original:
                        ns[key_name] = wrapper
                        self._undo.append((ns, key_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- recording --------------------------------------------------------

    def _open(self, name) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        span = [len(self.spans), name, perf_counter(), None, parent, self.op_id, 0.0, None, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def op(self, label: str):
        self.op_id += 1
        span = self._open("op")
        span[RESULT] = label
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def _paused(self):
        stack, self.stack = self.stack, []
        try:
            yield
        finally:
            self.stack = stack

    def _span(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            depth, tracer.leaf_depth = tracer.leaf_depth, 0
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                tracer.leaf_depth = depth
            if hook is not None:
                with tracer._paused():
                    span[RESULT] = hook(result)
            return result

        return wrapper

    def _add_leaf(self, name, elapsed, calls=1) -> None:
        span = self.stack[-1]
        entry = span[LEAF_STATS].get(name)
        if entry is None:
            span[LEAF_STATS][name] = [calls, elapsed]
        else:
            entry[0] += calls
            entry[1] += elapsed
        if self.leaf_depth == 0:
            span[LEAF_S] += elapsed

    def _leaf(self, name, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            if key is not None:
                key(*args)
            tracer.leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.leaf_depth -= 1
                tracer._add_leaf(name, elapsed)

        return wrapper

    def _generator(self, name, fn):
        """Time spent inside the generator, one call per item yielded."""
        tracer = self

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                if not tracer.stack:
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    yield item
                    continue
                tracer.leaf_depth += 1
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    tracer.leaf_depth -= 1
                    tracer._add_leaf(name, perf_counter() - start, calls=0)
                    return
                elapsed = perf_counter() - start
                tracer.leaf_depth -= 1
                tracer._add_leaf(name, elapsed)
                yield item

        return wrapper

    def _distance_key(self, space, x, y) -> None:
        # Keyed by the space's value: ids are reused across spaces.  The
        # cache holds each space for the pass, so its id stays unique.
        entry = self._space_keys.get(id(space))
        if entry is None:
            image = space.image
            entry = (space, (image.points, image.adjacency, space.metric))
            self._space_keys[id(space)] = entry
        self.keys.add((entry[1], x, y))

    # -- per-pass results ---------------------------------------------------

    def take_pass(self, sink=None) -> dict:
        """Per-layer metrics of the spans recorded since the last call; the
        spans go to `sink` (a text file) as JSON lines and are dropped."""
        metrics = layer_metrics(self.spans, len(self.keys))
        if sink is not None:
            for span in self.spans:
                sink.write(json.dumps(span[:LEAF_STATS] + [span[LEAF_STATS]]) + "\n")
        self.spans = []
        self.keys = set()
        self._space_keys = {}
        return metrics


def layer_metrics(spans: list, distance_keys: int) -> dict:
    covered = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    holds = defaultdict(int)
    leaf_calls = defaultdict(int)
    leaf_s = defaultdict(float)
    scanned = hits = 0
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] += 1
        total[name] += duration
        own[name] += duration - covered[span[ID]] - span[LEAF_S]
        if name.startswith("contracts.") and span[RESULT]:
            holds[name] += 1
        if name == "search.find":
            scanned += span[RESULT][0]
            hits += span[RESULT][1]
        for leaf, (n, seconds) in span[LEAF_STATS].items():
            leaf_calls[leaf] += n
            leaf_s[leaf] += seconds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for leaf, prefix in (
        ("space.adjacent", "space.adjacent"),
        ("exact.compare", "exact.compare"),
        ("exact.sign", "exact.sign"),
        ("metric.distance", "metric.distance"),
        ("mapkit.orbit", "mapkit.orbit"),
        ("mapkit.continuity", "mapkit.continuity"),
        ("fixpoint.alternating_orbit", "fixpoint.alternating_orbit"),
    ):
        m[f"{prefix}_calls"] = leaf_calls[leaf]
        m[f"{prefix}_s"] = leaf_s[leaf]
    m["metric.distance_keys"] = distance_keys
    m["metric.distance_useful_ratio"] = ratio(distance_keys, leaf_calls["metric.distance"])
    m["mapkit.maps_enumerated"] = leaf_calls["mapkit.enumerate"]
    m["mapkit.enumerate_s"] = leaf_s["mapkit.enumerate"]
    m["mapkit.selfmap_calls"] = leaf_calls["mapkit.selfmap_call"]
    m["mapkit.selfmap_call_s"] = leaf_s["mapkit.selfmap_call"]
    for checker in CHECKERS:
        name = f"contracts.{checker}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.holds_ratio"] = ratio(holds[name], calls[name])
    m["contracts.self_s"] = sum(own[f"contracts.{c}"] for c in CHECKERS)
    m["fixpoint.verify_calls"] = calls["fixpoint.verify"]
    m["fixpoint.verify_s"] = total["fixpoint.verify"]
    m["fixpoint.verify_self_s"] = own["fixpoint.verify"]
    m["search.find_calls"] = calls["search.find"]
    m["search.find_s"] = total["search.find"]
    m["search.self_s"] = own["search.find"]
    m["search.instances_scanned"] = scanned
    m["search.hypothesis_hits"] = hits
    m["search.hit_ratio"] = ratio(hits, scanned)
    m["documents.load_calls"] = calls["documents.load"]
    m["documents.load_s"] = total["documents.load"]
    m["documents.serialize_s"] = leaf_s["documents.serialize"]
    m["cli.main_calls"] = calls["cli.main"]
    m["cli.main_self_s"] = own["cli.main"]
    return m
