"""Span tracing of qschub's public functions, installed from outside the package.

Each traced name is wrapped once and the wrapper is bound in every ``qschub``
module namespace (and class) that holds the original object, so calls through
``from .poly import determinant`` in ``quantum`` are seen as well as calls
through ``poly.determinant``.  A target that no longer exists is reported as
absent instead of failing the run.

Spans (layer, parent span, start, end) stay in memory until ``dump``.  The
process is single-threaded, so spans nest strictly and a layer's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


def _pmul(a, kw, r):
    return {"term_pairs": len(a[0]) * len(a[1]), "terms_out": len(r)}


def _pdivdiff(a, kw, r):
    return {"terms_in": len(a[0]), "terms_out": len(r)}


def _binary(a, kw, r):
    return {"terms_in": len(a[0]) + len(a[1])}


def _unary(a, kw, r):
    return {"terms_in": len(a[0])}


def _determinant(a, kw, r):
    return {"entries": len(_arg(a, kw, 0, "rows")) ** 2}


def _text(a, kw, r):
    return {"terms": len(a[0])}


def _apply_word(a, kw, r):
    return {"letters": len(_arg(a, kw, 1, "word"))}


def _suite(a, kw, r):
    return {"cases": r.cases}


SUITES = ("cauchy", "schur", "vexillary", "grassmannian",
          "factorization", "counterexamples", "conjectures")

# (layer, "module:attribute[.method]", counter fields, counter function,
#  track hits).  Several targets may feed one layer.  The kernel names are
# looked up in qschub._kernels, which re-exports whichever kernel is active.
TARGETS = [
    ("kernels.pmul", "qschub._kernels:pmul", ("term_pairs", "terms_out"), _pmul, False),
    ("kernels.pdivdiff", "qschub._kernels:pdivdiff", ("terms_in", "terms_out"), _pdivdiff, False),
    ("kernels.linear", "qschub._kernels:padd", ("terms_in",), _binary, False),
    ("kernels.linear", "qschub._kernels:psub", ("terms_in",), _binary, False),
    ("kernels.linear", "qschub._kernels:pscale", ("terms_in",), _unary, False),
    ("poly.determinant", "qschub.poly:determinant", ("entries",), _determinant, False),
    ("poly.parse", "qschub.poly:parse", (), None, False),
    ("poly.text", "qschub.poly:Poly.text", ("terms",), _text, False),
    ("cli.main", "qschub.cli:main", (), None, False),
    ("classical.apply_word", "qschub.classical:apply_word", ("letters",), _apply_word, False),
    ("classical.schubert_expand", "qschub.classical:schubert_expand", (), None, False),
    ("quantum.q_schubert", "qschub.quantum:q_schubert", (), None, True),
    ("quantum.q_double_schubert", "qschub.quantum:q_double_schubert", (), None, True),
    ("quantum.q_elementary", "qschub.quantum:q_elementary", (), None, True),
    ("quantum.q_schur", "qschub.quantum:q_schur", (), None, False),
    ("quantum.q_monomial", "qschub.quantum:q_monomial", (), None, False),
    ("quantum.quantize", "qschub.quantum:quantize", (), None, False),
] + [
    (f"verify.{suite}", f"qschub.verify:suite_{suite}", ("cases",), _suite, False)
    for suite in SUITES
]

# Which end-to-end metric, on which workload, each layer's figures should move.
MOVES = {
    "kernels.pmul": "job_s on suites",
    "kernels.pdivdiff": "job_s, item_p50_ms on rank6; second share of job_s on suites",
    "kernels.linear": "job_s on suites",
    "poly.determinant": "job_s on suites; item_tail_ms on session",
    "poly.parse": "item_p50_ms on session",
    "poly.text": "item_p50_ms on session",
    "cli.main": "item_p50_ms on session",
    "classical.apply_word": "job_s on rank6 (the e~_I route should cut letters)",
    "classical.schubert_expand": "item_p50_ms on session",
    "quantum": "item_p50_ms on session; job_s on rank6 and suites",
    "verify": "job_s on suites, by suite",
    "trace": "nothing: the cost of tracing itself",
}


def moves(metric: str) -> str:
    """The MOVES entry of the longest layer prefix of a per-layer metric name."""
    parts = metric.split(".")
    for k in range(len(parts), 0, -1):
        hit = MOVES.get(".".join(parts[:k]))
        if hit:
            return hit
    return ""


def _resolve(target: str):
    """The function named "module:attr[.method]", or None if there is none."""
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return obj if callable(obj) else None


def _bindings(obj):
    """Every (namespace owner, attribute) in a loaded qschub module bound to obj."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qschub" or name.startswith("qschub.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is obj:
                out.append((mod, key))
            elif isinstance(val, type) and val.__module__.startswith("qschub"):
                for ckey, cval in list(vars(val).items()):
                    if cval is obj:
                        out.append((val, ckey))
    return list(dict.fromkeys(out))


def _hashable(args, kwargs):
    try:
        key = (args, tuple(sorted(kwargs.items())))
        hash(key)
        return key
    except TypeError:
        return repr((args, sorted(kwargs.items())))


class Tracer:
    """Records spans and per-layer counters for the wrapped qschub functions."""

    def __init__(self):
        self.layers: list[str] = []
        self._index: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counters: dict[str, dict[str, int]] = {}
        self.hits: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self.absent: list[str] = []
        self.uncountable: set[str] = set()
        self.patched: dict[str, list[str]] = {}
        self._restore: list[tuple] = []

    def _layer_id(self, layer: str, fields=()) -> int:
        if layer not in self._index:
            self._index[layer] = len(self.layers)
            self.layers.append(layer)
            self.calls[layer] = 0
            self.self_ns[layer] = 0
            self.total_ns[layer] = 0
            self.counters[layer] = {}
        for f in fields:
            self.counters[layer].setdefault(f, 0)
        return self._index[layer]

    def install(self) -> None:
        """Wrap every resolvable target in every namespace that binds it."""
        for layer, target, fields, count, track_hits in TARGETS:
            lid = self._layer_id(layer, fields)
            if track_hits:
                self.hits.setdefault(layer, 0)
                self._seen.setdefault(layer, set())
            obj = _resolve(target)
            if obj is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(layer, lid, obj, count, track_hits)
            where = []
            for owner, attr in _bindings(obj):
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, wrapper)
                where.append(f"{owner.__module__}.{owner.__qualname__}.{attr}"
                             if isinstance(owner, type) else f"{owner.__name__}.{attr}")
            self.patched[target] = where

    def uninstall(self) -> None:
        """Put every original back, so later calls are neither timed nor counted."""
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, layer, lid, fn, count, track_hits):
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        counters = self.counters[layer]
        hits, seen = self.hits, self._seen.get(layer)
        uncountable = self.uncountable
        stack = self._stack
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track_hits:
                key = _hashable(args, kwargs)
                if key in seen:
                    hits[layer] += 1
                else:
                    seen.add(key)
            sid = len(span_layer)
            span_layer.append(lid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[sid] = t0
                span_end[sid] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[layer] += 1
                total_ns[layer] += dur
                self_ns[layer] += dur - frame[1]
            if count is not None:
                try:
                    got = count(args, kwargs, result)
                except (TypeError, AttributeError, KeyError, IndexError):
                    # the function's arguments or result changed shape: keep
                    # timing it, and report its counters as uncountable
                    uncountable.add(layer)
                else:
                    for k, v in got.items():
                        counters[k] += v
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer figures, named as in BENCHMARK.json's per_layer list.

        Suite layers report their inclusive time (``verify.<suite>.s``) and
        feed ``verify.cases``; other layers report calls, self time, their
        counters and, where tracked, the share of calls that repeat an
        argument already seen in this process.
        """
        out: dict[str, float] = {"verify.cases": 0}
        for layer in self.layers:
            if layer.startswith("verify."):
                out[f"{layer}.s"] = self.total_ns[layer] / 1e9
                out["verify.cases"] += self.counters[layer]["cases"]
                continue
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
            for k, v in self.counters[layer].items():
                out[f"{layer}.{k}"] = v
            if layer in self.hits:
                n = self.calls[layer]
                out[f"{layer}.hit_ratio"] = self.hits[layer] / n if n else 0.0
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every span and the per-layer metrics as one JSON document."""
        doc = dict(meta)
        doc["absent"] = self.absent
        doc["uncountable"] = sorted(self.uncountable)
        doc["patched"] = self.patched
        doc["metrics"] = self.metrics()
        doc["layers"] = self.layers
        doc["spans"] = {
            "layer": self.span_layer.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
