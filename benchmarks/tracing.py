"""Spans around the calls into each quasinv layer, recorded from outside.

``instrument`` replaces the functions that one layer calls in another
(looked up by name in the calling module, so the program's own call
sequence is what gets timed) with wrappers that record a span: name,
start, end, parent span and the benchmark operation it belongs to. Spans
stay in memory; ``layer_times`` turns them into self times, a span's
duration minus its direct children's. Names the package no longer has are
skipped, so a refactor leaves the affected metrics at zero calls instead
of breaking the benchmark.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """In-memory span recorder for the main thread."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, op, items)
        self.ops: list = []  # (kind, label) per benchmark operation
        self._stack: list = []
        self._main = threading.get_ident()

    def begin_op(self, kind: str, label: str = "") -> None:
        self.ops.append((kind, label))

    def wrap(self, fn, namer, items=None):
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            name = namer(args, kwargs)
            n_items = items(args, kwargs) if items else 0
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, len(self.ops) - 1, n_items)

        return traced

    def root(self, name: str, fn, *args):
        """Call fn as the root span of the current operation."""
        return self.wrap(fn, lambda a, k: name)(*args)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, n_items in self.spans:
                kind, label = self.ops[op] if op >= 0 else ("", "")
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                                     "op": op, "op_kind": kind, "doc": label, "items": n_items}) + "\n")


def _fixed(name):
    return lambda args, kwargs: name


def _parse_name(args, kwargs):
    obj = args[0] if args else None
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind in ("kraus", "affine"):
        return f"documents.parse_{kind}"
    return "documents.parse_family"


def _validate_name(args, kwargs):
    kraus = type(args[0]).__name__ == "KrausChannel"
    return "channels.validate_cptp_kraus" if kraus else "channels.validate_cptp_affine"


def _dumps_name(args, kwargs):
    obj = args[0]
    if isinstance(obj, dict) and obj.get("type") == "kraus":
        return "documents.dumps_kraus"
    if isinstance(obj, dict) and "error" in obj:
        return "documents.dumps_error"
    return "documents.dumps_result"


def _mc_name(args, kwargs):
    if kwargs.get("workers", 1) > 1:
        return "metrics.mstd_monte_carlo_workers2"
    return "metrics.mstd_monte_carlo"


def _n_samples(args, kwargs):
    return int(args[1])


class _JsonProxy:
    """Stands in for the ``json`` module inside ``quasinv.cli``; only loads is traced."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


def _sites(qv):
    """(owner, attribute, namer, items) for every call boundary that is traced."""
    cli, documents, channels = qv.cli, qv.documents, qv.channels
    inverter, metrics, oracle = qv.inverter, qv.metrics, qv.oracle
    return [
        (documents, "make", _fixed("zoo.make"), None),
        (documents, "kraus_to_affine", _fixed("channels.kraus_to_affine"), None),
        (channels, "kraus_to_affine", _fixed("channels.kraus_to_affine"), None),
        (qv.AffineChannel, "__post_init__", _fixed("channels.affine_channel"), None),
        (channels, "choi", _fixed("channels.choi"), None),
        (channels, "eig_herm4", _fixed("numerics.eig_herm4"), None),
        (qv.RngStream, "normals", _fixed("numerics.normals_small"), None),
        (cli, "parse_channel_document", _parse_name, None),
        (documents, "parse_channel_document", _parse_name, None),
        (cli, "validate_cptp", _validate_name, None),
        (inverter, "validate_cptp", _validate_name, None),
        (cli, "build_q", _fixed("inverter.build_q"), None),
        (inverter, "build_q", _fixed("inverter.build_q"), None),
        (qv, "build_q", _fixed("inverter.build_q"), None),
        (inverter, "eig_sym4", _fixed("numerics.eig_sym4"), None),
        (qv, "maximize", _fixed("inverter.maximize"), None),
        (cli, "quasi_inverse", _fixed("inverter.quasi_inverse"), None),
        (qv, "quasi_inverse", _fixed("inverter.quasi_inverse"), None),
        (inverter, "mstd_analytic", _fixed("metrics.mstd_analytic"), None),
        (metrics, "mstd_analytic", _fixed("metrics.mstd_analytic"), None),
        (cli, "mstd_analytic", _fixed("metrics.mstd_analytic"), None),
        (oracle, "mstd_analytic", _fixed("metrics.mstd_analytic"), None),
        (inverter, "mstd_composed", _fixed("metrics.mstd_composed"), None),
        (cli, "dumps", _dumps_name, None),
        (cli, "random_channel", _fixed("channels.random_channel"), None),
        (metrics, "ball_samples", _fixed("numerics.ball_samples"), _n_samples),
        (metrics, "sphere_samples", _fixed("numerics.sphere_samples"), _n_samples),
        (oracle, "sphere4_samples", _fixed("numerics.sphere4_samples"), _n_samples),
        (cli, "mstd_monte_carlo", _mc_name, _n_samples),
        (qv, "mstd_monte_carlo", _mc_name, _n_samples),
        (oracle, "brute_force_best", _fixed("oracle.brute_force_best"), _n_samples),
    ]


def instrument(tracer: Tracer, qv) -> list:
    """Install the wrappers; returns what ``restore`` needs to undo them."""
    undo = []
    for owner, attr, namer, items in _sites(qv):
        original = owner.__dict__.get(attr)
        if original is None:
            continue
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, namer, items))
    if isinstance(qv.cli.__dict__.get("json"), type(json)):
        undo.append((qv.cli, "json", qv.cli.json))
        qv.cli.json = _JsonProxy(tracer.wrap(json.loads, _fixed("documents.json_loads")))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _child_ns(spans) -> list[int]:
    """Per span, the summed duration of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, n_items in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def layer_times(tracer: Tracer, skip_kinds=()) -> dict:
    """Per span name: calls, summed self time (ns) and summed items.

    Spans of operations whose kind is in skip_kinds are left out.
    """
    spans = tracer.spans
    child_ns = _child_ns(spans)
    out = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "items": 0})
    for i, (name, start, end, parent, op, n_items) in enumerate(spans):
        if op >= 0 and tracer.ops[op][0] in skip_kinds:
            continue
        rec = out[name]
        rec["calls"] += 1
        rec["self_ns"] += end - start - child_ns[i]
        rec["total_ns"] += end - start
        rec["items"] += n_items
    return dict(out)


def per_op_breakdown(tracer: Tracer, kind: str, root: str = "cli.main") -> tuple[int, dict, int]:
    """Self time per span name summed over operations of one kind.

    Returns (operations, {name: self_ns}, summed root durations); the self
    times add up to the root durations by construction, which the caller
    checks against the names it reports.
    """
    spans = tracer.spans
    child_ns = _child_ns(spans)
    ops = set()
    totals: dict = defaultdict(int)
    root_ns = 0
    for i, (name, start, end, parent, op, n_items) in enumerate(spans):
        if op < 0 or tracer.ops[op][0] != kind:
            continue
        ops.add(op)
        totals[name] += end - start - child_ns[i]
        if parent < 0 and name == root:
            root_ns += end - start
    return len(ops), dict(totals), root_ns
