"""In-memory span tracer, attached to fluxgraph's layers from outside.

A span has a name, an id, its parent's id, a start and an end. Most
layer calls get one span per call. Calls made once per record (the
``ingest()`` and ``read_transfers()`` iterators, ``transfer_line``,
``AggregatedGraph.add_transfer``) and once per ranked candidate
(``classify_exchange``) would make hundreds of thousands of spans, so
each of those folds into one span per parent: start is its first call,
end its last, and ``busy`` the summed time inside it. These folded
functions never contain other spans.

A span's self time is its busy time minus that of its children. Span
names are the per-layer metric names without the ``_s`` suffix, so a
layer's time is the sum of its spans' self times.

``install`` wraps the layer functions that ``fluxgraph.cli`` imports
(and the ones the detect-sweep worker and ``detect_exchanges`` call) in
place. Nothing inside ``src/`` changes, and a wrapped call returns what
the original returns, so traced artifacts equal untraced ones.
"""

from __future__ import annotations

import functools
import os
import resource
from contextlib import contextmanager
from time import perf_counter

MIB = 1024 * 1024

# Per-layer metrics, in report order. Times are self times in seconds.
LAYER_METRICS = (
    ("records.ingest_s", "s"),
    ("records.parsed", "count"),
    ("records.kept", "count"),
    ("records.keep_ratio", "ratio"),
    ("records.write_s", "s"),
    ("records.read_s", "s"),
    ("graph.aggregate_s", "s"),
    ("graph.rss_mb", "MB"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.save_s", "s"),
    ("graph.save_mb", "MB"),
    ("graph.load_s", "s"),
    ("graph.rank_s", "s"),
    ("exchanges.detect_s", "s"),
    ("exchanges.classify_s", "s"),
    ("exchanges.merge_s", "s"),
    ("exchanges.candidates", "count"),
    ("exchanges.deposit_tests", "count"),
    ("exchanges.deposit_pass_ratio", "ratio"),
    ("exchanges.coloring_s", "s"),
    ("exchanges.save_s", "s"),
    ("exchanges.load_s", "s"),
    ("contraction.contract_s", "s"),
    ("contraction.verify_s", "s"),
    ("contraction.oracle_s", "s"),
    ("contraction.canonical_s", "s"),
    ("contraction.save_s", "s"),
    ("contraction.save_mb", "MB"),
    ("contraction.graphml_mb", "MB"),
    ("contraction.quotient_nodes", "count"),
    ("contraction.quotient_edges", "count"),
    ("contraction.load_s", "s"),
    ("analytics.report_s", "s"),
    ("analytics.save_s", "s"),
    ("cli.self_s", "s"),
    ("synth.generate_s", "s"),
    ("trace.overhead_s", "s"),
)

SETUP_SPAN = "setup"
WORKLOAD_SPAN = "workload"


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "calls")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = None
        self.end = None
        self.busy = 0.0
        self.calls = 0

    def add(self, start: float, end: float) -> None:
        if self.start is None:
            self.start = start
        self.end = end
        self.busy += end - start
        self.calls += 1

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int | None] = [None]
        self._folded: dict[tuple[str, int | None], Span] = {}

    def _new(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._open[-1])
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._new(name)
        self._open.append(span.id)
        start = perf_counter()
        try:
            yield span
        finally:
            span.add(start, perf_counter())
            self._open.pop()

    def folded(self, name: str) -> Span:
        key = (name, self._open[-1])
        span = self._folded.get(key)
        if span is None:
            span = self._folded[key] = self._new(name)
        return span

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def keep_first(self, name: str, value: float) -> None:
        self.counts.setdefault(name, value)

    def as_dict(self) -> dict:
        return {"spans": [s.as_dict() for s in self.spans], "counts": self.counts}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def dir_mb(path: str) -> float:
    """Total size of the files under path, in MiB."""
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / MIB


class _FoldedIterator:
    """Times each step of an iterator into one folded span."""

    def __init__(self, tracer: Tracer, name: str, it, on_end=None):
        self._tracer = tracer
        self._name = name
        self._it = it
        self._on_end = on_end

    def __iter__(self):
        return self

    def __next__(self):
        span = self._tracer.folded(self._name)
        start = perf_counter()
        try:
            return next(self._it)
        except StopIteration:
            if self._on_end is not None:
                self._on_end()
                self._on_end = None
            raise
        finally:
            span.add(start, perf_counter())


def install(tracer: Tracer) -> None:
    """Wrap fluxgraph's layer functions so every call records into tracer."""
    from fluxgraph import cli, contraction, exchanges, graph, records

    def spanned(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    def folded(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.folded(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.add(start, perf_counter())
        return wrapper

    def patch(modules, attr, make):
        wrapped = make(getattr(modules[0], attr))
        for module in modules:
            setattr(module, attr, wrapped)

    # -- records
    def traced_ingest(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            summary = kwargs.setdefault("summary", records.IngestSummary())

            def done():
                tracer.add("records.parsed", summary.parsed)
                tracer.add("records.kept", summary.kept)
            return _FoldedIterator(tracer, "records.ingest", fn(*args, **kwargs), done)
        return wrapper

    def traced_read(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _FoldedIterator(tracer, "records.read", fn(*args, **kwargs))
        return wrapper

    patch([cli], "ingest", traced_ingest)
    patch([cli], "read_transfers", traced_read)
    patch([cli], "write_transfers", lambda fn: spanned("records.write", fn))
    patch([cli], "transfer_line", lambda fn: folded("records.write", fn))

    # -- graph
    graph.AggregatedGraph.add_transfer = folded(
        "graph.aggregate", graph.AggregatedGraph.add_transfer
    )

    def graph_built(g, *_args):
        tracer.keep_first("graph.rss_mb", _rss_mb())
        tracer.keep_first("graph.nodes", g.order)
        tracer.keep_first("graph.edges", g.aggregated_size)

    def traced_save_graph(fn):
        @functools.wraps(fn)
        def wrapper(g, directory):
            graph_built(g)
            with tracer.span("graph.save"):
                fn(g, directory)
            tracer.keep_first("graph.save_mb", dir_mb(directory))
        return wrapper

    patch([cli], "save_graph", traced_save_graph)
    patch([cli, graph], "load_graph", lambda fn: spanned("graph.load", fn, graph_built))

    def ranked(result, *_args):
        tracer.add("exchanges.candidates", len(result))

    patch([exchanges], "degree_centrality_ranking",
          lambda fn: spanned("graph.rank", fn, ranked))

    # -- exchanges
    def counted_deposit_test(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            passed = fn(*args, **kwargs)
            tracer.add("exchanges.deposit_tests", 1)
            if passed:
                tracer.add("exchanges.deposits_found", 1)
            return passed
        return wrapper

    patch([exchanges], "is_deposit_address", counted_deposit_test)
    patch([exchanges], "classify_exchange", lambda fn: folded("exchanges.classify", fn))
    patch([exchanges], "merge_clusters", lambda fn: spanned("exchanges.merge", fn))
    patch([cli, exchanges], "detect_exchanges", lambda fn: spanned("exchanges.detect", fn))
    patch([cli, exchanges], "build_coloring", lambda fn: spanned("exchanges.coloring", fn))
    for attr in ("save_clusters", "save_coloring"):
        patch([cli, exchanges], attr, lambda fn: spanned("exchanges.save", fn))
    for attr in ("load_clusters", "load_coloring", "load_labels"):
        patch([cli, exchanges], attr, lambda fn: spanned("exchanges.load", fn))

    # -- contraction
    for attr, name in (
        ("contract", "contraction.contract"),
        ("verify_contraction", "contraction.verify"),
        ("oracle_contract", "contraction.oracle"),
        ("canonical_form", "contraction.canonical"),
        ("load_contracted", "contraction.load"),
    ):
        patch([cli], attr, lambda fn, name=name: spanned(name, fn))

    def traced_save_contracted(fn):
        @functools.wraps(fn)
        def wrapper(contracted, assignment, directory, *args, **kwargs):
            with tracer.span("contraction.save"):
                fn(contracted, assignment, directory, *args, **kwargs)
            tracer.add("contraction.quotient_nodes", contracted.order)
            tracer.add("contraction.quotient_edges", contracted.size)
            tracer.add("contraction.save_mb", dir_mb(directory))
            tracer.add("contraction.graphml_mb", os.path.getsize(
                os.path.join(directory, contraction.GRAPHML_FILE)) / MIB)
        return wrapper

    patch([cli], "save_contracted", traced_save_contracted)

    # -- analytics
    patch([cli], "build_report", lambda fn: spanned("analytics.report", fn))
    patch([cli], "save_report", lambda fn: spanned("analytics.save", fn))


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, from its spans and counts.

    ``synth.generate_s`` and ``trace.overhead_s`` are not known inside
    the traced process; the caller fills them in.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    child_busy: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_busy[span["parent"]] = child_busy.get(span["parent"], 0.0) + span["busy"]
    self_s: dict[str, float] = {}
    for span in spans:
        own = span["busy"] - child_busy.get(span["id"], 0.0)
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + own

    metrics = {}
    for name, unit in LAYER_METRICS:
        if unit == "s":
            metrics[name] = self_s.get(name[:-2], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    # cli glue: the timed section minus the layer spans directly under it
    metrics["cli.self_s"] = sum(
        span["busy"] - child_busy.get(span["id"], 0.0)
        for span in spans
        if span["name"] == WORKLOAD_SPAN
    )
    parsed = counts.get("records.parsed", 0)
    metrics["records.keep_ratio"] = counts.get("records.kept", 0) / parsed if parsed else 0.0
    tests = counts.get("exchanges.deposit_tests", 0)
    found = counts.get("exchanges.deposits_found", 0)
    metrics["exchanges.deposit_pass_ratio"] = found / tests if tests else 0.0
    return metrics
