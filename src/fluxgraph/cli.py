"""Command line front end for the transfer-graph pipeline.

Subcommands mirror the pipeline stages (ingest, build, stats, detect,
contract, analyze), plus synth for generating test ledgers and run for
the whole chain in one go. Every stage command accepts --config with a
pipeline JSON file whose per-stage blocks supply defaults; explicit
flags win over the config file.

Exit codes: 0 success, 2 usage, 3 bad configuration, 4 malformed input
record, CSV row or meta.json (file and line named), 5 inconsistent data files,
6 conservation failure, 7 failed verification, 8 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import logging
import os
import sys
import time
from typing import Callable, Iterable, Iterator

try:
    import resource
except ImportError:  # not on every platform, and only --verbose reads it
    resource = None

from . import __version__
from .analytics import (
    DEFAULT_BUCKET_CUTS,
    build_report,
    check_conservation,
    checked_bucket_cuts,
    save_report,
)
from .children import Child
# canonical_form, ingest, load_contracted, read_transfers, transfer_line
# and write_transfers are not called here, but stay importable from this
# module: bench/spans.py wraps the layer functions by these names
from .contraction import (
    CONTRACTED_NODES_FILE,
    canonical_form,
    contract,
    oracle_contract,
    save_contracted,
    load_contracted,
    load_quotient,
    quotient_frames,
    verify_contraction,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    FluxGraphError,
    LabelFileError,
    MalformedRecordError,
    VerificationError,
    check_type,
)
from .exchanges import (
    Coloring,
    DetectionParams,
    build_coloring,
    detect_exchanges,
    load_clusters,
    load_coloring,
    load_labels,
    save_clusters,
    save_coloring,
)
from .graph import (
    AggregatedGraph,
    GraphStats,
    degree_centrality_ranking,
    fold_rows,
    graph_stats,
    load_graph,
    save_graph,
)
from .records import (
    IngestSummary,
    ingest,
    ingest_blocks,
    read_transfers,
    transfer_line,
    transfer_rows,
    transfer_text,
    write_transfers,
)
from .tables import HeldOutput, atomic_output, write_json
from . import synth as synthmod

log = logging.getLogger("fluxgraph")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MALFORMED = 4
EXIT_DATA = 5
EXIT_CONSERVATION = 6
EXIT_VERIFY = 7
EXIT_IO = 8

GRAPH_DIR = "graph"
CLUSTERS_FILE = "clusters.csv"
COLORING_FILE = "coloring.csv"
CONTRACTED_DIR = "contracted"
REPORT_DIR = "report"
MANIFEST_FILE = "manifest.json"

_DETECT_DEFAULTS = {f.name: f.default for f in dataclasses.fields(DetectionParams)}


def _load_pipeline_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _stage_options(args, config: dict, stage: str, defaults: dict) -> dict:
    """Resolve one stage's options: CLI flag, else config block, else default.
    A config value must pass check_type against its default."""
    block = config.get(stage, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {stage!r} must be an object")
    unknown = set(block) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in config block {stage!r}: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = block.get(key, default)
            check_type(f"config key {stage}.{key}", value, default)
        resolved[key] = value
    return resolved


def _ingest_options(args, config: dict) -> dict:
    return _stage_options(args, config, "ingest", {"start_block": 0, "on_error": "fail"})


def _bucket_cuts(args, config: dict) -> tuple[int, ...]:
    value = _stage_options(args, config, "analyze", {"bucket_cuts": None})["bucket_cuts"]
    if not value:
        return DEFAULT_BUCKET_CUTS
    if isinstance(value, str):
        try:
            value = [int(p) for p in value.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"bucket cuts must be integers, got {value!r}") from None
    elif not (isinstance(value, (list, tuple)) and all(type(v) is int for v in value)):
        raise ConfigError(f"bucket cuts in config must be a list of integers, got {value!r}")
    return checked_bucket_cuts(value)


def _detection_options(args, config: dict) -> tuple[DetectionParams, str | None]:
    """Resolve the detect block once: the heuristic's parameters and the
    labels path."""
    opts = _stage_options(args, config, "detect", dict(_DETECT_DEFAULTS, labels=None))
    labels_path = opts.pop("labels")
    # open() takes an int as a file descriptor: 0 would read stdin
    if labels_path is not None and type(labels_path) is not str:
        raise ConfigError(f"config key detect.labels must be str, got {labels_path!r}")
    return DetectionParams(**opts), labels_path


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _peak_rss(children: bool = False) -> str:
    """The peak resident set size so far of this process, or of its
    largest child reaped so far, for progress logs."""
    if resource is None:
        return "unknown"
    peak = resource.getrusage(
        resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return f"{peak / (1 << (20 if sys.platform == 'darwin' else 10)):.1f} MB"


def _log_stage(timings: dict, key: str, seconds: float, children: bool = False) -> None:
    timings[key] = seconds
    log.debug("stage %s: %.3f s, peak RSS %s", key, seconds, _peak_rss(children))


@contextlib.contextmanager
def _timed(timings: dict, key: str):
    t0 = time.perf_counter()
    yield
    _log_stage(timings, key, time.perf_counter() - t0)


# -- stages: each called by its own command (inputs read from files) and
# by run (inputs it already holds) --------------------------------------


def _ingest(source: str, opts: dict, render, consume, timings: dict | None = None):
    """Filter the ledger at source, handing consume one iterator over
    render's result for each part of it, in file order (see
    records.ingest_blocks). Returns consume's result and the ingest
    counts. With timings, the wait for a child that parsed part of the
    ledger is logged there as wait_ingest."""
    summary = IngestSummary()
    waited = None
    if timings is not None:
        waited = functools.partial(_log_stage, timings, "wait_ingest", children=True)
    result = consume(ingest_blocks(source, render, opts["start_block"], opts["on_error"],
                                   summary, waited))
    log.info("ingest: kept %d of %d records", summary.kept, summary.parsed)
    return result, summary


def _fold(blocks) -> AggregatedGraph:
    """The graph of the transfer_rows of each block."""
    return fold_rows(itertools.chain.from_iterable(blocks))


def _write_text(path: str, blocks) -> None:
    with atomic_output(path) as fh:
        fh.writelines(blocks)


def _built(graph: AggregatedGraph) -> GraphStats:
    stats = graph_stats(graph)
    log.info("build: %d accounts, %d aggregated edges", stats.order, stats.aggregated_size)
    return stats


def _detection_summary(clusters) -> dict:
    return {
        "clusters": len(clusters),
        "main_addresses": sum(len(c.main_addresses) for c in clusters),
        "deposit_addresses": sum(len(c.deposit_addresses) for c in clusters),
    }


def _detect(graph: AggregatedGraph, params: DetectionParams | None, labels,
            coloring: bool):
    """Find exchange clusters (none without params) and, when coloring,
    the coloring they induce. Drops the graph's views, which only
    detection reads."""
    clusters = detect_exchanges(graph, params, labels) if params else []
    colors = build_coloring(graph, clusters) if coloring else None
    graph.compact()
    log.info("detect: %d exchange clusters", len(clusters))
    return clusters, colors


def _save_detection(clusters, coloring: Coloring | None, clusters_path: str,
                    coloring_path: str | None) -> None:
    save_clusters(clusters_path, clusters)
    if coloring is not None:
        save_coloring(coloring_path, coloring)


def _timed_items(produce) -> Iterator:
    """What produce() yields, then the seconds spent making it, without
    the time spent suspended at each yield."""
    seconds = 0.0
    t0 = time.perf_counter()
    for item in produce():
        seconds += time.perf_counter() - t0
        yield item
        t0 = time.perf_counter()
    yield seconds + time.perf_counter() - t0


class _Forked:
    """produce() in a forked child while the caller goes on; items()
    yields what it yields, as it arrives. produce must yield tuples.

    The child's own seconds are logged as key, and the parent's wait for
    its items as wait_<key>. Where the child failed or stopped sending,
    the items it did not send are worked out here, so that its genuine
    exception surfaces; where the process cannot fork, produce() runs
    here at once. Used as a context manager, which reaps the child on
    every path: where kill, a child still running is killed first, and
    otherwise waited for, so that one writing files leaves no temporary
    file.
    """

    def __init__(self, key: str, produce: Callable[[], Iterable[tuple]], timings: dict, *,
                 kill: bool):
        self._key, self._produce, self._timings, self._kill = key, produce, timings, kill
        self._child = Child.start(functools.partial(_timed_items, produce))
        self._items = self._inline() if self._child is None else None

    def _inline(self) -> list:
        with _timed(self._timings, self._key):
            return list(self._produce())

    def items(self) -> Iterator[tuple]:
        """produce()'s items, handed over as they arrive: this object
        keeps no reference."""
        if self._child is None:
            items, self._items = self._items, None
            yield from items
            return
        sent, item = 0, None
        for item in self._child.items():
            if type(item) is not tuple:
                break
            yield item
            sent += 1
        child, self._child = self._child, None
        status = child.wait()
        _log_stage(self._timings, f"wait_{self._key}", child.waited, children=True)
        if status == 0 and type(item) is float:
            _log_stage(self._timings, self._key, item, children=True)
            return
        log.debug("%s: the child exited with %d; running it here", self._key, status)
        yield from itertools.islice(self._inline(), sent, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self._child is None:
            return
        if self._kill:
            self._child.kill()
        else:
            self._child.wait()


def _oracle(graph: AggregatedGraph, coloring: Coloring, verify: bool, timings: dict):
    """When verify, the independent implementation's quotient frames, worked
    out in a forked child from here on; otherwise a context of None."""
    def frames():
        return quotient_frames(graph.names, *oracle_contract(graph, coloring))

    return _Forked("verify", frames, timings, kill=True) if verify else contextlib.nullcontext()


def _contract(graph: AggregatedGraph, coloring: Coloring, directory: str,
              labels: dict[int, str], timings: dict, **meta):
    """Contract, and save the quotient with meta in meta.json."""
    meta.update(before=graph_stats(graph).as_dict(), tool_version=__version__)
    with _timed(timings, "contract"):
        contracted, assignment = contract(graph, coloring)
    with _timed(timings, "save_contracted"):
        save_contracted(contracted, assignment, directory, labels=labels, meta=meta)
    return contracted, assignment


def _verify(oracle: _Forked | None, graph: AggregatedGraph, contracted, assignment,
            timings: dict) -> None:
    """Cross-check a contraction against the oracle's, one frame at a time
    as they arrive. Without an oracle, do nothing."""
    if oracle is None:
        return
    with _timed(timings, "verdict"):
        if not verify_contraction(contracted):
            raise VerificationError("contracted graph is not properly colored")
        theirs = oracle.items()
        # both routes number clusters alike, so equal quotients have equal frames
        for frame in quotient_frames(graph.names, contracted, assignment):
            if frame != next(theirs, None):
                break
        else:
            if next(theirs, None) is None:
                return
        raise VerificationError("independent contraction produced a different quotient graph")


def _analyze(before: GraphStats, contracted, clusters, cuts, directory: str,
             labels: dict[int, str]):
    report = build_report(before, contracted, clusters, cuts)
    save_report(directory, report, contracted, labels)
    return report


# -- stage commands ----------------------------------------------------


def cmd_ingest(args, config: dict) -> int:
    t0 = time.perf_counter()
    summary = _ingest(args.input, _ingest_options(args, config), transfer_text,
                      functools.partial(_write_text, args.output))[1]
    _emit(dict(summary.as_dict(), output=args.output,
               elapsed_s=round(time.perf_counter() - t0, 3)))
    return EXIT_OK


def cmd_build(args, config: dict) -> int:
    t0 = time.perf_counter()
    graph = _fold(ingest_blocks(args.input, transfer_rows))
    save_graph(graph, args.output)
    stats = _built(graph)
    _emit(dict(stats.as_dict(), output=args.output,
               elapsed_s=round(time.perf_counter() - t0, 3)))
    return EXIT_OK


def cmd_stats(args, config: dict) -> int:
    graph = load_graph(args.graph)
    stats = graph_stats(graph)
    top = degree_centrality_ranking(graph, args.top)
    _emit(dict(stats.as_dict(), top_by_degree=[[a, d] for a, d in top]))
    return EXIT_OK


def cmd_detect(args, config: dict) -> int:
    t0 = time.perf_counter()
    params, labels_path = _detection_options(args, config)
    labels = load_labels(labels_path) if labels_path else None
    graph = load_graph(args.graph)
    clusters, coloring = _detect(graph, params, labels, bool(args.coloring))
    _save_detection(clusters, coloring, args.output, args.coloring)
    _emit(dict(
        _detection_summary(clusters),
        labels=sorted(c.label for c in clusters),
        params=dataclasses.asdict(params),
        output=args.output,
        elapsed_s=round(time.perf_counter() - t0, 3),
    ))
    return EXIT_OK


def _check_colors(coloring: Coloring, clusters, coloring_path: str,
                  clusters_path: str) -> None:
    """Raise FluxGraphError unless the exchange colors of the coloring
    (every color but 0) are exactly the ids of the clusters, so that
    each label lands on the quotient node of its own cluster."""
    colors = set(coloring.by_id) - {0}
    ids = {c.cluster_id for c in clusters}
    missing = colors - ids
    if missing:
        color = min(missing)
        account = next(a for a, c in coloring.colors.items() if c == color)
        raise FluxGraphError(f"{coloring_path}: color {color} of account {account!r} "
                             f"is not a cluster in {clusters_path}")
    unused = ids - colors
    if unused:
        raise FluxGraphError(f"{clusters_path}: cluster {min(unused)} colors no account "
                             f"in {coloring_path}")


def cmd_contract(args, config: dict) -> int:
    t0 = time.perf_counter()
    graph = load_graph(args.graph)
    if args.coloring:
        coloring = load_coloring(args.coloring, graph)
    else:
        coloring = Coloring.all_users(graph)
    clusters = []
    if args.clusters:
        clusters = load_clusters(args.clusters)
        source = args.coloring or f"{args.graph} (no --coloring: every account is a user)"
        _check_colors(coloring, clusters, source, args.clusters)
    labels = {c.cluster_id: c.label for c in clusters}
    timings: dict[str, float] = {}  # logged at --verbose only
    with _oracle(graph, coloring, args.verify, timings) as oracle, HeldOutput() as held:
        contracted, assignment = _contract(graph, coloring, held.stage(args.output), labels,
                                           timings, verified=args.verify)
        _verify(oracle, graph, contracted, assignment, timings)
    log.info("contract: %d clusters, %d quotient edges", contracted.order, contracted.size)
    _emit({
        "order": contracted.order,
        "size": contracted.size,
        "intra_tx_count": contracted.total_intra_tx(),
        "verified": args.verify,
        "output": args.output,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    })
    return EXIT_OK


def _check_clusters(clusters, contracted, labels: dict[int, str], clusters_path: str,
                    contracted_dir: str) -> None:
    """Raise FluxGraphError unless every cluster is a quotient node colored
    by its own id, labeled alike in both files when the quotient names it."""
    nodes_path = os.path.join(contracted_dir, CONTRACTED_NODES_FILE)
    for cluster in clusters:
        cid = cluster.cluster_id
        node = contracted.nodes.get(cid)
        if node is None or node.color != cid:
            raise FluxGraphError(
                f"{clusters_path}: cluster {cid} is not an exchange cluster in {nodes_path}"
            )
        if labels.get(cid, cluster.label) != cluster.label:
            raise FluxGraphError(
                f"{clusters_path}: cluster {cid} is labeled {cluster.label!r}, "
                f"but {labels[cid]!r} in {nodes_path}"
            )


def cmd_analyze(args, config: dict) -> int:
    cuts = _bucket_cuts(args, config)
    contracted, meta, labels = load_quotient(args.contracted)
    before = meta.get("before")
    keys = {f.name for f in dataclasses.fields(GraphStats)}
    if not (isinstance(before, dict) and before.keys() == keys
            and all(type(v) is int for v in before.values())):
        raise ConfigError(
            f"{args.contracted} holds no pre-contraction statistics in meta.json; "
            f"produce it with the contract or run command"
        )
    before = GraphStats(**before)
    clusters = []
    if args.clusters:
        clusters = load_clusters(args.clusters)
        _check_clusters(clusters, contracted, labels, args.clusters, args.contracted)
    report = _analyze(before, contracted, clusters, cuts, args.output, labels)
    _emit({
        "output": args.output,
        "conservation": check_conservation(before, contracted),
        "exchange_clusters": len(clusters),
        "user_clusters": report.user_cluster_count,
        "largest_user_cluster": report.largest_user_cluster,
    })
    return EXIT_OK


_TEMPLATE_SCENARIO = synthmod.ScenarioConfig(
    seed=7,
    user_count=2_000,
    trader_fraction=0.35,
    mesh_edges_per_user=2,
    giant_fraction=0.5,
    exchanges=[
        synthmod.ExchangeSpec(label="alpha", main_wallets=1, deposit_addresses=150,
                              deposit_rounds=2, withdrawals=10, inter_exchange_tx=20),
        synthmod.ExchangeSpec(label="beta", main_wallets=2, deposit_addresses=240,
                              deposit_rounds=2, withdrawals=8, inter_exchange_tx=20),
    ],
    nontransfer_noise_rate=0.05,
    failed_noise_rate=0.02,
    zero_amount_noise_rate=0.01,
)


def cmd_synth(args, config: dict) -> int:
    if args.template:
        write_json(args.template, synthmod.config_to_dict(_TEMPLATE_SCENARIO), sort_keys=False)
        _emit({"template": args.template})
        return EXIT_OK
    if not args.scenario or not args.output:
        raise ConfigError("synth needs --scenario and --output (or --template)")
    t0 = time.perf_counter()
    scenario = synthmod.load_config(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    truth = synthmod.generate_to_file(scenario, args.output)
    if args.truth:
        synthmod.save_ground_truth(truth, args.truth)
    log.info("synth: %d records (%d transfers)", truth.record_count, truth.transfer_count)
    _emit({
        "output": args.output,
        "records": truth.record_count,
        "transfers": truth.transfer_count,
        "total_flux": truth.total_flux,
        "transacting_accounts": truth.transacting_accounts,
        "aggregated_edges": truth.aggregated_edge_count,
        "exchanges": [e.label for e in truth.exchanges],
        "elapsed_s": round(time.perf_counter() - t0, 3),
    })
    return EXIT_OK


def cmd_run(args, config: dict) -> int:
    ingest_opts = _ingest_options(args, config)
    cuts = _bucket_cuts(args, config)
    run_opts = _stage_options(args, config, "run", {"detect": True, "verify": False})
    detect_enabled, verify = run_opts["detect"], run_opts["verify"]
    params, labels_path = _detection_options(args, config)
    params = params if detect_enabled else None
    # read before ingesting, so a bad labels file leaves no partial output
    labels = load_labels(labels_path) if params and labels_path else None
    params_dict = dataclasses.asdict(params) if params else None

    outdir = args.output
    out = functools.partial(os.path.join, outdir)
    # so that no earlier run's manifest vouches for what this run leaves
    with contextlib.suppress(FileNotFoundError, NotADirectoryError):
        os.remove(out(MANIFEST_FILE))
    # an output path of the wrong kind, refused before anything is written
    for names, is_kind, kind in (((GRAPH_DIR, CONTRACTED_DIR, REPORT_DIR), os.path.isdir,
                                  "a directory"),
                                 ((CLUSTERS_FILE, COLORING_FILE), os.path.isfile,
                                  "a regular file")):
        for path in map(out, names):
            if os.path.lexists(path) and not is_kind(path):
                raise OSError(f"{path} exists but is not {kind}")
    os.makedirs(outdir, exist_ok=True)
    timings: dict[str, float] = {}
    total0 = time.perf_counter()

    with _timed(timings, "ingest_and_build"):
        graph, summary = _ingest(args.input, ingest_opts, transfer_rows, _fold, timings)
    before = _built(graph)
    graph.name_order()  # worked out once, for the writer and for contract()

    def write_graph():  # sends nothing but its seconds
        save_graph(graph, out(GRAPH_DIR))
        return ()

    with _Forked("save_graph", write_graph, timings, kill=False) as writer:
        with _timed(timings, "detect"):
            clusters, coloring = _detect(graph, params, labels, coloring=True)
        cluster_labels = {c.cluster_id: c.label for c in clusters}
        # the oracle works in its child; what is staged in held appears once it agrees
        with _oracle(graph, coloring, verify, timings) as oracle, HeldOutput() as held:
            with _timed(timings, "save_detection"):
                _save_detection(clusters, coloring, out(CLUSTERS_FILE), out(COLORING_FILE))
            contracted, assignment = _contract(
                graph, coloring, held.stage(out(CONTRACTED_DIR)), cluster_labels, timings,
                verified=verify, detect=detect_enabled, params=params_dict)
            with _timed(timings, "analyze"):
                _analyze(before, contracted, clusters, cuts, held.stage(out(REPORT_DIR)),
                         cluster_labels)
            for _ in writer.items():  # none: graph/ is written once they end
                pass
            _verify(oracle, graph, contracted, assignment, timings)
    log.info("contract: %d clusters, %d quotient edges", contracted.order, contracted.size)

    manifest = {
        "tool": "fluxgraph",
        "version": __version__,
        "input": args.input,
        "options": dict(ingest_opts, detect=detect_enabled, verify=verify, params=params_dict,
                        labels=labels_path, bucket_cuts=list(cuts)),
        "ingest": summary.as_dict(),
        "graph": before.as_dict(),
        "detection": _detection_summary(clusters),
        "contraction": {"order": contracted.order, "size": contracted.size},
        "conservation": check_conservation(before, contracted),
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        "total_s": round(time.perf_counter() - total0, 3),
    }
    write_json(out(MANIFEST_FILE), manifest)

    _emit({
        "output": outdir,
        "kept_transfers": summary.kept,
        "accounts": before.order,
        "aggregated_edges": before.aggregated_size,
        "exchange_clusters": len(clusters),
        "contracted_order": contracted.order,
        "contracted_size": contracted.size,
        "verified": verify,
        "total_s": manifest["total_s"],
    })
    return EXIT_OK


# -- parser ------------------------------------------------------------


def _common_parent(with_config: bool = True) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    if with_config:
        parent.add_argument(
            "--config", metavar="FILE",
            help="pipeline config JSON; per-stage blocks supply defaults",
        )
    parent.add_argument("--verbose", action="store_true", help="debug logging")
    parent.add_argument("--quiet", action="store_true", help="warnings only")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxgraph",
        description="Aggregate ledger transfers, find exchange clusters, "
                    "and contract the graph by cluster.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    common = _common_parent()
    # the flags of a stage, declared once for its command and for run
    ingest_flags = argparse.ArgumentParser(add_help=False)
    ingest_flags.add_argument("--start-block", type=int, dest="start_block")
    ingest_flags.add_argument("--on-error", choices=["fail", "skip"], dest="on_error")
    detect_flags = argparse.ArgumentParser(add_help=False)
    detect_flags.add_argument("--labels", metavar="FILE",
                              help="address,label CSV naming known main wallets")
    for name, default in _DETECT_DEFAULTS.items():  # one per DetectionParams field
        detect_flags.add_argument("--" + name.replace("_", "-"), type=type(default), dest=name)
    analyze_flags = argparse.ArgumentParser(add_help=False)
    analyze_flags.add_argument("--bucket-cuts", dest="bucket_cuts", metavar="N,N,...",
                               help="upper bounds of the cluster-size buckets")

    sp = sub.add_parser("ingest", parents=[common, ingest_flags],
                        help="filter a raw record stream down to kept transfers")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--output", required=True, metavar="FILE")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("build", parents=[common],
                        help="aggregate transfers into a directed graph")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--output", required=True, metavar="DIR")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("stats", parents=[common],
                        help="print graph statistics and the degree ranking")
    sp.add_argument("--graph", required=True, metavar="DIR")
    sp.add_argument("--top", type=int, default=20)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("detect", parents=[common, detect_flags],
                        help="find exchange clusters via deposit-address reuse")
    sp.add_argument("--graph", required=True, metavar="DIR")
    sp.add_argument("--output", required=True, metavar="FILE")
    sp.add_argument("--coloring", metavar="FILE",
                    help="also write the node coloring CSV")
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("contract", parents=[common],
                        help="contract the graph under a node coloring")
    sp.add_argument("--graph", required=True, metavar="DIR")
    sp.add_argument("--coloring", metavar="FILE",
                    help="node coloring CSV; omitted means everyone is a user")
    sp.add_argument("--clusters", metavar="FILE",
                    help="cluster CSV supplying exchange labels")
    sp.add_argument("--output", required=True, metavar="DIR")
    sp.add_argument("--verify", action="store_true",
                    help="cross-check with the independent implementation")
    sp.set_defaults(func=cmd_contract)

    sp = sub.add_parser("analyze", parents=[common, analyze_flags],
                        help="build the flux partition, exchange table and "
                             "cluster-size report")
    sp.add_argument("--contracted", required=True, metavar="DIR")
    sp.add_argument("--clusters", metavar="FILE")
    sp.add_argument("--output", required=True, metavar="DIR")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("synth", parents=[_common_parent(with_config=False)],
                        help="generate a deterministic synthetic ledger")
    sp.add_argument("--scenario", metavar="FILE", help="scenario config JSON")
    sp.add_argument("--output", metavar="FILE", help="record stream to write")
    sp.add_argument("--truth", metavar="DIR",
                    help="also write ground truth and main-wallet labels")
    sp.add_argument("--seed", type=int, help="override the scenario seed")
    sp.add_argument("--template", metavar="FILE",
                    help="write an example scenario config and exit")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("run", parents=[common, ingest_flags, detect_flags, analyze_flags],
                        help="run the whole pipeline into one output directory")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--output", required=True, metavar="DIR")
    sp.add_argument("--no-detect", dest="detect", action="store_false", default=None,
                    help="skip exchange detection; contract user components only")
    sp.add_argument("--verify", action="store_true", default=None,
                    help="cross-check the contraction before reporting")
    sp.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    """Run one command. The cyclic garbage collector is paused while it runs:
    the pipeline's large graphs hold no reference cycles, so its passes
    over them free nothing, and the few cycles a command leaves (mostly
    argparse's) do not grow with the input."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.INFO
    if getattr(args, "verbose", False):
        level = logging.DEBUG
    elif getattr(args, "quiet", False):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(message)s")
    log.setLevel(level)
    try:
        config = _load_pipeline_config(getattr(args, "config", None))
        return args.func(args, config)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except MalformedRecordError as exc:
        return _fail(EXIT_MALFORMED, exc)
    except ConsistencyError as exc:
        return _fail(EXIT_CONSERVATION, exc)
    except VerificationError as exc:
        return _fail(EXIT_VERIFY, exc)
    except (OSError, LabelFileError) as exc:
        return _fail(EXIT_IO, exc)
    except FluxGraphError as exc:
        # unknown account, overlapping clusters, partial coloring, a
        # clusters file that disagrees with the quotient
        return _fail(EXIT_DATA, exc)


def _fail(code: int, exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
