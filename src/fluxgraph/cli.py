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
import json
import logging
import os
import sys
import time

try:
    import resource
except ImportError:  # not on every platform, and only --verbose reads it
    resource = None

from . import __version__
from .analytics import (
    DEFAULT_BUCKET_CUTS,
    build_report,
    check_conservation,
    save_report,
)
# canonical_form, load_contracted and transfer_line are not called here, but
# stay importable from this module: bench/spans.py wraps the layer functions
# by these names
from .contraction import (
    canonical_form,
    contract,
    oracle_contract,
    save_contracted,
    load_contracted,
    load_quotient,
    verify_contraction,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    FluxGraphError,
    LabelFileError,
    MalformedRecordError,
    VerificationError,
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
    build_graph,
    degree_centrality_ranking,
    graph_stats,
    load_graph,
    save_graph,
)
from .records import IngestSummary, ingest, read_transfers, transfer_line, write_transfers
from .tables import write_json
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

    A config value must have its default's type (bool is not an int; an
    int may stand for a float); a default of None admits any value.
    """
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
            kind = type(default)
            if not (default is None or type(value) is kind
                    or (kind is float and type(value) is int)):
                raise ConfigError(
                    f"config key {stage}.{key} must be {kind.__name__}, got {value!r}"
                )
        resolved[key] = value
    return resolved


def _ingest_options(args, config: dict) -> dict:
    return _stage_options(args, config, "ingest", {"start_block": 0, "on_error": "fail"})


def _bucket_cuts(args, config: dict) -> tuple[int, ...]:
    value = _stage_options(args, config, "analyze", {"bucket_cuts": None})["bucket_cuts"]
    if not value:
        return DEFAULT_BUCKET_CUTS
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bucket cuts must be integers, got {value!r}") from None
    if isinstance(value, (list, tuple)):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise ConfigError("bucket cuts in config must be a list of integers")
        return tuple(value)
    raise ConfigError(f"cannot interpret bucket cuts {value!r}")


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


def _peak_rss() -> str:
    """The process's peak resident set size so far, for progress logs."""
    if resource is None:
        return "unknown"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return f"{peak / (1 << (20 if sys.platform == 'darwin' else 10)):.1f} MB"


@contextlib.contextmanager
def _timed(timings: dict, key: str):
    t0 = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - t0
    log.debug("stage %s: %.3f s, peak RSS %s", key, timings[key], _peak_rss())


# -- stages: each called by its own command (inputs read from files) and
# by run (inputs it already holds) --------------------------------------


def _ingest(source: str, opts: dict, consume):
    """Filter the ledger at source, handing its kept transfers, as one
    iterator, to consume. Returns consume's result and the ingest counts,
    complete once consume has drained the iterator."""
    summary = IngestSummary()
    with open(source, "r", encoding="utf-8") as src:
        result = consume(ingest(src, start_block=opts["start_block"],
                                on_error=opts["on_error"], summary=summary))
    log.info("ingest: kept %d of %d records", summary.kept, summary.parsed)
    return result, summary


def _save_graph(graph: AggregatedGraph, directory: str) -> GraphStats:
    save_graph(graph, directory)
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
            clusters_path: str, coloring_path: str | None):
    """Find exchange clusters (none without params) and save them, and
    the coloring they induce when coloring_path is given."""
    clusters = detect_exchanges(graph, params, labels) if params else []
    save_clusters(clusters_path, clusters)
    coloring = None
    if coloring_path:
        coloring = build_coloring(graph, clusters)
        save_coloring(coloring_path, coloring)
    log.info("detect: %d exchange clusters", len(clusters))
    return clusters, coloring


def _verify(expected, contracted, assignment) -> None:
    """Cross-check a contraction against the independent implementation's
    result, expected: the oracle's (quotient, assignment) pair."""
    if not verify_contraction(contracted):
        raise VerificationError("contracted graph is not properly colored")
    other, other_assignment = expected
    # both routes number clusters alike, so equal quotients have equal ids
    if (other_assignment, other.nodes, other.edges) != (
            assignment, contracted.nodes, contracted.edges):
        raise VerificationError("independent contraction produced a different quotient graph")


def _contract(graph: AggregatedGraph, coloring: Coloring, verify: bool, directory: str,
              labels: dict[int, str], timings: dict, **meta):
    """Contract, cross-check when verify, and save the quotient with meta in meta.json."""
    with _timed(timings, "contract"):
        # The oracle runs first: its working set is the larger of the two,
        # so it peaks before the fast quotient exists, and contract()'s
        # smaller working set then overlaps only the oracle's finished result.
        expected = oracle_contract(graph, coloring) if verify else None
        contracted, assignment = contract(graph, coloring)
        if verify:
            _verify(expected, contracted, assignment)
        del expected
    meta.update(before=graph_stats(graph).as_dict(), tool_version=__version__,
                verified=verify)
    with _timed(timings, "save_contracted"):
        save_contracted(contracted, assignment, directory, labels=labels, meta=meta)
    log.info("contract: %d clusters, %d quotient edges", contracted.order, contracted.size)
    return contracted


def _analyze(before: GraphStats, contracted, clusters, cuts, directory: str,
             labels: dict[int, str]):
    report = build_report(before, contracted, clusters, cuts)
    save_report(directory, report, contracted, labels)
    return report


# -- stage commands ----------------------------------------------------


def cmd_ingest(args, config: dict) -> int:
    t0 = time.perf_counter()
    _count, summary = _ingest(args.input, _ingest_options(args, config),
                              functools.partial(write_transfers, args.output))
    _emit(dict(summary.as_dict(), output=args.output,
               elapsed_s=round(time.perf_counter() - t0, 3)))
    return EXIT_OK


def cmd_build(args, config: dict) -> int:
    t0 = time.perf_counter()
    stats = _save_graph(build_graph(read_transfers(args.input)), args.output)
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
    graph = load_graph(args.graph)
    labels = load_labels(labels_path) if labels_path else None
    clusters, _coloring = _detect(graph, params, labels, args.output, args.coloring)
    _emit(dict(
        _detection_summary(clusters),
        labels=sorted(c.label for c in clusters),
        params=dataclasses.asdict(params),
        output=args.output,
        elapsed_s=round(time.perf_counter() - t0, 3),
    ))
    return EXIT_OK


def cmd_contract(args, config: dict) -> int:
    t0 = time.perf_counter()
    graph = load_graph(args.graph)
    if args.coloring:
        coloring = load_coloring(args.coloring, graph)
    else:
        coloring = Coloring.all_users(graph)
    clusters = load_clusters(args.clusters) if args.clusters else []
    labels = {c.cluster_id: c.label for c in clusters}
    contracted = _contract(graph, coloring, args.verify, args.output, labels, {})
    _emit({
        "order": contracted.order,
        "size": contracted.size,
        "intra_tx_count": contracted.total_intra_tx(),
        "verified": args.verify,
        "output": args.output,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    })
    return EXIT_OK


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
    clusters = load_clusters(args.clusters) if args.clusters else []
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
    detect_enabled = bool(run_opts["detect"]) and not args.no_detect
    verify = bool(run_opts["verify"])
    params, labels_path = _detection_options(args, config)
    params = params if detect_enabled else None
    # read before ingesting, so a bad labels file leaves no partial output
    labels = load_labels(labels_path) if params and labels_path else None
    params_dict = dataclasses.asdict(params) if params else None

    outdir = args.output
    os.makedirs(outdir, exist_ok=True)
    out = functools.partial(os.path.join, outdir)
    timings: dict[str, float] = {}
    total0 = time.perf_counter()

    with _timed(timings, "ingest_and_build"):
        graph, summary = _ingest(args.input, ingest_opts, build_graph)
    with _timed(timings, "save_graph"):
        before = _save_graph(graph, out(GRAPH_DIR))
    with _timed(timings, "detect"):
        clusters, coloring = _detect(graph, params, labels,
                                     out(CLUSTERS_FILE), out(COLORING_FILE))
    cluster_labels = {c.cluster_id: c.label for c in clusters}
    contracted = _contract(graph, coloring, verify, out(CONTRACTED_DIR), cluster_labels,
                           timings, detect=detect_enabled, params=params_dict)
    with _timed(timings, "analyze"):
        _analyze(before, contracted, clusters, cuts, out(REPORT_DIR), cluster_labels)

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
    sp.add_argument("--no-detect", action="store_true", default=False,
                    help="skip exchange detection; contract user components only")
    sp.add_argument("--verify", action="store_true", default=None,
                    help="cross-check the contraction before reporting")
    sp.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    """Run one command. The cyclic garbage collector is paused meanwhile:
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
        # unknown account, overlapping clusters, partial coloring
        return _fail(EXIT_DATA, exc)


def _fail(code: int, exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
