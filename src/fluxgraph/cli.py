"""Command line front end for the transfer-graph pipeline.

Subcommands mirror the pipeline stages (ingest, build, stats, detect,
contract, analyze), plus synth for generating test ledgers and run for
the whole chain in one go. Every stage command accepts --config with a
pipeline JSON file whose per-stage blocks supply defaults; explicit
flags win over the config file.

Exit codes: 0 success, 2 usage, 3 bad configuration, 4 malformed input
record or CSV row (file and line named), 5 inconsistent data files,
6 conservation failure, 7 failed verification, 8 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

from . import __version__
from .analytics import (
    DEFAULT_BUCKET_CUTS,
    build_report,
    check_conservation,
    save_report,
)
from .contraction import (
    canonical_form,
    contract,
    oracle_contract,
    save_contracted,
    load_contracted,
    verify_contraction,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    FluxGraphError,
    LabelFileError,
    MalformedRecordError,
    UnknownAccountError,
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
    degree_centrality_ranking,
    graph_stats,
    load_graph,
    save_graph,
)
from .records import IngestSummary, ingest, read_transfers, transfer_line, write_transfers
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

TRANSFERS_FILE = "transfers.jsonl"
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _stage_options(args, config: dict, stage: str, defaults: dict) -> dict:
    """Resolve one stage's options: CLI flag, else config block, else default."""
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
        resolved[key] = value
    return resolved


def _parse_cuts(value) -> tuple[int, ...]:
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
    return DetectionParams(**opts), labels_path


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# -- stage commands ----------------------------------------------------


def cmd_ingest(args, config: dict) -> int:
    opts = _stage_options(
        args, config, "ingest", {"start_block": 0, "on_error": "fail"}
    )
    t0 = time.perf_counter()
    summary = IngestSummary()
    with open(args.input, "r", encoding="utf-8") as src:
        kept = write_transfers(
            args.output,
            ingest(src, start_block=opts["start_block"],
                   on_error=opts["on_error"], summary=summary),
        )
    log.info("ingest: kept %d of %d records", kept, summary.parsed)
    _emit(dict(summary.as_dict(), output=args.output,
               elapsed_s=round(time.perf_counter() - t0, 3)))
    return EXIT_OK


def cmd_build(args, config: dict) -> int:
    t0 = time.perf_counter()
    graph = AggregatedGraph()
    for t in read_transfers(args.input):
        graph.add_transfer(t.sender, t.recipient, t.amount_planck)
    save_graph(graph, args.output)
    stats = graph_stats(graph)
    log.info("build: %d accounts, %d aggregated edges", stats.order, stats.aggregated_size)
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
    clusters = detect_exchanges(graph, params, labels)
    save_clusters(args.output, clusters)
    if args.coloring:
        save_coloring(args.coloring, build_coloring(graph, clusters))
    log.info("detect: %d exchange clusters", len(clusters))
    _emit({
        "clusters": len(clusters),
        "main_addresses": sum(len(c.main_addresses) for c in clusters),
        "deposit_addresses": sum(len(c.deposit_addresses) for c in clusters),
        "labels": sorted(c.label for c in clusters),
        "params": dataclasses.asdict(params),
        "output": args.output,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    })
    return EXIT_OK


def _verified_contraction(graph, coloring):
    """Contract and cross-check against the independent implementation."""
    contracted, assignment = contract(graph, coloring)
    if not verify_contraction(contracted):
        raise VerificationError("contracted graph is not properly colored")
    other, other_assignment = oracle_contract(graph, coloring)
    if canonical_form(contracted, assignment) != canonical_form(other, other_assignment):
        raise VerificationError(
            "independent contraction produced a different quotient graph"
        )
    return contracted, assignment


def cmd_contract(args, config: dict) -> int:
    t0 = time.perf_counter()
    graph = load_graph(args.graph)
    if args.coloring:
        coloring = load_coloring(args.coloring)
        # contract() rejects missing nodes; extra accounts mean another run's file
        if len(coloring.colors) > graph.order:
            outside = next(a for a in coloring.colors if not graph.has_node(a))
            raise UnknownAccountError(
                f"{args.coloring} colors account {outside!r}, which is not in the graph"
            )
    else:
        coloring = Coloring.all_users(graph)
    if args.verify:
        contracted, assignment = _verified_contraction(graph, coloring)
    else:
        contracted, assignment = contract(graph, coloring)
    labels = {}
    if args.clusters:
        labels = {c.cluster_id: c.label for c in load_clusters(args.clusters)}
    meta = {
        "before": graph_stats(graph).as_dict(),
        "tool_version": __version__,
        "verified": bool(args.verify),
    }
    save_contracted(contracted, assignment, args.output, labels=labels, meta=meta)
    log.info("contract: %d clusters, %d quotient edges", contracted.order, contracted.size)
    _emit({
        "order": contracted.order,
        "size": contracted.size,
        "intra_tx_count": contracted.total_intra_tx(),
        "verified": bool(args.verify),
        "output": args.output,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    })
    return EXIT_OK


def cmd_analyze(args, config: dict) -> int:
    opts = _stage_options(args, config, "analyze", {"bucket_cuts": None})
    cuts = _parse_cuts(opts["bucket_cuts"]) if opts["bucket_cuts"] else DEFAULT_BUCKET_CUTS
    contracted, _assignment, meta, labels = load_contracted(args.contracted)
    if "before" not in meta:
        raise ConfigError(
            f"{args.contracted} holds no pre-contraction statistics; "
            f"produce it with the contract or run command"
        )
    before = GraphStats(**meta["before"])
    clusters = load_clusters(args.clusters) if args.clusters else []
    report = build_report(before, contracted, clusters, cuts)
    save_report(args.output, report, contracted, labels)
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
        with open(args.template, "w", encoding="utf-8") as fh:
            json.dump(synthmod.config_to_dict(_TEMPLATE_SCENARIO), fh, indent=2)
            fh.write("\n")
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
    ingest_opts = _stage_options(
        args, config, "ingest", {"start_block": 0, "on_error": "fail"}
    )
    analyze_opts = _stage_options(args, config, "analyze", {"bucket_cuts": None})
    cuts = (
        _parse_cuts(analyze_opts["bucket_cuts"])
        if analyze_opts["bucket_cuts"]
        else DEFAULT_BUCKET_CUTS
    )
    run_opts = _stage_options(args, config, "run", {"detect": True, "verify": False})
    detect_enabled = bool(run_opts["detect"]) and not args.no_detect
    verify = bool(run_opts["verify"])
    params, labels_path = _detection_options(args, config)

    outdir = args.output
    os.makedirs(outdir, exist_ok=True)
    timings: dict[str, float] = {}
    total0 = time.perf_counter()

    t0 = time.perf_counter()
    summary = IngestSummary()
    graph = AggregatedGraph()
    transfers_path = os.path.join(outdir, TRANSFERS_FILE)
    with open(args.input, "r", encoding="utf-8") as src, \
            open(transfers_path, "w", encoding="utf-8") as dst:
        for t in ingest(src, start_block=ingest_opts["start_block"],
                        on_error=ingest_opts["on_error"], summary=summary):
            dst.write(transfer_line(t))
            dst.write("\n")
            graph.add_transfer(t.sender, t.recipient, t.amount_planck)
    timings["ingest_and_build"] = time.perf_counter() - t0
    before = graph_stats(graph)
    log.info("run: kept %d transfers, %d accounts, %d aggregated edges",
             summary.kept, before.order, before.aggregated_size)

    t0 = time.perf_counter()
    save_graph(graph, os.path.join(outdir, GRAPH_DIR))
    timings["save_graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if detect_enabled:
        labels = load_labels(labels_path) if labels_path else None
        clusters = detect_exchanges(graph, params, labels)
    else:
        clusters = []
    save_clusters(os.path.join(outdir, CLUSTERS_FILE), clusters)
    coloring = build_coloring(graph, clusters)
    save_coloring(os.path.join(outdir, COLORING_FILE), coloring)
    timings["detect"] = time.perf_counter() - t0
    log.info("run: %d exchange clusters", len(clusters))

    t0 = time.perf_counter()
    if verify:
        contracted, assignment = _verified_contraction(graph, coloring)
    else:
        contracted, assignment = contract(graph, coloring)
    timings["contract"] = time.perf_counter() - t0

    label_map = {c.cluster_id: c.label for c in clusters}
    meta = {
        "before": before.as_dict(),
        "tool_version": __version__,
        "detect": detect_enabled,
        "params": dataclasses.asdict(params) if detect_enabled else None,
        "verified": verify,
    }
    t0 = time.perf_counter()
    save_contracted(contracted, assignment, os.path.join(outdir, CONTRACTED_DIR),
                    labels=label_map, meta=meta)
    timings["save_contracted"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = build_report(before, contracted, clusters, cuts)
    save_report(os.path.join(outdir, REPORT_DIR), report, contracted, label_map)
    timings["analyze"] = time.perf_counter() - t0

    manifest = {
        "tool": "fluxgraph",
        "version": __version__,
        "input": args.input,
        "options": {
            "start_block": ingest_opts["start_block"],
            "on_error": ingest_opts["on_error"],
            "detect": detect_enabled,
            "verify": verify,
            "params": dataclasses.asdict(params) if detect_enabled else None,
            "labels": labels_path,
            "bucket_cuts": list(cuts),
        },
        "ingest": summary.as_dict(),
        "graph": before.as_dict(),
        "detection": {
            "clusters": len(clusters),
            "main_addresses": sum(len(c.main_addresses) for c in clusters),
            "deposit_addresses": sum(len(c.deposit_addresses) for c in clusters),
        },
        "contraction": {"order": contracted.order, "size": contracted.size},
        "conservation": check_conservation(before, contracted),
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        "total_s": round(time.perf_counter() - total0, 3),
    }
    with open(os.path.join(outdir, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

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


def _add_detection_flags(sp: argparse.ArgumentParser) -> None:
    """One --flag per DetectionParams field, typed like its default."""
    for name, default in _DETECT_DEFAULTS.items():
        sp.add_argument("--" + name.replace("_", "-"), type=type(default), dest=name)


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

    sp = sub.add_parser("ingest", parents=[common],
                        help="filter a raw record stream down to kept transfers")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--output", required=True, metavar="FILE")
    sp.add_argument("--start-block", type=int, dest="start_block")
    sp.add_argument("--on-error", choices=["fail", "skip"], dest="on_error")
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

    sp = sub.add_parser("detect", parents=[common],
                        help="find exchange clusters via deposit-address reuse")
    sp.add_argument("--graph", required=True, metavar="DIR")
    sp.add_argument("--output", required=True, metavar="FILE")
    sp.add_argument("--coloring", metavar="FILE",
                    help="also write the node coloring CSV")
    sp.add_argument("--labels", metavar="FILE",
                    help="address,label CSV naming known main wallets")
    _add_detection_flags(sp)
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

    sp = sub.add_parser("analyze", parents=[common],
                        help="build the flux partition, exchange table and "
                             "cluster-size report")
    sp.add_argument("--contracted", required=True, metavar="DIR")
    sp.add_argument("--clusters", metavar="FILE")
    sp.add_argument("--output", required=True, metavar="DIR")
    sp.add_argument("--bucket-cuts", dest="bucket_cuts", metavar="N,N,...",
                    help="upper bounds of the cluster-size buckets")
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

    sp = sub.add_parser("run", parents=[common],
                        help="run the whole pipeline into one output directory")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--output", required=True, metavar="DIR")
    sp.add_argument("--labels", metavar="FILE")
    sp.add_argument("--start-block", type=int, dest="start_block")
    sp.add_argument("--on-error", choices=["fail", "skip"], dest="on_error")
    sp.add_argument("--no-detect", action="store_true", default=False,
                    help="skip exchange detection; contract user components only")
    sp.add_argument("--verify", action="store_true", default=None,
                    help="cross-check the contraction before reporting")
    _add_detection_flags(sp)
    sp.add_argument("--bucket-cuts", dest="bucket_cuts", metavar="N,N,...")
    sp.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
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
