"""Transfer-graph toolkit for account-based ledgers.

The pipeline turns a stream of pre-decoded extrinsic records into an
aggregated directed transfer graph, finds exchange clusters through
deposit-address reuse, contracts each cluster to a single node, and
reports how transaction count and moved value split across exchange
and user activity. A deterministic scenario generator produces test
ledgers with known ground truth.
"""

__version__ = "0.1.0"

from .errors import (
    ClusterOverlapError,
    ConfigError,
    ConsistencyError,
    FluxGraphError,
    LabelFileError,
    MalformedRecordError,
    MissingFieldError,
    PartialColoringError,
    UnknownAccountError,
    VerificationError,
)
from .records import (
    PLANCK_PER_DOT,
    POLKADOT_TRANSFER_START_BLOCK,
    IngestSummary,
    TransferRecord,
    dot_to_planck,
    ingest,
    is_transfer_call,
    parse_record,
    read_transfers,
    write_transfers,
)
from .graph import (
    AggregatedGraph,
    EdgeAggregate,
    GraphStats,
    degree_centrality_ranking,
    graph_stats,
    load_graph,
    save_graph,
)
from .exchanges import (
    Coloring,
    DetectionParams,
    ExchangeCluster,
    build_coloring,
    classify_exchange,
    detect_exchanges,
    is_deposit_address,
    load_clusters,
    load_coloring,
    load_labels,
    merge_clusters,
    save_clusters,
    save_coloring,
)
from .contraction import (
    ContractedGraph,
    ContractedNode,
    canonical_form,
    contract,
    load_contracted,
    load_quotient,
    oracle_contract,
    save_contracted,
    verify_contraction,
)
from .analytics import (
    DEFAULT_BUCKET_CUTS,
    ClusterSizeHistogram,
    ExchangeRow,
    FluxPartition,
    NetworkReport,
    build_report,
    check_conservation,
    cluster_size_histogram,
    exchange_table,
    flux_partition,
    render_report_text,
    save_report,
)
from .synth import (
    ExchangeSpec,
    GroundTruth,
    ScenarioConfig,
    generate,
    generate_to_file,
    save_ground_truth,
)

__all__ = [
    "__version__",
    "FluxGraphError", "ConfigError", "MalformedRecordError", "MissingFieldError",
    "UnknownAccountError", "LabelFileError", "ClusterOverlapError",
    "PartialColoringError", "ConsistencyError", "VerificationError",
    "PLANCK_PER_DOT", "POLKADOT_TRANSFER_START_BLOCK",
    "TransferRecord", "IngestSummary", "parse_record", "ingest", "is_transfer_call",
    "dot_to_planck", "read_transfers", "write_transfers",
    "AggregatedGraph", "EdgeAggregate", "GraphStats",
    "degree_centrality_ranking", "graph_stats", "save_graph", "load_graph",
    "DetectionParams", "ExchangeCluster", "Coloring", "is_deposit_address",
    "classify_exchange", "detect_exchanges", "merge_clusters", "build_coloring",
    "load_labels", "save_clusters", "load_clusters", "save_coloring",
    "load_coloring",
    "ContractedGraph", "ContractedNode", "contract", "oracle_contract",
    "verify_contraction", "canonical_form", "save_contracted", "load_contracted",
    "load_quotient",
    "DEFAULT_BUCKET_CUTS", "FluxPartition", "ExchangeRow",
    "ClusterSizeHistogram", "NetworkReport", "flux_partition", "exchange_table",
    "cluster_size_histogram", "build_report", "check_conservation",
    "render_report_text", "save_report",
    "ScenarioConfig", "ExchangeSpec", "GroundTruth", "generate",
    "generate_to_file", "save_ground_truth",
]
