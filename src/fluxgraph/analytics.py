"""Interaction statistics over a contracted graph.

Everything here is derived from exact integer aggregates. Percentages
and DOT conversions (1 DOT = 10^10 Planck) happen only at the display
boundary, rounded to two decimals; the machine-readable report always
carries the raw integers alongside.

The flux partition splits all transfers into four interaction classes:
inside one exchange cluster, between different exchanges, between users
and exchanges (both directions pooled), and inside user clusters. By
construction of the quotient these classes are exhaustive and disjoint,
so their counts add up to the original totals exactly; build_report
refuses to produce output when they do not.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .contraction import ContractedGraph
from .errors import ConfigError, ConsistencyError
from .exchanges import ExchangeCluster
from .graph import GraphStats
from .tables import atomic_output, write_json, write_table

DEFAULT_BUCKET_CUTS = (1, 2, 3, 10, 100, 421)

CATEGORY_ORDER = ("intra_exchange", "inter_exchange", "user_exchange", "intra_user")


def fraction(numerator: int, denominator: int) -> float:
    """numerator/denominator as a float, 0.0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0


def fmt_pct(numerator: int, denominator: int) -> str:
    """Percentage string with two decimals, computed from the integers."""
    return f"{100.0 * fraction(numerator, denominator):.2f}%"


def fmt_fraction_pct(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def fmt_dot(planck: int) -> str:
    """Exact Planck -> DOT display string with two decimals (half-up),
    avoiding float precision loss on ledger-scale sums."""
    if planck < 0:
        raise ValueError("flux cannot be negative")
    cents = (planck + 50_000_000) // 100_000_000
    return f"{cents // 100:,}.{cents % 100:02d}"


@dataclass(slots=True)
class CategoryStats:
    tx_count: int = 0
    flux: int = 0
    tx_pct: float = 0.0
    flux_pct: float = 0.0

    def as_dict(self) -> dict:
        return {
            "tx_count": self.tx_count,
            "flux_planck": self.flux,
            "tx_pct": round(100.0 * self.tx_pct, 2),
            "flux_pct": round(100.0 * self.flux_pct, 2),
        }


@dataclass(slots=True)
class FluxPartition:
    intra_exchange: CategoryStats
    inter_exchange: CategoryStats
    user_exchange: CategoryStats
    intra_user: CategoryStats

    def items(self) -> list[tuple[str, CategoryStats]]:
        return [(name, getattr(self, name)) for name in CATEGORY_ORDER]

    def as_dict(self) -> dict:
        return {name: stats.as_dict() for name, stats in self.items()}


def flux_partition(contracted: ContractedGraph) -> FluxPartition:
    """Split transaction count and flux into the four interaction classes.

    Sums across classes equal the quotient's totals exactly, hence (by
    contraction conservation) the original graph's totals.
    """
    cats = {name: CategoryStats() for name in CATEGORY_ORDER}
    for node in contracted.nodes.values():
        target = cats["intra_exchange"] if node.color >= 1 else cats["intra_user"]
        target.tx_count += node.intra_tx_count
        target.flux += node.intra_flux
    for (src, dst), agg in contracted.edges.items():
        src_ex = contracted.nodes[src].color >= 1
        dst_ex = contracted.nodes[dst].color >= 1
        if src_ex and dst_ex:
            target = cats["inter_exchange"]
        elif src_ex or dst_ex:
            target = cats["user_exchange"]
        else:
            # properly colored quotients never produce user-user edges;
            # tolerate hand-built input without losing the totals
            target = cats["intra_user"]
        target.tx_count += agg.multiplicity
        target.flux += agg.flux
    total_tx = sum(c.tx_count for c in cats.values())
    total_flux = sum(c.flux for c in cats.values())
    for stats in cats.values():
        stats.tx_pct = fraction(stats.tx_count, total_tx)
        stats.flux_pct = fraction(stats.flux, total_flux)
    return FluxPartition(**cats)


@dataclass(slots=True)
class ExchangeRow:
    label: str
    main_count: int
    node_count: int
    node_pct: float
    inter_tx: int
    inter_tx_pct: float
    inter_flux: int
    inter_flux_pct: float

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "main_addresses": self.main_count,
            "node_count": self.node_count,
            "node_pct": round(100.0 * self.node_pct, 2),
            "inter_exchange_tx": self.inter_tx,
            "inter_exchange_tx_pct": round(100.0 * self.inter_tx_pct, 2),
            "inter_exchange_flux_planck": self.inter_flux,
            "inter_exchange_flux_pct": round(100.0 * self.inter_flux_pct, 2),
        }


def exchange_table(
    contracted: ContractedGraph, clusters: Iterable[ExchangeCluster]
) -> list[ExchangeRow]:
    """Per-exchange summary, sorted by descending owned-node count.

    Inter-exchange figures count each cluster's transfers to and from
    other exchange clusters, so over the whole table every such edge is
    counted twice, once per endpoint; percentages use that doubled total
    as denominator.
    """
    node_count: dict[int, int] = {}
    for node in contracted.nodes.values():
        if node.color >= 1:
            node_count[node.color] = node_count.get(node.color, 0) + node.member_count

    inter_tx: dict[int, int] = {}
    inter_flux: dict[int, int] = {}
    for (src, dst), agg in contracted.edges.items():
        c_src = contracted.nodes[src].color
        c_dst = contracted.nodes[dst].color
        if c_src >= 1 and c_dst >= 1 and c_src != c_dst:
            inter_tx[c_src] = inter_tx.get(c_src, 0) + agg.multiplicity
            inter_tx[c_dst] = inter_tx.get(c_dst, 0) + agg.multiplicity
            inter_flux[c_src] = inter_flux.get(c_src, 0) + agg.flux
            inter_flux[c_dst] = inter_flux.get(c_dst, 0) + agg.flux

    rows = []
    for cluster in clusters:
        cid = cluster.cluster_id
        rows.append(
            ExchangeRow(
                label=cluster.label,
                main_count=len(cluster.main_addresses),
                node_count=node_count.get(cid, 0),
                node_pct=0.0,
                inter_tx=inter_tx.get(cid, 0),
                inter_tx_pct=0.0,
                inter_flux=inter_flux.get(cid, 0),
                inter_flux_pct=0.0,
            )
        )
    total_nodes = sum(r.node_count for r in rows)
    total_tx = sum(r.inter_tx for r in rows)
    total_flux = sum(r.inter_flux for r in rows)
    for row in rows:
        row.node_pct = fraction(row.node_count, total_nodes)
        row.inter_tx_pct = fraction(row.inter_tx, total_tx)
        row.inter_flux_pct = fraction(row.inter_flux, total_flux)
    rows.sort(key=lambda r: (-r.node_count, r.label))
    return rows


@dataclass(slots=True)
class SizeBucket:
    label: str
    lo: int
    hi: int
    cluster_count: int = 0
    user_count: int = 0
    user_pct: float = 0.0
    avg_intra_tx: Optional[float] = None
    avg_intra_flux: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "lo": self.lo,
            "hi": self.hi,
            "cluster_count": self.cluster_count,
            "user_count": self.user_count,
            "user_pct": round(100.0 * self.user_pct, 2),
            "avg_intra_tx": (
                None if self.avg_intra_tx is None else round(self.avg_intra_tx, 2)
            ),
            "avg_intra_flux_planck": self.avg_intra_flux,
        }


@dataclass
class ClusterSizeHistogram:
    buckets: list[SizeBucket]
    total_user_accounts: int
    size_counts: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "total_user_accounts": self.total_user_accounts,
            "buckets": [b.as_dict() for b in self.buckets],
        }


def _bucket_edges(cuts: Sequence[int], max_size: int) -> list[tuple[int, int]]:
    edges = []
    lo = 1
    for cut in cuts:
        edges.append((lo, cut))
        lo = cut + 1
    if max_size > cuts[-1]:
        if max_size - 1 >= cuts[-1] + 1:
            edges.append((cuts[-1] + 1, max_size - 1))
        edges.append((max_size, max_size))
    return edges


def checked_bucket_cuts(cuts: Iterable[int]) -> tuple[int, ...]:
    """cuts as a tuple; ConfigError unless strictly increasing positives."""
    cuts = tuple(cuts)
    if not cuts or any(c < 1 for c in cuts) or list(cuts) != sorted(set(cuts)):
        raise ConfigError(f"bucket cuts must be strictly increasing positives: {cuts!r}")
    return cuts


def cluster_size_histogram(
    contracted: ContractedGraph, cuts: Sequence[int] = DEFAULT_BUCKET_CUTS
) -> ClusterSizeHistogram:
    """Bucketed size distribution of the user-colored clusters.

    cuts give the upper bounds of the fixed buckets (the first always
    starts at 1); clusters above the last cut land in an open range up
    to the maximum size minus one, with the maximum-sized cluster(s) in
    a bucket of their own. Bucket averages are arithmetic means of the
    member clusters' internal transfer statistics, None when a bucket is
    empty.
    """
    cuts = checked_bucket_cuts(cuts)
    user_nodes = [n for n in contracted.nodes.values() if n.color == 0]
    total_users = sum(n.member_count for n in user_nodes)
    max_size = max((n.member_count for n in user_nodes), default=0)

    buckets = [
        SizeBucket(label=(f"{lo}" if lo == hi else f"{lo}-{hi}"), lo=lo, hi=hi)
        for lo, hi in _bucket_edges(cuts, max_size)
    ]
    sums_tx = [0] * len(buckets)
    sums_flux = [0] * len(buckets)
    size_counts: dict[int, int] = {}
    for node in user_nodes:
        size = node.member_count
        size_counts[size] = size_counts.get(size, 0) + 1
        for i, bucket in enumerate(buckets):
            if bucket.lo <= size <= bucket.hi:
                bucket.cluster_count += 1
                bucket.user_count += size
                sums_tx[i] += node.intra_tx_count
                sums_flux[i] += node.intra_flux
                break
    for i, bucket in enumerate(buckets):
        bucket.user_pct = fraction(bucket.user_count, total_users)
        if bucket.cluster_count:
            bucket.avg_intra_tx = sums_tx[i] / bucket.cluster_count
            bucket.avg_intra_flux = sums_flux[i] / bucket.cluster_count
    return ClusterSizeHistogram(
        buckets=buckets, total_user_accounts=total_users, size_counts=size_counts
    )


@dataclass
class NetworkReport:
    before: GraphStats
    after_order: int
    after_size: int
    exchange_cluster_count: int
    exchange_quotient_nodes: int
    exchange_owned_accounts: int
    user_accounts: int
    user_cluster_count: int
    largest_user_cluster: int
    partition: FluxPartition
    table: list[ExchangeRow]
    histogram: ClusterSizeHistogram

    def as_dict(self) -> dict:
        before = self.before
        return {
            "before": before.as_dict(),
            "after": {
                "order": self.after_order,
                "size": self.after_size,
                "order_pct": round(100.0 * fraction(self.after_order, before.order), 2),
                "size_vs_transactions_pct": round(
                    100.0 * fraction(self.after_size, before.transaction_count), 2
                ),
            },
            "exchange_summary": {
                "cluster_count": self.exchange_cluster_count,
                "quotient_nodes": self.exchange_quotient_nodes,
                "owned_accounts": self.exchange_owned_accounts,
                "owned_pct": round(
                    100.0 * fraction(self.exchange_owned_accounts, before.order), 2
                ),
                "user_accounts": self.user_accounts,
                "user_pct": round(100.0 * fraction(self.user_accounts, before.order), 2),
            },
            "flux_partition": self.partition.as_dict(),
            "exchange_table": [row.as_dict() for row in self.table],
            "cluster_size_histogram": self.histogram.as_dict(),
            "user_clusters": {
                "count": self.user_cluster_count,
                "largest": self.largest_user_cluster,
                "largest_pct": round(
                    100.0 * fraction(self.largest_user_cluster, self.user_accounts), 2
                ),
            },
        }


def check_conservation(before: GraphStats, contracted: ContractedGraph) -> dict[str, bool]:
    """Exact integer conservation of accounts, transfers and flux."""
    return {
        "accounts": contracted.total_member_count() == before.order,
        "transactions": contracted.total_intra_tx()
        + contracted.total_edge_multiplicity()
        == before.transaction_count,
        "flux": contracted.total_intra_flux() + contracted.total_edge_flux()
        == before.total_flux,
    }


def build_report(
    before: GraphStats,
    contracted: ContractedGraph,
    clusters: Iterable[ExchangeCluster],
    cuts: Sequence[int] = DEFAULT_BUCKET_CUTS,
) -> NetworkReport:
    """Assemble the full report; raises ConsistencyError when the
    quotient's accounting does not reproduce the pre-contraction totals."""
    clusters = list(clusters)
    conservation = check_conservation(before, contracted)
    if not all(conservation.values()):
        broken = ", ".join(k for k, ok in conservation.items() if not ok)
        raise ConsistencyError(
            f"conservation violated for: {broken} "
            f"(order {before.order} vs members {contracted.total_member_count()}, "
            f"tx {before.transaction_count} vs "
            f"{contracted.total_intra_tx() + contracted.total_edge_multiplicity()}, "
            f"flux {before.total_flux} vs "
            f"{contracted.total_intra_flux() + contracted.total_edge_flux()})"
        )
    exchange_nodes = [n for n in contracted.nodes.values() if n.color >= 1]
    user_nodes = [n for n in contracted.nodes.values() if n.color == 0]
    owned = sum(n.member_count for n in exchange_nodes)
    return NetworkReport(
        before=before,
        after_order=contracted.order,
        after_size=contracted.size,
        exchange_cluster_count=len(clusters),
        exchange_quotient_nodes=len(exchange_nodes),
        exchange_owned_accounts=owned,
        user_accounts=before.order - owned,
        user_cluster_count=len(user_nodes),
        largest_user_cluster=max((n.member_count for n in user_nodes), default=0),
        partition=flux_partition(contracted),
        table=exchange_table(contracted, clusters),
        histogram=cluster_size_histogram(contracted, cuts),
    )


# -- rendering and persistence ---------------------------------------


def render_report_text(report: NetworkReport) -> str:
    b = report.before
    out = []
    out.append("Network overview")
    out.append(f"  accounts            {b.order:,} -> {report.after_order:,} "
               f"({fmt_pct(report.after_order, b.order)})")
    out.append(f"  aggregated edges    {b.aggregated_size:,} -> {report.after_size:,}")
    out.append(f"  transfers           {b.transaction_count:,}")
    out.append(f"  total flux (DOT)    {fmt_dot(b.total_flux)}")
    out.append(f"  exchange clusters   {report.exchange_cluster_count} "
               f"({report.exchange_quotient_nodes} quotient nodes) owning "
               f"{report.exchange_owned_accounts:,} accounts "
               f"({fmt_pct(report.exchange_owned_accounts, b.order)})")
    out.append(f"  user accounts       {report.user_accounts:,} "
               f"({fmt_pct(report.user_accounts, b.order)}) in "
               f"{report.user_cluster_count:,} clusters, largest "
               f"{report.largest_user_cluster:,}")
    out.append("")
    out.append("Flux partition")
    out.append(f"  {'category':<16} {'transfers':>12} {'tx %':>8} "
               f"{'flux (DOT)':>20} {'flux %':>8}")
    for name, stats in report.partition.items():
        out.append(
            f"  {name:<16} {stats.tx_count:>12,} "
            f"{fmt_fraction_pct(stats.tx_pct):>8} {fmt_dot(stats.flux):>20} "
            f"{fmt_fraction_pct(stats.flux_pct):>8}"
        )
    out.append("")
    out.append("Exchanges")
    out.append(f"  {'label':<20} {'mains':>5} {'nodes':>10} {'node %':>8} "
               f"{'inter-ex tx':>12} {'tx %':>8} {'inter-ex flux (DOT)':>22} {'flux %':>8}")
    for row in report.table:
        out.append(
            f"  {row.label:<20} {row.main_count:>5} {row.node_count:>10,} "
            f"{fmt_fraction_pct(row.node_pct):>8} {row.inter_tx:>12,} "
            f"{fmt_fraction_pct(row.inter_tx_pct):>8} {fmt_dot(row.inter_flux):>22} "
            f"{fmt_fraction_pct(row.inter_flux_pct):>8}"
        )
    out.append("")
    out.append("User cluster sizes")
    out.append(f"  {'bucket':<16} {'clusters':>10} {'users':>12} {'user %':>8} "
               f"{'avg tx':>10} {'avg flux (DOT)':>16}")
    for bucket in report.histogram.buckets:
        avg_tx = "-" if bucket.avg_intra_tx is None else f"{bucket.avg_intra_tx:,.2f}"
        avg_flux = (
            "-"
            if bucket.avg_intra_flux is None
            else fmt_dot(int(round(bucket.avg_intra_flux)))
        )
        out.append(
            f"  {bucket.label:<16} {bucket.cluster_count:>10,} {bucket.user_count:>12,} "
            f"{fmt_fraction_pct(bucket.user_pct):>8} {avg_tx:>10} {avg_flux:>16}"
        )
    out.append("")
    return "\n".join(out)


REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"
PARTITION_CSV = "partition.csv"
EXCHANGE_EDGES_CSV = "exchange_edges.csv"
CLUSTER_SIZES_CSV = "cluster_sizes.csv"


def save_report(
    directory: str,
    report: NetworkReport,
    contracted: ContractedGraph,
    cluster_labels: dict[int, str],
) -> None:
    """Write report.json, report.txt, and the plot-data CSVs (category
    partition, inter-exchange edge list, exact cluster-size counts)."""
    os.makedirs(directory, exist_ok=True)
    write_json(os.path.join(directory, REPORT_JSON), report.as_dict())
    with atomic_output(os.path.join(directory, REPORT_TEXT)) as fh:
        fh.write(render_report_text(report))
    write_table(
        os.path.join(directory, PARTITION_CSV),
        ["category", "tx_count", "flux_planck", "tx_pct", "flux_pct"],
        (
            [name, stats.tx_count, stats.flux,
             f"{100.0 * stats.tx_pct:.2f}", f"{100.0 * stats.flux_pct:.2f}"]
            for name, stats in report.partition.items()
        ),
    )
    write_table(
        os.path.join(directory, CLUSTER_SIZES_CSV),
        ["cluster_size", "cluster_count"],
        sorted(report.histogram.size_counts.items()),
    )
    nodes = contracted.nodes
    write_table(
        os.path.join(directory, EXCHANGE_EDGES_CSV),
        ["src_label", "dst_label", "flux_planck", "multiplicity"],
        (
            [cluster_labels.get(src, str(src)), cluster_labels.get(dst, str(dst)),
             agg.flux, agg.multiplicity]
            for (src, dst), agg in sorted(contracted.edges.items())
            if nodes[src].color >= 1 and nodes[dst].color >= 1
        ),
    )
