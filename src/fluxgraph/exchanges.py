"""Exchange cluster detection via deposit-address reuse.

Custodial services make customers pay into throwaway deposit addresses
that immediately forward to a central wallet. That pass-through shape is
the fingerprint: a high-traffic account whose neighborhood is dominated
by such forwarders is an exchange main wallet, and the forwarders are
its deposit addresses. Detection only ever looks at the candidate's
1-neighborhood edge aggregates.

Thresholds arrive as decimal floats but every comparison is exact: each
threshold is read as the decimal the caller wrote, once per parameter
set, and compared by integer cross-multiplication with the integer
flux, so "strictly more than 90%" means exactly that: 90 passing
neighbors out of 100 fails.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import (
    ClusterOverlapError,
    ConfigError,
    LabelFileError,
    UnknownAccountError,
)
from .graph import AggregatedGraph, degree_centrality_ranking
from .tables import read_table, sorted_items, write_table


@dataclass(frozen=True)
class DetectionParams:
    """Knobs for the deposit-reuse heuristic (defaults are the production
    values: scan the 60 most central accounts, require a strict majority
    above 90% deposit-pattern neighbors, at least 10 neighbors, and a
    99% forward fraction for a deposit address)."""

    top_k: int = 60
    deposit_neighbor_threshold: float = 0.90
    min_neighbors: int = 10
    deposit_forward_fraction: float = 0.99
    min_deposit_inflows: int = 1

    def __post_init__(self):
        if self.top_k < 1:
            raise ConfigError("top_k must be at least 1")
        if self.min_neighbors < 1:
            raise ConfigError("min_neighbors must be at least 1")
        if self.min_deposit_inflows < 1:
            raise ConfigError("min_deposit_inflows must be at least 1")
        if not 0.0 < self.deposit_neighbor_threshold < 1.0:
            raise ConfigError("deposit_neighbor_threshold must be in (0, 1)")
        if not 0.0 < self.deposit_forward_fraction <= 1.0:
            raise ConfigError("deposit_forward_fraction must be in (0, 1]")
        # not fields, so asdict, the CLI flags and equality ignore them
        object.__setattr__(self, "_neighbor_ratio", _exact(self.deposit_neighbor_threshold))
        object.__setattr__(self, "_forward_ratio", _exact(self.deposit_forward_fraction))


def _exact(value: float) -> tuple[int, int]:
    """Numerator and denominator of the decimal the caller wrote, not of
    the binary float underneath, so 0.90 is exactly 9/10."""
    ratio = Fraction(str(value))
    return ratio.numerator, ratio.denominator


@dataclass
class ExchangeCluster:
    cluster_id: int
    label: str
    main_addresses: set[str] = field(default_factory=set)
    deposit_addresses: set[str] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.main_addresses) + len(self.deposit_addresses)

    def members(self) -> set[str]:
        return self.main_addresses | self.deposit_addresses


@dataclass
class Coloring:
    """Total account -> color map. 0 marks users; colors 1..K are the
    detected exchange clusters, matching their cluster ids."""

    colors: dict[str, int]

    @classmethod
    def all_users(cls, graph: AggregatedGraph) -> "Coloring":
        return cls({account: 0 for account in graph.nodes})


def is_deposit_address(
    graph: AggregatedGraph, candidate: str, main: str, params: DetectionParams
) -> bool:
    """Does candidate behave as a deposit address feeding main?

    Requires: enough inflow from accounts other than main, at least the
    forward fraction of its out-flux sent to main, and no other outflow
    target receiving a non-negligible share. Raises UnknownAccountError
    when either account is not in the graph.
    """
    m = graph.id_of(main)
    c = graph.id_of(candidate)
    out_edges = graph.out_adj[c]

    wanted = params.min_deposit_inflows
    inflows = 0
    for source in graph.in_adj[c]:
        if source != m:
            inflows += 1
            if inflows >= wanted:
                break
    if inflows < wanted:
        return False

    to_main = out_edges.get(m)
    if to_main is None:
        return False
    out_flux = sum(agg.flux for agg in out_edges.values())
    # to_main / out_flux >= num / den, and every other share below 1 - num / den
    num, den = params._forward_ratio
    if to_main.flux * den < num * out_flux:
        return False
    residue = (den - num) * out_flux
    for target, agg in out_edges.items():
        if target != m and agg.flux * den >= residue:
            return False
    return True


def classify_exchange(
    graph: AggregatedGraph, account: str, params: DetectionParams
) -> Optional[ExchangeCluster]:
    """Test one account as an exchange main wallet.

    Neighbors are the distinct accounts adjacent in either direction,
    excluding the account itself. Classification needs at least
    min_neighbors of them and strictly more than the threshold fraction
    passing the deposit test. Returns an unlabeled, unnumbered cluster
    (main plus its deposits) or None.
    """
    node = graph.id_of(account)
    near = set(graph.out_adj[node])
    near.update(graph.in_adj[node])
    near.discard(node)
    if len(near) < params.min_neighbors:
        return None
    names = graph.names
    passing = {
        names[nb] for nb in near if is_deposit_address(graph, names[nb], account, params)
    }
    num, den = params._neighbor_ratio
    if len(passing) * den <= num * len(near):
        return None
    return ExchangeCluster(
        cluster_id=0, label="", main_addresses={account}, deposit_addresses=passing
    )


def _unknown_label(mains: set[str]) -> str:
    anchor = min(mains)
    digest = hashlib.sha256(anchor.encode("utf-8")).hexdigest()
    return f"unknown-{digest[:6]}"


def merge_clusters(
    raw: list[ExchangeCluster], labels: Mapping[str, str] | None = None
) -> list[ExchangeCluster]:
    """Merge candidate clusters into final ones and assign ids and labels.

    Two candidates merge when their mains share a label, or when they
    claim any account in common (a shared deposit address is the usual
    case). Merging is transitive. Within a merged cluster the main role
    wins: an account that is a main anywhere is dropped from deposit
    sets, which keeps cluster membership unambiguous. Final ids count
    1..K in descending order of cluster size, ties by label.
    """
    label_map = dict(labels or {})
    parent = list(range(len(raw)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    by_member: dict[str, int] = {}
    by_label: dict[str, int] = {}
    for i, cluster in enumerate(raw):
        for member in cluster.members():
            if member in by_member:
                union(i, by_member[member])
            else:
                by_member[member] = i
        for main in cluster.main_addresses:
            tag = label_map.get(main)
            if tag is None:
                continue
            if tag in by_label:
                union(i, by_label[tag])
            else:
                by_label[tag] = i

    groups: dict[int, list[ExchangeCluster]] = {}
    for i, cluster in enumerate(raw):
        groups.setdefault(find(i), []).append(cluster)

    merged: list[ExchangeCluster] = []
    for parts in groups.values():
        mains: set[str] = set()
        deposits: set[str] = set()
        for part in parts:
            mains |= part.main_addresses
            deposits |= part.deposit_addresses
        deposits -= mains
        named = sorted({label_map[m] for m in mains if m in label_map})
        label = named[0] if named else _unknown_label(mains)
        merged.append(
            ExchangeCluster(
                cluster_id=0, label=label, main_addresses=mains, deposit_addresses=deposits
            )
        )

    merged.sort(key=lambda c: (-c.size, c.label))
    for idx, cluster in enumerate(merged, start=1):
        cluster.cluster_id = idx
    return merged


def detect_exchanges(
    graph: AggregatedGraph,
    params: DetectionParams | None = None,
    labels: Mapping[str, str] | None = None,
) -> list[ExchangeCluster]:
    """Scan the top-k central accounts and return the exchange clusters,
    merged, labeled and numbered. Clusters are pairwise disjoint."""
    params = params or DetectionParams()
    raw = []
    for account, _degree in degree_centrality_ranking(graph, params.top_k):
        cluster = classify_exchange(graph, account, params)
        if cluster is not None:
            raw.append(cluster)
    return merge_clusters(raw, labels)


def build_coloring(
    graph: AggregatedGraph, clusters: Iterable[ExchangeCluster]
) -> Coloring:
    """Color every graph node: cluster members get their cluster id,
    everyone else 0. Raises ClusterOverlapError when two clusters claim
    the same account, UnknownAccountError for members outside the graph."""
    names = graph.names
    # in name order, so save_coloring streams it without sorting
    colors = dict.fromkeys(map(names.__getitem__, graph.name_order()), 0)
    seen: dict[str, int] = {}
    for cluster in clusters:
        for member in cluster.members():
            if member in seen:
                raise ClusterOverlapError(
                    f"account {member} belongs to clusters "
                    f"{seen[member]} and {cluster.cluster_id}"
                )
            if member not in colors:
                raise UnknownAccountError(member)
            seen[member] = cluster.cluster_id
            colors[member] = cluster.cluster_id
    return Coloring(colors)


# -- CSV formats ------------------------------------------------------

LABELS_HEADER = ["address", "label"]
CLUSTERS_HEADER = ["cluster_id", "label", "address", "role"]
COLORING_HEADER = ["address", "color"]

ROLE_MAIN = "main"
ROLE_DEPOSIT = "deposit"


def _label_named(row: list) -> Optional[str]:
    return None if row[0] and row[1] else "address and label must be non-empty"


def load_labels(path: str) -> dict[str, str]:
    """Read an address,label CSV (header required) into a dict."""
    try:
        return dict(read_table(path, LABELS_HEADER, check=_label_named))
    except OSError as exc:
        raise LabelFileError(f"cannot read label file {path}: {exc}") from None


def save_clusters(path: str, clusters: Iterable[ExchangeCluster]) -> None:
    write_table(
        path,
        CLUSTERS_HEADER,
        (
            [cluster.cluster_id, cluster.label, address, role]
            for cluster in sorted(clusters, key=lambda c: c.cluster_id)
            for role, members in (
                (ROLE_MAIN, cluster.main_addresses),
                (ROLE_DEPOSIT, cluster.deposit_addresses),
            )
            for address in sorted(members)
        ),
    )


def _known_role(row: list) -> Optional[str]:
    if row[3] in (ROLE_MAIN, ROLE_DEPOSIT):
        return None
    return f"role must be {ROLE_MAIN!r} or {ROLE_DEPOSIT!r}, got {row[3]!r}"


def load_clusters(path: str) -> list[ExchangeCluster]:
    found: dict[int, ExchangeCluster] = {}
    for cid, label, address, role in read_table(
        path, CLUSTERS_HEADER, ("cluster_id",), _known_role
    ):
        cluster = found.get(cid)
        if cluster is None:
            cluster = found[cid] = ExchangeCluster(cluster_id=cid, label=label)
        if role == ROLE_MAIN:
            cluster.main_addresses.add(address)
        else:
            cluster.deposit_addresses.add(address)
    return [found[cid] for cid in sorted(found)]


def save_coloring(path: str, coloring: Coloring) -> None:
    write_table(path, COLORING_HEADER, sorted_items(coloring.colors))


def load_coloring(path: str) -> Coloring:
    return Coloring(dict(read_table(path, COLORING_HEADER, ("color",))))
