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
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import (
    ClusterOverlapError,
    ConfigError,
    LabelFileError,
    MalformedRecordError,
    PartialColoringError,
    UnknownAccountError,
)
from .graph import AccountMap, AggregatedGraph, degree_centrality_ranking
from .tables import read_table, write_table


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


# Colors are cluster ids. contract() numbers split clusters after the
# largest color, so a color below 2**62 leaves every cluster id room in a
# signed 64-bit array.
MAX_COLOR = (1 << 62) - 1


class Coloring:
    """Total account -> color map over one graph. 0 marks users; colors
    1..K are the detected exchange clusters, matching their cluster ids.

    by_id[i] is the color of node i; colors is the same array keyed by
    account name.
    """

    __slots__ = ("graph", "by_id")

    def __init__(self, graph: AggregatedGraph, by_id: array):
        self.graph = graph
        self.by_id = by_id

    @property
    def colors(self) -> AccountMap:
        return AccountMap(self.graph, self.by_id)

    @classmethod
    def all_users(cls, graph: AggregatedGraph) -> "Coloring":
        return cls(graph, array("q", [0]) * graph.order)

    @classmethod
    def from_mapping(cls, graph: AggregatedGraph, colors: Mapping[str, int]) -> "Coloring":
        """The coloring of graph that colors gives by account name.
        Accounts outside the graph are ignored. Raises
        PartialColoringError when a node has no color and ConfigError
        for a color outside 0..MAX_COLOR."""
        names = graph.names
        by_id = list(map(colors.get, names))
        missing = by_id.count(None)
        if missing:
            example = names[by_id.index(None)]
            raise PartialColoringError(f"{missing} node(s) lack a color, e.g. {example!r}")
        if by_id and (min(by_id) < 0 or max(by_id) > MAX_COLOR):
            node = next(i for i, color in enumerate(by_id) if not 0 <= color <= MAX_COLOR)
            raise ConfigError(
                f"color {by_id[node]} on account {names[node]!r} is outside 0..{MAX_COLOR}"
            )
        return cls(graph, array("q", by_id))


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
    adj = graph.adjacency()
    src, dst, flux = graph.src, graph.dst, graph.flux

    wanted = params.min_deposit_inflows
    inflows = 0
    for e in adj.incoming(c):
        if src[e] != m:
            inflows += 1
            if inflows >= wanted:
                break
    if inflows < wanted:
        return False

    out_edges = adj.outgoing(c)
    to_main = None
    out_flux = 0
    for e in out_edges:
        out_flux += flux[e]
        if dst[e] == m:
            to_main = flux[e]
    if to_main is None:
        return False
    # to_main / out_flux >= num / den, and every other share below 1 - num / den
    num, den = params._forward_ratio
    if to_main * den < num * out_flux:
        return False
    residue = (den - num) * out_flux
    for e in out_edges:
        if dst[e] != m and flux[e] * den >= residue:
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
    adj = graph.adjacency()
    near = set(map(graph.dst.__getitem__, adj.outgoing(node)))
    near.update(map(graph.src.__getitem__, adj.incoming(node)))
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
    everyone else 0. Raises UnknownAccountError for members outside the
    graph, and ClusterOverlapError when two clusters claim the same
    account: one already colored, as cluster ids are 1 or more."""
    coloring = Coloring.all_users(graph)
    by_id, ids = coloring.by_id, graph.ids
    for cluster in clusters:
        for member in cluster.members():
            node = ids.get(member)
            if node is None:
                raise UnknownAccountError(member)
            if by_id[node]:
                raise ClusterOverlapError(
                    f"account {member} belongs to clusters "
                    f"{by_id[node]} and {cluster.cluster_id}"
                )
            by_id[node] = cluster.cluster_id
    return coloring


# -- CSV formats ------------------------------------------------------

LABELS_HEADER = ["address", "label"]
CLUSTERS_HEADER = ["cluster_id", "label", "address", "role"]
COLORING_HEADER = ["address", "color"]

ROLE_MAIN = "main"
ROLE_DEPOSIT = "deposit"


def load_labels(path: str) -> dict[str, str]:
    """Read an address,label CSV (header required) into a dict. An empty
    cell or a repeated address is a malformed row."""
    labels: dict[str, str] = {}
    try:
        for line, (address, label) in read_table(path, LABELS_HEADER):
            if not (address and label):
                raise MalformedRecordError("address and label must be non-empty", line, path)
            if address in labels:
                raise MalformedRecordError(f"address {address!r} is labeled twice", line, path)
            labels[address] = label
    except OSError as exc:
        raise LabelFileError(f"cannot read label file {path}: {exc}") from None
    return labels


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


def load_clusters(path: str) -> list[ExchangeCluster]:
    """Read a clusters CSV written by save_clusters. An unknown role, a
    row whose label differs from its cluster's earlier rows, or an
    address listed twice is a malformed row."""
    found: dict[int, ExchangeCluster] = {}
    listed: set[str] = set()
    for line, (cid, label, address, role) in read_table(path, CLUSTERS_HEADER, ("cluster_id",)):
        if role not in (ROLE_MAIN, ROLE_DEPOSIT):
            raise MalformedRecordError(
                f"role must be {ROLE_MAIN!r} or {ROLE_DEPOSIT!r}, got {role!r}", line, path
            )
        cluster = found.get(cid)
        if cluster is None:
            cluster = found[cid] = ExchangeCluster(cluster_id=cid, label=label)
        elif cluster.label != label:
            raise MalformedRecordError(
                f"cluster {cid} is labeled {cluster.label!r} above, not {label!r}", line, path
            )
        if address in listed:
            raise MalformedRecordError(f"address {address!r} is listed twice", line, path)
        listed.add(address)
        if role == ROLE_MAIN:
            cluster.main_addresses.add(address)
        else:
            cluster.deposit_addresses.add(address)
    return [found[cid] for cid in sorted(found)]


def save_coloring(path: str, coloring: Coloring) -> None:
    write_table(path, COLORING_HEADER, coloring.colors.items())


def load_coloring(path: str, graph: AggregatedGraph) -> Coloring:
    """Read an address,color CSV as a coloring of graph. A repeated
    address or a color above MAX_COLOR is a malformed row; an address
    outside the graph means the file belongs to another graph and raises
    UnknownAccountError, and a node without a color PartialColoringError.
    Each error names the file, and a row error its line."""
    ids = graph.ids
    by_id = array("q", [-1]) * graph.order
    for line, (address, color) in read_table(path, COLORING_HEADER, ("color",)):
        if color > MAX_COLOR:
            raise MalformedRecordError(f"color {color} is above {MAX_COLOR}", line, path)
        node = ids.get(address)
        if node is None:
            raise UnknownAccountError(f"{path}:{line}: account {address!r} is not in the graph")
        if by_id[node] >= 0:
            raise MalformedRecordError(f"account {address!r} is colored twice", line, path)
        by_id[node] = color
    missing = by_id.count(-1)
    if missing:
        example = graph.names[by_id.index(-1)]
        raise PartialColoringError(
            f"{path}: {missing} node(s) lack a color, e.g. {example!r}"
        )
    return Coloring(graph, by_id)
