"""Aggregated directed transaction graph.

Transfers between the same ordered account pair collapse into one edge
carrying flux (sum of amounts, Planck) and multiplicity (transfer
count). Self-loops are kept.

Each account is interned to a dense int id the first time the graph
sees it: names[i] is the account with id i, and ids maps it back. Out-
and in-adjacency are lists of dicts keyed by id that share EdgeAggregate
instances, so per-node neighborhood scans used by the exchange
heuristics are O(degree), and each node's transaction-count degree is
kept up to date while folding. Account strings appear only where the
graph meets files and callers.
"""

from __future__ import annotations

import heapq
import operator
import os
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, KeysView, Optional

from .errors import UnknownAccountError
from .records import TransferRecord
from .tables import read_table, write_table


@dataclass(slots=True)
class EdgeAggregate:
    flux: int = 0
    multiplicity: int = 0


@dataclass(slots=True)
class GraphStats:
    order: int
    aggregated_size: int
    transaction_count: int
    total_flux: int

    def as_dict(self) -> dict:
        return asdict(self)


class AggregatedGraph:
    """Directed graph of accounts with flux/multiplicity edge weights.

    names, ids, out_adj, in_adj and degrees are the interned core, read
    by the layers above; only the methods below change them.
    degrees[i] counts the transfers in and out of node i, with a
    self-loop's transfers counted once, not twice.
    """

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.out_adj: list[dict[int, EdgeAggregate]] = []
        self.in_adj: list[dict[int, EdgeAggregate]] = []
        self.degrees: list[int] = []
        self._edge_count = 0
        self._tx_count = 0
        self._flux = 0
        self._name_order: list[int] = []

    # -- construction -------------------------------------------------

    def _intern(self, account: str) -> int:
        node = self.ids[account] = len(self.names)
        self.names.append(account)
        self.out_adj.append({})
        self.in_adj.append({})
        self.degrees.append(0)
        return node

    def add_node(self, account: str) -> None:
        if account not in self.ids:
            self._intern(account)

    def add_transfer(self, sender: str, recipient: str, amount: int) -> None:
        """Fold one transfer into the aggregate. amount must be positive."""
        if amount <= 0:
            raise ValueError("transfer amount must be positive")
        self._bump(sender, recipient, amount, 1)

    def add_edge(self, sender: str, recipient: str, flux: int, multiplicity: int) -> None:
        """Fold a pre-aggregated edge in (used when loading from disk)."""
        if flux <= 0 or multiplicity <= 0:
            raise ValueError("edge flux and multiplicity must be positive")
        self._bump(sender, recipient, flux, multiplicity)

    def _bump(self, sender: str, recipient: str, flux: int, mult: int) -> None:
        # the id lookups are inlined: this runs once per transfer
        ids = self.ids
        s = ids.get(sender)
        if s is None:
            s = self._intern(sender)
        r = ids.get(recipient)
        if r is None:
            r = self._intern(recipient)
        targets = self.out_adj[s]
        agg = targets.get(r)
        if agg is None:
            agg = targets[r] = EdgeAggregate(0, 0)
            self.in_adj[r][s] = agg
            self._edge_count += 1
        agg.flux += flux
        agg.multiplicity += mult
        degrees = self.degrees
        degrees[s] += mult
        if r != s:
            degrees[r] += mult
        self._tx_count += mult
        self._flux += flux

    # -- inspection ----------------------------------------------------

    @property
    def nodes(self) -> KeysView[str]:
        """Account names in the order the graph first saw them."""
        return self.ids.keys()

    @property
    def order(self) -> int:
        return len(self.names)

    @property
    def aggregated_size(self) -> int:
        return self._edge_count

    @property
    def transaction_count(self) -> int:
        return self._tx_count

    @property
    def total_flux(self) -> int:
        return self._flux

    def edges(self) -> Iterator[tuple[str, str, EdgeAggregate]]:
        names = self.names
        for s, targets in enumerate(self.out_adj):
            sender = names[s]
            for r, agg in targets.items():
                yield sender, names[r], agg

    def has_node(self, account: str) -> bool:
        return account in self.ids

    def id_of(self, account: str) -> int:
        try:
            return self.ids[account]
        except KeyError:
            raise UnknownAccountError(account) from None

    def name_order(self) -> list[int]:
        """Node ids in ascending account-name order. Worked out once and
        kept until a node is added; the writers and the contraction
        share it instead of sorting names again."""
        if len(self._name_order) != len(self.names):
            # the ids dict's own int objects, so the order adds no new ints
            self._name_order = list(map(self.ids.__getitem__, sorted(self.names)))
        return self._name_order


def build_graph(transfers: Iterable[TransferRecord]) -> AggregatedGraph:
    """Aggregate a transfer stream; the result is independent of input order."""
    g = AggregatedGraph()
    for t in transfers:
        g.add_transfer(t.sender, t.recipient, t.amount_planck)
    return g


def degree_centrality_ranking(graph: AggregatedGraph, k: int) -> list[tuple[str, int]]:
    """Top-k accounts by transaction-count degree.

    Ties break by ascending account name so the ranking is reproducible.
    Returns min(k, order) entries.
    """
    if k <= 0:
        return []
    top = heapq.nsmallest(k, zip(map(operator.neg, graph.degrees), graph.names))
    return [(account, -negated) for negated, account in top]


def graph_stats(graph: AggregatedGraph) -> GraphStats:
    return GraphStats(
        order=graph.order,
        aggregated_size=graph.aggregated_size,
        transaction_count=graph.transaction_count,
        total_flux=graph.total_flux,
    )


# -- persistence: a graph directory holds nodes.csv + edges.csv --------

NODES_FILE = "nodes.csv"
EDGES_FILE = "edges.csv"
NODES_HEADER = ["account"]
EDGES_HEADER = ["sender", "recipient", "flux_planck", "multiplicity"]


def _edge_rows(graph: AggregatedGraph) -> Iterator[tuple]:
    """Edge rows ordered by (sender, recipient) name."""
    names = graph.names
    by_name = names.__getitem__
    out_adj = graph.out_adj
    for s in graph.name_order():
        targets = out_adj[s]
        if not targets:
            continue
        sender = names[s]
        for r in sorted(targets, key=by_name) if len(targets) > 1 else targets:
            agg = targets[r]
            yield sender, names[r], agg.flux, agg.multiplicity


def save_graph(graph: AggregatedGraph, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    names = graph.names
    write_table(
        os.path.join(directory, NODES_FILE),
        NODES_HEADER,
        ((names[i],) for i in graph.name_order()),
    )
    write_table(os.path.join(directory, EDGES_FILE), EDGES_HEADER, _edge_rows(graph))


def _positive_edge(row: list) -> Optional[str]:
    return None if row[2] and row[3] else "flux_planck and multiplicity must be positive"


def load_graph(directory: str) -> AggregatedGraph:
    """Rebuild a graph saved by save_graph; totals are recomputed exactly."""
    g = AggregatedGraph()
    for sender, recipient, flux, multiplicity in read_table(
        os.path.join(directory, EDGES_FILE),
        EDGES_HEADER,
        ("flux_planck", "multiplicity"),
        _positive_edge,
    ):
        g.add_edge(sender, recipient, flux, multiplicity)
    for (account,) in read_table(os.path.join(directory, NODES_FILE), NODES_HEADER):
        g.add_node(account)
    return g
