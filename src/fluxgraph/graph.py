"""Aggregated directed transaction graph.

Transfers between the same ordered account pair collapse into one edge
carrying flux (sum of amounts, Planck) and multiplicity (transfer
count). Self-loops are kept. The structure is two nested dicts (out-
and in-adjacency) sharing EdgeAggregate instances, so per-node
neighborhood scans used by the exchange heuristics are O(degree).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
        return {
            "order": self.order,
            "aggregated_size": self.aggregated_size,
            "transaction_count": self.transaction_count,
            "total_flux": self.total_flux,
        }


class AggregatedGraph:
    """Directed graph of accounts with flux/multiplicity edge weights."""

    def __init__(self):
        self._out: dict[str, dict[str, EdgeAggregate]] = {}
        self._in: dict[str, dict[str, EdgeAggregate]] = {}
        self._edge_count = 0
        self._tx_count = 0
        self._flux = 0

    # -- construction -------------------------------------------------

    def add_node(self, account: str) -> None:
        if account not in self._out:
            self._out[account] = {}
            self._in[account] = {}

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
        self.add_node(sender)
        self.add_node(recipient)
        agg = self._out[sender].get(recipient)
        if agg is None:
            agg = EdgeAggregate(0, 0)
            self._out[sender][recipient] = agg
            self._in[recipient][sender] = agg
            self._edge_count += 1
        agg.flux += flux
        agg.multiplicity += mult
        self._tx_count += mult
        self._flux += flux

    # -- inspection ----------------------------------------------------

    @property
    def nodes(self) -> KeysView[str]:
        return self._out.keys()

    @property
    def order(self) -> int:
        return len(self._out)

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
        for sender, targets in self._out.items():
            for recipient, agg in targets.items():
                yield sender, recipient, agg

    def edge(self, sender: str, recipient: str) -> Optional[EdgeAggregate]:
        targets = self._out.get(sender)
        return None if targets is None else targets.get(recipient)

    def out_edges(self, account: str) -> dict[str, EdgeAggregate]:
        try:
            return self._out[account]
        except KeyError:
            raise UnknownAccountError(account) from None

    def in_edges(self, account: str) -> dict[str, EdgeAggregate]:
        try:
            return self._in[account]
        except KeyError:
            raise UnknownAccountError(account) from None

    def has_node(self, account: str) -> bool:
        return account in self._out

    def neighbors(self, account: str) -> set[str]:
        """Distinct accounts adjacent in either direction, excluding self."""
        near = set(self.out_edges(account))
        near.update(self.in_edges(account))
        near.discard(account)
        return near

    def neighbor_count(self, account: str) -> int:
        return len(self.neighbors(account))

    def degree(self, account: str) -> int:
        """Transaction-count degree: in plus out multiplicities, with a
        self-loop's transfers counted once, not twice."""
        out_e = self.out_edges(account)
        in_e = self.in_edges(account)
        total = sum(a.multiplicity for a in out_e.values())
        total += sum(a.multiplicity for a in in_e.values())
        loop = out_e.get(account)
        if loop is not None:
            total -= loop.multiplicity
        return total

    def out_flux(self, account: str) -> int:
        return sum(a.flux for a in self.out_edges(account).values())


def build_graph(transfers: Iterable[TransferRecord]) -> AggregatedGraph:
    """Aggregate a transfer stream; the result is independent of input order."""
    g = AggregatedGraph()
    for t in transfers:
        g.add_transfer(t.sender, t.recipient, t.amount_planck)
    return g


def degree_centrality_ranking(graph: AggregatedGraph, k: int) -> list[tuple[str, int]]:
    """Top-k accounts by transaction-count degree.

    Ties break by ascending account id so the ranking is reproducible.
    Returns min(k, order) entries.
    """
    if k <= 0:
        return []
    ranked = sorted(
        ((account, graph.degree(account)) for account in graph.nodes),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k]


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


def save_graph(graph: AggregatedGraph, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    write_table(
        os.path.join(directory, NODES_FILE),
        NODES_HEADER,
        ([account] for account in sorted(graph.nodes)),
    )
    write_table(
        os.path.join(directory, EDGES_FILE),
        EDGES_HEADER,
        (
            [sender, recipient, agg.flux, agg.multiplicity]
            for sender, recipient, agg in sorted(graph.edges(), key=lambda e: (e[0], e[1]))
        ),
    )


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
