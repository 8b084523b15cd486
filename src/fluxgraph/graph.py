"""Aggregated directed transaction graph.

Transfers between the same ordered account pair collapse into one edge
carrying flux (sum of amounts, Planck) and multiplicity (transfer
count). Self-loops are kept.

Each account is interned to a dense int id the first time the graph
sees it: names[i] is the account with id i, and ids maps it back.
Account strings appear only where the graph meets files and callers.

Edges live in one append-only table of four parallel lists: edge e runs
from node src[e] to node dst[e] and carries flux[e] Planck over mult[e]
transfers. An edge is appended the first time its ordered pair is seen
and never moves; later transfers on the pair add to its flux and mult.

The table, names and ids are the graph's only state. Everything else is
a view worked out from the table when first needed: the dedup index,
which maps each pair's packed key, src << ID_BITS | dst, to its edge id
and which folding keeps up to date; degrees[i], the transfers in and out
of node i with a self-loop's counted once; and adjacency(), the edge ids
grouped by source and by target behind two offset arrays of one machine
word per node. The last two are kept until a fold changes them.
compact() drops all three once their last reader is done; build_graph
and load_graph call it when their fold ends.

Values that belong to nodes, such as a coloring or a cluster assignment,
are arrays indexed by node id; AccountMap lends one the account-keyed
read API of a mapping.
"""

from __future__ import annotations

import heapq
import operator
import os
from array import array
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Iterable, Iterator, KeysView, NamedTuple, Optional

from .errors import MalformedRecordError, UnknownAccountError
from .records import TransferRecord
from .tables import read_table, write_table

# Width of one node id in a packed pair key: two distinct id pairs never
# share a key while every id is below 1 << ID_BITS, which _intern enforces.
ID_BITS = 32


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


class Adjacency(NamedTuple):
    """Edge ids grouped by endpoint: the edges leaving node v are
    out_edges[out_offsets[v]:out_offsets[v + 1]] and those entering it
    in_edges[in_offsets[v]:in_offsets[v + 1]], each group in edge-id
    order."""

    out_offsets: array
    out_edges: array
    in_offsets: array
    in_edges: array

    def outgoing(self, node: int) -> array:
        return self.out_edges[self.out_offsets[node]:self.out_offsets[node + 1]]

    def incoming(self, node: int) -> array:
        return self.in_edges[self.in_offsets[node]:self.in_offsets[node + 1]]


def _grouped(endpoint: list[int], order: int) -> tuple[array, array]:
    """Offsets and edge ids of the edges grouped by endpoint[e]."""
    counts = [0] * (order + 1)
    for node in endpoint:
        counts[node + 1] += 1
    offsets = array("q", accumulate(counts))
    del counts
    # the sort is stable, so each group stays in edge-id order
    return offsets, array("q", sorted(range(len(endpoint)), key=endpoint.__getitem__))


class AggregatedGraph:
    """Directed graph of accounts with flux/multiplicity edge weights.

    names, ids and the edge table src, dst, flux and mult are the
    interned core, read by the layers above; only the methods below
    change them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.src: list[int] = []
        self.dst: list[int] = []
        self.flux: list[int] = []
        self.mult: list[int] = []
        self._index: Optional[dict[int, int]] = None
        self._degrees: Optional[list[int]] = None
        self._adjacency: Optional[Adjacency] = None
        self._name_order: list[int] = []

    # -- construction -------------------------------------------------

    def _intern(self, account: str) -> int:
        node = len(self.names)
        if node >> ID_BITS:
            raise OverflowError(
                f"cannot add account {account!r}: a graph holds at most "
                f"{1 << ID_BITS} accounts"
            )
        self.ids[account] = node
        self.names.append(account)
        self._degrees = self._adjacency = None
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
        index = self._index
        if index is None:
            index = self._reindex()
        key = s << ID_BITS | r
        e = index.get(key)
        if e is None:
            index[key] = len(self.src)
            self._adjacency = None
            self.src.append(s)
            self.dst.append(r)
            self.flux.append(flux)
            self.mult.append(mult)
        else:
            self.flux[e] += flux
            self.mult[e] += mult
        self._degrees = None

    def _reindex(self) -> dict[int, int]:
        """Work out the dedup index from the table."""
        index = self._index = {
            s << ID_BITS | r: e for e, (s, r) in enumerate(zip(self.src, self.dst))
        }
        return index

    def compact(self) -> None:
        """Drop the dedup index, the degrees and the adjacency, keeping
        only the table; each is worked out again when next needed."""
        self._index = self._degrees = self._adjacency = None

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
        return len(self.src)

    @property
    def transaction_count(self) -> int:
        return sum(self.mult)

    @property
    def total_flux(self) -> int:
        return sum(self.flux)

    def edges(self) -> Iterator[tuple[str, str, EdgeAggregate]]:
        """(sender, recipient, aggregate) per edge, in edge-id order. Each
        aggregate is a fresh copy of the edge's weights."""
        names = self.names
        for s, r, flux, mult in zip(self.src, self.dst, self.flux, self.mult):
            yield names[s], names[r], EdgeAggregate(flux, mult)

    def has_node(self, account: str) -> bool:
        return account in self.ids

    def id_of(self, account: str) -> int:
        try:
            return self.ids[account]
        except KeyError:
            raise UnknownAccountError(account) from None

    @property
    def degrees(self) -> list[int]:
        """degrees[i] is the number of transfers in and out of node i, a
        self-loop's counted once. Worked out in one pass over the table
        and kept until the next fold."""
        if self._degrees is None:
            degrees = [0] * len(self.names)
            for s, r, mult in zip(self.src, self.dst, self.mult):
                degrees[s] += mult
                if r != s:
                    degrees[r] += mult
            self._degrees = degrees
        return self._degrees

    def adjacency(self) -> Adjacency:
        """The edge ids grouped by source and by target. Worked out once
        and kept until an edge or a node is added."""
        if self._adjacency is None:
            order = len(self.names)
            self._adjacency = Adjacency(*_grouped(self.src, order), *_grouped(self.dst, order))
        return self._adjacency

    def name_order(self) -> list[int]:
        """Node ids in ascending account-name order. Worked out once and
        kept until a node is added; the writers and the contraction
        share it instead of sorting names again."""
        if len(self._name_order) != len(self.names):
            # the ids dict's own int objects, so the order adds no new ints
            self._name_order = list(map(self.ids.__getitem__, sorted(self.names)))
        return self._name_order


class AccountMap(Mapping):
    """Read-only account-keyed view of an int array indexed by node id:
    the value of account graph.names[i] is by_id[i].

    Keys, values and items run in the graph's name_order() at C level,
    so a writer streams items() without sorting and without a Python
    call per key. Equality with another mapping is exact and builds no
    dict. A node added to the graph after the array was made has no
    value.
    """

    __slots__ = ("by_id", "_ids", "_names", "_order")

    def __init__(self, graph: AggregatedGraph, by_id: array):
        self.by_id = by_id
        self._ids = graph.ids
        self._names = graph.names
        order = graph.name_order()
        if len(order) != len(by_id):
            order = [node for node in order if node < len(by_id)]
        self._order = order

    def __getitem__(self, account: str) -> int:
        try:
            return self.by_id[self._ids[account]]
        except IndexError:
            raise KeyError(account) from None

    def __contains__(self, account) -> bool:
        return self._ids.get(account, len(self.by_id)) < len(self.by_id)

    def __len__(self) -> int:
        return len(self.by_id)

    def __iter__(self) -> Iterator[str]:
        return map(self._names.__getitem__, self._order)

    def _values(self) -> Iterator[int]:
        return map(self.by_id.__getitem__, self._order)

    def values(self) -> ValuesView:
        return _AccountValues(self)

    def items(self) -> ItemsView:
        return _AccountItems(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, AccountMap) and other._ids is self._ids:
            return self.by_id == other.by_id
        if not isinstance(other, Mapping):
            return NotImplemented
        # equal sizes, and every key of self present in other with the same
        # value; id order, as name order would cost two lookups per key
        return len(other) == len(self) and all(
            map(operator.eq, map(other.get, self._names), self.by_id)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _AccountValues(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return self._mapping._values()


class _AccountItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return zip(self._mapping, self._mapping._values())


def build_graph(transfers: Iterable[TransferRecord]) -> AggregatedGraph:
    """Aggregate a transfer stream; the result is independent of input order."""
    return fold_rows((t.sender, t.recipient, t.amount_planck) for t in transfers)


def fold_rows(rows: Iterable[tuple[str, str, int]]) -> AggregatedGraph:
    """build_graph over (sender, recipient, amount) rows."""
    g = AggregatedGraph()
    for row in rows:
        g.add_transfer(*row)
    g.compact()
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
    names, src, dst, flux, mult = graph.names, graph.src, graph.dst, graph.flux, graph.mult
    by_name = graph.name_order()
    order = len(by_name)
    rank = [0] * order  # rank[i] is node i's position in name order
    for position, node in enumerate(by_name):
        rank[node] = position
    keys = [rank[s] * order + rank[r] for s, r in zip(src, dst)]
    del rank
    rows = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    for e in rows:
        yield names[src[e]], names[dst[e]], flux[e], mult[e]


def save_graph(graph: AggregatedGraph, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    names = graph.names
    write_table(
        os.path.join(directory, NODES_FILE),
        NODES_HEADER,
        ((names[i],) for i in graph.name_order()),
    )
    write_table(os.path.join(directory, EDGES_FILE), EDGES_HEADER, _edge_rows(graph))


def load_graph(directory: str) -> AggregatedGraph:
    """Rebuild a graph saved by save_graph; totals are recomputed exactly.
    A repeated account or edge, or an edge naming an account that
    nodes.csv lacks, is a malformed row."""
    nodes_path = os.path.join(directory, NODES_FILE)
    edges_path = os.path.join(directory, EDGES_FILE)
    g = AggregatedGraph()
    names, ids, src = g.names, g.ids, g.src
    # Each row is checked here, where its line is known, and then goes
    # straight to _intern or _bump, as add_node and add_edge would only
    # check it again. A fault shows in the graph's own state, as a known
    # account or a length that did or did not grow: no per-row set.
    for line, (account,) in read_table(nodes_path, NODES_HEADER):
        if account in ids:
            raise MalformedRecordError(f"account {account!r} appears twice", line, nodes_path)
        g._intern(account)
    known = len(names)
    for line, (sender, recipient, flux, multiplicity) in read_table(
        edges_path, EDGES_HEADER, ("flux_planck", "multiplicity")
    ):
        if not (flux and multiplicity):
            raise MalformedRecordError(
                "flux_planck and multiplicity must be positive", line, edges_path
            )
        size = len(src)
        g._bump(sender, recipient, flux, multiplicity)
        if len(names) != known:
            # the first account interned past known is the row's first unknown one
            raise MalformedRecordError(
                f"account {names[known]!r} is not in {NODES_FILE}", line, edges_path
            )
        if len(src) == size:
            raise MalformedRecordError(
                f"edge {sender!r} -> {recipient!r} appears twice", line, edges_path
            )
    g.compact()
    return g
