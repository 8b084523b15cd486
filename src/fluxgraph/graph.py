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
compact() drops all three once their last reader is done; fold_rows
and load_graph call it when their fold ends.

Values that belong to nodes, such as a coloring or a cluster assignment,
are arrays indexed by node id; AccountMap lends one the account-keyed
read API of a mapping.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import heapq
import io
import operator
import os
from array import array
from collections.abc import ItemsView, Mapping
from dataclasses import asdict, dataclass
from itertools import accumulate, repeat
from typing import Iterable, Iterator, KeysView, NamedTuple, Optional

from .errors import MalformedRecordError, UnknownAccountError
from .records import Rows, parsed_blocks
from .tables import MAX_INT_DIGITS, atomic_output, read_table, write_table

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

    def add_transfer(self, sender: str, recipient: str, amount: int) -> None:
        """Fold one transfer into the aggregate. amount must be positive."""
        if amount <= 0:
            raise ValueError("transfer amount must be positive")
        self._bump(sender, recipient, amount, 1)

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
        if index is None:  # worked out from the table
            index = self._index = {
                u << ID_BITS | v: e for e, (u, v) in enumerate(zip(self.src, self.dst))
            }
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

    Keys and items run in the graph's name_order() at C level, so a
    writer streams items() without sorting and without a Python call
    per key. A node added to the graph after the array was made has no
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

    def items(self) -> ItemsView:
        return _AccountItems(self)


class _AccountItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[str, int]]:
        view = self._mapping
        return zip(view, map(view.by_id.__getitem__, view._order))


def fold_rows(blocks: Iterable[Rows]) -> AggregatedGraph:
    """Aggregate blocks of transfers, each as records.transfer_rows
    renders it, in order. Each block's new names are interned in its
    order, and its rows folded as ids through a list that translates the
    block's own indices, so names, ids and edge order are those of
    add_transfer called on each transfer in turn."""
    g = AggregatedGraph()
    ids, src, dst, flux, mult = g.ids, g.src, g.dst, g.flux, g.mult
    index: dict[int, int] = {}  # see _bump
    for names, senders, recipients, amounts in blocks:
        node = [ids[name] if name in ids else g._intern(name) for name in names]
        for s, r, amount in zip(map(node.__getitem__, array("q", senders)),
                                map(node.__getitem__, array("q", recipients)), amounts):
            key = s << ID_BITS | r
            e = index.get(key)
            if e is None:
                index[key] = len(src)
                src.append(s)
                dst.append(r)
                flux.append(amount)
                mult.append(1)
            else:
                flux[e] += amount
                mult[e] += 1
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


# the first lines of nodes.csv and edges.csv as save_graph writes them
_NODES_HEADER_LINE = (",".join(NODES_HEADER) + "\r\n").encode()
_EDGES_HEADER_LINE = (",".join(EDGES_HEADER) + "\r\n").encode()
# A block of edges.csv is checked and converted this many bytes, a few
# thousand rows, at a time, so that what its parse holds beside the
# block and its result stays small.
_SLICE_BYTES = 1 << 17


def _cells(names: list[str]) -> list[str]:
    """Each name as csv.writer writes it in a row of several cells:
    names itself where no name needs quoting. Rows of a few thousand
    names are compared, so that no large string is made."""
    buf = io.StringIO()
    writer = csv.writer(buf)

    def line(row) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        return buf.getvalue()

    if all(line(names[i:i + 4096]) == ",".join(names[i:i + 4096]) + "\r\n"
           for i in range(0, len(names), 4096)):
        return names
    # without the empty cell's "," and the "\r\n"
    return [line((name, ""))[:-3] for name in names]


def _edge_lines(graph: AggregatedGraph) -> Iterator[str]:
    """edges.csv's data lines, ordered by (sender, recipient) name."""
    src, dst, flux, mult = graph.src, graph.dst, graph.flux, graph.mult
    by_name = graph.name_order()
    order = len(by_name)
    rank = [0] * order  # rank[i] is node i's position in name order
    for position, node in enumerate(by_name):
        rank[node] = position
    # each edge's sort key with its id in the low bits, so that one list
    # of ints sorted in place gives the order and no second list is held
    shift = len(src).bit_length()
    keys = [(rank[s] * order + rank[r]) << shift | e for e, (s, r) in enumerate(zip(src, dst))]
    del rank
    keys.sort()
    rows = array("q", map(((1 << shift) - 1).__and__, keys))
    del keys
    cell = _cells(graph.names).__getitem__
    return map("%s,%s,%d,%d\r\n".__mod__, zip(
        map(cell, map(src.__getitem__, rows)), map(cell, map(dst.__getitem__, rows)),
        map(flux.__getitem__, rows), map(mult.__getitem__, rows)))


def save_graph(graph: AggregatedGraph, directory: str) -> None:
    """Write nodes.csv and edges.csv in the csv module's default dialect;
    edges.csv's lines are formatted from each account's cell, rendered
    once, with the bytes csv.writer would write."""
    os.makedirs(directory, exist_ok=True)
    names = graph.names
    write_table(
        os.path.join(directory, NODES_FILE),
        NODES_HEADER,
        ((names[i],) for i in graph.name_order()),
    )
    with atomic_output(os.path.join(directory, EDGES_FILE)) as fh:
        fh.write(_EDGES_HEADER_LINE.decode())
        fh.writelines(_edge_lines(graph))


def load_graph(directory: str) -> AggregatedGraph:
    """Rebuild a graph saved by save_graph; totals are recomputed exactly.
    A repeated account or edge, or an edge naming an account that
    nodes.csv lacks, is a malformed row.

    nodes.csv is read in one piece where it is as save_graph writes it.
    Past its header, edges.csv is read in line-aligned blocks of
    records.BLOCK_BYTES by the ledger's block engine: where it spans two
    blocks or more, a forked child parses some of them (see
    records.parsed_blocks). A header other than save_graph's, a quote,
    a fault, bytes that are not UTF-8 or edges out of save_graph's key
    order send the whole directory through the row loop instead, whose
    error names the file and line of the first fault.
    """
    nodes_path = os.path.join(directory, NODES_FILE)
    edges_path = os.path.join(directory, EDGES_FILE)
    g = _nodes_at_once(nodes_path) or _read_nodes(nodes_path)
    if not _fold_edge_blocks(g, edges_path):
        g = _read_nodes(nodes_path)
        _fold_edge_rows(g, edges_path)
    g.compact()
    return g


def _nodes_at_once(path: str) -> Optional[AggregatedGraph]:
    """_read_nodes(path) where each line of nodes.csv after save_graph's
    header is a distinct bare account name ending in CRLF; None where
    the row loop must read it."""
    with open(path, "rb") as fh:
        data = fh.read()
    # a quote or a comma needs the csv module; Python 3.10's rejects a NUL
    if not data.startswith(_NODES_HEADER_LINE) or b'"' in data or b"," in data or b"\0" in data:
        return None
    try:
        text = data[len(_NODES_HEADER_LINE):].decode("utf-8")
    except UnicodeDecodeError:
        return None
    del data
    names = text.split("\r\n")
    if (names.pop() or not text.count("\r") == text.count("\n") == len(names)
            or not all(names) or len(names) > 1 << ID_BITS
            or max(map(len, names), default=0) > csv.field_size_limit()):
        return None
    del text
    g = AggregatedGraph()
    g.ids.update(zip(names, range(len(names))))
    if len(g.ids) != len(names):  # an account appears twice
        return None
    g.names = names
    return g


def _read_nodes(path: str) -> AggregatedGraph:
    """A graph of nodes.csv's accounts, in file order, and no edge."""
    g = AggregatedGraph()
    ids = g.ids
    for line, (account,) in read_table(path, NODES_HEADER):
        if account in ids:
            raise MalformedRecordError(f"account {account!r} appears twice", line, path)
        g._intern(account)
    return g


def _fold_edge_rows(g: AggregatedGraph, path: str) -> None:
    """The row loop: fold edges.csv into g one row at a time."""
    names, src = g.names, g.src
    known = len(names)
    # Each row is checked here, where its line is known, and then goes
    # straight to _bump, which does not check it. A fault
    # shows in the graph's own state, as a known account or a length
    # that did or did not grow: no per-row set.
    for line, (sender, recipient, flux, multiplicity) in read_table(
        path, EDGES_HEADER, ("flux_planck", "multiplicity")
    ):
        if not (flux and multiplicity):
            raise MalformedRecordError(
                "flux_planck and multiplicity must be positive", line, path
            )
        size = len(src)
        g._bump(sender, recipient, flux, multiplicity)
        if len(names) != known:
            # the first account interned past known is the row's first unknown one
            raise MalformedRecordError(
                f"account {names[known]!r} is not in {NODES_FILE}", line, path
            )
        if len(src) == size:
            raise MalformedRecordError(
                f"edge {sender!r} -> {recipient!r} appears twice", line, path
            )


def _fold_edge_blocks(g: AggregatedGraph, path: str) -> bool:
    """Fold edges.csv into g block by block, in file order; False, with g
    part-folded, where the row loop must read it. Each block's packed
    pair keys strictly ascend (see _edge_block), and so must the
    blocks', as in save_graph's order: then no edge can repeat."""
    parse = functools.partial(_edge_block, ids=g.ids)
    nodes = list(g.ids.values())  # nodes[i] is the ids dict's own int for node i
    last = -1  # the largest key so far
    with open(path, "rb") as fh:
        if fh.readline() != _EDGES_HEADER_LINE:
            return False
        with contextlib.closing(parsed_blocks(fh, parse)) as results:
            for result in results:
                if result is None or result[4] <= last:
                    return False
                last = result[5]
                g.src.extend(map(nodes.__getitem__, array("q", result[0])))
                g.dst.extend(map(nodes.__getitem__, array("q", result[1])))
                for column, values in zip((g.flux, g.mult), result[2:4]):
                    column.extend(array("q", values) if type(values) is bytes else values)
                del result
    return True


def _edge_block(fd: int, start: int, end: int, ids: dict[str, int]) -> Optional[tuple]:
    """The edges in bytes start:end of edges.csv, the file fd, checked as
    the row loop checks them: the sender and recipient ids as array('q')
    bytes; flux and multiplicity, each as array('q') bytes or, where a
    value is wider, a list; and the first and last packed pair key.
    None where a line holds a quote or does not end in CRLF, a cell
    fails its check, the bytes are not UTF-8, or the keys do not
    strictly ascend."""
    data = os.pread(fd, end - start, start)
    if b'"' in data:  # a quoted cell, which may hold a line end
        return None
    src, dst, flux, mult = array("q"), array("q"), [], []
    pos = 0
    while pos < len(data):
        cut = data.find(b"\n", pos + _SLICE_BYTES) + 1 or len(data)
        try:
            text = data[pos:cut].decode("utf-8")
        except UnicodeDecodeError:
            return None
        pos = cut
        lines = text.split("\r\n")
        if lines.pop() or not text.count("\r") == text.count("\n") == len(lines):
            return None
        if list(map(str.count, lines, repeat(","))).count(3) != len(lines):
            return None
        cells = ",".join(lines).split(",")
        del text, lines
        try:
            src.extend(map(ids.__getitem__, cells[0::4]))
            dst.extend(map(ids.__getitem__, cells[1::4]))
        except KeyError:  # an account nodes.csv lacks
            return None
        for column, digits in ((flux, cells[2::4]), (mult, cells[3::4])):
            if not _all_digits(digits):
                return None
            column.extend(map(int, digits))
        del cells
    if 0 in flux or 0 in mult:
        return None
    keys = array("Q", map(operator.or_, map(operator.lshift, src, repeat(ID_BITS)), dst))
    if not all(map(operator.lt, keys, keys[1:])):
        return None
    return src.tobytes(), dst.tobytes(), _packed(flux), _packed(mult), keys[0], keys[-1]


def _all_digits(cells: list[str]) -> bool:
    """Whether each cell is 1 to MAX_INT_DIGITS ASCII digits."""
    digits = "".join(cells)
    return (all(cells) and digits.isdigit() and digits.isascii()
            and max(map(len, cells)) <= MAX_INT_DIGITS)


def _packed(ints: list[int]) -> bytes | list[int]:
    """ints as array('q') bytes, or as they are where one is wider."""
    try:
        return array("q", ints).tobytes()
    except OverflowError:
        return ints
