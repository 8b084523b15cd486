"""Color contraction: collapse connected same-color account sets.

Given a graph and a total node coloring, every maximal set of nodes
joined by monochromatic edges (direction ignored) becomes one node of
the quotient. Flux and transfer counts on edges that end up inside a
cluster move to per-node intra statistics; cross-cluster edges are
aggregated per ordered cluster pair. The result is properly colored by
construction: an edge between two same-colored clusters is impossible,
because that edge would have merged them.

Two independent routes compute the quotient. contract() makes one
pass over the graph's edge table, joining the endpoints of each
monochromatic edge in a disjoint-set forest over interned node ids, and
a second pass that aggregates the edges per cluster pair; it is the
production path. oracle_contract() re-derives everything from its own
disjoint-set forest over account names and a full edge re-scan; it
exists for tests and for the --verify pipeline flag, and stays
deliberately naive. Both feed the same deterministic numbering rule, so
equal quotients get equal ids. canonical_form() keys clusters by their
sorted member sets so outputs can be compared across processing orders,
byte for byte; quotient_rows() is an exact, marshal-able form of one
contraction, and quotient_frames() the same in bounded pieces, which
--verify compares across processes as they arrive.

Accounting is conserved exactly: member counts sum to the original
order, intra plus cross transfer counts to the original transaction
count, intra plus cross flux to the original total flux.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import (
    ConfigError,
    MalformedRecordError,
    PartialColoringError,
    VerificationError,
)
from .exchanges import Coloring
from .graph import AccountMap, AggregatedGraph, EdgeAggregate
from .tables import atomic_output, read_table, write_json, write_table

# account -> cluster id; contract() returns an AccountMap over an array
ClusterAssignment = Mapping[str, int]


@dataclass(slots=True)
class ContractedNode:
    cluster_id: int
    color: int
    member_count: int
    intra_flux: int
    intra_tx_count: int


class ContractedGraph:
    """Quotient graph: numbered cluster nodes plus aggregated cross edges."""

    def __init__(self):
        self.nodes: dict[int, ContractedNode] = {}
        self.edges: dict[tuple[int, int], EdgeAggregate] = {}

    @property
    def order(self) -> int:
        return len(self.nodes)

    @property
    def size(self) -> int:
        return len(self.edges)

    def total_member_count(self) -> int:
        return sum(n.member_count for n in self.nodes.values())

    def total_intra_tx(self) -> int:
        return sum(n.intra_tx_count for n in self.nodes.values())

    def total_intra_flux(self) -> int:
        return sum(n.intra_flux for n in self.nodes.values())

    def total_edge_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.edges.values())

    def total_edge_flux(self) -> int:
        return sum(e.flux for e in self.edges.values())


def _checked_colors(graph: AggregatedGraph, coloring: Coloring) -> dict[str, int]:
    colors = coloring.colors
    missing = 0
    example = None
    for node in graph.nodes:
        if node not in colors:
            missing += 1
            if example is None:
                example = node
    if missing:
        raise PartialColoringError(
            f"{missing} node(s) lack a color, e.g. {example!r}"
        )
    return colors


def _number_clusters(keys: list[tuple[int, int, object]]) -> list[int]:
    """Deterministic cluster numbering, independent of discovery order.

    keys[i] is component i's (color, member count, anchor), where the
    anchor orders like the component's smallest member name. The
    dominant component of each exchange color keeps that color as its
    id (dominant: most members, ties by smallest anchor). Everything
    else, user components included, is numbered after the largest color
    in use, ordered by descending member count with ties by smallest
    anchor.
    """
    ids = [0] * len(keys)
    leftovers = []
    by_color: dict[int, list[tuple[int, int, object]]] = {}
    for idx, (color, size, anchor) in enumerate(keys):
        if color == 0:
            leftovers.append((idx, size, anchor))
        else:
            by_color.setdefault(color, []).append((idx, size, anchor))
    for color, group in by_color.items():
        group.sort(key=lambda t: (-t[1], t[2]))
        ids[group[0][0]] = color
        leftovers.extend(group[1:])
    leftovers.sort(key=lambda t: (-t[1], t[2]))
    next_id = max(by_color, default=0) + 1
    for idx, _size, _anchor in leftovers:
        ids[idx] = next_id
        next_id += 1
    return ids


def _assign_cluster_ids(
    components: list[list[str]], colors: Mapping[str, int]
) -> list[int]:
    keys = []
    for members in components:
        color = colors[members[0]]
        if color < 0:
            raise ConfigError(f"negative color {color} on account {members[0]!r}")
        keys.append((color, len(members), min(members)))
    return _number_clusters(keys)


def _build_quotient(
    graph: AggregatedGraph,
    component_of: Mapping[str, int],
    components: list[list[str]],
    colors: Mapping[str, int],
) -> tuple[ContractedGraph, ClusterAssignment]:
    ids = _assign_cluster_ids(components, colors)
    contracted = ContractedGraph()
    for idx, members in enumerate(components):
        contracted.nodes[ids[idx]] = ContractedNode(
            cluster_id=ids[idx],
            color=colors[members[0]],
            member_count=len(members),
            intra_flux=0,
            intra_tx_count=0,
        )
    nodes = contracted.nodes
    edges = contracted.edges
    for sender, recipient, agg in graph.edges():
        cu = ids[component_of[sender]]
        cv = ids[component_of[recipient]]
        if cu == cv:
            node = nodes[cu]
            node.intra_flux += agg.flux
            node.intra_tx_count += agg.multiplicity
        else:
            cross = edges.get((cu, cv))
            if cross is None:
                edges[(cu, cv)] = EdgeAggregate(agg.flux, agg.multiplicity)
            else:
                cross.flux += agg.flux
                cross.multiplicity += agg.multiplicity
    assignment: ClusterAssignment = {}
    for idx, members in enumerate(components):
        cid = ids[idx]
        for member in members:
            assignment[member] = cid
    return contracted, assignment


def contract(
    graph: AggregatedGraph, coloring: Coloring
) -> tuple[ContractedGraph, AccountMap]:
    """Contract the graph under the coloring.

    Clusters are the connected components of the subgraph formed by
    monochromatic edges, ignoring direction; two same-colored nodes with
    no such path stay apart. Raises ConfigError for a coloring made for
    another graph and PartialColoringError when the coloring does not
    cover every node. The assignment is an AccountMap over an id-indexed
    array of cluster ids.
    """
    if coloring.graph is not graph:
        raise ConfigError("the coloring was made for another graph")
    color = coloring.by_id
    order_count = graph.order
    if len(color) < order_count:
        raise PartialColoringError(
            f"{order_count - len(color)} node(s) lack a color, "
            f"e.g. {graph.names[len(color)]!r}"
        )
    src, dst = graph.src, graph.dst

    # Join the endpoints of every monochromatic edge in a disjoint-set
    # forest over node ids, halving each path as it is walked.
    parent = array("q", range(order_count))
    for a, b in zip(src, dst):
        if color[a] != color[b]:
            continue
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a

    # Number the components in name order of their first member, so a
    # component's index orders like its smallest member name.
    component = array("q", [-1]) * order_count
    shades: list[int] = []
    sizes: list[int] = []
    for node in graph.name_order():
        root = node
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        idx = component[root]
        if idx < 0:
            idx = component[root] = len(sizes)
            shades.append(color[node])
            sizes.append(0)
        component[node] = idx
        sizes[idx] += 1
    del parent
    keys = list(zip(shades, sizes, range(len(sizes))))

    ids = _number_clusters(keys)
    contracted = ContractedGraph()
    nodes = contracted.nodes
    for idx, (shade, size, _anchor) in enumerate(keys):
        nodes[ids[idx]] = ContractedNode(ids[idx], shade, size, 0, 0)
    cluster_of = array("q", map(ids.__getitem__, component))
    del component
    edges = contracted.edges
    for s, r, flux, mult in zip(src, dst, graph.flux, graph.mult):
        cu = cluster_of[s]
        cv = cluster_of[r]
        if cu == cv:
            node = nodes[cu]
            node.intra_flux += flux
            node.intra_tx_count += mult
        else:
            cross = edges.get((cu, cv))
            if cross is None:
                edges[(cu, cv)] = EdgeAggregate(flux, mult)
            else:
                cross.flux += flux
                cross.multiplicity += mult
    return contracted, AccountMap(graph, cluster_of)


def oracle_contract(
    graph: AggregatedGraph, coloring: Coloring
) -> tuple[ContractedGraph, ClusterAssignment]:
    """Reference implementation: disjoint-set forest over monochromatic
    edges, then a full re-scan. Slower, kept maximally simple; used to
    cross-check contract()."""
    colors = _checked_colors(graph, coloring)

    parent: dict[str, str] = {node: node for node in graph.nodes}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for sender, recipient, _agg in graph.edges():
        if colors[sender] == colors[recipient]:
            ra, rb = find(sender), find(recipient)
            if ra != rb:
                parent[rb] = ra

    roots: dict[str, int] = {}
    components: list[list[str]] = []
    component_of: dict[str, int] = {}
    for node in graph.nodes:
        root = find(node)
        idx = roots.get(root)
        if idx is None:
            idx = len(components)
            roots[root] = idx
            components.append([])
        components[idx].append(node)
        component_of[node] = idx

    return _build_quotient(graph, component_of, components, colors)


def verify_contraction(contracted: ContractedGraph) -> bool:
    """True iff the quotient is properly colored: no self-edges and no
    edge joining two clusters of the same color."""
    for (src, dst), _agg in contracted.edges.items():
        if src == dst:
            return False
        if contracted.nodes[src].color == contracted.nodes[dst].color:
            return False
    return True


def quotient_rows(
    names: list[str], contracted: ContractedGraph, assignment: ClusterAssignment
) -> tuple[list[tuple], list[tuple], bytes]:
    """An exact, marshal-able form of a contraction of the graph whose
    accounts are names: the node rows (key and all five fields) and the
    edge rows (key, flux and multiplicity), each sorted, and the cluster
    id of each of names as array('q') bytes. Two contractions of one
    graph are equal iff their forms are. Raises VerificationError when
    the assignment covers a different number of accounts than names."""
    return tuple(_quotient_sections(names, contracted, assignment))


def _quotient_sections(
    names: list[str], contracted: ContractedGraph, assignment: ClusterAssignment
) -> Iterator:
    """quotient_rows' three parts, each built once the last is let go."""
    if len(assignment) != len(names):
        raise VerificationError(f"cluster assignment covers {len(assignment)} accounts, "
                                f"not the graph's {len(names)}")
    yield sorted(
        (cid, n.cluster_id, n.color, n.member_count, n.intra_flux, n.intra_tx_count)
        for cid, n in contracted.nodes.items()
    )
    yield sorted((src, dst, agg.flux, agg.multiplicity)
                 for (src, dst), agg in contracted.edges.items())
    yield array("q", map(assignment.__getitem__, names)).tobytes()


# Rows per frame of quotient_frames; an assignment frame holds the cluster
# ids of as many accounts.
FRAME_ROWS = 1 << 12
_FRAME_SECTIONS = ("nodes", "edges", "assignment")


def quotient_frames(
    names: list[str], contracted: ContractedGraph, assignment: ClusterAssignment
) -> Iterator[tuple[str, object]]:
    """quotient_rows(names, contracted, assignment) in bounded, marshal-able
    frames, each part built only when the last has been sent: ("nodes",
    up to FRAME_ROWS node rows)..., then the edge rows as "edges", then
    the assignment bytes as "assignment". Two contractions of one graph
    give equal frame sequences iff they give equal rows."""
    parts = _quotient_sections(names, contracted, assignment)
    for section, part in zip(_FRAME_SECTIONS, parts):
        step = FRAME_ROWS * (8 if section == "assignment" else 1)
        for start in range(0, len(part), step):
            yield section, part[start:start + step]


_CANONICAL_HEADER = b"contracted-v1"
_SEP = "\x1f"


def canonical_form(contracted: ContractedGraph, assignment: ClusterAssignment) -> bytes:
    """Deterministic byte serialization keyed by sorted member sets.

    Cluster ids are deliberately left out so forms from different
    numbering or processing orders compare equal when the underlying
    partition, colors, statistics and edges agree. The empty graph maps
    to a fixed constant.
    """
    members_of: dict[int, list[str]] = {}
    for account, cid in assignment.items():
        members_of.setdefault(cid, []).append(account)
    keyed = []
    for cid, members in members_of.items():
        members.sort()
        keyed.append((tuple(members), cid))
    keyed.sort()
    index_of = {cid: i for i, (_members, cid) in enumerate(keyed)}

    lines = [_CANONICAL_HEADER.decode()]
    for i, (members, cid) in enumerate(keyed):
        node = contracted.nodes[cid]
        lines.append(
            f"C{_SEP}{i}{_SEP}{','.join(members)}{_SEP}{node.color}"
            f"{_SEP}{node.intra_flux}{_SEP}{node.intra_tx_count}"
        )
    edge_lines = []
    for (src, dst), agg in contracted.edges.items():
        edge_lines.append(
            (index_of[src], index_of[dst], agg.flux, agg.multiplicity)
        )
    edge_lines.sort()
    for src_i, dst_i, flux, mult in edge_lines:
        lines.append(f"E{_SEP}{src_i}{_SEP}{dst_i}{_SEP}{flux}{_SEP}{mult}")
    return "\n".join(lines).encode("utf-8")


def as_aggregated(contracted: ContractedGraph) -> tuple[AggregatedGraph, Coloring]:
    """View a quotient as a plain graph whose nodes are the cluster ids.

    Intra statistics become self-loops, so contracting the view under
    its own colors reproduces the original canonical form exactly.
    """
    g = AggregatedGraph()
    for cid, node in contracted.nodes.items():
        account = str(cid)
        g.add_node(account)
        if node.intra_tx_count:
            g.add_edge(account, account, node.intra_flux, node.intra_tx_count)
    for (src, dst), agg in contracted.edges.items():
        g.add_edge(str(src), str(dst), agg.flux, agg.multiplicity)
    # node i of g is the i-th cluster
    return g, Coloring(g, array("q", [node.color for node in contracted.nodes.values()]))


def identity_assignment(contracted: ContractedGraph) -> ClusterAssignment:
    """Assignment for the as_aggregated() view: each cluster is itself."""
    return {str(cid): cid for cid in contracted.nodes}


# -- persistence ------------------------------------------------------

CONTRACTED_NODES_FILE = "nodes.csv"
CONTRACTED_EDGES_FILE = "edges.csv"
ASSIGNMENT_FILE = "assignment.csv"
GRAPHML_FILE = "contracted.graphml"
DOT_FILE = "contracted.dot"
META_FILE = "meta.json"

_NODES_HEADER = [
    "cluster_id",
    "color",
    "label",
    "member_count",
    "intra_flux_planck",
    "intra_tx_count",
]
_EDGES_HEADER = ["src_cluster", "dst_cluster", "flux_planck", "multiplicity"]
_ASSIGNMENT_HEADER = ["address", "cluster_id"]


_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    '  <key id="d_color" for="node" attr.name="color" attr.type="long" />\n'
    '  <key id="d_label" for="node" attr.name="label" attr.type="string" />\n'
    '  <key id="d_size" for="node" attr.name="size" attr.type="long" />\n'
    '  <key id="d_intra_flux" for="node" attr.name="intra_flux_planck" attr.type="long" />\n'
    '  <key id="d_intra_tx" for="node" attr.name="intra_tx_count" attr.type="long" />\n'
    '  <key id="d_weight" for="edge" attr.name="weight" attr.type="long" />\n'
    '  <key id="d_mult" for="edge" attr.name="multiplicity" attr.type="long" />\n'
)


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _graphml_lines(nodes, edges, labels: Mapping[int, str]):
    """GraphML of the sorted node and edge items, laid out as ElementTree.indent
    writes it: no trailing newline, and an element without content as ' />'."""
    yield _GRAPHML_HEAD
    if not nodes:
        yield '  <graph id="contracted" edgedefault="directed" />\n</graphml>'
        return
    yield '  <graph id="contracted" edgedefault="directed">\n'
    for cid, node in nodes:
        text = labels.get(cid)
        label = f">{_xml_text(text)}</data>" if text else " />"
        yield (
            f'    <node id="{cid}">\n'
            f'      <data key="d_color">{node.color}</data>\n'
            f'      <data key="d_label"{label}\n'
            f'      <data key="d_size">{node.member_count}</data>\n'
            f'      <data key="d_intra_flux">{node.intra_flux}</data>\n'
            f'      <data key="d_intra_tx">{node.intra_tx_count}</data>\n'
            f'    </node>\n'
        )
    for (src, dst), agg in edges:
        yield (
            f'    <edge source="{src}" target="{dst}">\n'
            f'      <data key="d_weight">{agg.flux}</data>\n'
            f'      <data key="d_mult">{agg.multiplicity}</data>\n'
            f'    </edge>\n'
        )
    yield "  </graph>\n</graphml>"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lines(nodes, edges, labels: Mapping[int, str]):
    yield "digraph contracted {\n"
    for cid, node in nodes:
        label = labels.get(cid) or str(cid)
        yield (f"  {cid} [label={_dot_quote(label)} size={node.member_count} "
               f"color_index={node.color}];\n")
    for (src, dst), agg in edges:
        yield f"  {src} -> {dst} [weight={agg.flux} multiplicity={agg.multiplicity}];\n"
    yield "}\n"


def save_contracted(
    contracted: ContractedGraph,
    assignment: ClusterAssignment,
    directory: str,
    labels: Mapping[int, str] | None = None,
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write node/edge/assignment CSVs, GraphML and DOT renderings, and a
    meta.json carrying whatever run context the caller passes (the
    pipeline stores pre-contraction graph statistics there)."""
    os.makedirs(directory, exist_ok=True)
    labels = labels or {}
    nodes = sorted(contracted.nodes.items())
    edges = sorted(contracted.edges.items())
    write_table(
        os.path.join(directory, CONTRACTED_NODES_FILE),
        _NODES_HEADER,
        (
            [cid, node.color, labels.get(cid, ""), node.member_count,
             node.intra_flux, node.intra_tx_count]
            for cid, node in nodes
        ),
    )
    write_table(
        os.path.join(directory, CONTRACTED_EDGES_FILE),
        _EDGES_HEADER,
        ([src, dst, agg.flux, agg.multiplicity] for (src, dst), agg in edges),
    )
    # an AccountMap runs in name order already
    rows = assignment.items() if isinstance(assignment, AccountMap) else sorted(assignment.items())
    write_table(os.path.join(directory, ASSIGNMENT_FILE), _ASSIGNMENT_HEADER, rows)
    with atomic_output(os.path.join(directory, GRAPHML_FILE)) as fh:
        fh.writelines(_graphml_lines(nodes, edges, labels))
    with atomic_output(os.path.join(directory, DOT_FILE)) as fh:
        fh.writelines(_dot_lines(nodes, edges, labels))
    write_json(os.path.join(directory, META_FILE), dict(meta or {}))


def load_contracted(
    directory: str,
) -> tuple[ContractedGraph, ClusterAssignment, dict, dict[int, str]]:
    """Read back a directory written by save_contracted. Returns the
    graph, the assignment, the meta dict and the cluster label map. A
    repeated address, or a cluster that nodes.csv lacks, is a malformed
    row of assignment.csv."""
    contracted, meta, labels = load_quotient(directory)
    nodes = contracted.nodes
    path = os.path.join(directory, ASSIGNMENT_FILE)
    assignment: ClusterAssignment = {}
    for line, (account, cid) in read_table(path, _ASSIGNMENT_HEADER, ("cluster_id",)):
        if account in assignment:
            raise MalformedRecordError(f"address {account!r} appears twice", line, path)
        if cid not in nodes:
            raise MalformedRecordError(
                f"cluster {cid} is not in {CONTRACTED_NODES_FILE}", line, path
            )
        assignment[account] = cid
    return contracted, assignment, meta, labels


def load_quotient(directory: str) -> tuple[ContractedGraph, dict, dict[int, str]]:
    """Read back the quotient of a directory written by save_contracted,
    without its assignment.csv. Returns the graph, the meta dict and the
    cluster label map. A repeated cluster or edge, or an edge to a
    cluster that nodes.csv lacks, is a malformed row."""
    contracted = ContractedGraph()
    nodes, edges = contracted.nodes, contracted.edges
    labels: dict[int, str] = {}
    nodes_path = os.path.join(directory, CONTRACTED_NODES_FILE)
    edges_path = os.path.join(directory, CONTRACTED_EDGES_FILE)
    for line, (cid, color, label, member_count, intra_flux, intra_tx) in read_table(
        nodes_path,
        _NODES_HEADER,
        ("cluster_id", "color", "member_count", "intra_flux_planck", "intra_tx_count"),
    ):
        if cid in nodes:
            raise MalformedRecordError(f"cluster_id {cid} appears twice", line, nodes_path)
        nodes[cid] = ContractedNode(cid, color, member_count, intra_flux, intra_tx)
        if label:
            labels[cid] = label
    for line, (src, dst, flux, multiplicity) in read_table(
        edges_path, _EDGES_HEADER, _EDGES_HEADER
    ):
        for cid in (src, dst):
            if cid not in nodes:
                raise MalformedRecordError(
                    f"cluster {cid} is not in {CONTRACTED_NODES_FILE}", line, edges_path
                )
        if (src, dst) in edges:
            raise MalformedRecordError(f"edge {src} -> {dst} appears twice", line, edges_path)
        edges[(src, dst)] = EdgeAggregate(flux, multiplicity)
    meta_path = os.path.join(directory, META_FILE)
    meta: dict = {}
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(exc.msg, exc.lineno, meta_path) from None
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(
                    f"not UTF-8 at or after this line ({exc.reason})", 1, meta_path
                ) from None
        if not isinstance(meta, dict):
            raise MalformedRecordError("expected a JSON object", 1, meta_path)
    return contracted, meta, labels
