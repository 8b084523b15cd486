"""Shared helpers for the test suite."""

import os
import random
from array import array
from typing import Iterable, Mapping

import pytest
from hypothesis import HealthCheck, settings

from fluxgraph.contraction import ContractedGraph
from fluxgraph.exchanges import Coloring
from fluxgraph.graph import AggregatedGraph, EdgeAggregate, fold_rows
from fluxgraph.records import TransferRecord, transfer_rows

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def assert_no_child() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- builders the pipeline itself does not need ---------------------------


def add_node(graph: AggregatedGraph, account: str) -> None:
    """Add the account as a node of its own, if the graph lacks it."""
    if account not in graph.ids:
        graph._intern(account)


def add_edge(graph: AggregatedGraph, sender: str, recipient: str, flux: int,
             multiplicity: int) -> None:
    """Fold a pre-aggregated edge in."""
    if flux <= 0 or multiplicity <= 0:
        raise ValueError("edge flux and multiplicity must be positive")
    graph._bump(sender, recipient, flux, multiplicity)


def build_graph(transfers: Iterable[TransferRecord]) -> AggregatedGraph:
    """Aggregate a transfer stream; the result is independent of input order."""
    return fold_rows([transfer_rows(transfers)])


def as_aggregated(contracted: ContractedGraph) -> tuple[AggregatedGraph, Coloring]:
    """View a quotient as a plain graph whose nodes are the cluster ids.

    Intra statistics become self-loops, so contracting the view under
    its own colors reproduces the original canonical form exactly.
    """
    g = AggregatedGraph()
    for cid, node in contracted.nodes.items():
        account = str(cid)
        add_node(g, account)
        if node.intra_tx_count:
            add_edge(g, account, account, node.intra_flux, node.intra_tx_count)
    for (src, dst), agg in contracted.edges.items():
        add_edge(g, str(src), str(dst), agg.flux, agg.multiplicity)
    # node i of g is the i-th cluster
    return g, Coloring(g, array("q", [node.color for node in contracted.nodes.values()]))


def identity_assignment(contracted: ContractedGraph) -> dict[str, int]:
    """Assignment for the as_aggregated() view: each cluster is itself."""
    return {str(cid): cid for cid in contracted.nodes}


def quotient_rows(names: list[str], contracted: ContractedGraph,
                  assignment: Mapping[str, int]) -> tuple[list[tuple], list[tuple], bytes]:
    """What contraction.quotient_frames cuts into frames, built here on its
    own: the node rows (key and all five fields) and the edge rows (key,
    flux and multiplicity), each sorted, and the cluster id of each of
    names as array('q') bytes. Two contractions of one graph are equal
    iff their rows are."""
    nodes = sorted(
        (cid, n.cluster_id, n.color, n.member_count, n.intra_flux, n.intra_tx_count)
        for cid, n in contracted.nodes.items()
    )
    edges = sorted((src, dst, agg.flux, agg.multiplicity)
                   for (src, dst), agg in contracted.edges.items())
    return nodes, edges, array("q", map(assignment.__getitem__, names)).tobytes()


# -- lookups by account name, which the pipeline itself does not need ----


def edge(graph: AggregatedGraph, sender: str, recipient: str) -> EdgeAggregate | None:
    if not (sender in graph.ids and recipient in graph.ids):
        return None
    r = graph.id_of(recipient)
    for e in graph.adjacency().outgoing(graph.id_of(sender)):
        if graph.dst[e] == r:
            return EdgeAggregate(graph.flux[e], graph.mult[e])
    return None


def degree(graph: AggregatedGraph, account: str) -> int:
    return graph.degrees[graph.id_of(account)]


def neighbors(graph: AggregatedGraph, account: str) -> set[str]:
    """Distinct accounts adjacent in either direction, excluding self."""
    node = graph.id_of(account)
    adj = graph.adjacency()
    near = {graph.dst[e] for e in adj.outgoing(node)}
    near.update(graph.src[e] for e in adj.incoming(node))
    return {graph.names[other] for other in near if other != node}


def neighbor_count(graph: AggregatedGraph, account: str) -> int:
    return len(neighbors(graph, account))


def out_flux(graph: AggregatedGraph, account: str) -> int:
    return sum(graph.flux[e] for e in graph.adjacency().outgoing(graph.id_of(account)))


def color_of(coloring: Coloring, account: str) -> int:
    return coloring.colors[account]


def max_color(coloring: Coloring) -> int:
    return max(coloring.colors.values(), default=0)


def random_graph_and_coloring(
    seed: int,
    max_nodes: int = 200,
    max_edges: int = 2000,
    max_colors: int = 8,
) -> tuple[AggregatedGraph, Coloring]:
    """One seeded random aggregated graph plus a total coloring.

    Nodes may be isolated, edges may repeat pairs (multiplicity) and may
    be self-loops; color classes may be empty or split across several
    components. That is the whole space contraction must handle.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    names = [f"a{i:04d}" for i in range(n)]
    graph = AggregatedGraph()
    for name in names:
        add_node(graph, name)
    for _ in range(rng.randint(0, max_edges)):
        sender = rng.choice(names)
        recipient = rng.choice(names)
        graph.add_transfer(sender, recipient, rng.randint(1, 10**12))
    k = rng.randint(0, max_colors)
    coloring = Coloring.from_mapping(graph, {name: rng.randint(0, k) for name in names})
    return graph, coloring


def random_transfers(
    seed: int, max_accounts: int = 40, max_transfers: int = 400
) -> list[tuple[str, str, int]]:
    """A seeded list of (sender, recipient, amount) triples."""
    rng = random.Random(seed)
    n = rng.randint(1, max_accounts)
    names = [f"u{i:03d}" for i in range(n)]
    out = []
    for _ in range(rng.randint(0, max_transfers)):
        out.append(
            (rng.choice(names), rng.choice(names), rng.randint(1, 10**10))
        )
    return out
