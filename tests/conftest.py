"""Shared helpers for the test suite."""

import random

from hypothesis import HealthCheck, settings

from fluxgraph.exchanges import Coloring
from fluxgraph.graph import AggregatedGraph, EdgeAggregate

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


# -- lookups by account name, which the pipeline itself does not need ----


def edge(graph: AggregatedGraph, sender: str, recipient: str) -> EdgeAggregate | None:
    if not (graph.has_node(sender) and graph.has_node(recipient)):
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
        graph.add_node(name)
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
