"""Aggregated graph construction, degree ranking and persistence."""

from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from conftest import random_transfers
from fluxgraph.errors import MalformedRecordError, UnknownAccountError
from fluxgraph.graph import (
    AggregatedGraph,
    build_graph,
    degree_centrality_ranking,
    graph_stats,
    load_graph,
    save_graph,
)
from fluxgraph.records import TransferRecord

ACCOUNTS = st.sampled_from([f"u{i}" for i in range(8)])
TRIPLES = st.lists(
    st.tuples(ACCOUNTS, ACCOUNTS, st.integers(min_value=1, max_value=10**9)),
    max_size=120,
)


def graph_from(triples) -> AggregatedGraph:
    g = AggregatedGraph()
    for s, r, a in triples:
        g.add_transfer(s, r, a)
    return g


def oracle_aggregate(triples):
    """Brute-force aggregation: totals per ordered pair, plus node set."""
    flux = defaultdict(int)
    mult = defaultdict(int)
    nodes = set()
    for s, r, a in triples:
        flux[(s, r)] += a
        mult[(s, r)] += 1
        nodes.add(s)
        nodes.add(r)
    return flux, mult, nodes


class TestAggregation:
    @given(TRIPLES)
    def test_matches_bruteforce(self, triples):
        g = graph_from(triples)
        flux, mult, nodes = oracle_aggregate(triples)
        assert g.nodes == nodes
        assert g.order == len(nodes)
        assert g.aggregated_size == len(flux)
        assert g.transaction_count == len(triples)
        assert g.total_flux == sum(a for _s, _r, a in triples)
        for (s, r), agg in ((pair, g.edge(*pair)) for pair in flux):
            assert agg.flux == flux[(s, r)]
            assert agg.multiplicity == mult[(s, r)]

    def test_self_loop_is_an_edge(self):
        g = graph_from([("x", "x", 5), ("x", "x", 7)])
        agg = g.edge("x", "x")
        assert (agg.flux, agg.multiplicity) == (12, 2)
        assert g.order == 1 and g.aggregated_size == 1

    def test_positive_amount_required(self):
        g = AggregatedGraph()
        with pytest.raises(ValueError):
            g.add_transfer("a", "b", 0)

    def test_build_graph_from_records(self):
        transfers = [TransferRecord("a", "b", 3, 1, 10),
                     TransferRecord("a", "b", 4, 2, 20)]
        g = build_graph(transfers)
        assert g.edge("a", "b").flux == 7
        assert g.transaction_count == 2


class TestNeighborsAndDegree:
    @given(TRIPLES)
    def test_degree_matches_bruteforce(self, triples):
        g = graph_from(triples)
        # oracle: transaction-count degree; a self-transfer adds one
        deg = defaultdict(int)
        for s, r, _a in triples:
            if s == r:
                deg[s] += 1
            else:
                deg[s] += 1
                deg[r] += 1
        for account in g.nodes:
            assert g.degree(account) == deg[account]

    @given(TRIPLES)
    def test_neighbors_union_excludes_self(self, triples):
        g = graph_from(triples)
        nb = defaultdict(set)
        for s, r, _a in triples:
            if s != r:
                nb[s].add(r)
                nb[r].add(s)
        for account in g.nodes:
            assert g.neighbors(account) == nb[account]
            assert g.neighbor_count(account) == len(nb[account])

    def test_unknown_account_raises(self):
        g = graph_from([("a", "b", 1)])
        with pytest.raises(UnknownAccountError):
            g.out_edges("zz")
        with pytest.raises(UnknownAccountError):
            g.in_edges("zz")

    def test_out_flux(self):
        g = graph_from([("a", "b", 5), ("a", "c", 7), ("b", "a", 100)])
        assert g.out_flux("a") == 12
        assert g.out_flux("c") == 0


class TestRanking:
    def test_orders_by_degree_then_account(self):
        g = graph_from([
            ("hub", "x1", 1), ("hub", "x2", 1), ("hub", "x3", 1),
            ("b", "x1", 1), ("a", "x1", 1),
        ])
        ranked = degree_centrality_ranking(g, 4)
        assert ranked[0] == ("hub", 3)
        assert ranked[1] == ("x1", 3)  # ties break by account id, ascending
        assert [a for a, _d in ranked[2:]] == ["a", "b"]

    def test_k_larger_than_order(self):
        g = graph_from([("a", "b", 1)])
        assert len(degree_centrality_ranking(g, 10)) == 2

    @given(TRIPLES, st.integers(min_value=0, max_value=12))
    def test_ranking_is_a_sorted_prefix(self, triples, k):
        g = graph_from(triples)
        full = sorted(
            ((a, g.degree(a)) for a in g.nodes), key=lambda t: (-t[1], t[0])
        )
        assert degree_centrality_ranking(g, k) == full[:k]


class TestPersistence:
    @given(triples=TRIPLES)
    def test_round_trip(self, tmp_path_factory, triples):
        g = graph_from(triples)
        directory = str(tmp_path_factory.mktemp("graph"))
        save_graph(g, directory)
        back = load_graph(directory)
        assert back.nodes == g.nodes
        assert graph_stats(back) == graph_stats(g)
        assert sorted((s, r, a.flux, a.multiplicity) for s, r, a in back.edges()) \
            == sorted((s, r, a.flux, a.multiplicity) for s, r, a in g.edges())

    def test_isolated_nodes_survive(self, tmp_path):
        g = AggregatedGraph()
        g.add_node("lonely")
        g.add_transfer("a", "b", 1)
        save_graph(g, str(tmp_path))
        assert "lonely" in load_graph(str(tmp_path)).nodes

    def test_header_is_validated(self, tmp_path):
        save_graph(graph_from([("a", "b", 1)]), str(tmp_path))
        (tmp_path / "edges.csv").write_text("x,y\n")
        with pytest.raises(MalformedRecordError):
            load_graph(str(tmp_path))

    @pytest.mark.parametrize("row", ["a,b,12x,1", "a,b,-5,1", "a,b,5", "a,b,5,0"])
    def test_bad_edge_row_names_file_and_line(self, tmp_path, row):
        save_graph(graph_from([("a", "b", 1)]), str(tmp_path))
        with open(tmp_path / "edges.csv", "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(MalformedRecordError) as exc:
            load_graph(str(tmp_path))
        assert exc.value.line_no == 3
        assert f"{tmp_path / 'edges.csv'}:3:" in str(exc.value)

    def test_non_utf8_node_file_is_malformed(self, tmp_path):
        save_graph(graph_from([("a", "b", 1)]), str(tmp_path))
        (tmp_path / "nodes.csv").write_bytes(b"account\na\n\xff\n")
        with pytest.raises(MalformedRecordError, match="nodes.csv"):
            load_graph(str(tmp_path))


class TestStats:
    def test_random_graph_totals(self):
        triples = random_transfers(7)
        g = graph_from(triples)
        stats = graph_stats(g)
        assert stats.transaction_count == len(triples)
        assert stats.total_flux == sum(a for _s, _r, a in triples)
        assert stats.as_dict()["order"] == g.order
