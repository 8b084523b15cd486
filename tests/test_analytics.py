"""Report arithmetic: partition, exchange table, histogram, formatting."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_graph_and_coloring
from fluxgraph.analytics import (
    DEFAULT_BUCKET_CUTS,
    build_report,
    check_conservation,
    cluster_size_histogram,
    exchange_table,
    flux_partition,
    fmt_dot,
    fmt_pct,
    render_report_text,
    save_report,
)
from fluxgraph.contraction import ContractedGraph, ContractedNode, contract
from fluxgraph.errors import ConfigError, ConsistencyError
from fluxgraph.exchanges import Coloring, ExchangeCluster
from fluxgraph.graph import AggregatedGraph, EdgeAggregate, graph_stats


def quotient(nodes, edges) -> ContractedGraph:
    """Assemble a contracted graph directly.

    nodes: {cid: (color, members, intra_flux, intra_tx)};
    edges: {(src, dst): (flux, mult)}.
    """
    g = ContractedGraph()
    for cid, (color, members, intra_flux, intra_tx) in nodes.items():
        g.nodes[cid] = ContractedNode(cid, color, members, intra_flux, intra_tx)
    for pair, (flux, mult) in edges.items():
        g.edges[pair] = EdgeAggregate(flux=flux, multiplicity=mult)
    return g


class TestFormatting:
    def test_fmt_dot_rounding(self):
        # planck -> DOT with two decimals, half up, thousands separators
        assert fmt_dot(0) == "0.00"
        assert fmt_dot(49_999_999) == "0.00"
        assert fmt_dot(50_000_000) == "0.01"
        assert fmt_dot(10**10) == "1.00"
        assert fmt_dot(15_000_000_000) == "1.50"
        assert fmt_dot(12_345 * 10**10) == "12,345.00"

    def test_fmt_dot_exact_at_huge_values(self):
        # 2^63 Planck; cents derived by integer arithmetic:
        # (9223372036854775808 + 5*10^7) // 10^8 = 92233720369
        assert fmt_dot(2**63) == "922,337,203.69"
        assert fmt_dot(2**63 - 100_000_000) == "922,337,203.68"

    def test_fmt_pct(self):
        assert fmt_pct(1, 3) == "33.33%"
        assert fmt_pct(0, 0) == "0.00%"
        assert fmt_pct(2, 2) == "100.00%"


class TestFluxPartition:
    def test_hand_example(self):
        g = quotient(
            nodes={
                1: (1, 3, 100, 2),   # exchange cluster
                2: (2, 2, 50, 1),    # another exchange
                3: (0, 4, 30, 3),    # user cluster
            },
            edges={
                (1, 2): (40, 4),     # inter-exchange
                (1, 3): (25, 2),     # exchange <-> user
                (3, 2): (10, 1),
                (3, 4): (7, 2),      # user <-> user
            },
        )
        g.nodes[4] = ContractedNode(4, 0, 1, 0, 0)
        p = flux_partition(g)
        assert (p.intra_exchange.tx_count, p.intra_exchange.flux) == (3, 150)
        assert (p.inter_exchange.tx_count, p.inter_exchange.flux) == (4, 40)
        assert (p.user_exchange.tx_count, p.user_exchange.flux) == (3, 35)
        assert (p.intra_user.tx_count, p.intra_user.flux) == (5, 37)
        assert p.intra_exchange.tx_pct == pytest.approx(3 / 15)
        assert p.intra_user.flux_pct == pytest.approx(37 / 262)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_partition_sums_to_graph_totals(self, seed):
        graph, coloring = random_graph_and_coloring(seed, max_nodes=50, max_edges=250)
        contracted, _ = contract(graph, coloring)
        p = flux_partition(contracted)
        cats = [p.intra_exchange, p.inter_exchange, p.user_exchange, p.intra_user]
        assert sum(c.tx_count for c in cats) == graph.transaction_count
        assert sum(c.flux for c in cats) == graph.total_flux
        if graph.transaction_count:
            assert sum(c.tx_pct for c in cats) == pytest.approx(1.0)
            assert sum(c.flux_pct for c in cats) == pytest.approx(1.0)


class TestExchangeTable:
    def clusters(self):
        return [
            ExchangeCluster(1, "acme", {"m1"}, set()),
            ExchangeCluster(2, "zeta", {"m2", "m3"}, set()),
        ]

    def test_double_counted_totals(self):
        g = quotient(
            nodes={1: (1, 10, 0, 0), 2: (2, 30, 0, 0), 3: (0, 5, 0, 0)},
            edges={(1, 2): (100, 7), (2, 1): (20, 3), (1, 3): (999, 9)},
        )
        rows = exchange_table(g, self.clusters())
        assert [r.label for r in rows] == ["zeta", "acme"]  # by node count
        # both endpoints credit inter-exchange traffic; user edges ignored
        for row in rows:
            assert row.inter_tx == 10
            assert row.inter_flux == 120
            assert row.inter_tx_pct == pytest.approx(0.5)
        assert rows[0].node_pct == pytest.approx(30 / 40)
        assert rows[0].main_count == 2

    def test_empty_cluster_list(self):
        g = quotient(nodes={1: (0, 5, 0, 0)}, edges={})
        assert exchange_table(g, []) == []


class TestHistogram:
    def test_bucket_boundaries_and_averages(self):
        nodes = {}
        cid = 1
        # sizes: 1,1,2,3,4,10,11,100,101,421,422,499,500
        sizes = [1, 1, 2, 3, 4, 10, 11, 100, 101, 421, 422, 499, 500]
        for size in sizes:
            nodes[cid] = (0, size, size * 10, size)  # flux, tx scale with size
            cid += 1
        nodes[cid] = (1, 50, 0, 0)  # exchange node must be ignored
        g = quotient(nodes=nodes, edges={})
        h = cluster_size_histogram(g, cuts=(1, 2, 3, 10, 100, 421))

        by_label = {b.label: b for b in h.buckets}
        assert [b.label for b in h.buckets] == [
            "1", "2", "3", "4-10", "11-100", "101-421", "422-499", "500",
        ]
        assert by_label["1"].cluster_count == 2
        assert by_label["1"].user_count == 2
        assert by_label["4-10"].cluster_count == 2
        assert by_label["4-10"].user_count == 14
        assert by_label["422-499"].cluster_count == 2
        assert by_label["500"].cluster_count == 1
        assert h.total_user_accounts == sum(sizes)
        assert sum(b.user_count for b in h.buckets) == h.total_user_accounts
        # arithmetic mean of the member clusters' stats
        assert by_label["4-10"].avg_intra_tx == pytest.approx((4 + 10) / 2)
        assert by_label["4-10"].avg_intra_flux == pytest.approx((40 + 100) / 2)

    def test_empty_bucket_has_no_averages(self):
        g = quotient(nodes={1: (0, 1, 0, 0), 2: (0, 5, 0, 0)}, edges={})
        h = cluster_size_histogram(g, cuts=(1, 2, 3))
        by_label = {b.label: b for b in h.buckets}
        assert by_label["2"].cluster_count == 0
        assert by_label["2"].avg_intra_tx is None
        assert by_label["2"].avg_intra_flux is None

    def test_max_equal_to_last_cut_adds_no_extra_buckets(self):
        g = quotient(nodes={1: (0, 3, 0, 0)}, edges={})
        h = cluster_size_histogram(g, cuts=(1, 2, 3))
        assert [b.label for b in h.buckets] == ["1", "2", "3"]

    def test_max_just_above_last_cut(self):
        g = quotient(nodes={1: (0, 4, 0, 0)}, edges={})
        h = cluster_size_histogram(g, cuts=(1, 2, 3))
        assert [b.label for b in h.buckets] == ["1", "2", "3", "4"]

    def test_bad_cuts_rejected(self):
        g = quotient(nodes={}, edges={})
        for cuts in ((), (0, 1), (3, 2), (1, 1)):
            with pytest.raises(ConfigError):
                cluster_size_histogram(g, cuts=cuts)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=25)
    def test_user_counts_partition_the_users(self, seed):
        graph, coloring = random_graph_and_coloring(seed, max_nodes=80, max_edges=200)
        contracted, _ = contract(graph, coloring)
        h = cluster_size_histogram(contracted)
        users = sum(
            n.member_count for n in contracted.nodes.values() if n.color == 0
        )
        assert h.total_user_accounts == users
        assert sum(b.user_count for b in h.buckets) == users
        assert sum(b.cluster_count for b in h.buckets) == sum(
            1 for n in contracted.nodes.values() if n.color == 0
        )


class TestReport:
    def build(self):
        g = AggregatedGraph()
        for i in range(6):
            g.add_transfer(f"o{i}", f"d{i}", 1000)
            g.add_transfer(f"d{i}", "M", 1000)
        g.add_transfer("u1", "u2", 330)
        g.add_transfer("M", "u1", 75)
        coloring = Coloring.from_mapping(
            g,
            dict({f"d{i}": 1 for i in range(6)}, M=1,
                 **{f"o{i}": 0 for i in range(6)}, u1=0, u2=0)
        )
        clusters = [ExchangeCluster(1, "acme", {"M"}, {f"d{i}" for i in range(6)})]
        before = graph_stats(g)
        contracted, _ = contract(g, coloring)
        return before, contracted, clusters

    def test_build_report_consistency(self):
        before, contracted, clusters = self.build()
        report = build_report(before, contracted, clusters)
        assert report.exchange_owned_accounts == 7
        assert report.user_accounts == before.order - 7
        assert all(check_conservation(before, contracted).values())
        data = report.as_dict()
        assert data["before"]["order"] == before.order
        assert data["exchange_summary"]["owned_accounts"] == 7
        # all percentages in the partition sum to ~100
        parts = data["flux_partition"].values()
        assert sum(p["tx_pct"] for p in parts) == pytest.approx(100.0, abs=0.05)

    def test_report_rejects_broken_accounting(self):
        before, contracted, clusters = self.build()
        contracted.nodes[1].member_count += 1
        with pytest.raises(ConsistencyError):
            build_report(before, contracted, clusters)

    def test_render_text_mentions_the_essentials(self):
        before, contracted, clusters = self.build()
        text = render_report_text(build_report(before, contracted, clusters))
        for needle in ("Network overview", "Flux partition", "Exchanges",
                       "User cluster sizes", "acme", "intra_exchange"):
            assert needle in text

    def test_save_report_writes_all_files(self, tmp_path):
        before, contracted, clusters = self.build()
        report = build_report(before, contracted, clusters)
        save_report(str(tmp_path), report, contracted, {1: "acme"})
        for name in ("report.json", "report.txt", "partition.csv",
                     "cluster_sizes.csv", "exchange_edges.csv"):
            assert (tmp_path / name).exists(), name
        data = json.loads((tmp_path / "report.json").read_text())
        assert data == report.as_dict()
        sizes = (tmp_path / "cluster_sizes.csv").read_text().splitlines()
        assert sizes[0] == "cluster_size,cluster_count"
        assert len(sizes) > 1
