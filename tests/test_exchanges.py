"""Deposit-address heuristic, cluster merging and coloring."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import add_node, color_of, max_color
from fluxgraph.errors import (
    ClusterOverlapError,
    ConfigError,
    LabelFileError,
    MalformedRecordError,
    UnknownAccountError,
)
from fluxgraph.exchanges import (
    Coloring,
    DetectionParams,
    ExchangeCluster,
    build_coloring,
    classify_exchange,
    detect_exchanges,
    is_deposit_address,
    load_clusters,
    load_coloring,
    load_labels,
    merge_clusters,
    save_clusters,
    save_coloring,
)
from fluxgraph.graph import AggregatedGraph, EdgeAggregate


def exchange_graph(
    deposit_count: int,
    plain_count: int = 0,
    main: str = "MAIN",
    forward_den: int = 1,
) -> AggregatedGraph:
    """A main wallet with deposit-patterned neighbors and, optionally,
    plain withdrawal-target neighbors. Each deposit receives 1000 from
    its owner and forwards 1000/forward_den to the main wallet."""
    g = AggregatedGraph()
    add_node(g, main)
    for i in range(deposit_count):
        dep, owner = f"dep{i:03d}", f"own{i:03d}"
        g.add_transfer(owner, dep, 1000)
        g.add_transfer(dep, main, 1000 // forward_den)
    for i in range(plain_count):
        g.add_transfer(main, f"user{i:03d}", 500)
    return g


class TestDetectionParams:
    def test_defaults(self):
        p = DetectionParams()
        assert (p.top_k, p.min_neighbors) == (60, 10)
        assert p.deposit_neighbor_threshold == 0.90
        assert p.deposit_forward_fraction == 0.99
        assert p.min_deposit_inflows == 1

    def test_validation(self):
        for bad in (
            {"top_k": 0},
            {"deposit_neighbor_threshold": 0.0},
            {"deposit_neighbor_threshold": 1.5},
            {"min_neighbors": 0},
            {"deposit_forward_fraction": 1.2},
            {"min_deposit_inflows": 0},
        ):
            with pytest.raises(ConfigError):
                DetectionParams(**bad)


class TestIsDepositAddress:
    def params(self, **kw):
        return DetectionParams(**kw)

    def test_textbook_deposit(self):
        g = exchange_graph(1)
        assert is_deposit_address(g, "dep000", "MAIN", self.params())

    def test_no_external_inflow(self):
        g = AggregatedGraph()
        g.add_transfer("MAIN", "x", 100)  # only inflow is from main
        g.add_transfer("x", "MAIN", 100)
        assert not is_deposit_address(g, "x", "MAIN", self.params())

    def test_no_outflow(self):
        g = AggregatedGraph()
        g.add_transfer("owner", "x", 100)
        add_node(g, "MAIN")
        assert not is_deposit_address(g, "x", "MAIN", self.params())

    def test_forward_fraction_boundary(self):
        # out-flux 10000: 9900 to main is exactly 0.99 -> passes (>=);
        # 9899 fails. The residue clause must also hold: the other
        # target's share must be strictly below 0.01.
        def build(to_main, leak):
            g = AggregatedGraph()
            g.add_transfer("owner", "x", to_main + leak)
            g.add_transfer("x", "MAIN", to_main)
            g.add_transfer("x", "leak", leak)
            return g

        p = self.params()
        assert not is_deposit_address(build(9899, 101), "x", "MAIN", p)
        assert not is_deposit_address(build(9900, 100), "x", "MAIN", p)  # leak == residue
        assert is_deposit_address(build(9901, 99), "x", "MAIN", p)

    def test_min_inflows(self):
        g = exchange_graph(1)
        g.add_transfer("own999", "dep000", 50)
        g.add_transfer("dep000", "MAIN", 50)
        assert is_deposit_address(g, "dep000", "MAIN", self.params(min_deposit_inflows=2))
        assert not is_deposit_address(g, "dep000", "MAIN", self.params(min_deposit_inflows=3))

    def test_unknown_accounts_raise(self):
        g = exchange_graph(1)
        with pytest.raises(UnknownAccountError):
            is_deposit_address(g, "nope", "MAIN", self.params())
        with pytest.raises(UnknownAccountError):
            is_deposit_address(g, "dep000", "nope", self.params())


class TestClassifyExchange:
    def test_clean_exchange(self):
        g = exchange_graph(20)
        cluster = classify_exchange(g, "MAIN", DetectionParams())
        assert cluster is not None
        assert cluster.main_addresses == {"MAIN"}
        assert len(cluster.deposit_addresses) == 20

    def test_exactly_threshold_fraction_fails(self):
        # 90 of 100 neighbors pass: not strictly above 0.90
        g = exchange_graph(90, plain_count=10)
        assert classify_exchange(g, "MAIN", DetectionParams()) is None

    def test_just_above_threshold_passes(self):
        g = exchange_graph(91, plain_count=9)
        cluster = classify_exchange(g, "MAIN", DetectionParams())
        assert cluster is not None
        assert len(cluster.deposit_addresses) == 91

    def test_min_neighbors_gate(self):
        g = exchange_graph(9)
        assert classify_exchange(g, "MAIN", DetectionParams()) is None
        assert classify_exchange(
            g, "MAIN", DetectionParams(min_neighbors=9)
        ) is not None

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=6))
    def test_threshold_monotonicity(self, deposits, plain):
        # raising the neighbor threshold can only lose detections
        g = exchange_graph(deposits, plain_count=plain)
        params = [DetectionParams(deposit_neighbor_threshold=t, min_neighbors=1)
                  for t in (0.5, 0.7, 0.9, 0.99)]
        hits = [classify_exchange(g, "MAIN", p) is not None for p in params]
        assert hits == sorted(hits, reverse=True)


def fraction_is_deposit(graph, candidate, main, params) -> bool:
    """The deposit test with its shares as exact Fractions."""
    names = graph.names
    node = graph.id_of(candidate)
    adj = graph.adjacency()
    out_edges = {names[graph.dst[e]]: EdgeAggregate(graph.flux[e], graph.mult[e])
                 for e in adj.outgoing(node)}
    inflows = sum(1 for e in adj.incoming(node) if names[graph.src[e]] != main)
    if inflows < params.min_deposit_inflows:
        return False
    out_flux = sum(agg.flux for agg in out_edges.values())
    if out_flux == 0 or main not in out_edges:
        return False
    forward = Fraction(str(params.deposit_forward_fraction))
    if Fraction(out_edges[main].flux, out_flux) < forward:
        return False
    residue = 1 - forward
    return all(Fraction(agg.flux, out_flux) < residue
               for target, agg in out_edges.items() if target != main)


# thresholds on a coarse decimal grid land exactly on small-flux ratios
THRESHOLDS = st.one_of(
    st.sampled_from([0.01, 0.1, 0.25, 0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 0.99]),
    st.floats(min_value=0.001, max_value=0.999),
)
FLUXES = st.integers(min_value=1, max_value=400)


class TestIntegerThresholds:
    @given(
        to_main=FLUXES,
        side=st.lists(FLUXES, max_size=4),
        inflows=st.integers(min_value=0, max_value=3),
        forward=st.one_of(THRESHOLDS, st.just(1.0)),
        wanted=st.integers(min_value=1, max_value=3),
    )
    # a forward share of exactly the threshold passes; a side share of
    # exactly the residue fails
    @example(to_main=2, side=[2], inflows=1, forward=0.5, wanted=1)
    @example(to_main=99, side=[1], inflows=1, forward=0.99, wanted=1)
    @example(to_main=99, side=[], inflows=1, forward=0.99, wanted=1)
    def test_deposit_test_agrees_with_fractions(self, to_main, side, inflows, forward, wanted):
        g = AggregatedGraph()
        add_node(g, "MAIN")
        for i in range(inflows):
            g.add_transfer(f"own{i}", "x", 10)
        g.add_transfer("MAIN", "x", 3)
        g.add_transfer("x", "MAIN", to_main)
        for i, flux in enumerate(side):
            g.add_transfer("x", f"side{i}", flux)
        params = DetectionParams(deposit_forward_fraction=forward, min_deposit_inflows=wanted)
        assert is_deposit_address(g, "x", "MAIN", params) == \
            fraction_is_deposit(g, "x", "MAIN", params)

    @given(
        deposits=st.integers(min_value=0, max_value=40),
        plain=st.integers(min_value=0, max_value=40),
        threshold=THRESHOLDS,
    )
    @example(deposits=9, plain=1, threshold=0.9)
    def test_neighbor_threshold_agrees_with_fractions(self, deposits, plain, threshold):
        g = exchange_graph(deposits, plain_count=plain)
        params = DetectionParams(deposit_neighbor_threshold=threshold, min_neighbors=1)
        expected = deposits + plain >= 1 and \
            Fraction(deposits, deposits + plain) > Fraction(str(threshold))
        assert (classify_exchange(g, "MAIN", params) is not None) == expected


class TestMergeClusters:
    def mk(self, mains, deposits):
        return ExchangeCluster(0, "", set(mains), set(deposits))

    def test_shared_deposit_merges(self):
        merged = merge_clusters([
            self.mk({"m1"}, {"d1", "shared"}),
            self.mk({"m2"}, {"d2", "shared"}),
        ])
        assert len(merged) == 1
        assert merged[0].main_addresses == {"m1", "m2"}
        assert merged[0].deposit_addresses == {"d1", "d2", "shared"}

    def test_shared_label_merges(self):
        merged = merge_clusters(
            [self.mk({"m1"}, {"d1"}), self.mk({"m2"}, {"d2"})],
            labels={"m1": "omni", "m2": "omni"},
        )
        assert len(merged) == 1
        assert merged[0].label == "omni"

    def test_transitive_merge(self):
        merged = merge_clusters([
            self.mk({"m1"}, {"a"}),
            self.mk({"m2"}, {"a", "b"}),
            self.mk({"m3"}, {"b"}),
        ])
        assert len(merged) == 1
        assert merged[0].main_addresses == {"m1", "m2", "m3"}

    def test_main_role_wins_over_deposit(self):
        # m2 passed m1's deposit test but is itself a main elsewhere
        merged = merge_clusters([
            self.mk({"m1"}, {"m2", "d1"}),
            self.mk({"m2"}, {"d2"}),
        ])
        assert len(merged) == 1
        assert merged[0].main_addresses == {"m1", "m2"}
        assert "m2" not in merged[0].deposit_addresses

    def test_disjoint_clusters_stay_apart(self):
        merged = merge_clusters(
            [self.mk({"m1"}, {"d1"}), self.mk({"m2"}, {"d2", "d3"})],
            labels={"m1": "alpha", "m2": "beta"},
        )
        assert len(merged) == 2
        # ids count down from the largest cluster
        assert merged[0].cluster_id == 1
        assert merged[0].label == "beta"
        assert merged[1].cluster_id == 2

    def test_unlabeled_cluster_gets_stable_name(self):
        a = merge_clusters([self.mk({"m9"}, {"d"})])[0].label
        b = merge_clusters([self.mk({"m9"}, {"d", "e"})])[0].label
        assert a == b
        assert a.startswith("unknown-")

    def test_equal_size_ties_break_by_label(self):
        merged = merge_clusters(
            [self.mk({"m1"}, {"d1"}), self.mk({"m2"}, {"d2"})],
            labels={"m1": "zeta", "m2": "acme"},
        )
        assert [c.label for c in merged] == ["acme", "zeta"]

    @given(st.lists(
        st.tuples(
            st.sets(st.sampled_from("ABCD"), min_size=1, max_size=2),
            st.sets(st.sampled_from("defgh"), max_size=3),
        ),
        max_size=6,
    ))
    def test_merged_clusters_are_pairwise_disjoint(self, raw_specs):
        raw = [self.mk(mains, deposits) for mains, deposits in raw_specs]
        merged = merge_clusters(raw)
        seen = set()
        for cluster in merged:
            assert not cluster.main_addresses & cluster.deposit_addresses
            members = cluster.members()
            assert not members & seen
            seen |= members
        # every input account survives somewhere
        want = set()
        for cluster in raw:
            want |= cluster.members()
        assert seen == want
        # ids are 1..K in size order
        assert [c.cluster_id for c in merged] == list(range(1, len(merged) + 1))
        assert all(
            merged[i].size >= merged[i + 1].size for i in range(len(merged) - 1)
        )


class TestDetectExchanges:
    def test_two_planted_exchanges(self):
        g = AggregatedGraph()
        for e, main in enumerate(["M_A", "M_B"]):
            for i in range(15):
                dep, owner = f"d{e}_{i:02d}", f"o{e}_{i:02d}"
                g.add_transfer(owner, dep, 1000)
                g.add_transfer(dep, main, 1000)
        clusters = detect_exchanges(g, labels={"M_A": "acme"})
        assert len(clusters) == 2
        by_label = {c.label: c for c in clusters}
        assert by_label["acme"].main_addresses == {"M_A"}
        assert len(by_label["acme"].deposit_addresses) == 15
        assert [c for c in clusters if c.label.startswith("unknown-")]

    def test_top_k_limits_candidates(self):
        g = exchange_graph(30)
        # the main wallet has degree 30; deposits have degree 2, so with
        # top_k=1 only the main is ever considered and still detected
        clusters = detect_exchanges(g, DetectionParams(top_k=1))
        assert len(clusters) == 1

    def test_no_exchanges_in_mesh(self):
        g = AggregatedGraph()
        for i in range(20):
            g.add_transfer(f"u{i}", f"u{(i + 1) % 20}", 100 + i)
            g.add_transfer(f"u{i}", f"u{(i + 7) % 20}", 100 + i)
        assert detect_exchanges(g) == []


class TestColoring:
    def test_build_coloring_assigns_cluster_ids(self):
        g = exchange_graph(2)
        clusters = [ExchangeCluster(3, "x", {"MAIN"}, {"dep000", "dep001"})]
        coloring = build_coloring(g, clusters)
        assert color_of(coloring, "MAIN") == 3
        assert color_of(coloring, "dep001") == 3
        assert color_of(coloring, "own000") == 0
        assert max_color(coloring) == 3

    def test_overlap_rejected(self):
        g = exchange_graph(2)
        clusters = [
            ExchangeCluster(1, "", {"MAIN"}, {"dep000"}),
            ExchangeCluster(2, "", {"dep000"}, set()),
        ]
        with pytest.raises(ClusterOverlapError):
            build_coloring(g, clusters)

    def test_unknown_member_rejected(self):
        g = exchange_graph(1)
        with pytest.raises(UnknownAccountError):
            build_coloring(g, [ExchangeCluster(1, "", {"ghost"}, set())])

    def test_all_users(self):
        g = exchange_graph(1)
        coloring = Coloring.all_users(g)
        assert set(coloring.colors.values()) == {0}
        assert max_color(coloring) == 0


class TestPersistence:
    def test_clusters_round_trip(self, tmp_path):
        clusters = [
            ExchangeCluster(1, "acme", {"m1", "m2"}, {"d1"}),
            ExchangeCluster(2, "unknown-abc123", {"m3"}, set()),
        ]
        path = str(tmp_path / "clusters.csv")
        save_clusters(path, clusters)
        back = load_clusters(path)
        assert [(c.cluster_id, c.label, c.main_addresses, c.deposit_addresses)
                for c in back] \
            == [(c.cluster_id, c.label, c.main_addresses, c.deposit_addresses)
                for c in clusters]

    def test_coloring_round_trip(self, tmp_path):
        g = AggregatedGraph()
        for account in "cab":
            add_node(g, account)
        coloring = Coloring.from_mapping(g, {"a": 0, "b": 2, "c": 1})
        path = str(tmp_path / "coloring.csv")
        save_coloring(path, coloring)
        assert load_coloring(path, g).colors == coloring.colors

    def test_loaded_coloring_agrees_with_its_csv(self, tmp_path):
        g = exchange_graph(3, plain_count=2)
        path = tmp_path / "coloring.csv"
        save_coloring(str(path), build_coloring(g, [ExchangeCluster(2, "x", {"MAIN"}, {"dep001"})]))
        rows = [(address, int(color)) for address, color in
                (line.split(",") for line in path.read_text().splitlines()[1:])]
        loaded = load_coloring(str(path), g)
        assert list(loaded.colors.items()) == rows
        assert loaded.colors == dict(rows)
        assert [loaded.by_id[g.id_of(address)] for address, _ in rows] \
            == [color for _, color in rows]

    def test_labels_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("address,label\nm1,acme\nm2,zeta\n")
        assert load_labels(str(path)) == {"m1": "acme", "m2": "zeta"}

    def test_labels_header_required(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("m1,acme\n")
        with pytest.raises(MalformedRecordError) as exc:
            load_labels(str(path))
        assert f"{path}:1:" in str(exc.value)

    def test_labels_missing_file(self):
        with pytest.raises(LabelFileError):
            load_labels("/nonexistent/labels.csv")
