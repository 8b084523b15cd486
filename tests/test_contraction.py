"""Graph contraction: quotient semantics, conservation, determinism."""

import io
import marshal
import os
import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    add_node, as_aggregated, build_graph, identity_assignment, quotient_rows,
    random_graph_and_coloring,
)
from fluxgraph import cli
from fluxgraph import contraction
from fluxgraph.contraction import (
    ContractedGraph,
    ContractedNode,
    canonical_form,
    contract,
    load_contracted,
    oracle_contract,
    quotient_frames,
    save_contracted,
    verify_contraction,
)
from fluxgraph.errors import MalformedRecordError, PartialColoringError, VerificationError
from fluxgraph.exchanges import Coloring, build_coloring, detect_exchanges
from fluxgraph.graph import AggregatedGraph, EdgeAggregate
from fluxgraph.records import ingest
from fluxgraph.synth import config_from_dict, generate
from test_graph import FOOTPRINT_SCENARIO


def hand_graph():
    """Five nodes, two exchange colors, worked out on paper.

    a,b carry color 1 (joined by an edge); c,d are users (joined);
    e alone carries color 2. Expected quotient: {a,b} keeps id 1,
    {e} keeps id 2, {c,d} becomes user cluster 3.
    """
    g = AggregatedGraph()
    g.add_transfer("a", "b", 4)
    g.add_transfer("a", "b", 6)
    g.add_transfer("c", "d", 5)
    g.add_transfer("b", "c", 7)
    g.add_transfer("d", "e", 3)
    g.add_transfer("e", "a", 2)
    coloring = Coloring.from_mapping(g, {"a": 1, "b": 1, "c": 0, "d": 0, "e": 2})
    return g, coloring


class TestHandWorkedExample:
    def test_quotient_structure(self):
        g, coloring = hand_graph()
        contracted, assignment = contract(g, coloring)

        assert contracted.order == 3
        assert assignment == {"a": 1, "b": 1, "e": 2, "c": 3, "d": 3}

        one, two, three = (contracted.nodes[i] for i in (1, 2, 3))
        assert (one.color, one.member_count, one.intra_flux, one.intra_tx_count) \
            == (1, 2, 10, 2)
        assert (two.color, two.member_count, two.intra_flux, two.intra_tx_count) \
            == (2, 1, 0, 0)
        assert (three.color, three.member_count, three.intra_flux, three.intra_tx_count) \
            == (0, 2, 5, 1)

        edges = {
            pair: (agg.flux, agg.multiplicity)
            for pair, agg in contracted.edges.items()
        }
        assert edges == {(1, 3): (7, 1), (3, 2): (3, 1), (2, 1): (2, 1)}

    def test_self_loop_feeds_intra_stats(self):
        g, coloring = hand_graph()
        g.add_transfer("e", "e", 11)
        contracted, _ = contract(g, coloring)
        assert contracted.nodes[2].intra_flux == 11
        assert contracted.nodes[2].intra_tx_count == 1

    def test_oracle_agrees(self):
        g, coloring = hand_graph()
        a = contract(g, coloring)
        b = oracle_contract(g, coloring)
        assert canonical_form(*a) == canonical_form(*b)


class TestClusterSemantics:
    def test_same_color_without_path_stays_apart(self):
        g = AggregatedGraph()
        g.add_transfer("p", "u", 1)
        g.add_transfer("u", "q", 1)
        coloring = Coloring.from_mapping(g, {"p": 1, "q": 1, "u": 0})
        contracted, assignment = contract(g, coloring)
        assert assignment["p"] != assignment["q"]
        assert contracted.nodes[assignment["p"]].color == 1
        assert contracted.nodes[assignment["q"]].color == 1
        assert verify_contraction(contracted)

    def test_opposite_direction_edge_still_connects(self):
        # connectivity ignores direction: q -> p joins them
        g = AggregatedGraph()
        g.add_transfer("q", "p", 1)
        coloring = Coloring.from_mapping(g, {"p": 1, "q": 1})
        _, assignment = contract(g, coloring)
        assert assignment["p"] == assignment["q"]

    def test_dominant_component_keeps_the_color_id(self):
        g = AggregatedGraph()
        g.add_transfer("x1", "x2", 1)
        g.add_transfer("x2", "x3", 1)
        add_node(g, "y1")
        coloring = Coloring.from_mapping(g, {"x1": 1, "x2": 1, "x3": 1, "y1": 1})
        contracted, assignment = contract(g, coloring)
        assert assignment["x1"] == assignment["x2"] == assignment["x3"] == 1
        assert assignment["y1"] == 2
        assert contracted.nodes[2].color == 1

    def test_dominance_tie_breaks_by_smallest_member(self):
        g = AggregatedGraph()
        add_node(g, "aa")
        add_node(g, "zz")
        coloring = Coloring.from_mapping(g, {"aa": 1, "zz": 1})
        _, assignment = contract(g, coloring)
        assert assignment == {"aa": 1, "zz": 2}

    def test_user_clusters_numbered_after_max_color(self):
        g = AggregatedGraph()
        g.add_transfer("u1", "u2", 1)
        add_node(g, "m")
        coloring = Coloring.from_mapping(g, {"u1": 0, "u2": 0, "m": 5})
        _, assignment = contract(g, coloring)
        assert assignment["m"] == 5
        assert assignment["u1"] == assignment["u2"] == 6

    def test_user_clusters_ordered_by_size_then_member(self):
        g = AggregatedGraph()
        g.add_transfer("n1", "n2", 1)
        g.add_transfer("n2", "n3", 1)
        g.add_transfer("b1", "b2", 1)
        g.add_transfer("a1", "a2", 1)
        coloring = Coloring.all_users(g)
        _, assignment = contract(g, coloring)
        assert assignment["n1"] == 1  # size 3 first
        assert assignment["a1"] == 2  # then size 2, min member a1 < b1
        assert assignment["b1"] == 3

    def test_partial_coloring_rejected(self):
        g = AggregatedGraph()
        g.add_transfer("a", "b", 1)
        with pytest.raises(PartialColoringError):
            contract(g, Coloring.from_mapping(g, {"a": 0}))

    def test_coloring_must_belong_to_the_graph(self):
        from fluxgraph.errors import ConfigError
        g = AggregatedGraph()
        g.add_transfer("a", "b", 1)
        coloring = Coloring.all_users(g)
        other = AggregatedGraph()
        other.add_transfer("a", "b", 1)
        with pytest.raises(ConfigError):
            contract(other, coloring)
        add_node(g, "c")  # joined after the coloring was made
        with pytest.raises(PartialColoringError, match="'c'"):
            contract(g, coloring)

    def test_negative_color_rejected(self):
        from fluxgraph.errors import ConfigError
        g = AggregatedGraph()
        add_node(g, "a")
        with pytest.raises(ConfigError):
            contract(g, Coloring.from_mapping(g, {"a": -1}))

    def test_empty_graph(self):
        g = AggregatedGraph()
        contracted, assignment = contract(g, Coloring.from_mapping(g, {}))
        assert contracted.order == 0 and contracted.size == 0
        assert assignment == {}
        other = AggregatedGraph()
        assert canonical_form(contracted, assignment) \
            == canonical_form(*contract(other, Coloring.from_mapping(other, {})))


def total_check(graph, contracted):
    assert contracted.total_member_count() == graph.order
    assert contracted.total_intra_tx() + contracted.total_edge_multiplicity() \
        == graph.transaction_count
    assert contracted.total_intra_flux() + contracted.total_edge_flux() \
        == graph.total_flux


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60)
    def test_contract_vs_oracle_and_conservation(self, seed):
        graph, coloring = random_graph_and_coloring(seed, max_nodes=60, max_edges=300)
        result = contract(graph, coloring)
        other = oracle_contract(graph, coloring)
        assert canonical_form(*result) == canonical_form(*other)
        contracted, assignment = result
        assert verify_contraction(contracted)
        total_check(graph, contracted)
        # assignment is total and member counts agree with it
        assert set(assignment) == graph.nodes
        from collections import Counter
        counts = Counter(assignment.values())
        for cid, node in contracted.nodes.items():
            assert node.member_count == counts[cid]

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_idempotence(self, seed):
        graph, coloring = random_graph_and_coloring(seed, max_nodes=50, max_edges=200)
        contracted, _assignment = contract(graph, coloring)
        again_graph, again_coloring = as_aggregated(contracted)
        again, again_assignment = contract(again_graph, again_coloring)
        assert canonical_form(again, again_assignment) \
            == canonical_form(contracted, identity_assignment(contracted))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20)
    def test_insertion_order_independence(self, seed):
        rng = random.Random(seed)
        triples = [
            (f"n{rng.randint(0, 30)}", f"n{rng.randint(0, 30)}", rng.randint(1, 100))
            for _ in range(rng.randint(1, 120))
        ]
        colors = {f"n{i}": rng.randint(0, 4) for i in range(31)}

        def run(order):
            g = AggregatedGraph()
            for name in colors:
                add_node(g, name)
            for s, r, a in order:
                g.add_transfer(s, r, a)
            return canonical_form(*contract(g, Coloring.from_mapping(g, dict(colors))))

        first = run(triples)
        for _ in range(3):
            shuffled = triples[:]
            rng.shuffle(shuffled)
            assert run(shuffled) == first


class TestCanonicalForm:
    def test_sensitive_to_intra_stats(self):
        g, coloring = hand_graph()
        base = canonical_form(*contract(g, coloring))
        g.add_transfer("a", "b", 1)  # changes intra flux and tx count
        assert canonical_form(*contract(g, coloring)) != base

    def test_sensitive_to_edge_weights(self):
        g, coloring = hand_graph()
        base = canonical_form(*contract(g, coloring))
        g.add_transfer("b", "c", 1)
        assert canonical_form(*contract(g, coloring)) != base

    def test_ignores_cluster_numbering(self):
        # same structure reached through different member names ends up
        # with different ids but identical member-keyed canonical form
        g1 = AggregatedGraph()
        g1.add_transfer("a", "b", 3)
        c1, a1 = contract(g1, Coloring.from_mapping(g1, {"a": 0, "b": 0}))
        g2 = AggregatedGraph()
        g2.add_transfer("a", "b", 3)
        c2, a2 = contract(g2, Coloring.from_mapping(g2, {"a": 0, "b": 0}))
        assert canonical_form(c1, a1) == canonical_form(c2, a2)


class TestQuotientRows:
    def test_equal_for_both_routes_and_marshal_able(self):
        g, coloring = hand_graph()
        rows = quotient_rows(g.names, *contract(g, coloring))
        assert rows == quotient_rows(g.names, *oracle_contract(g, coloring))
        assert marshal.loads(marshal.dumps(rows)) == rows

    def test_sensitive_to_one_account_moved(self):
        g, coloring = hand_graph()
        contracted, assignment = contract(g, coloring)
        moved = dict(assignment, c=1)
        assert quotient_rows(g.names, contracted, moved) \
            != quotient_rows(g.names, contracted, assignment)

    @pytest.mark.parametrize("seed", range(20))
    def test_frames_cut_the_rows_in_order(self, seed, monkeypatch):
        monkeypatch.setattr(contraction, "FRAME_ROWS", 3)
        g, coloring = random_graph_and_coloring(seed, max_nodes=40, max_edges=80)
        rows = quotient_rows(g.names, *contract(g, coloring))
        frames = list(quotient_frames(g.names, *oracle_contract(g, coloring)))
        assert frames == list(quotient_frames(g.names, *contract(g, coloring)))
        assert marshal.loads(marshal.dumps(frames)) == frames
        joined = {"nodes": [], "edges": [], "assignment": b""}
        for section, piece in frames:
            assert len(piece) <= (24 if section == "assignment" else 3)
            joined[section] += piece
        assert tuple(joined.values()) == rows

    def test_frames_sensitive_to_one_account_moved(self, monkeypatch):
        monkeypatch.setattr(contraction, "FRAME_ROWS", 2)
        g, coloring = hand_graph()
        contracted, assignment = contract(g, coloring)
        assert list(quotient_frames(g.names, contracted, dict(assignment, c=1))) \
            != list(quotient_frames(g.names, contracted, assignment))

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_assignment_of_other_accounts_raises(self, change):
        g, coloring = hand_graph()
        contracted, assignment = contract(g, coloring)
        other = dict(assignment)
        if change == "missing":
            del other["e"]
        else:
            other["z"] = 3
        with pytest.raises(VerificationError, match="covers"):
            list(quotient_frames(g.names, contracted, other))


def reference_graphml(contracted, labels) -> bytes:
    """contracted.graphml as an ElementTree build writes it; the streaming
    writer in save_contracted must reproduce these bytes."""
    ns = "http://graphml.graphdrawing.org/xmlns"
    ET.register_namespace("", ns)
    root = ET.Element(f"{{{ns}}}graphml")
    keys = [
        ("d_color", "node", "color", "long"),
        ("d_label", "node", "label", "string"),
        ("d_size", "node", "size", "long"),
        ("d_intra_flux", "node", "intra_flux_planck", "long"),
        ("d_intra_tx", "node", "intra_tx_count", "long"),
        ("d_weight", "edge", "weight", "long"),
        ("d_mult", "edge", "multiplicity", "long"),
    ]
    for key_id, domain, name, kind in keys:
        ET.SubElement(root, f"{{{ns}}}key",
                      {"id": key_id, "for": domain, "attr.name": name, "attr.type": kind})
    graph_el = ET.SubElement(root, f"{{{ns}}}graph",
                             {"id": "contracted", "edgedefault": "directed"})

    def data(parent, key_id, value):
        ET.SubElement(parent, f"{{{ns}}}data", {"key": key_id}).text = str(value)

    for cid in sorted(contracted.nodes):
        node = contracted.nodes[cid]
        el = ET.SubElement(graph_el, f"{{{ns}}}node", {"id": str(cid)})
        data(el, "d_color", node.color)
        data(el, "d_label", labels.get(cid, ""))
        data(el, "d_size", node.member_count)
        data(el, "d_intra_flux", node.intra_flux)
        data(el, "d_intra_tx", node.intra_tx_count)
    for (src, dst) in sorted(contracted.edges):
        agg = contracted.edges[(src, dst)]
        el = ET.SubElement(graph_el, f"{{{ns}}}edge", {"source": str(src), "target": str(dst)})
        data(el, "d_weight", agg.flux)
        data(el, "d_mult", agg.multiplicity)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    out = io.BytesIO()
    tree.write(out, encoding="utf-8", xml_declaration=True)
    return out.getvalue()


# labels that XML must escape or carry as is; cluster 7 has an empty label
# and cluster 8 none at all
AWKWARD_LABELS = {1: "a&b", 2: "x<y>", 3: 'q"t', 4: "it's", 5: "ünï", 6: "two\nlines",
                  7: ""}


def awkward_quotient() -> ContractedGraph:
    contracted = ContractedGraph()
    for cid in range(1, 10):
        contracted.nodes[cid] = ContractedNode(cid, cid if cid <= 7 else 0, cid, 10 * cid,
                                               cid - 1)
    for src, dst in [(1, 2), (2, 1), (3, 9), (8, 6), (9, 8), (5, 4)]:
        contracted.edges[(src, dst)] = EdgeAggregate(src * 1000 + dst, src + dst)
    return contracted


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g, coloring = hand_graph()
        contracted, assignment = contract(g, coloring)
        labels = {1: "acme", 2: "zeta"}
        meta = {"before": {"order": 5}, "note": "hand example"}
        save_contracted(contracted, assignment, str(tmp_path), labels, meta)
        back, back_assignment, back_meta, back_labels = load_contracted(str(tmp_path))
        assert back_assignment == assignment
        assert back_meta == meta
        assert back_labels == labels
        assert back.order == contracted.order
        for cid, node in contracted.nodes.items():
            other = back.nodes[cid]
            assert (other.color, other.member_count, other.intra_flux,
                    other.intra_tx_count) \
                == (node.color, node.member_count, node.intra_flux,
                    node.intra_tx_count)
        assert {k: (v.flux, v.multiplicity) for k, v in back.edges.items()} \
            == {k: (v.flux, v.multiplicity) for k, v in contracted.edges.items()}

    def test_graphml_is_well_formed(self, tmp_path):
        g, coloring = hand_graph()
        contracted, assignment = contract(g, coloring)
        save_contracted(contracted, assignment, str(tmp_path), {1: "acme"})
        tree = ET.parse(tmp_path / "contracted.graphml")
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        assert len(tree.findall(".//g:node", ns)) == contracted.order
        assert len(tree.findall(".//g:edge", ns)) == contracted.size

    @pytest.mark.parametrize("contracted", [awkward_quotient(), ContractedGraph()],
                             ids=["awkward", "empty"])
    def test_graphml_matches_elementtree(self, tmp_path, contracted):
        save_contracted(contracted, {}, str(tmp_path), AWKWARD_LABELS)
        assert (tmp_path / "contracted.graphml").read_bytes() \
            == reference_graphml(contracted, AWKWARD_LABELS)

    def test_graphml_round_trips_through_networkx(self, tmp_path):
        nx = pytest.importorskip("networkx")
        contracted = awkward_quotient()
        save_contracted(contracted, {}, str(tmp_path), AWKWARD_LABELS)
        back = nx.read_graphml(tmp_path / "contracted.graphml")
        assert back.is_directed()
        assert dict(back.nodes(data=True)) == {
            str(cid): {"color": node.color, "label": AWKWARD_LABELS.get(cid, ""),
                       "size": node.member_count, "intra_flux_planck": node.intra_flux,
                       "intra_tx_count": node.intra_tx_count}
            for cid, node in contracted.nodes.items()
        }
        assert {(u, v): d for u, v, d in back.edges(data=True)} == {
            (str(src), str(dst)): {"weight": agg.flux, "multiplicity": agg.multiplicity}
            for (src, dst), agg in contracted.edges.items()
        }

    @pytest.mark.parametrize("row,reason", [
        ("a,999", "address 'a' appears twice"),
        ("a,1", "address 'a' appears twice"),
        ("d,999", "cluster 999 is not in nodes.csv"),
    ])
    def test_load_contracted_checks_the_assignment(self, tmp_path, row, reason):
        g = AggregatedGraph()
        g.add_transfer("a", "b", 1)
        g.add_transfer("b", "c", 1)
        contracted, assignment = contract(g, Coloring.all_users(g))
        save_contracted(contracted, assignment, str(tmp_path))
        path = tmp_path / "assignment.csv"
        with open(path, "a", newline="") as fh:
            fh.write(row + "\r\n")
        with pytest.raises(MalformedRecordError) as exc:
            load_contracted(str(tmp_path))
        assert str(exc.value) == f"{path}:5: {reason}"

    def test_dot_output_mentions_every_cluster(self, tmp_path):
        g, coloring = hand_graph()
        contracted, assignment = contract(g, coloring)
        save_contracted(contracted, assignment, str(tmp_path))
        text = (tmp_path / "contracted.dot").read_text()
        assert text.startswith("digraph")
        for cid in contracted.nodes:
            assert f"  {cid} [" in text


# Measured on CPython 3.10 to 3.12 over FOOTPRINT_SCENARIO's 20,008
# accounts: name-keyed dicts took 20.8 to 29.5 B per node for the coloring
# and 31.5 to 38.9 B for the assignment; id-indexed arrays take 8.0 and 8.4.
MAX_BYTES_PER_NODE = 16
# The same: a verified contraction, coloring included, peaked at 367 to
# 417 B per node with the dicts and the oracle run after contract(), and
# at 286 to 290 B with the arrays and the oracle run first (250 to 256 B
# on CPython 3.11.7, rows compared). With the oracle forked, the parent
# alone peaked at 284 to 290 B there.
MAX_VERIFIED_PEAK_PER_NODE = 330


@pytest.fixture(scope="module")
def footprint():
    lines, _truth = generate(config_from_dict(FOOTPRINT_SCENARIO))
    graph = build_graph(ingest(lines))
    del lines
    clusters = detect_exchanges(graph)
    graph.name_order()  # kept by the graph and shared by every writer
    return graph, clusters


def traced(make):
    """What make() returns, with the bytes still allocated once it has
    returned and its peak, both over what was allocated before it."""
    tracemalloc.start()
    try:
        make()  # a first call fills the interpreter's free lists
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = make()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


class TestFootprint:
    def test_coloring_bytes_per_node(self, footprint):
        graph, clusters = footprint
        _coloring, kept, _peak = traced(lambda: build_coloring(graph, clusters))
        assert kept / graph.order <= MAX_BYTES_PER_NODE

    def test_assignment_bytes_per_node(self, footprint):
        graph, clusters = footprint
        coloring = build_coloring(graph, clusters)
        _assignment, kept, _peak = traced(lambda: contract(graph, coloring)[1])
        assert kept / graph.order <= MAX_BYTES_PER_NODE

    def test_verified_contraction_peak_per_node(self, footprint, tmp_path, monkeypatch):
        # the oracle inline, where tracemalloc sees its working set
        monkeypatch.delattr(os, "fork", raising=False)
        graph, clusters = footprint
        contracted, _kept, peak = traced(lambda: cli._contract(
            graph, build_coloring(graph, clusters), True, str(tmp_path), {}, {}))
        assert contracted.order > 1000
        assert peak / graph.order < MAX_VERIFIED_PEAK_PER_NODE

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the oracle forks only where it can")
    def test_forked_verified_contraction_parent_peak_per_node(self, footprint, tmp_path,
                                                              monkeypatch):
        # the oracle in a forked child: this process holds contract()'s
        # result and both routes' rows, never the oracle's working set
        callers = []

        def recorded(graph, coloring):
            callers.append(os.getpid())  # seen here only when called here
            return oracle_contract(graph, coloring)

        monkeypatch.setattr(cli, "oracle_contract", recorded)
        graph, clusters = footprint
        contracted, _kept, peak = traced(lambda: cli._contract(
            graph, build_coloring(graph, clusters), True, str(tmp_path), {}, {}))
        assert callers == []
        assert contracted.order > 1000
        assert peak / graph.order < MAX_VERIFIED_PEAK_PER_NODE
