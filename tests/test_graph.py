"""Aggregated graph construction, degree ranking and persistence."""

import contextlib
import csv
import io
import os
import tracemalloc
from array import array
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    add_edge, add_node, assert_no_child, build_graph, degree, edge, neighbor_count, neighbors,
    out_flux, random_transfers,
)
from fluxgraph import cli, graph as graph_module, records
from fluxgraph.errors import MalformedRecordError, UnknownAccountError
from fluxgraph.exchanges import DetectionParams
from fluxgraph.graph import (
    EDGES_HEADER,
    AccountMap,
    AggregatedGraph,
    degree_centrality_ranking,
    graph_stats,
    load_graph,
    save_graph,
)
from fluxgraph.records import TransferRecord, ingest
from fluxgraph.synth import config_from_dict, generate
from fluxgraph.tables import MAX_INT_DIGITS, write_table

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
        for (s, r), agg in ((pair, edge(g, *pair)) for pair in flux):
            assert agg.flux == flux[(s, r)]
            assert agg.multiplicity == mult[(s, r)]

    def test_self_loop_is_an_edge(self):
        g = graph_from([("x", "x", 5), ("x", "x", 7)])
        agg = edge(g, "x", "x")
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
        assert edge(g, "a", "b").flux == 7
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
            assert degree(g, account) == deg[account]

    @given(TRIPLES)
    def test_neighbors_union_excludes_self(self, triples):
        g = graph_from(triples)
        nb = defaultdict(set)
        for s, r, _a in triples:
            if s != r:
                nb[s].add(r)
                nb[r].add(s)
        for account in g.nodes:
            assert neighbors(g, account) == nb[account]
            assert neighbor_count(g, account) == len(nb[account])

    def test_unknown_account_raises(self):
        g = graph_from([("a", "b", 1)])
        with pytest.raises(UnknownAccountError):
            g.id_of("zz")

    def test_out_flux(self):
        g = graph_from([("a", "b", 5), ("a", "c", 7), ("b", "a", 100)])
        assert out_flux(g, "a") == 12
        assert out_flux(g, "c") == 0


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
            ((a, degree(g, a)) for a in g.nodes), key=lambda t: (-t[1], t[0])
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
        assert {a: degree(back, a) for a in back.nodes} == {a: degree(g, a) for a in g.nodes}
        assert sorted((s, r, a.flux, a.multiplicity) for s, r, a in back.edges()) \
            == sorted((s, r, a.flux, a.multiplicity) for s, r, a in g.edges())

    def test_isolated_nodes_survive(self, tmp_path):
        g = AggregatedGraph()
        add_node(g, "lonely")
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


# -- load_graph's blocks against its row loop, save_graph against csv ----

# Account names csv.writer writes as they are: spaces, non-ASCII text,
# the empty name; and names it quotes (a comma, a quote, a line break).
PLAIN_TEXT = st.text(st.sampled_from(list("ab é名")), max_size=4)
NAME_TEXT = st.text(st.sampled_from(list('ab,"\r\n é名')), max_size=4)
# Values that fit array('q') and values wider than 64 bits.
WEIGHTS = st.one_of(st.integers(1, 10**6), st.integers(2**63 - 2, 2**64))


@st.composite
def saved_edges(draw) -> list[tuple]:
    """(sender, recipient, flux, multiplicity) rows over a few accounts:
    half the time all plain, so that the block parse takes them, and
    half the time with values that all fit array('q')."""
    text = st.one_of(PLAIN_TEXT, NAME_TEXT) if draw(st.booleans()) else PLAIN_TEXT
    names = st.sampled_from(draw(st.lists(text, min_size=1, max_size=8, unique=True)))
    weights = WEIGHTS if draw(st.booleans()) else st.integers(1, 10**6)
    return draw(st.lists(st.tuples(names, names, weights, weights), min_size=1, max_size=30))


CORRUPTIONS = [None, "zero_flux", "12x", "digits", "unknown", "repeat", "repeat_next",
               "reversed", "width", "xff", "lf", "unquoted", "header", "lf_header",
               "nodes_repeat", "nodes_blank", "nodes_lf"]


def saved_graph(edges) -> AggregatedGraph:
    g = AggregatedGraph()
    for sender, recipient, flux, mult in edges:
        add_edge(g, sender, recipient, flux, mult)
    return g


def corrupt(directory, how: str, data) -> None:
    """Rewrite a saved graph's nodes.csv or edges.csv with one fault, or
    in another layout or order that reads as the same graph."""
    if how.startswith("nodes_"):
        path = directory / "nodes.csv"
        lines = path.read_bytes().split(b"\r\n")[:-1]
        if how == "nodes_repeat":
            lines.append(lines[-1])
        elif how == "nodes_blank":
            lines.insert(data.draw(st.integers(1, len(lines))), b"")
        end = b"\n" if how == "nodes_lf" else b"\r\n"
        path.write_bytes(b"".join(line + end for line in lines))
        return
    path = directory / "edges.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    if how == "zero_flux":
        row[2] = "0"
    elif how == "12x":
        row[data.draw(st.sampled_from([2, 3]))] = "12x"
    elif how == "digits":
        row[data.draw(st.sampled_from([2, 3]))] = "0" * MAX_INT_DIGITS + "5"
    elif how == "unknown":
        row[data.draw(st.sampled_from([0, 1]))] = "nobody"
    elif how == "repeat":  # blocks away from the row it repeats, where blocks are small
        rows.append(list(rows[0]))
    elif how == "repeat_next":
        rows.insert(rows.index(row), list(row))
    elif how == "reversed":
        rows.reverse()
    elif how == "width":
        row.append("7") if data.draw(st.booleans()) else row.pop()
    elif how == "header":
        header[2] = "flux"
    ends = "\n" if how == "lf" else "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + ("\n" if how == "lf_header" else ends))
        if how == "unquoted":  # cells that need quotes, without them
            fh.writelines(",".join(row) + ends for row in rows)
        else:
            csv.writer(fh, lineterminator=ends).writerows(rows)
    if how == "xff":
        raw = path.read_bytes()
        at = data.draw(st.integers(len(graph_module._EDGES_HEADER_LINE), len(raw)))
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])


@contextlib.contextmanager
def refusing_fast_paths():
    """load_graph as its row loop alone: the whole-file read of nodes.csv
    and the block parser of edges.csv refuse every input."""
    with mock.patch.object(graph_module, "_nodes_at_once", lambda *args: None), \
            mock.patch.object(graph_module, "_edge_block", lambda *args, **kwargs: None):
        yield


def loaded(directory) -> tuple:
    """load_graph(directory) as its names and table, or the type, text,
    path and line of what it raises."""
    try:
        g = load_graph(str(directory))
    except MalformedRecordError as exc:
        return type(exc), str(exc), exc.path, exc.line_no
    return g.names, g.src, g.dst, g.flux, g.mult


class TestBlockLoader:
    """load_graph over edges.csv files of many tiny blocks, against its
    row loop over the whole directory."""

    @pytest.mark.parametrize("how", CORRUPTIONS)
    @settings(max_examples=20)
    @given(edges=saved_edges(), data=st.data())
    def test_blocks_match_the_row_loop(self, tmp_path_factory, how, edges, data):
        directory = tmp_path_factory.mktemp("graph")
        save_graph(saved_graph(edges), str(directory))
        edges_path = directory / "edges.csv"
        if how is not None:
            corrupt(directory, how, data)
        block = data.draw(st.integers(1, 200))
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        with mock.patch.object(records, "BLOCK_BYTES", block), \
                mock.patch.object(os, "fork", counted):
            blocks = loaded(directory)
        assert_no_child()
        with refusing_fast_paths():
            rows = loaded(directory)
        assert blocks == rows
        if how is None:
            assert rows[0] == sorted(rows[0])
        # one child exactly where nodes.csv reads and edges.csv has
        # save_graph's header and at least two blocks after it
        nodes_fault = isinstance(rows[0], type) and rows[2].endswith("nodes.csv")
        with open(edges_path, "rb") as fh, mock.patch.object(records, "BLOCK_BYTES", block):
            several = (not nodes_fault and fh.readline() == graph_module._EDGES_HEADER_LINE
                       and len(records._blocks(fh, fh.tell())) >= 2)
        assert len(forks) == several
        assert_no_child()

    @pytest.mark.parametrize("names, rows", [
        pytest.param(["ab", '"a"b'], ['"a"b,ab,1,1'], id="quote_opens_a_cell"),
        pytest.param(["a\rb", "c"], ["a\rb,c,1,1"], id="bare_cr"),
        pytest.param(["a\nb", "c"], ["a\nb,c,1,1"], id="bare_lf"),
        pytest.param(["1", "2"], ["1,2,1,1,2", "1,1,1"], id="widths_that_add_up"),
        pytest.param(["a", "b"], ["a,b,\uff11,1"], id="fullwidth_digit"),
        # blocks of lines 1-2 and line 3: a block's first edge repeats the last one's
        pytest.param(["a", "b"], ["a,a,1,1", "a,b,1,1", "a,b,1,1"], id="repeat_past_a_block"),
        # a block a line, each ascending, the two out of order
        pytest.param(["aa", "bb", "cc", "dd"], ["cc,dd,1,1", "aa,bb,1,1"],
                     id="blocks_out_of_order"),
    ])
    def test_cells_the_row_loop_reads_otherwise(self, tmp_path, monkeypatch, names, rows):
        """Lines whose cells split on commas read otherwise, or not at
        all, in the csv module: the blocks give the row loop's outcome.
        A block here is one or two lines."""
        write_table(str(tmp_path / "nodes.csv"), ["account"], [[name] for name in names])
        (tmp_path / "edges.csv").write_bytes(
            (",".join(EDGES_HEADER) + "\r\n" + "".join(row + "\r\n" for row in rows)).encode())
        monkeypatch.setattr(records, "BLOCK_BYTES", 10)
        blocks = loaded(tmp_path)
        with refusing_fast_paths():
            assert blocks == loaded(tmp_path)
        assert_no_child()

    @pytest.mark.parametrize("lines", [
        pytest.param(["a\rb", "c"], id="bare_cr"),
        pytest.param(["a\nb", "c"], id="bare_lf"),
        pytest.param(["a,b", "c"], id="comma"),
        pytest.param(['"a"', "c"], id="quoted"),
        pytest.param(["a", "", "c"], id="blank_line"),
    ])
    def test_nodes_the_row_loop_reads_otherwise(self, tmp_path, lines):
        """nodes.csv lines that the csv module reads otherwise, or not at
        all: the whole-file read gives the row loop's outcome."""
        (tmp_path / "nodes.csv").write_bytes(
            "".join(line + "\r\n" for line in ["account", *lines]).encode())
        (tmp_path / "edges.csv").write_bytes((",".join(EDGES_HEADER) + "\r\nc,c,1,1\r\n").encode())
        at_once = loaded(tmp_path)
        with refusing_fast_paths():
            assert at_once == loaded(tmp_path)

    def test_header_alone_is_read_as_blocks(self, tmp_path, monkeypatch):
        """An edges.csv of its header alone is no fault: the row loop is
        not needed for it."""
        g = AggregatedGraph()
        add_node(g, "a")
        save_graph(g, str(tmp_path))

        def row_loop(*args):
            raise AssertionError("the row loop read edges.csv")

        monkeypatch.setattr(graph_module, "_fold_edge_rows", row_loop)
        assert loaded(tmp_path) == (["a"], [], [], [], [])

    def test_block_results_are_compact(self, tmp_path):
        """A block's ids and ints cross the pipe as array('q') bytes, and
        as a list only for a column with a value wider than 64 bits."""
        save_graph(saved_graph([("a", "b", 5, 1), ("b", "a", 2**64, 2)]), str(tmp_path))
        g = graph_module._read_nodes(str(tmp_path / "nodes.csv"))
        with open(tmp_path / "edges.csv", "rb") as fh:
            start = len(fh.readline())
            size = os.fstat(fh.fileno()).st_size
            src, dst, flux, mult, first, last = graph_module._edge_block(fh.fileno(), start,
                                                                         size, g.ids)
        assert (src, dst) == (array("q", [0, 1]).tobytes(), array("q", [1, 0]).tobytes())
        assert flux == [5, 2**64] and mult == array("q", [1, 2]).tobytes()
        assert (first, last) == (1, 1 << graph_module.ID_BITS)  # the keys of a->b and b->a


CSV_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\x00"))


@given(st.lists(CSV_TEXT, min_size=1, max_size=6))
def test_cells_are_csv_writer_cells(names):
    """A name's cell is what csv.writer writes for it in a row of several."""
    cells = graph_module._cells(names)
    for i, name in enumerate(names):
        row = [name, names[-1 - i], 2**70, 3]
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        assert buf.getvalue() == "%s,%s,%d,%d\r\n" % (cells[i], cells[-1 - i], 2**70, 3)


def test_plain_names_are_their_own_cells():
    names = ["a", " b ", "ünï", "名前", ""]
    assert graph_module._cells(names) is names
    assert graph_module._cells(names + ["c,d"]) == names + ['"c,d"']


@given(st.lists(st.tuples(CSV_TEXT, CSV_TEXT, WEIGHTS, WEIGHTS), max_size=30))
def test_save_graph_writes_write_tables_bytes(tmp_path_factory, edges):
    g = saved_graph(edges)
    directory = tmp_path_factory.mktemp("saved")
    save_graph(g, str(directory / "graph"))
    write_table(str(directory / "nodes.csv"), ["account"], [[name] for name in sorted(g.names)])
    write_table(str(directory / "edges.csv"), EDGES_HEADER,
                sorted((s, r, a.flux, a.multiplicity) for s, r, a in g.edges()))
    for name in ("nodes.csv", "edges.csv"):
        assert (directory / "graph" / name).read_bytes() == (directory / name).read_bytes()


class TestAccountMap:
    def test_reads_like_a_dict_in_name_order(self):
        g = AggregatedGraph()
        for account in "cab":
            add_node(g, account)
        view = AccountMap(g, array("q", [30, 10, 20]))
        expected = {"a": 10, "b": 20, "c": 30}
        assert list(view) == list(expected)
        assert list(view.items()) == list(expected.items())
        assert list(view.values()) == list(expected.values())
        assert view["c"] == 30 and view.get("z") is None
        assert "b" in view and "z" not in view and len(view) == 3
        with pytest.raises(KeyError):
            view["z"]

    def test_equality_is_exact(self):
        g = AggregatedGraph()
        for account in "cab":
            add_node(g, account)
        view = AccountMap(g, array("q", [30, 10, 20]))
        assert view == {"a": 10, "b": 20, "c": 30} == view
        assert view != {"a": 10, "b": 20, "c": 31}  # one value differs
        assert view != {"a": 10, "b": 20, "z": 30}  # one key differs
        assert view != {"a": 10, "b": 20}
        assert view == AccountMap(g, array("q", [30, 10, 20]))
        assert view != AccountMap(g, array("q", [30, 10, 21]))

    def test_node_added_after_the_array_has_no_value(self):
        g = AggregatedGraph()
        add_node(g, "b")
        before = AccountMap(g, array("q", [7]))
        add_node(g, "a")
        after = AccountMap(g, array("q", [7]))
        for view in (before, after):
            assert dict(view) == {"b": 7}
            assert "a" not in view and len(view) == 1
            with pytest.raises(KeyError):
                view["a"]


class TestStats:
    def test_random_graph_totals(self):
        triples = random_transfers(7)
        g = graph_from(triples)
        stats = graph_stats(g)
        assert stats.transaction_count == len(triples)
        assert stats.total_flux == sum(a for _s, _r, a in triples)
        assert stats.as_dict()["order"] == g.order


# -- the edge table against a naive dict-of-dicts reference --------------

POSITIVE = st.integers(min_value=1, max_value=10**12)
FOLDS = st.lists(
    st.one_of(
        st.tuples(st.just("transfer"), ACCOUNTS, ACCOUNTS, POSITIVE),
        st.tuples(st.just("edge"), ACCOUNTS, ACCOUNTS, POSITIVE, POSITIVE),
        st.tuples(st.just("node"), ACCOUNTS),
        st.tuples(st.just("compact")),
    ),
    max_size=80,
)


class ReferenceGraph:
    """out[sender][recipient] = [flux, multiplicity], keyed by name."""

    def __init__(self):
        self.out: dict[str, dict[str, list[int]]] = {}
        self.degrees: dict[str, int] = {}

    def add_node(self, account):
        self.out.setdefault(account, {})
        self.degrees.setdefault(account, 0)

    def fold(self, sender, recipient, flux, mult):
        self.add_node(sender)
        self.add_node(recipient)
        weights = self.out[sender].setdefault(recipient, [0, 0])
        weights[0] += flux
        weights[1] += mult
        self.degrees[sender] += mult
        if recipient != sender:
            self.degrees[recipient] += mult

    def incoming(self, account):
        return {s for s, targets in self.out.items() if account in targets}


def assert_same(g: AggregatedGraph, ref: ReferenceGraph):
    rows = [(s, r, w[0], w[1]) for s, targets in ref.out.items() for r, w in targets.items()]
    assert Counter((s, r, a.flux, a.multiplicity) for s, r, a in g.edges()) == Counter(rows)
    assert set(g.nodes) == set(ref.out)
    assert g.order == len(ref.out)
    assert g.aggregated_size == len(rows)
    assert g.transaction_count == sum(row[3] for row in rows)
    assert g.total_flux == sum(row[2] for row in rows)
    assert {a: g.degrees[g.id_of(a)] for a in g.nodes} == ref.degrees

    adj = g.adjacency()
    assert len(adj.out_offsets) == len(adj.in_offsets) == g.order + 1
    assert sorted(adj.out_edges) == sorted(adj.in_edges) == list(range(g.aggregated_size))
    for account in g.nodes:
        node = g.id_of(account)
        out_edges = adj.out_edges[adj.out_offsets[node]:adj.out_offsets[node + 1]]
        in_edges = adj.in_edges[adj.in_offsets[node]:adj.in_offsets[node + 1]]
        assert list(out_edges) == sorted(out_edges) == list(adj.outgoing(node))
        assert list(in_edges) == sorted(in_edges) == list(adj.incoming(node))
        assert all(g.src[e] == node for e in out_edges)
        assert all(g.dst[e] == node for e in in_edges)
        # one edge per neighbor, so the counts match the sets as well
        targets = [g.names[g.dst[e]] for e in out_edges]
        sources = [g.names[g.src[e]] for e in in_edges]
        assert sorted(targets) == sorted(ref.out[account])
        assert sorted(sources) == sorted(ref.incoming(account))


class TestEdgeTable:
    @given(FOLDS)
    def test_matches_dict_of_dicts(self, folds):
        g = AggregatedGraph()
        ref = ReferenceGraph()
        for op, *args in folds:
            if op == "transfer":
                sender, recipient, amount = args
                g.add_transfer(sender, recipient, amount)
                ref.fold(sender, recipient, amount, 1)
            elif op == "edge":
                add_edge(g, *args)
                ref.fold(*args)
            elif op == "node":
                add_node(g, *args)
                ref.add_node(*args)
            else:
                # drops every view; assert_same works out the degrees and
                # the adjacency again, later folds must rebuild the dedup
                # index from the table and make both views stale
                g.compact()
                assert_same(g, ref)
        assert_same(g, ref)

    def test_adjacency_is_kept_until_the_graph_grows(self):
        g = graph_from([("a", "b", 1), ("b", "a", 2)])
        adj = g.adjacency()
        g.add_transfer("a", "b", 5)
        assert g.adjacency() is adj
        g.add_transfer("a", "a", 5)
        assert list(g.adjacency().outgoing(g.id_of("a"))) == [0, 2]
        add_node(g, "c")
        assert list(g.adjacency().incoming(g.id_of("c"))) == []

    def test_degrees_are_kept_until_the_next_fold(self):
        g = graph_from([("a", "b", 1), ("b", "b", 2)])
        degrees = g.degrees
        assert degrees == [1, 2]
        assert g.degrees is degrees
        g.add_transfer("a", "b", 5)
        assert g.degrees == [2, 3]
        add_node(g, "c")
        assert g.degrees == [2, 3, 0]

    def test_compact_drops_the_views_only(self):
        g = graph_from([("a", "b", 1), ("b", "a", 2), ("a", "b", 3)])
        degrees, adj = g.degrees, g.adjacency()
        table = (list(g.src), list(g.dst), list(g.flux), list(g.mult))
        g.compact()
        assert (g.src, g.dst, g.flux, g.mult) == table
        assert g.degrees == degrees and g.degrees is not degrees
        assert g.adjacency() == adj and g.adjacency() is not adj
        # the next fold finds the existing edge through a rebuilt index
        g.add_transfer("b", "a", 4)
        assert g.aggregated_size == 2 and g.flux == [4, 6]

    def test_packed_key_width_is_enforced(self, monkeypatch):
        monkeypatch.setattr(graph_module, "ID_BITS", 2)
        g = AggregatedGraph()
        accounts = [f"a{i}" for i in range(4)]
        for sender in accounts:
            for recipient in accounts:
                g.add_transfer(sender, recipient, 1)
        # every ordered pair of the 4 ids that fit in 2 bits is its own edge
        assert g.aggregated_size == 16
        with pytest.raises(OverflowError, match="at most 4 accounts"):
            g.add_transfer("a0", "a4", 1)
        with pytest.raises(OverflowError, match="'a4'"):
            add_node(g, "a4")
        assert g.order == 4
        assert g.aggregated_size == 16
        assert g.transaction_count == 16


# MILLION_SCENARIO's shape (tests/test_acceptance.py) at 1/20 of its
# accounts: about 20k accounts and 25k aggregated edges.
FOOTPRINT_SCENARIO = {
    "seed": 20260819,
    "user_count": 13_500,
    "trader_fraction": 0.445,
    "mesh_edges_per_user": 2,
    "giant_fraction": 0.5,
    "exchanges": [
        {"label": f"exch-{tag}", "main_wallets": mains, "deposit_addresses": 1_300,
         "deposit_rounds": 3, "withdrawals": 12, "inter_exchange_tx": 24}
        for tag, mains in zip("abcde", (1, 2, 1, 3, 1))
    ],
    "records_per_block": 6,
}
# What the graph keeps per aggregated edge once build_graph returns.
# Measured on CPython 3.11: 232 B when the dedup index and the degrees
# outlive the fold, 113 B with the table alone; per-node dicts of
# EdgeAggregate, which the table replaced, took about 460 B.
MAX_BYTES_PER_EDGE = 200
# The table, names, ids and the cached name order that the pipeline keeps
# after detection: 120 B measured on CPython 3.11, and 156 B with the
# degrees and the adjacency that detection read.
MAX_TABLE_BYTES_PER_EDGE = 140


@pytest.fixture(scope="module")
def footprint_transfers():
    """FOOTPRINT_SCENARIO's kept transfers as (sender, recipient, amount
    text): the account names exist before any counting starts."""
    lines, _truth = generate(config_from_dict(FOOTPRINT_SCENARIO))
    return [(t.sender, t.recipient, str(t.amount_planck)) for t in ingest(lines)]


def kept_bytes(make) -> tuple[AggregatedGraph, int]:
    """The graph make() returns, and the bytes allocated while making it
    that are still held once it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = make()
        return g, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def build_footprint_graph(transfers) -> AggregatedGraph:
    return build_graph(TransferRecord(sender, recipient, int(amount), 0, 0)
                       for sender, recipient, amount in transfers)


def test_bytes_per_edge(footprint_transfers):
    """What the graph keeps per aggregated edge after build_graph."""
    g, used = kept_bytes(lambda: build_footprint_graph(footprint_transfers))
    assert g.aggregated_size > 20_000
    assert used / g.aggregated_size < MAX_BYTES_PER_EDGE


def test_bytes_per_edge_after_load(footprint_transfers, tmp_path):
    """What the graph keeps per aggregated edge after load_graph, the
    account names it reads included (157 B measured on CPython 3.11,
    against 275 B with the dedup index and the degrees kept)."""
    save_graph(build_footprint_graph(footprint_transfers), str(tmp_path))
    g, used = kept_bytes(lambda: load_graph(str(tmp_path)))
    assert g.aggregated_size > 20_000
    assert used / g.aggregated_size < MAX_BYTES_PER_EDGE


def test_bytes_per_edge_after_detect(footprint_transfers, tmp_path):
    """After detection and the coloring, run contracts and verifies
    beside nothing but the graph's table and its name order."""

    def detected():
        g = build_footprint_graph(footprint_transfers)
        clusters, coloring = cli._detect(g, DetectionParams(), None, coloring=True)
        cli._save_detection(clusters, coloring, str(tmp_path / "clusters.csv"),
                            str(tmp_path / "coloring.csv"))
        assert clusters
        return g

    g, used = kept_bytes(detected)
    assert used / g.aggregated_size < MAX_TABLE_BYTES_PER_EDGE
