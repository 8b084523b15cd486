"""The artifact writer: a file appears complete or not at all. The table
reader: each row comes with its line."""

import os

import pytest

from fluxgraph.tables import atomic_output, read_table, write_json, write_table


def rows_then(exc, n=20_000):
    """Rows enough to push bytes past the file buffer, then a failure."""
    for i in range(n):
        yield [i, "x" * 10]
    raise exc


def write_then_raise(path):
    with atomic_output(path) as fh:
        fh.write("partial\n")
        raise OSError("disk full")


FAILING_WRITES = {
    "rows_fail": (RuntimeError, lambda path: write_table(
        path, ["n", "text"], rows_then(RuntimeError("row source failed")))),
    "interrupted": (KeyboardInterrupt, lambda path: write_table(
        path, ["n", "text"], rows_then(KeyboardInterrupt()))),
    "unserializable_json": (TypeError, lambda path: write_json(
        path, {"a": list(range(5000)), "b": object()})),
    "block_raises": (OSError, write_then_raise),
}


@pytest.mark.parametrize("case", FAILING_WRITES)
def test_failed_write_leaves_nothing(tmp_path, case):
    exc, write = FAILING_WRITES[case]
    with pytest.raises(exc):
        write(str(tmp_path / "out.csv"))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("case", FAILING_WRITES)
def test_failed_rewrite_keeps_old_bytes(tmp_path, case):
    exc, write = FAILING_WRITES[case]
    target = tmp_path / "out.csv"
    write_table(str(target), ["n", "text"], [[1, "old"]])
    old = target.read_bytes()
    with pytest.raises(exc):
        write(str(target))
    assert target.read_bytes() == old
    assert os.listdir(tmp_path) == ["out.csv"]


def test_completed_write_replaces_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    write_json(str(target), {"b": 1, "a": [1, 2]})
    assert target.read_bytes() == b'{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert os.listdir(tmp_path) == ["out.json"]


def test_read_table_yields_each_row_with_its_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('name,n\na,1\n"b\nc",22\nd,3\n')
    rows = list(read_table(str(path), ["name", "n"], ("n",)))
    # a quoted cell spanning lines puts its row on the line where it ends
    assert rows == [(2, ["a", 1]), (4, ["b\nc", 22]), (5, ["d", 3])]
