"""The artifact writer: a file appears complete or not at all, and the
files of held directories all once the held block ends, or none. The
table reader: each row comes with its line."""

import os

import pytest

from fluxgraph.tables import HeldOutput, atomic_output, read_table, write_json, write_table


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


def test_held_output_publishes_when_the_block_ends(tmp_path):
    old = tmp_path / "old"
    old.mkdir()
    (old / "a.csv").write_text("old a")
    (old / "b.csv").write_text("old b")
    with HeldOutput() as held:
        write_json(os.path.join(held.stage(str(old)), "a.csv"), {})
        write_table(os.path.join(held.stage(str(tmp_path / "new" / "deeper")), "c.csv"),
                    ["n"], [[1]])
        # finished, but under hidden staging directories
        assert (old / "a.csv").read_text() == "old a"
        assert visible_files(tmp_path) == ["old/a.csv", "old/b.csv"]
    assert (old / "a.csv").read_bytes() == b"{}\n"
    assert (old / "b.csv").read_text() == "old b"
    assert (tmp_path / "new" / "deeper" / "c.csv").read_bytes() == b"n\r\n1\r\n"
    assert files(tmp_path) == ["new/deeper/c.csv", "old/a.csv", "old/b.csv"]


@pytest.mark.parametrize("case", FAILING_WRITES)
def test_held_output_that_raises_leaves_nothing(tmp_path, case):
    exc, write = FAILING_WRITES[case]
    kept = tmp_path / "kept"
    kept.mkdir()
    write_table(str(kept / "a.csv"), ["n"], [[1]])
    old = (kept / "a.csv").read_bytes()
    with pytest.raises(exc):
        with HeldOutput() as held:
            write_table(os.path.join(held.stage(str(kept)), "a.csv"), ["n"], [[2]])
            write(os.path.join(held.stage(str(tmp_path / "made" / "deeper")), "out.csv"))
    assert (kept / "a.csv").read_bytes() == old
    assert files(tmp_path) == ["kept/a.csv"]
    assert sorted(os.listdir(tmp_path)) == ["kept"]


def files(root) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _dirs, names in os.walk(root) for f in names)


def visible_files(root) -> list[str]:
    return [f for f in files(root) if not any(p.startswith(".") for p in f.split(os.sep))]
