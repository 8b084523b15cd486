"""The child protocol of fluxgraph.children: what a forked child yields
reaches the parent in order, a failure ends the stream, and no child
outlives its Child."""

import os
import signal
import time

import pytest

from fluxgraph.children import PIPE_BYTES, Child

from conftest import assert_no_child

# How long a child may take to leave once its parent has closed the pipe.
LEAVE_BOUND_S = 10.0

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def test_items_arrive_in_order():
    items = [None, 0, -1, 2**80, 1.5, "x", b"\x00y", (1, (2, ("three", None))), [4, (5,)],
             {"k": (6,)}, ()]
    child = Child.start(lambda: iter(items))
    assert list(child.items()) == items
    assert child.wait() == 0
    assert_no_child()


def test_raising_produce_ends_the_stream():
    def produce():
        yield "a"
        yield ("b", None)
        raise ValueError("after two items")

    child = Child.start(produce)
    assert list(child.items()) == ["a", ("b", None)]
    assert child.wait() == 1
    assert_no_child()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("how", ["missing", "failing"])
def test_no_fork_leaves_no_open_fd(monkeypatch, how):
    def failing():
        raise OSError("no process to spare")

    before = open_fds()
    if how == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", failing)
    assert Child.start(lambda: iter([1])) is None
    assert open_fds() == before
    assert_no_child()


def test_wait_frees_a_child_blocked_on_a_full_pipe():
    """The child sends far more than its pipe holds; the parent reads one
    item and leaves. The child meets a broken pipe and exits 1."""
    chunk = b"x" * (1 << 16)

    def produce():
        while True:
            yield chunk

    child = Child.start(produce)
    assert next(child.items()) == chunk
    time.sleep(0.2)  # long enough for the child to fill its pipe
    assert os.waitpid(child.pid, os.WNOHANG) == (0, 0)

    def kill(*_):
        os.kill(child.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    try:
        signal.setitimer(signal.ITIMER_REAL, LEAVE_BOUND_S)
        t0 = time.monotonic()
        status = child.wait()
        took = time.monotonic() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert status == 1, "killed at the bound"
    assert took < LEAVE_BOUND_S
    assert_no_child()


def test_kill_reaps_the_child():
    def produce():
        time.sleep(60)
        yield 1

    child = Child.start(produce)
    assert os.waitpid(child.pid, os.WNOHANG) == (0, 0)
    assert child.kill() == -signal.SIGKILL
    assert child.wait() == -signal.SIGKILL
    assert_no_child()


def test_pipe_holds_pipe_bytes_where_linux_allows():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("F_GETPIPE_SZ is Linux's")
    try:
        with open("/proc/sys/fs/pipe-max-size") as fh:
            limit = int(fh.read())
    except OSError:
        pytest.skip("fs/pipe-max-size is unreadable")
    if limit < PIPE_BYTES:
        pytest.skip("fs/pipe-max-size is below PIPE_BYTES")
    child = Child.start(lambda: iter(()))
    assert fcntl.fcntl(child.pipe.fileno(), fcntl.F_GETPIPE_SZ) == PIPE_BYTES
    assert child.wait() == 0
    assert_no_child()
