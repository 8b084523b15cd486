"""Forked helper processes and the items they stream back.

Child.start(produce) runs produce() in a forked copy of this process
and sends each item it yields, as marshal bytes in a length-prefixed
frame, through a pipe; Child.items() yields them in the parent until
the stream ends. The child leaves through os._exit on every path, 0
when produce() was exhausted and 1 when it raised, so it runs none of
the parent's cleanup and flushes none of its buffers. Where os.fork is
missing or fails, start returns None and the caller does the work
itself.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import signal
import struct
import time
from typing import BinaryIO, Callable, Iterable, Iterator, Optional

# How much a child's pipe holds before its next send waits, where the
# system allows: Linux's fs/pipe-max-size is 1 MiB by default. Elsewhere
# a pipe keeps the system's size (64 KiB on Linux).
PIPE_BYTES = 1 << 20

_LENGTH = struct.Struct("<Q")
_END = object()


def _write_frame(pipe: BinaryIO, data: bytes) -> None:
    pipe.write(_LENGTH.pack(len(data)))
    pipe.write(data)
    pipe.flush()


def _read_frame(pipe: BinaryIO) -> Optional[bytes]:
    """The next frame, or None where the stream ends, even inside a frame.
    The length prefix lets the reader take a whole one with two read(n)."""
    head = pipe.read(_LENGTH.size)
    if len(head) != _LENGTH.size:
        return None
    size = _LENGTH.unpack(head)[0]
    data = pipe.read(size)
    return data if len(data) == size else None


class Child:
    """A forked process running one produce(); pipe is the read end of
    what it sends, and waited the seconds spent waiting for its items."""

    def __init__(self, pid: int, pipe: BinaryIO):
        self.pid = pid
        self.pipe = pipe
        self.waited = 0.0
        self._status: Optional[int] = None

    @classmethod
    def start(cls, produce: Callable[[], Iterable]) -> Optional["Child"]:
        """Fork a child that sends each item produce() yields, which must
        be marshal-able; None where the process cannot fork."""
        if not hasattr(os, "fork"):
            return None
        read_fd, write_fd = os.pipe()
        import fcntl  # present wherever os.fork is
        # F_SETPIPE_SZ is Linux's; above fs/pipe-max-size it fails
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_fd)
            os.close(write_fd)
            return None
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    for item in produce():
                        _write_frame(pipe, marshal.dumps(item))  # waits while the pipe is full
                status = 0
            finally:
                # skip the parent's cleanup and buffered output, whatever happened
                os._exit(status)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"))

    def items(self) -> Iterator:
        """The items the child sent, in order, until the stream ends. Holds
        none of them between two."""
        return iter(self._next_item, _END)

    def _next_item(self):
        t0 = time.perf_counter()
        data = _read_frame(self.pipe)
        self.waited += time.perf_counter() - t0
        return _END if data is None else marshal.loads(data)

    def wait(self) -> int:
        """Close the pipe, reap the child and return its exit code. A child
        still sending gets a broken pipe and leaves."""
        self.pipe.close()
        if self._status is None:
            self._status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self._status

    def kill(self) -> int:
        if self._status is None:
            os.kill(self.pid, signal.SIGKILL)
        return self.wait()
