"""Forked helper processes and the frames they send back.

Child.start runs one function in a forked copy of this process, handing
it the write end of a pipe; the parent reads the other end. The child
leaves through os._exit on every path, 0 when the function returned and
1 when it raised, so it runs none of the parent's cleanup and flushes
none of its buffers. Where os.fork is missing or fails, start returns
None and the caller does the work itself.

A frame is a length-prefixed byte string, so the reader takes a whole
one with two read(n) calls.
"""

from __future__ import annotations

import contextlib
import os
import signal
import struct
from typing import BinaryIO, Callable, Optional

_LENGTH = struct.Struct("<Q")


def write_frame(pipe: BinaryIO, data: bytes) -> None:
    pipe.write(_LENGTH.pack(len(data)))
    pipe.write(data)


def read_frame(pipe: BinaryIO) -> Optional[bytes]:
    """The next frame, or None where the stream ends, even inside a frame."""
    head = pipe.read(_LENGTH.size)
    if len(head) != _LENGTH.size:
        return None
    size = _LENGTH.unpack(head)[0]
    data = pipe.read(size)
    return data if len(data) == size else None


class Child:
    """A forked process working on one function; pipe is the read end of
    what it sends."""

    def __init__(self, pid: int, pipe: BinaryIO):
        self.pid = pid
        self.pipe = pipe
        self._status: Optional[int] = None

    @classmethod
    def start(cls, work: Callable[[BinaryIO], None],
              pipe_bytes: int = 0) -> Optional["Child"]:
        """pipe_bytes, where given and the system allows, is how much the
        pipe holds before a write waits (64 KiB by default on Linux)."""
        if not hasattr(os, "fork"):
            return None
        read_fd, write_fd = os.pipe()
        if pipe_bytes:
            import fcntl
            # F_SETPIPE_SZ is Linux's; above fs/pipe-max-size it fails
            with contextlib.suppress(AttributeError, OSError):
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, pipe_bytes)
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
                    work(pipe)
                status = 0
            finally:
                # skip the parent's cleanup and buffered output, whatever happened
                os._exit(status)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"))

    def running(self) -> bool:
        """False once the child has exited; reaps it then."""
        if self._status is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid == 0:
                return True
            self._status = os.waitstatus_to_exitcode(status)
        return False

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
