"""Write a sweep's output chunks in order, on one process or two.

Where a second CPU is free, a forked child renders the odd chunks and sends
them over a pipe, each as a frame: its byte length, negative for a failure's
message, as 8 little-endian bytes, then the UTF-8 text. The first process
renders the even chunks and writes every chunk itself, so the output is the
same bytes either way. It is kept out of cli.py, which every subcommand
imports, so that only a sweep loads it.
"""

import os
import sys

# rows per chunk, each rendered and written as one unit (about 100 KB of CSV,
# 200 KB of JSON): with PYTHONUNBUFFERED set, each write is a syscall
CHUNK_ROWS = 1024


def _fork_is_safe(chunks: int) -> bool:
    """Whether a second process can render half of the chunks: there is more
    than one, a second CPU to run it, and no thread that a fork would leave
    behind in the child (Python 3.12+ warns on stderr of such a fork)."""
    threading = sys.modules.get("threading")
    return (
        chunks > 1
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and (threading is None or threading.active_count() == 1)
    )


def _send(pipe, text: str, sign: int) -> None:
    """One frame: the byte length of text times sign, then text itself."""
    data = text.encode()
    pipe.write((sign * len(data)).to_bytes(8, "little", signed=True))
    pipe.write(data)
    pipe.flush()


def _send_chunks(fd: int, chunk, ks) -> int:
    """Send chunk(k) for each k over the pipe fd, one frame each; after a
    failure, send its message in a frame of negative length and return 1."""
    with open(fd, "wb") as pipe:
        try:
            for k in ks:
                _send(pipe, chunk(k), 1)
        except Exception as exc:  # the parent reports it on its stderr
            _send(pipe, str(exc) or repr(exc), -1)
            return 1
    return 0


def _receive(pipe) -> str:
    """The text of the next frame on pipe; a failure's message is raised."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little", signed=True)
    data = pipe.read(abs(size))
    if len(head) < 8 or len(data) < abs(size):
        raise ValueError("the second sweep process stopped before its last chunk")
    if size < 0:
        raise ValueError(data.decode())
    return data.decode()


def write_chunks(write, render, count: int, sep: str) -> None:
    """Write the rows 0 to count - 1 in chunks of CHUNK_ROWS: render(i, j)
    gives the text of rows i to j - 1, written after a newline for the first
    chunk and after sep for the others. Where _fork_is_safe, a forked child
    renders the odd chunks; it is at most about a chunk ahead, so memory
    stays bounded, and it never writes to stdout itself."""

    def chunk(k: int) -> str:
        i = k * CHUNK_ROWS
        return ("\n" if k == 0 else sep) + render(i, min(i + CHUNK_ROWS, count))

    chunks = -(-count // CHUNK_ROWS)
    pid = None
    if _fork_is_safe(chunks):
        read, send = os.pipe()
        parent, status = os.getpid(), 1
        try:
            pid = os.fork()
            if pid == 0:
                os.close(read)
                status = _send_chunks(send, chunk, range(1, chunks, 2))
        except OSError:  # no second process to be had: render every chunk here
            pass
        finally:
            # The child leaves here, even if interrupted, so it runs no atexit
            # hook, flushes no buffer it inherited and prints no traceback.
            if os.getpid() != parent:
                os._exit(status)
        os.close(send)
        if pid is None:
            os.close(read)
    if pid is None:
        for k in range(chunks):
            write(chunk(k))
        return
    try:
        with open(read, "rb") as pipe:
            for k in range(chunks):
                write(_receive(pipe) if k % 2 else chunk(k))
    finally:
        os.waitpid(pid, 0)  # a child still running stops at its next send
