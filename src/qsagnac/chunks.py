"""Write a sweep's output chunks in order, on one process or two.

Where a second CPU is free, a forked child renders the odd chunks and sends
them over a pipe, each as a frame: its byte length as 8 little-endian bytes,
then the UTF-8 text. The first process renders the even chunks, and any odd
chunk the child did not send, and writes every chunk itself, so the output
is the same bytes either way. It is kept out of cli.py, which every
subcommand imports, so that only a sweep loads it.
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


def _send(pipe, text: str) -> None:
    """One frame: the byte length of text, then text itself."""
    data = text.encode()
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe) -> str:
    """The text of the next frame on pipe, or "" once the child sends no
    whole frame: it stopped, or there is none."""
    head = pipe.read(8)
    if len(head) < 8:
        return ""
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data.decode() if len(data) == size else ""


def write_chunks(write, render, count: int, sep: str) -> None:
    """Write the rows 0 to count - 1 in chunks of CHUNK_ROWS: render(i, j)
    gives the text of rows i to j - 1, written after a newline for the first
    chunk and after sep for the others. Where _fork_is_safe, a forked child
    renders the odd chunks; it is at most about a chunk ahead, so memory
    stays bounded, and it never writes to stdout itself. A chunk that no
    child sent, since its fork failed or it stopped, is rendered here."""

    def chunk(k: int) -> str:
        i = k * CHUNK_ROWS
        return ("\n" if k == 0 else sep) + render(i, min(i + CHUNK_ROWS, count))

    chunks = -(-count // CHUNK_ROWS)
    pid = pipe = None
    if _fork_is_safe(chunks):
        read, send = os.pipe()
        parent = os.getpid()
        try:
            pid = os.fork()
            if pid == 0:
                os.close(read)
                with open(send, "wb") as frames:
                    for k in range(1, chunks, 2):
                        _send(frames, chunk(k))
        except OSError:  # no second process to be had: the pipe stays empty
            pass
        finally:
            # The child leaves here, even if interrupted or failed, so it runs
            # no atexit hook, flushes no buffer it inherited and prints no
            # traceback; its status goes unread.
            if os.getpid() != parent:
                os._exit(0)
        os.close(send)
        pipe = open(read, "rb")
    try:
        for k in range(chunks):
            text = _receive(pipe) if k % 2 and pipe is not None else ""
            write(text or chunk(k))
    finally:
        if pipe is not None:
            pipe.close()  # a child still running stops at its next send
        if pid:
            os.waitpid(pid, 0)
