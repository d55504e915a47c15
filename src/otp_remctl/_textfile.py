"""The writer of every text file the package writes, UTF-8 with "\n" line
ends on every platform, and the reader of the two read back only if their
writer writes them again: the session log and the corpus's ``.idx`` sidecar."""

import itertools
from pathlib import Path


def read_lines(path) -> list[str]:
    """A file's lines, each byte read as one latin-1 character and split only
    on "\n", so a "\r" or a byte that is not ASCII is left for the write-back
    check; ValueError naming ``path:line`` unless it ends in a newline."""
    lines = Path(path).read_bytes().decode("latin-1").split("\n")
    if lines.pop():
        raise ValueError(f"{path}:{len(lines) + 1}: no newline at the end of the file")
    return lines


def write_lines(path, lines) -> None:
    """Write each line and "\n" as UTF-8 bytes, 4096 lines at a time so
    memory stays bounded: text mode writes "\r\n" on Windows."""
    lines = iter(lines)
    with open(path, "wb") as f:
        while batch := list(itertools.islice(lines, 4096)):
            f.write(("\n".join(batch) + "\n").encode())


def check_written_back(path, read, written, writer: str) -> None:
    """ValueError naming the first ``read`` line of ``path`` that is not the
    ``written`` line at its place, as far as the shorter goes; a loader passes
    the lines before the first it cannot parse, so the first fault is named."""
    for n, (r, w) in enumerate(zip(read, written), start=1):
        if r != w:
            raise ValueError(f"{path}:{n}: not in the form {writer} writes: {w!r}")
