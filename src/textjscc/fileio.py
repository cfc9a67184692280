"""The one way the toolkit writes a file, and reads a whole text file or table.

Every text file is written by write_csv (the tables) or write_lines (one
record per line, and the sweep JSON), both through write_atomic.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager, suppress
from typing import Iterable, Sequence

from .errors import IoError


@contextmanager
def write_atomic(path: str, binary: bool = False):
    """Yield a file open for writing at path + ".tmp" and rename it over
    path when the block completes, so readers never see a partial file.

    The parent directory is created if missing.  Any OSError, from the
    directory, the write or the rename, becomes IoError, and no temporary
    file outlives a failure.  Text files are UTF-8, without newline
    translation.
    """
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):  # already renamed away on success
            os.remove(tmp)


def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    """A header row, then one row per sequence, by csv.writer: each field is
    its str(), the shortest round-trip form for a float, and lines end in CRLF."""
    with write_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Each string followed by a newline."""
    with write_atomic(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of path.  An OSError or bytes that are not UTF-8
    become IoError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def read_csv(path: str, what: str) -> list[list[str]]:
    """The rows of the table at path, each a list of strings; IoError as read_text."""
    return list(csv.reader(io.StringIO(read_text(path, what))))
