"""The one way the toolkit writes a file, and reads a whole text file."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress

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


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of path.  An OSError or bytes that are not UTF-8
    become IoError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
