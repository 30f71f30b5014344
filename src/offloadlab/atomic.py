"""Atomic text-file writes shared by every file the package produces."""

from __future__ import annotations

import os


def write_atomic(path, write) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then move it onto
    ``path``: a failed write leaves any existing file untouched."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
