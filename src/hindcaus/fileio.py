"""Whole-file writes that never leave a partly written file behind."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file in the same directory
    and `os.replace`, so `path` holds either its old bytes or all of `data`.

    This guards against a write cut off inside the process (an exception, a
    kill). There is no fsync, so it does not promise durability across a
    power loss. The temporary file is removed if the write fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
