"""Whole-file writes that never leave a partly written file behind, and the
record layout of dataset and checkpoint files: one compact JSON header
object (no newline in it), a newline, then a binary blob.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["write_atomic", "write_record", "read_record"]


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


def write_record(path: str | Path, header: dict, blob: bytes) -> None:
    """Write `header` as one compact JSON line, then `blob`, in one
    `write_atomic` call. An unencodable header raises before any write."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    try:
        write_atomic(path, head + b"\n" + blob)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_record(path: str | Path, version: int, fields: tuple[str, ...]) -> tuple[dict, bytes]:
    """Read a file that `write_record` wrote -> (header, blob). A first line
    that is not a JSON object whose field 'version' is `version` raises a
    `ValueError` that names the file, line 1 and the header `fields`."""
    path = Path(path)
    head, _, blob = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{path} line 1: header is not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(
            f"{path} line 1: header is a JSON {type(header).__name__}, expected an object "
            f"with fields {', '.join(map(repr, fields))}"
        )
    if header.get("version") != version:
        raise ValueError(
            f"{path} line 1: field 'version' is {header.get('version')!r}, "
            f"this build reads version {version} only"
        )
    return header, blob
