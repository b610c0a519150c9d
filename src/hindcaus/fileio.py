"""Whole-file writes that never leave a partly written file behind, and the
record layout of dataset and checkpoint files: one compact JSON header
object (no newline in it), a newline, then a binary payload.

Neither direction copies the payload. `write_record` hands the header and
the caller's arrays to one `write_atomic` call, which writes each buffer as
it is; the file holds the same bytes as `head + b"\\n" + b"".join(blocks)`.
`read_record` reads the header line, then reads the rest of the file
straight into one new byte array, which the loaders view as their arrays.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = ["write_atomic", "write_record", "read_record"]


def write_atomic(path: str | Path, *chunks) -> None:
    """Write the buffers `chunks` (bytes, or C-contiguous arrays), one after
    the other, to `path` through a temporary file in the same directory and
    `os.replace`, so `path` holds either its old bytes or all of them.

    This guards against a write cut off inside the process (an exception, a
    kill). There is no fsync, so it does not promise durability across a
    power loss. The temporary file is removed if the write fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_record(path: str | Path, header: dict, blocks) -> None:
    """Write `header` as one compact JSON line, then the buffers `blocks` in
    order, in one `write_atomic` call. An unencodable header raises before
    any write."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    try:
        write_atomic(path, head, *blocks)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_record(
    path: str | Path, version: int, fields: tuple[str, ...]
) -> tuple[dict, np.ndarray]:
    """Read a file that `write_record` wrote -> (header, payload), the
    payload a new writable uint8 array of every byte after the header line.
    A first line that is not a JSON object whose field 'version' is
    `version` raises a `ValueError` that names the file, line 1 and the
    header `fields`; the payload is not read then."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.readline().removesuffix(b"\n")
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
        payload = np.empty(os.fstat(fh.fileno()).st_size - fh.tell(), dtype=np.uint8)
        got = fh.readinto(payload)
    return header, payload[:got]
