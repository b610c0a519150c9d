"""Whole-file writes that never leave a partly written file behind, and the
one array-record layout that dataset and checkpoint files share.

A record file is one compact JSON header object (no newline in it), a
newline, then the payload: each array's values in the record's dtype,
little-endian, in C order, one array after the other. The header holds the
caller's fields (among them 'version'), then two that this module adds:
  - "sha256": the hex sha256 digest of the payload;
  - "arrays": [[name, shape], ...], one entry per array, in payload order.
So the file holds the bytes `head + b"\\n" + b"".join(blocks)`.

Neither direction copies the payload. `write_arrays` hashes each array's
buffer in turn, then hands the header and those buffers, as they are, to one
`write_atomic` call. `read_arrays` reads the header line and checks, in
order: that it is a JSON object with the expected 'version'; that 'arrays'
holds [string, list of integers >= 0] entries with unique names; that
'sha256' is a string; the payload's size; and its digest. It reads the
payload straight into one new array, and every array it returns is a
writable native view of it. A refusal is a `ValueError` naming the file and
the field.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import accumulate
from pathlib import Path

import numpy as np

from .numcore.checks import _is_count

__all__ = ["write_atomic", "write_arrays", "read_arrays"]


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


def write_arrays(path: str | Path, header: dict, arrays: dict[str, np.ndarray], dtype: str) -> None:
    """Write the record of `header` and `arrays` (name -> array, in payload
    order, each stored as `dtype`) in one `write_atomic` call. An array that
    is already C-contiguous `dtype` is written as it is; an unencodable
    header raises before any write."""
    blocks = [np.asarray(a, dtype=dtype, order="C") for a in arrays.values()]
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    header = {
        **header,
        "sha256": digest.hexdigest(),
        "arrays": [[name, list(block.shape)] for name, block in zip(arrays, blocks)],
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    try:
        write_atomic(path, head, *blocks)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_arrays(
    path: str | Path, version: int, fields: tuple[str, ...], dtype: str
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a record that `write_arrays` wrote with `dtype` -> (header,
    arrays), checked as the module docstring says. `fields` are the caller's
    header fields, named when the header is not an object."""
    path = Path(path)
    where = f"{path} line 1:"
    with path.open("rb") as fh:
        head = fh.readline().removesuffix(b"\n")
        try:
            header = json.loads(head)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{where} header is not valid JSON ({exc})") from None
        if not isinstance(header, dict):
            raise ValueError(
                f"{where} header is a JSON {type(header).__name__}, expected an object "
                f"with fields {', '.join(map(repr, (*fields, 'sha256', 'arrays')))}"
            )
        if header.get("version") != version:
            raise ValueError(
                f"{where} field 'version' is {header.get('version')!r}, "
                f"this build reads version {version} only"
            )
        entries = header.get("arrays")
        if not isinstance(entries, list):
            raise ValueError(f"{where} field 'arrays' is {entries!r}, expected a list")
        entry_of: dict[str, int] = {}
        for k, e in enumerate(entries):
            name, shape = e if isinstance(e, list) and len(e) == 2 else (None, None)
            if not (isinstance(name, str) and isinstance(shape, list) and all(map(_is_count, shape))):
                raise ValueError(
                    f"{where} field 'arrays': entry {k} is {e!r}, expected a [name, shape] pair "
                    "of a string and a list of integers >= 0"
                )
            if entry_of.setdefault(name, k) != k:
                raise ValueError(
                    f"{where} field 'arrays': entries {entry_of[name]} and {k} both name {name!r}"
                )
        if not isinstance(header.get("sha256"), str):
            raise ValueError(f"{where} field 'sha256' is {header.get('sha256')!r}, expected a string")
        payload = np.empty(os.fstat(fh.fileno()).st_size - fh.tell(), dtype=np.uint8)
        payload = payload[: fh.readinto(payload)]
    dtype = np.dtype(dtype)
    ends = list(accumulate((math.prod(shape) for _, shape in entries), initial=0))
    if payload.size != dtype.itemsize * ends[-1]:
        raise ValueError(
            f"{path}: {payload.size} bytes after the header, expected "
            f"{dtype.itemsize * ends[-1]} for the shapes in field 'arrays'"
        )
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise ValueError(f"{path}: the bytes after the header do not match field 'sha256'")
    values = payload.view(dtype).astype(dtype.type, copy=False)  # a copy on big-endian hosts only
    return header, {
        name: values[start:end].reshape(shape)
        for (name, shape), start, end in zip(entries, ends[:-1], ends[1:])
    }
