"""Named counter-based RNG streams.

Every random draw in the package comes from a stream addressed by a tuple of
ids (ints and strings), hashed into a Philox key. Streams are stateless to
construct, so results never depend on draw ordering or on which other streams
are drawn from: the same name always yields the same sequence.

`stream()` costs 15-25 us a call (numpy 2.4, a 2-vCPU x86-64 host), most
of it in numpy's `Philox` constructor, which builds a `SeedSequence` from
fresh OS entropy even when it is given a key, although a keyed Philox
never reads it. So a block of streams that differ only in their last id,
such as one stream per time step of an unroll, goes through
`stream_uniforms`, which re-keys one private Philox per stream and draws
the same bits as `stream(...).random(k)`; `numcore.dists.gumbel_block`
turns such a block into Gumbel noise.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "stream_key", "stream_uniforms"]


def _absorb(h, ids) -> None:
    """Feed a tuple of ids into the hash `h`, each tagged by its type."""
    for x in ids:
        if isinstance(x, (bool, np.bool_)):
            raise TypeError("bool stream ids are ambiguous; use int or str")
        if isinstance(x, (int, np.integer)):
            h.update(b"i" + int(x).to_bytes(16, "little", signed=True))
        elif isinstance(x, str):
            h.update(b"s" + x.encode("utf-8") + b"\x00")
        else:
            raise TypeError(f"stream ids must be int or str, got {type(x).__name__}")


def stream_key(*ids) -> int:
    """128-bit key derived from a tuple of ints/strings, stable across runs."""
    h = hashlib.blake2s(digest_size=16)
    _absorb(h, ids)
    return int.from_bytes(h.digest(), "little")


def _stream_keys(prefix: tuple, last_ids) -> list[int]:
    """`stream_key(*prefix, x)` for each x of `last_ids`, hashing the shared
    prefix once and copying the hash state per id."""
    base = hashlib.blake2s(digest_size=16)
    _absorb(base, prefix)
    keys = []
    for x in last_ids:
        h = base.copy()
        _absorb(h, (x,))
        keys.append(int.from_bytes(h.digest(), "little"))
    return keys


def stream(*ids) -> np.random.Generator:
    """Fresh generator for the named stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(*ids)))


def stream_uniforms(prefix: tuple, last_ids, k: int) -> np.ndarray:
    """(n, k) uniforms, row r the first k `random()` draws of stream
    (*prefix, last_ids[r]), as `stream(*prefix, last_ids[r]).random(k)`
    gives them.

    One private Philox is re-keyed per stream (the same `stream_key`, a zero
    counter and an empty buffer) instead of building a generator for each
    (see the module docstring).
    """
    keys = _stream_keys(prefix, last_ids)
    out = np.empty((len(keys), k))
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    state = bits.state  # a fresh generator's: zero counter, empty buffer
    for r, key in enumerate(keys):
        state["state"]["key"] = np.array([key & (2**64 - 1), key >> 64], dtype=np.uint64)
        bits.state = state
        gen.random(out=out[r])
    return out
