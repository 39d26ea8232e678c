"""Human-auditable sequence cache files.

Format: one header line `ptmpow v1 <family> <m> <count> <crc32-of-body>`,
then `count` newline-terminated decimal values.  The crc32 (zlib, hex) is
taken over the body bytes, so corruption anywhere is caught on load.

Both directions stream, so neither holds the body's text whole (a b_m body
is about 1.3 times its values as ints): cache_store formats and writes
TEXT_BATCH values at a time and fills in the header's fixed-width crc once
the body is written, and cache_load checks and parses about 256 KiB of lines
at a time.
"""

from __future__ import annotations

import zlib

from . import TEXT_BATCH

_MAGIC = "ptmpow"
_VERSION = "v1"
_READ_HINT = 1 << 18  # bytes of whole lines per read of cache_load


class CacheError(ValueError):
    """Raised on version, structure, or checksum mismatch."""


def _body_batches(values: list[int]):
    for at in range(0, len(values), TEXT_BATCH):
        yield "".join(f"{v}\n" for v in values[at : at + TEXT_BATCH]).encode()


def cache_store(family: str, m: int, values: list[int], path: str) -> None:
    head = f"{_MAGIC} {_VERSION} {family} {m} {len(values)} "
    with open(path, "wb") as fh:
        seekable = fh.seekable()
        crc = 0
        if not seekable:
            # a pipe cannot take the crc afterwards: a first pass finds it
            for batch in _body_batches(values):
                crc = zlib.crc32(batch, crc)
        fh.write(f"{head}{crc:08x}\n".encode())
        crc = 0
        for batch in _body_batches(values):
            fh.write(batch)
            crc = zlib.crc32(batch, crc)
        if seekable:
            fh.seek(len(head))
            fh.write(f"{crc:08x}".encode())


def cache_load(path: str) -> tuple[str, int, list[int]]:
    with open(path, "rb") as fh:
        parts = fh.readline().decode().split()
        if len(parts) != 6 or parts[0] != _MAGIC:
            raise CacheError(f"not a {_MAGIC} cache file: {path}")
        if parts[1] != _VERSION:
            raise CacheError(f"unsupported cache version {parts[1]}")
        family, m, count, crc_hex = parts[2], int(parts[3]), int(parts[4]), parts[5]
        crc, values, parsed = 0, [], True
        while lines := fh.readlines(_READ_HINT):
            crc = zlib.crc32(b"".join(lines), crc)
            if parsed:
                try:
                    values.extend(map(int, lines))
                except ValueError:
                    # reported after the checksum, which names corruption
                    parsed = False
    if crc != int(crc_hex, 16):
        raise CacheError(f"checksum mismatch in {path}")
    if not parsed:
        raise CacheError(f"a body line of {path} is not an integer")
    if len(values) != count:
        raise CacheError(f"count mismatch in {path}: header {count}, body {len(values)}")
    return family, m, values
