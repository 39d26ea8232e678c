"""Human-auditable sequence cache files.

Format: one header line `ptmpow v1 <family> <m> <count> <crc32-of-body>`,
then `count` newline-terminated decimal values.  The crc32 (zlib, hex) is
taken over the body bytes, so corruption anywhere is caught on load.
"""

from __future__ import annotations

import zlib

_MAGIC = "ptmpow"
_VERSION = "v1"


class CacheError(ValueError):
    """Raised on version, structure, or checksum mismatch."""


def cache_store(family: str, m: int, values: list[int], path: str) -> None:
    body = "".join(f"{v}\n" for v in values).encode()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = f"{_MAGIC} {_VERSION} {family} {m} {len(values)} {crc:08x}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(body)


def cache_load(path: str) -> tuple[str, int, list[int]]:
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        body = fh.read()
    parts = header.split()
    if len(parts) != 6 or parts[0] != _MAGIC:
        raise CacheError(f"not a {_MAGIC} cache file: {path}")
    if parts[1] != _VERSION:
        raise CacheError(f"unsupported cache version {parts[1]}")
    family, m, count, crc_hex = parts[2], int(parts[3]), int(parts[4]), parts[5]
    if zlib.crc32(body) & 0xFFFFFFFF != int(crc_hex, 16):
        raise CacheError(f"checksum mismatch in {path}")
    values = [int(line) for line in body.decode().splitlines()]
    if len(values) != count:
        raise CacheError(f"count mismatch in {path}: header {count}, body {len(values)}")
    return family, m, values
