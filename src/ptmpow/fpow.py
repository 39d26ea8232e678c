"""The production kernel for F(x)^t = prod_{n>=0} (1 - x^(2^n))^t at an
integer t: the values f_n(t), so t_m(n) = f_n(m) and b_m(n) = f_n(-m).

Every route runs the halving identity F(x)^t = (1-x)^t F(x^2)^t.
`fpow_at` reads one value and `fpow_prefix` a prefix, as Python integers;
`fpow_residues` gives the prefix mod 2^64 as a numpy uint64 array, and,
for t < 0, `fpow_doubles` as doubles from the same blocks: every pass then
adds nonnegative terms, so the doubles keep the relative-error bound of
`fpow_doubles_eps`, which counts those blocks.  A request holds one array,
its result, plus one _CHUNK-entry block of scratch, and the campaigns'
checks walk it in _CHUNK slices.  `fpow_stream` walks f_0..f_n in order:
in a session as slices of the kept array, and inside `arrays_unkept()`
from residues it requests to n // 2, continuing the kernel's own carries
into one buffer as the blocks are read, so a check that reads its kernel
in order holds only half the array.

A session keeps every prefix and array it builds, since it re-reads them
across campaigns.  Inside `arrays_unkept()`, which `ptmpow verify` enters
around its one campaign, the arrays are not kept and the exact prefixes
are kept one t at a time, so a runner that drops each before its next
request holds one at a time; `arrays_kept()` tells the campaigns which
scope they run in.  This module imports only the standard library (numpy
is imported inside the array routes), so a process that needs only values
pays for nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate, chain
from operator import sub

# values of F(x)^t at integer t: t -> [f_0(t), f_1(t), ...] and t -> the
# |t| per-pass carries that let the next block continue where the last ended
_fpow_vals: dict[int, list[int]] = {}
_fpow_carries: dict[int, list[int]] = {}
_FPOW_BLOCK = 4096


def fpow_prefix(t: int, n: int) -> list[int]:
    """[f_0(t), ..., f_k(t)] with k >= n: the coefficients of F(x)^t for any
    integer t, so t_m(n) = f_n(m) and b_m(n) = f_n(-m).

    F(x)^t = (1-x)^t F(x^2)^t, so the coefficients at indices [lo, hi) are the
    upsampled prefix (f_{i/2}(t) at even i, 0 at odd i) after t first
    differences (t > 0) or |t| running sums (t < 0).  Blocks need only
    indices below hi/2 <= lo, and each pass keeps one carry, so growth
    appends blocks of at most _FPOW_BLOCK indices, the last one cut at
    n + 1, and never rebuilds.

    The returned list is the memo itself, shared by every caller: treat it
    as read-only.  Indices are >= 0; a negative index would wrap silently.
    Inside `arrays_unkept()` a request for a t the memo lacks first drops
    the prefix of every other t built in the scope, so the scope holds one
    prefix besides those kept before it; a caller keeps reading a list it
    still holds, and a later request for its t builds that prefix again.
    """
    vals = _fpow_vals.get(t)
    if vals is not None and n < len(vals):
        return vals
    if vals is None:
        if not _keep_arrays:
            _drop_prefixes_built_in_scope()
        # f_0(t) = 1, and index 0 holds 1 before and after every pass
        vals = _fpow_vals[t] = [1]
        _fpow_carries[t] = [1] * abs(t)
    carries = _fpow_carries[t]
    while len(vals) <= n:
        lo = len(vals)
        hi = min(lo + min(lo, _FPOW_BLOCK), n + 1)
        block = [0] * (hi - lo)
        block[lo & 1 :: 2] = vals[(lo + 1) // 2 : (hi + 1) // 2]
        for p, c in enumerate(carries):
            if t > 0:
                carries[p] = block[-1]
                block = list(map(sub, block, chain((c,), block)))
            else:
                block = list(accumulate(block, initial=c))
                del block[0]
                carries[p] = block[-1]
        vals += block
    return vals


def fpow_at(t: int, n: int) -> int:
    """f_n(t) for any integer t, and 0 for n < 0: t_m(n) = fpow_at(m, n),
    b_m(n) = fpow_at(-m, n), and f_n(0) = [n == 0]."""
    return fpow_prefix(t, n)[n] if n >= 0 else 0


# (t, dtype) -> ([f_0(t), ..., f_k(t)] as a read-only numpy array of dtype,
# the |t| per-pass carries as an array of dtype); `_blocks` stores what it
# builds only while _keep_arrays is set
_fpow_res: dict = {}
_keep_arrays = True
# the t whose exact prefixes were kept when `arrays_unkept()` was entered
_prefixes_before: frozenset = frozenset()


def _drop_prefixes_built_in_scope():
    for t in _fpow_vals.keys() - _prefixes_before:
        del _fpow_vals[t], _fpow_carries[t]


@contextmanager
def arrays_unkept():
    """A scope for a process that reads each kernel request once, as
    `ptmpow verify` does: `fpow_residues` and `fpow_doubles` store no array
    they build, so a request returns an array its caller alone holds, freed
    when the caller drops it, and `fpow_prefix` keeps the prefix of one t
    built in the scope, dropping the other one when it builds a new one and
    the last one when the scope ends.  An array or prefix stored before the
    scope is still read, and kept.  A campaign's parts request one t at a
    time, and `_turan_signs` grows the settling prefix of its one t chunk
    by chunk, so the scope holds one array or one exact prefix at a time.
    `fpow_stream` requests its residues only to half the range it
    streams and builds the rest as it is read, in quarter blocks.
    A session that re-reads its requests across campaigns keeps every one
    of them."""
    global _keep_arrays, _prefixes_before
    kept, before = _keep_arrays, _prefixes_before
    _keep_arrays, _prefixes_before = False, frozenset(_fpow_vals)
    try:
        yield
    finally:
        _drop_prefixes_built_in_scope()
        _keep_arrays, _prefixes_before = kept, before


def arrays_kept() -> bool:
    """False inside `arrays_unkept()`: the process runs one campaign, which
    pays alone for whatever it imports, and True in a session."""
    return _keep_arrays


# entries per block of `fpow_residues` and per slice of the campaigns'
# whole-array checks, so that a kernel request or a check holds its arrays
# plus scratch of about this length.  Best of 5 (Python 3.11, numpy 2.4,
# 4 MiB L2): fpow_residues(9, 2^22 - 1) took 94, 63, 50, 44 and 42 ms with
# blocks of 2^12 .. 2^16 entries, against 81 ms for whole levels, since a
# block's t passes run in cache and each pass costs a few numpy calls.  At
# 2^15 a check's 256 KiB temporaries made glibc hand the freed heap top back
# to the system after each slice, and a verify-warm pass took 4.9k page
# faults (1.1k with whole-array checks); at 2^14 it took 0 to 16.
_CHUNK = 1 << 14


def chunks(size: int, per: int = 1):
    """(lo, hi) pairs that cover range(size) in order, each at most
    _CHUNK // per long: a check that reads `per` entries per index walks
    _CHUNK entries at a time."""
    step = max(_CHUNK // per, 1)
    return ((lo, min(lo + step, size)) for lo in range(0, size, step))


def fpow_residues(t: int, n: int):
    """[f_0(t), ..., f_k(t)] mod 2^64 with k >= n, as a read-only numpy
    uint64 array (ImportError without numpy), memoised outside
    `arrays_unkept()`.

    The blocks of `fpow_prefix` in wrapping uint64 arithmetic: the block
    [lo, hi), hi <= 2 lo, is the upsampled prefix, written straight into the
    result, after t first differences (t > 0) or |t| running sums (t < 0),
    each pass in place with one carry.  Blocks hold at most _CHUNK entries,
    so every pass of a block runs in cache, and each index is computed once.
    A request allocates only its result, exactly n + 1 entries, and copies
    the memo into it when it grows one; the overlapping operand of a
    difference is the only other copy, one block long.  Outside
    `arrays_unkept()` the memo keeps the result, so a session holds every
    array it built; inside, the caller's reference is the only one.  numpy
    is imported by the call, not at module import, so the CLI starts
    without it.
    """
    return _blocks(t, n, "uint64")[0]


# the unit roundoff of a double, in the error bounds of `fpow_doubles_eps`
# and of the campaigns' Turán signs
UNIT_ROUNDOFF = 2.0**-53


def fpow_doubles(t: int, n: int):
    """[f_0(t), ..., f_k(t)] for t < 0 and k >= n, as a read-only float64
    array: the blocks of `fpow_residues` run in doubles, memoised as those
    are but apart, each double within a relative `fpow_doubles_eps(t, n)`
    of its value (inf past 2^1024).  The request is taken up to the end of
    the block that holds n (powers of two up to 2 _CHUNK, then multiples of
    _CHUNK), so the memo only ever grows by whole blocks and holds the
    blocks of one fresh build, which `fpow_doubles_eps` counts."""
    import numpy as np

    if t >= 0:
        raise ValueError(f"fpow_doubles takes t < 0, where every pass adds "
                         f"nonnegative terms; got t = {t}")
    end = min(1 << n.bit_length(), -(-(n + 1) // _CHUNK) * _CHUNK)
    with np.errstate(over="ignore"):  # past 2^1024 a double is inf
        return _blocks(t, end - 1, "float64")[0]


def fpow_doubles_eps(t: int, n: int) -> float:
    """A relative-error bound for every double of f_0(t), ..., f_n(t) from
    `fpow_doubles`, t < 0, memoised per (t, n, _CHUNK).

    The blocks build the indices [2^j, 2^(j+1)) of level j + 1 from the
    upsampled values below 2^j, min(2^j, _CHUNK) entries each, by |t|
    passes of an in-place cumsum plus one carry.  Within a pass a term
    reaches an index through the cumsum chain of its own block, at most one
    block long, and one carry add per later block: k = longest block +
    blocks up to the index + 1 roundings bound it.  Every term is
    nonnegative, so a pass keeps its inputs' relative error e and adds at
    most gamma_k = k u / (1 - k u), u = UNIT_ROUNDOFF:
    e <- (1 + e)(1 + gamma_k)^|t| - 1 per level, from 0 at f_0 = 1.  At
    t = -3..-6 this is 2^-35.4 .. 2^-33.8 from 2^16 to 2^19."""
    return _doubles_eps(t, n, _CHUNK)


@lru_cache
def _doubles_eps(t, n, chunk):
    u = UNIT_ROUNDOFF
    eps, blocks = 0.0, 0
    for j in range(n.bit_length()):
        longest = min(1 << j, chunk)
        # the blocks of level j + 1 up to index n
        blocks += (min(n, (2 << j) - 1) - (1 << j)) // longest + 1
        k = longest + blocks + 1
        eps = (1 + eps) * (1 + k * u / (1 - k * u)) ** -t - 1
    return eps


def _blocks(t: int, n: int, dtype: str):
    """The block loop of `fpow_residues` and `fpow_doubles` in `dtype`, with
    its memo, which it grows only outside `arrays_unkept()`: the array of
    f_0(t), ..., f_k(t), k >= n, and the |t| carries it ended with, which
    are the memo's own when it kept them."""
    import numpy as np

    memo = _fpow_res.get((t, dtype))
    if memo is not None and n < len(memo[0]):
        return memo
    # f_0(t) = 1, and index 0 holds 1 before and after every pass
    done, carry = memo or (np.ones(1, dtype), np.ones(abs(t), dtype))
    res = np.empty(n + 1, dtype)
    res[: len(done)] = done
    carry = carry.copy()
    lo = len(done)
    while lo <= n:
        hi = min(lo + min(lo, _CHUNK), n + 1)
        _fill(res[lo:hi], lo, res, carry, t)
        lo = hi
    res.flags.writeable = False
    if _keep_arrays:
        _fpow_res[t, dtype] = res, carry
    return res, carry


def _fill(block, lo, src, carry, t):
    """Write f_lo(t), f_(lo+1)(t), ... into `block`, one block of the loop
    of `_blocks` in the dtype of `block` and `carry`: the upsampled values
    of `src`, which holds f_i(t) at every i below (lo + len(block) + 1) // 2,
    after t first differences (t > 0) or |t| running sums (t < 0), each pass
    in place with one carry, which it advances."""
    import numpy as np

    hi = lo + len(block)
    block[lo & 1 :: 2] = src[(lo + 1) // 2 : (hi + 1) // 2]
    block[1 - (lo & 1) :: 2] = 0
    for p in range(t):
        last = block[-1]
        # numpy copies the overlapping operand, one block long
        np.subtract(block[1:], block[:-1], out=block[1:])
        block[:1] -= carry[p : p + 1]
        carry[p] = last
    for p in range(-t):
        np.cumsum(block, out=block)
        block += carry[p]
        carry[p] = block[-1]


def fpow_stream(t: int, n: int, k: int | None = None):
    """(prefix, blocks): `prefix` the residues of f_0(t), f_1(t), ... as
    `fpow_residues` returns them, at least to index k (default n // 2, and
    k < n // 2 raises ValueError), and `blocks` (lo, block) pairs that cover
    f_0(t), ..., f_n(t) mod 2^64 in order, each block a read-only uint64
    array starting at index lo.  In a session the prefix also reaches n, so
    every block is a slice of the kept array.  Inside `arrays_unkept()` the
    request ends at k, and `_fill` builds the blocks above the prefix _CHUNK
    entries at a time into one reused buffer, continuing from a copy of the
    carries the kernel ended the prefix with: such a block is valid only
    until the next is drawn, and a caller that reads each as it comes holds
    the prefix and one buffer.

    Blocks hold _CHUNK entries in a session and a quarter of that inside
    `arrays_unkept()`, each side measured against the other (Python 3.11,
    numpy 2.4, 2 cores).  A check holds a few temporaries as long as its
    block, and a verify process holds little else besides the prefix: at
    2^14 entries (128 KiB) they are served from glibc's heap, which keeps
    its high-water mark, and `verify t2-symmetry --bound 262144` peaked at
    31.2 MiB against 30.5 MiB with quarter blocks, `verify t9-valuation
    --bound 65536` at 31.0 against 30.8 (medians of 9 fresh processes
    each).  A session keeps its arrays, so the temporaries add nothing to
    its peak, and whole blocks take a quarter of the numpy calls: a
    verify-warm pass of `perfbench/run.py` took 0.0173 s against 0.0195 s
    with quarter blocks (medians of 10 alternating pairs, lower in 10)."""
    k = n // 2 if k is None else k
    if k < n // 2:
        raise ValueError(f"fpow_stream to {n} needs a prefix to {n // 2}, got one to {k}")
    prefix, carry = _blocks(t, max(n, k) if _keep_arrays else k, "uint64")
    return prefix, _stream(t, n, prefix, carry.copy())


def _stream(t, n, prefix, carry):
    """The blocks of `fpow_stream`, which advance `carry`."""
    import numpy as np

    per = 1 if _keep_arrays else 4
    top = min(len(prefix), n + 1)
    for lo, hi in chunks(top, per):
        yield lo, prefix[lo:hi]
    buf = np.empty(min(_CHUNK, n + 1 - top), np.uint64)
    for lo, hi in chunks(n + 1 - top):
        block = buf[: hi - lo]
        _fill(block, top + lo, prefix, carry, t)
        block.flags.writeable = False
        for at, end in chunks(hi - lo, per):
            yield top + lo + at, block[at:end]
