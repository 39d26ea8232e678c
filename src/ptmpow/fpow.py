"""The production kernel for F(x)^t = prod_{n>=0} (1 - x^(2^n))^t at an
integer t: the values f_n(t), so t_m(n) = f_n(m) and b_m(n) = f_n(-m).

Both routes run the halving identity F(x)^t = (1-x)^t F(x^2)^t.
`fpow_prefix` gives the exact values as Python integers; `fpow_residues`
gives them mod 2^64 as a numpy uint64 array, or, for t < 0, as doubles
from the same blocks: every pass then adds nonnegative terms, so the
doubles keep the relative-error bound of `campaigns._kernel_eps`.  A
request holds one array, its result, plus one _CHUNK-entry block of
scratch, and the campaigns' checks walk it in _CHUNK slices.  This module
imports only the standard library (numpy is imported inside
`fpow_residues`), so a process that needs only values pays for nothing
else.
"""

from __future__ import annotations

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
    """
    vals = _fpow_vals.get(t)
    if vals is not None and n < len(vals):
        return vals
    if vals is None:
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


# (t, dtype) -> ([f_0(t), ..., f_k(t)] as a read-only numpy array of dtype,
# the |t| per-pass carries as an array of dtype)
_fpow_res: dict = {}

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


def fpow_residues(t: int, n: int, dtype: str = "uint64"):
    """[f_0(t), ..., f_k(t)] mod 2^64 with k >= n, as a memoised read-only
    numpy uint64 array (ImportError without numpy).  With dtype "float64"
    and t < 0, the same loop in doubles, memoised apart.

    The blocks of `fpow_prefix` in wrapping uint64 arithmetic: the block
    [lo, hi), hi <= 2 lo, is the upsampled prefix, written straight into the
    result, after t first differences (t > 0) or |t| running sums (t < 0),
    each pass in place with one carry.  Blocks hold at most _CHUNK entries,
    so every pass of a block runs in cache, and each index is computed once.
    A request allocates only its result, exactly n + 1 entries, and copies
    the memo into it when it grows one; the overlapping operand of a
    difference is the only other copy, one block long.  numpy is imported
    here, not at module import, so the CLI starts without it.
    """
    import numpy as np

    memo = _fpow_res.get((t, dtype))
    if memo is not None and n < len(memo[0]):
        return memo[0]
    # f_0(t) = 1, and index 0 holds 1 before and after every pass
    done, carry = memo or (np.ones(1, dtype), np.ones(abs(t), dtype))
    res = np.empty(n + 1, dtype)
    res[: len(done)] = done
    carry = carry.copy()
    lo = len(done)
    while lo <= n:
        hi = min(lo + min(lo, _CHUNK), n + 1)
        block = res[lo:hi]
        block[lo & 1 :: 2] = res[(lo + 1) // 2 : (hi + 1) // 2]
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
        lo = hi
    res.flags.writeable = False
    _fpow_res[t, dtype] = res, carry
    return res
