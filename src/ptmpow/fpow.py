"""The production kernel for F(x)^t = prod_{n>=0} (1 - x^(2^n))^t at an
integer t: the values f_n(t), so t_m(n) = f_n(m) and b_m(n) = f_n(-m).

Both routes run the halving identity F(x)^t = (1-x)^t F(x^2)^t.
`fpow_prefix` gives the exact values as Python integers; `fpow_residues`
gives them mod 2^64 as a numpy uint64 array.  This module imports only the
standard library (numpy is imported inside `fpow_residues`), so a process
that needs only values pays for nothing else.
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


# t -> [f_0(t), ..., f_k(t)] mod 2^64 as a read-only numpy uint64 array
_fpow_res: dict = {}


def fpow_residues(t: int, n: int):
    """[f_0(t), ..., f_k(t)] mod 2^64 with k >= n, as a memoised read-only
    numpy uint64 array, or None when numpy cannot be imported.

    The same identity as `fpow_prefix`, F(x)^t = (1-x)^t F(x^2)^t, in
    wrapping uint64 arithmetic: each level upsamples the prefix to at most
    twice its length, then applies t first differences (t > 0) or |t|
    running sums (t < 0, in place).  The last level stops at exactly n + 1
    entries; for t > 0 all levels share two buffers of that length.  numpy
    is imported here, not at module import, so the CLI starts without it.
    """
    try:
        import numpy as np
    except ImportError:
        return None
    res = _fpow_res.get(t)
    if res is not None and n < len(res):
        return res
    if res is None:
        res = np.ones(1, dtype=np.uint64)
    if t > 0:
        # the levels alternate between two buffers of the final length: a
        # level is upsampled into the one that does not hold the last, and
        # each pass writes its differences into the other and swaps, since
        # numpy copies an overlapping operand of an in-place subtract
        free, other = np.empty(n + 1, dtype=np.uint64), np.empty(n + 1, dtype=np.uint64)
    while len(res) <= n:
        size = min(2 * len(res), n + 1)
        if t > 0:
            level, spare = free[:size], other[:size]
            level[1::2] = 0
        else:
            level = np.zeros(size, dtype=np.uint64)
        level[::2] = res[: (size + 1) // 2]
        for _ in range(t):
            spare[0] = level[0]
            np.subtract(level[1:], level[:-1], out=spare[1:])
            level, spare = spare, level
        for _ in range(-t):
            np.cumsum(level, out=level)
        res = level
        if t > 0 and res.base is free:
            free, other = other, free
    res.flags.writeable = False
    _fpow_res[t] = res
    return res
