"""The sequences t_m(n) = f_n(m) for m >= 1: closed-form 2-adic valuations,
the zero set of t_3, the value search for t_2, symmetry, extrema, and
inequality sweeps.  The valuation at a zero of t_3 is None, as
`core_arith.nu2_or_none` gives it, so n >= 1 is a zero of t_3 iff
`v2_t3_closed(n) is None`.

Every value comes from `fpow.fpow_prefix(m, n)`, or one at a time from
`fpow.fpow_at(m, n)`: the one production kernel for F(x)^t, which runs the
halving identity F(x)^m = (1-x)^m F(x^2)^m.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core_arith import base4_digits_0136, nu2, nu2_binom
from .fpow import fpow_at, fpow_prefix
from .reports import CheckReport, sweep


# ---------------------------------------------------------------------------
# parity and 2-adic valuations


def check_parity_t(m: int, n_max: int) -> CheckReport:
    """t_m(n) == C(n+m-1, m-1) (mod 2) for all n <= n_max."""
    vals = fpow_prefix(m, n_max)
    return sweep(f"parity-t m={m}", ({"m": m, "n": n, "value": vals[n]}
                                     if (vals[n] - math.comb(n + m - 1, m - 1)) % 2 else None
                                     for n in range(n_max + 1)))


def v2_t2k_closed(k: int, n: int) -> int:
    """nu2(t_{2^k}(n)) in closed form: nu2(C(n + 2^k - 1, 2^k - 1)),
    computed via Legendre's formula.  Always finite."""
    return nu2_binom(n + (1 << k) - 1, (1 << k) - 1)


def v2_t3_closed(n: int) -> int | None:
    """nu2(t_3(n)) from the base-4 digit expansion over {0,1,3,6}:
    None (t_3(n) = 0) iff the leading digit is 2 and all lower digits lie in
    {3,6}; otherwise 3k where k is the length of the maximal {3,6} prefix."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    digits = base4_digits_0136(n)
    prefix = 0
    for d in digits:
        if d in (3, 6):
            prefix += 1
        else:
            break
    if digits[-1] == 2 and prefix == len(digits) - 1:
        return None
    return 3 * prefix


def t3_zero_seq(count: int) -> list[int]:
    """The first `count` zeros of t_3 in increasing order.  Level L of
    t3_zero_set_upto's map lies in [3 4^L - 1, 4^(L+1) - 2], so levels never
    interleave, and for L = count.bit_length() the levels below L hold
    2^L - 1 >= count zeros, all below 4^L."""
    return sorted(t3_zero_set_upto(4 ** count.bit_length()))[:count]


def t3_zero_set_upto(bound: int) -> set[int]:
    """The zeros n <= bound of t_3: from 2, each zero v gives 4v + 3 and
    4v + 6 on the next level."""
    out = set()
    level = [2]
    while level:
        out.update(v for v in level if v <= bound)
        level = [w for v in level for w in (4 * v + 3, 4 * v + 6) if w <= bound]
    return out


# ---------------------------------------------------------------------------
# symmetry and the value search for t_2


def t2_partner_index(n: int, m: int) -> int:
    """The index n' of the symmetry theorem for m = t_2(n):

        n' = n + (-1)^(nu2(m) + (m - 2^nu2(m)) / 2^(nu2(m)+1)) * 2^(nu2(m)+1).

    The exponent can be negative; only its parity matters.  Since
    |t_2(n)| <= n+1, n' <= 3n+2."""
    v = nu2(m)
    e = v + (m - (1 << v)) // (1 << (v + 1))
    return n + (-1 if e & 1 else 1) * (1 << (v + 1))


def t2_symmetry_partner(n: int) -> int:
    """The index n' with t_2(n') = -t_2(n), checked; see t2_partner_index."""
    m = fpow_at(2, n)
    n2 = t2_partner_index(n, m)
    if n2 < 0:
        raise ArithmeticError(f"symmetry partner of n={n} fell below 0")
    if fpow_at(2, n2) != -m:
        raise ArithmeticError(f"symmetry failed at n={n}: t_2({n2}) = {fpow_at(2, n2)}, "
                              f"expected {-m}")
    return n2


class PairTreeNode(namedtuple("PairTreeNode", "x y")):
    """Node of the pair tree on coprime pairs with exactly one even entry;
    the row-major walk of the tree rooted at (-2, 1) lists (t_2(n+1), t_2(n))."""

    __slots__ = ()

    def left(self) -> "PairTreeNode":
        return PairTreeNode(self.x + self.y, -2 * self.y)

    def right(self) -> "PairTreeNode":
        return PairTreeNode(-2 * self.x, self.x + self.y)

    def invariants_hold(self) -> bool:
        return (
            self.x != 0
            and self.y != 0
            and math.gcd(self.x, self.y) == 1
            and (self.x % 2 == 0) != (self.y % 2 == 0)
        )


def pair_tree_rowmajor(count: int):
    """Yield the first `count` pairs of the tree rooted at (-2, 1) in
    row-major order."""
    from collections import deque

    q = deque([PairTreeNode(-2, 1)])
    for _ in range(count):
        node = q.popleft()
        yield (node.x, node.y)
        q.append(node.left())
        q.append(node.right())


# shifted_instance is None when n has no shifted-family partner
SolveResult = namedtuple("SolveResult", "target n shifted_instance")


def _shift_family_member(n: int, m: int = 4) -> int | None:
    """The partner 2^m q + c' of n = 8q + r in the shifted families, q >= 1:
    t_2(8q+4) = t_2(2^m q+4), t_2(8q+6) = t_2(2^m q+6),
    t_2(8q) = t_2(2^m q+2^m-8), t_2(8q+2) = t_2(2^m q+2^m-6); None for odd r
    or q = 0.  The default m = 4 is the doubled-modulus member."""
    q, r = divmod(n, 8)
    if q < 1 or r % 2:
        return None
    return (q << m) + (r if r >= 4 else (1 << m) - 8 + r)


# t2_solve scans n < _T2_SCAN_CAP
_T2_SCAN_CAP = 1 << 23


def t2_solve(target: int) -> SolveResult:
    """The least n with t_2(n) = target, by scanning the kernel prefix
    fpow_prefix(2, N) with N doubling up to _T2_SCAN_CAP, and its shifted
    instance, checked to hold the same value.

    Empirically every |target| <= 500 is hit by n <= 21698, so the cap is a
    safety valve, not a working limit.  Since |t_2(n)| <= n+1, a target
    above the cap in absolute value is refused before the scan; one not
    found below the cap is a ValueError too.
    """
    if target == 0:
        raise ValueError("t_2 never vanishes; target 0 is unsolvable")
    if abs(target) > _T2_SCAN_CAP:
        raise ValueError(f"|t_2(n)| <= n+1, so target {target} lies past the "
                         f"scan cap n < {_T2_SCAN_CAP}")
    lo, hi = 0, 1 << 12
    while target not in (vals := fpow_prefix(2, hi - 1))[lo:hi]:
        if hi >= _T2_SCAN_CAP:
            raise ValueError(f"target {target} not found below {hi}")
        lo, hi = hi, 2 * hi
    n = vals.index(target, lo, hi)
    res = SolveResult(target, n, _shift_family_member(n))
    if res.shifted_instance is not None and fpow_at(2, res.shifted_instance) != target:
        raise ArithmeticError(f"shifted instance failed for n={n}")
    return res


# the m of check_t2_shift_families; m = 3 is the identity case
_T2_SHIFT_MS = range(3, 9)


def check_t2_shift_families(n_max: int) -> CheckReport:
    """t_2(8n+r) = t_2(`_shift_family_member`(8n+r, m)) for the four residue
    families, all m in _T2_SHIFT_MS, 1 <= n <= n_max."""

    def cases():
        for m in _T2_SHIFT_MS:
            for n in range(1, n_max + 1):
                for r in (4, 6, 0, 2):
                    a = 8 * n + r
                    b = _shift_family_member(a, m)
                    yield ({"m": m, "n": n, "lhs_index": a, "rhs_index": b}
                           if fpow_at(2, a) != fpow_at(2, b) else None)

    return sweep("t2-shift-families", cases())


# ---------------------------------------------------------------------------
# extrema over dyadic ranges


Extrema = namedtuple("Extrema", "max min argmax argmin")


def maxmin_closed(m: int, k: int) -> Extrema:
    """Closed-form extrema.  m = 2 requires k >= 3; m = 3 holds for k >= 0
    (the closed-form argmax index fails at k = 1, where the maximum 1 sits at
    n = 0; callers should treat that index as unreliable)."""
    if m == 2:
        if k < 3:
            raise ValueError("closed form for m=2 requires k >= 3")
        amax = (1 << (2 * (k // 2))) - 1
        amin = (1 << (2 * ((k - 1) // 2) + 1)) - 1
        return Extrema(1 << (2 * (k // 2)), -(1 << (2 * ((k - 1) // 2) + 1)), amax, amin)
    if m == 3:
        if k < 0:
            raise ValueError("k >= 0")
        # 8 = 1 (mod 7), so 7 divides 2^(3j+1) + 5 and 2^(3j) - 1
        j = k // 2
        if k % 2 == 0:
            mx = 1 << (3 * j)
            mn = -3 * ((1 << (3 * j + 1)) + 5) // 7
        else:
            mx = 15 * ((1 << (3 * j)) - 1) // 7 + (1 if j == 0 else 0)
            mn = -3 * (1 << (3 * j))
        sgn = 1 if k % 2 == 0 else -1
        amax = (1 << k) - (1 + sgn) // 2
        amin = (1 << k) - (1 - sgn) // 2
        return Extrema(mx, mn, amax, amin)
    raise ValueError("closed extrema available for m in {2, 3}")


# ---------------------------------------------------------------------------
# inequality sweeps


def check_growth(m: int, n_max: int) -> CheckReport:
    """|t_m(n)|^2 <= m^2 n^m for 1 <= n <= n_max (squared to stay integral)."""
    vals = fpow_prefix(m, n_max)
    m2 = m * m
    return sweep(f"growth m={m}", ({"m": m, "n": n, "value": vals[n]}
                                   if vals[n] * vals[n] > m2 * n**m else None
                                   for n in range(1, n_max + 1)))


def check_mean(n_max: int) -> CheckReport:
    """2|t_2(n)| >= |t_2(n-1) + t_2(n+1)| for n >= 1, with equality at even n."""
    vals = fpow_prefix(2, n_max + 1)
    witness = {"odd_equalities": 0}

    def cases():
        for n in range(1, n_max + 1):
            lhs = 2 * abs(vals[n])
            rhs = abs(vals[n - 1] + vals[n + 1])
            if n % 2 and lhs == rhs:
                witness["odd_equalities"] += 1
            yield ({"n": n, "lhs": lhs, "rhs": rhs}
                   if lhs < rhs or (n % 2 == 0 and lhs != rhs) else None)

    return sweep("mean", cases(), witness)


def check_logconcave(n_max: int) -> CheckReport:
    """t_2(n)^2 > t_2(n-1) t_2(n+1) for 1 <= n <= n_max, which is
    check_turan_t at m = 2, and the margin is exactly 1 at n = 2^k - 4 for
    every k >= 3: one case per n."""
    vals = fpow_prefix(2, n_max + 1)

    def cases():
        for n in range(1, n_max + 1):
            d = vals[n] ** 2 - vals[n - 1] * vals[n + 1]
            if d <= 0:
                yield {"n": n}
            elif d != 1 and n >= 4 and not (n + 4) & (n + 3):
                yield {"equality_at": n, "difference": d}
            else:
                yield None

    return sweep("log-concave", cases())


def check_signs(m: int, n_max: int) -> CheckReport:
    """No three consecutive t_m values share a strict sign (zero is its own
    sign class).  A theorem for m in {1, 2}; a monitored statement otherwise."""
    vals = fpow_prefix(m, n_max + 1)

    def cases():
        for n in range(1, n_max):
            a, b, c = vals[n - 1], vals[n], vals[n + 1]
            yield ({"m": m, "n": n, "triple": [a, b, c]}
                   if (a > 0 and b > 0 and c > 0) or (a < 0 and b < 0 and c < 0) else None)

    return sweep(f"three-signs m={m}", cases())


def check_turan_t(m: int, n_max: int) -> CheckReport:
    """t_m(n)^2 > t_m(n-1) t_m(n+1); proved for m = 2, monitored for m > 2."""
    vals = fpow_prefix(m, n_max + 1)
    return sweep(f"turan-t m={m}", ({"m": m, "n": n}
                                    if vals[n] ** 2 <= vals[n - 1] * vals[n + 1] else None
                                    for n in range(1, n_max)))


def check_t2_mod4(n_max: int) -> CheckReport:
    """t_2(2n) == 1 + 2n (mod 4) for 0 <= n <= n_max."""
    vals = fpow_prefix(2, 2 * n_max)
    return sweep("t2-mod4", ({"n": n, "value": vals[2 * n]} if (vals[2 * n] - (1 + 2 * n)) % 4
                             else None for n in range(n_max + 1)))


# ---------------------------------------------------------------------------
# non-vanishing window and the multinomial count

def nonvanishing_threshold(n: int) -> int:
    """Smallest integer strictly above n^2/log 2 that our rational bound can
    certify; t_m(n) != 0 is guaranteed for every m >= this value."""
    # 14427/10000 is a rational upper bound on 1/log 2
    return n * n * 14427 // 10000 + 1


def multinomial_s1_enumerate(n: int, m: int) -> int:
    """sum over j_1 + 2 j_2 + ... + n j_n = n with j_1+...+j_n <= m of
    m! / ((m - sum j)! j_1! ... j_n!), by explicit enumeration."""
    total = 0

    def rec(part: int, remaining: int, used: int, denom: int):
        nonlocal total
        if part > n:
            if remaining == 0:
                total += math.factorial(m) // (math.factorial(m - used) * denom)
            return
        j = 0
        while part * j <= remaining and used + j <= m:
            rec(part + 1, remaining - part * j, used + j, denom * math.factorial(j))
            j += 1

    rec(1, n, 0, 1)
    return total


# check_nonvanishing tries m = threshold .. threshold + _NONVANISHING_WINDOW
_NONVANISHING_WINDOW = 16


def check_nonvanishing(n_max: int) -> CheckReport:
    """For n <= n_max and m in a window just above n^2/log 2: t_m(n) != 0;
    plus the multinomial identity S_1 = C(n+m-1, m-1) for n, m <= 8."""
    from .f_polys import shared_fseries

    series = shared_fseries()

    def cases():
        for n in range(1, n_max + 1):
            start = nonvanishing_threshold(n)
            for m in range(start, start + _NONVANISHING_WINDOW + 1):
                yield {"n": n, "m": m} if series.f_value(n, m) == 0 else None
        for n in range(1, 9):
            for m in range(1, 9):
                yield ({"s1_at": [n, m]}
                       if multinomial_s1_enumerate(n, m) != math.comb(n + m - 1, m - 1) else None)

    return sweep("non-vanishing", cases())


def check_t3_reducibility_witness(count: int) -> CheckReport:
    """f_{a_k}(3) == 0 exactly, for the first `count` zeros a_k of t_3.

    Evaluates the polynomial family itself (not the t_3 recurrence), so the
    vanishing is witnessed on the f side."""
    from .f_polys import shared_fseries

    def cases():
        for a in t3_zero_seq(count):
            v = shared_fseries().f_value(a, 3)
            yield {"index": a, "value": str(v)} if v else None

    return sweep("t3-reducibility", cases())
