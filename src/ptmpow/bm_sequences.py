"""The colored binary-partition sequences b_m(n) = f_n(-m), their identities
and congruences, the generating-numerator polynomials h_{i,k,m}(x), and the
annihilating shift operators V_k.

Every value of b_m comes from `fpow.fpow_prefix(-m, n)`: the one
production kernel for F(x)^t, where F(x)^(-m) = (1-x)^(-m) F(x^2)^(-m) is
m running sums of the upsampled prefix.

The h family is pinned down by

    (1-x)^(km) * sum_n b_m(2^k n + i) x^n = h_{i,k,m}(x) * sum_n b_m(n) x^n

with h_{0,0,m} = 1 and a halving recurrence that substitutes y = sqrt(x) for
the variable.  The sqrt bookkeeping is three helpers over IntPoly in y:
`_one_plus_y` (the binomial row of (1+y)^n), `_flip` (y -> -y) and
`_half_in_x` (the even or odd half of a polynomial in y, as one in x).
Applied k times, the recurrence gives

    F(x)^(-m) = Q_k(x) F(x^(2^k))^(-m) / (1 - x^(2^k))^(km),
    Q_k(x) = prod_{j<k} (1 + x^(2^j))^((j+1)m),

so the whole family h_{.,k,m} is Q_k read with stride 2^k.  `h_poly` walks
the chain of ancestors for the first request of a family, two small
multiplies per level, and on a later one builds the family as one packed
Q_k (`ptmpow.hfamily`), when its (deg Q_k + 1) digits of `hfamily.width`
bytes take at most 3 MiB.

The Churchhouse valuation and the PTM checks read the sign `core_arith.ptm`,
so this module loads neither `tm_sequences` nor `f_polys`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from operator import neg

from .core_arith import IntPoly, binom, convolve, kron_pack, kron_unpack, nu2, ptm
from .fpow import fpow_prefix
from .reports import CheckReport, sweep


# ---------------------------------------------------------------------------
# Turan-type identities and parity


def check_turan_b(m: int, n_max: int) -> CheckReport:
    """The exact square-difference identities for b_1 and b_2, plus the sign
    alternation (-1)^n (b_m(n)^2 - b_m(n-1) b_m(n+1)) > 0.

    The odd-index b_2 identity is asserted in the corrected form with the
    partial sum running to n-1 (with the sum through n it fails at n = 1).
    The observation that b_2(2n-1)^2 - b_2(2n-2) b_2(2n) < 0 is counted,
    not asserted.
    """
    if m not in (1, 2):
        raise ValueError("identities available for m in {1, 2}")
    v = fpow_prefix(-m, 2 * n_max + 2)
    witness = {"negativity_violations": 0} if m == 2 else {}

    def cases():
        psum = v[0]  # sum of b_m(0..n) maintained incrementally
        for n in range(1, n_max + 1):
            psum_prev = psum  # sum 0..n-1
            psum += v[n]
            if m == 1:
                i1 = v[2 * n] ** 2 - v[2 * n - 1] * v[2 * n + 1] - v[2 * n] * v[n]
                i2 = v[2 * n - 1] ** 2 - v[2 * n - 2] * v[2 * n] + v[2 * n - 2] * v[n]
                identity = 1 if i1 else 2 if i2 else None
            else:
                i3 = v[2 * n] ** 2 - v[2 * n - 1] * v[2 * n + 1] - psum * psum
                odd_lhs = v[2 * n - 1] ** 2 - v[2 * n - 2] * v[2 * n]
                i4 = odd_lhs - (psum_prev * psum_prev - v[2 * n - 2] * v[n])
                identity = 3 if i3 else 4 if i4 else None
                if odd_lhs >= 0:
                    witness["negativity_violations"] += 1
            sign = v[n] ** 2 - v[n - 1] * v[n + 1]
            if identity:
                yield {"n": n, "identity": identity}
            elif (sign > 0) != (n % 2 == 0) or sign == 0:
                yield {"n": n, "difference": sign}
            else:
                yield None

    return sweep(f"turan-b m={m}", cases(), witness)


def check_parity_b(m: int, n_max: int) -> CheckReport:
    """Write m = 2^k (2u+1).  For even m:
    b_m(n) == C(m,n) + 2^(k+1) C(m-2, n-2) (mod 2^(k+2)); for odd m:
    b_m(n) == C(m,n) (mod 2), and the count of n with b_m(n) != 0 (mod 4)
    must keep growing (at least n_max/64 hits)."""
    v = fpow_prefix(-m, n_max)
    if m % 2 == 0:
        k = nu2(m)
        mod = 1 << (k + 2)
        return sweep(f"parity-b m={m}", (
            {"m": m, "n": n, "mod": mod}
            if (v[n] - binom(m, n) - (1 << (k + 1)) * binom(m - 2, n - 2)) % mod else None
            for n in range(n_max + 1)))
    witness = {"nonzero_mod4_hits": 0}

    def cases():
        for n in range(n_max + 1):
            if v[n] % 4:
                witness["nonzero_mod4_hits"] += 1
            yield {"m": m, "n": n} if (v[n] - binom(m, n)) % 2 else None

    rep = sweep(f"parity-b m={m}", cases(), witness)
    return rep._replace(ok=rep.ok and witness["nonzero_mod4_hits"] >= n_max // 64)


# ---------------------------------------------------------------------------
# 2-adic valuations of b_1 and b_{2^k - 1}


def v2_b1_churchhouse(n: int) -> int:
    """nu2(b(n)) = |t_n - 2 t_{n-1} + t_{n-2}| / 2 for n >= 2 (and 0 below)."""
    if n < 2:
        return 0
    return abs(ptm(n) - 2 * ptm(n - 1) + ptm(n - 2)) // 2


def v2_b2k1_closed(k: int, n: int) -> int:
    """nu2(b_{2^k-1}(n)) from the residue of n mod 2^(k+2): the first 2^k
    residues inherit nu2(b_1(8q)), then the blocks give 1, 2, 1."""
    q, i = divmod(n, 1 << (k + 2))
    if i < (1 << k):
        return v2_b1_churchhouse(8 * q)
    if i < (1 << (k + 1)):
        return 1
    if i < 3 * (1 << k):
        return 2
    return 1


# ---------------------------------------------------------------------------
# the h polynomial family


# (k, m) -> None once the chain has served the family one request, then
# (the bytes of Q_k, their digit width) once the whole family is built
_h_memo: dict[tuple[int, int], tuple[bytes, int] | None] = {}

# a family is built whole only while its packed Q_k, (deg Q_k + 1) digits
# of `hfamily.width` bytes, fits in _H_FAMILY_BYTES.  All i of (11, 4)
# (2.7 MiB) took 0.26 s for the build plus 0.05 s for the reads, against
# 4 s on the chain; (10, 7) (3.02 MiB) stays on the chain.
_H_FAMILY_BYTES = 3 << 20


def _one_plus_y(n: int) -> IntPoly:
    """(1+y)^n, as its binomial row."""
    return IntPoly([math.comb(n, j) for j in range(n + 1)])


def _flip(p: IntPoly) -> IntPoly:
    """p(-y)."""
    return IntPoly([-c if j & 1 else c for j, c in enumerate(p.coeffs)])


def _half_in_x(s: IntPoly, odd: bool, error: str) -> IntPoly:
    """Write s(y) = e(y^2) + y o(y^2) and return e (or o when `odd`) as a
    polynomial in x = y^2.  Raises ArithmeticError(error) unless s has only
    even powers of y (only odd powers when `odd`)."""
    if any(s.coeffs[1 - odd :: 2]):
        raise ArithmeticError(error)
    return IntPoly(s.coeffs[odd::2])


def _h_chain(i: int, k: int, m: int) -> IntPoly:
    """h_{i,k,m} by the halving recurrence along the ancestors i mod 2^j,
    j < k, in a loop (so its depth is not bounded by the recursion limit).
    The child of a parent p in y = sqrt(x) is a half of the product
    a = p(y) (1+y)^(km): the even half for the lower child, the odd half
    for the upper one.  b = p(-y) (1-y)^(km) is its own multiply and must
    equal a(-y): its odd coefficients are the negated ones of a, so that
    (a+b)/2 has only even powers (the lower child's condition), and its even
    ones are those of a, so that (a-b)/2 has only odd powers (the upper
    child's).  A failed condition raises, as it would mean the recurrence
    was applied wrongly."""
    h = IntPoly.one()
    error = "h recurrence parity violation at {}"
    for level in range(1, k + 1):
        half = 1 << (level - 1)
        low = i % half
        plus = _one_plus_y(m * level)
        a = (h * plus).coeffs
        b = (_flip(h) * _flip(plus)).coeffs
        if b[1::2] != tuple(map(neg, a[1::2])):
            raise ArithmeticError(error.format((low, level, m)))
        if b[0::2] != a[0::2]:
            raise ArithmeticError(error.format((low + half, level, m)))
        h = IntPoly(a[1::2] if i & half else a[0::2])
    return h


def h_poly(i: int, k: int, m: int) -> IntPoly:
    """h_{i,k,m}(x).  The halving recurrence, applied k times, gives

        F(x)^(-m) = Q_k(x) F(x^(2^k))^(-m) / (1 - x^(2^k))^(km),
        Q_k(x) = prod_{j<k} (1 + x^(2^j))^((j+1)m),

    so h_{i,k,m} is the i-th 2^k-multisection of Q_k: its coefficients are
    those of x^i, x^(i + 2^k), ... in Q_k.

    Two routes give the same polynomial.  The first request for a family
    (k, m) walks the chain of its ancestors (`_h_chain`), two small
    multiplies per level.  A later request builds the whole family as one
    packed Q_k (`hfamily.build`), memoises it, and every request from then
    on reads its child's digits (`hfamily.child`).  A family whose packed
    Q_k would take more than _H_FAMILY_BYTES stays on the chain.  A failed
    parity condition on either route raises and memoises nothing."""
    if k < 0 or m < 0 or not 0 <= i < (1 << k):
        raise ValueError("need k >= 0, m >= 0, 0 <= i < 2^k")
    if (k, m) not in _h_memo:
        h = _h_chain(i, k, m)
        _h_memo[k, m] = None
        return h
    from . import hfamily  # loaded only from a family's second request on

    family = _h_memo[k, m]
    if family is None:
        # deg Q_k = m sum_{j<k} (j+1) 2^j = m ((k-1) 2^k + 1)
        packed = (m * (((k - 1) << k) + 1) + 1) * hfamily.width(k, m)
        if packed > _H_FAMILY_BYTES:
            return _h_chain(i, k, m)
        family = _h_memo[k, m] = hfamily.build(k, m)
    return hfamily.child(family, i, k)


def check_h_identity(i: int, k: int, m: int) -> CheckReport:
    """Verify the defining identity through x^order, order = max(256, 4 deg h):
    (1-x)^(km) * sum b_m(2^k n + i) x^n == h_{i,k,m} * sum b_m(n) x^n."""
    h = h_poly(i, k, m)
    order = max(256, 4 * max(h.degree, 1))
    vals = fpow_prefix(-m, (order << k) + i)
    sub = [vals[(n << k) + i] for n in range(order + 1)]
    lhs = IntPoly(convolve(_flip(_one_plus_y(k * m)).coeffs, sub)[: order + 1])
    rhs = IntPoly(convolve(h.coeffs, vals[: order + 1])[: order + 1])
    return sweep(f"h-identity ({i},{k},{m})", (None if lhs[n] == rhs[n]
                                                else {"i": i, "k": k, "m": m, "order": n}
                                                for n in range(order + 1)))


def _h_forms(p: int, s: int, kk: int) -> list[tuple[int, list[IntPoly]]]:
    """The expected reductions of h_{i,kk,m} mod p, m = p^s, for an odd prime
    p and kk in {1, 2}: (i, forms) for each i < 2^kk.  They depend on m mod 4
    (the parity of s decides it only when p == 3 (mod 4)).  For (i, kk) =
    (1, 2) with m == 1 (mod 4) two readings are in circulation, exponent
    (m-1)/4 (the proof's, listed first) versus (m-1)/2 on the low term."""
    if p < 3 or _factorize(p) != {p: 1}:
        raise ValueError(f"p must be an odd prime, got {p}")
    if s < 0:
        raise ValueError(f"m = p^s needs s >= 0, got {s}")
    if kk not in (1, 2):
        raise ValueError("kk in {1, 2}")
    m = p**s
    one, mono = IntPoly.one(), IntPoly.monomial
    if kk == 1:
        return [(0, [one]), (1, [mono((m - 1) // 2)])]
    if m % 4 == 1:
        h1 = [mono((m - 1) // 4) + mono((5 * m - 1) // 4),
              mono((m - 1) // 2) + mono((5 * m - 1) // 4)]
        h3 = [mono(3 * (m - 1) // 4, 2)]
    else:
        h1 = [mono((3 * m - 1) // 4, 2)]
        h3 = [mono((m - 3) // 4) + mono((5 * m - 3) // 4)]
    return [(0, [one + mono(m)]), (1, h1), (2, [mono((m - 1) // 2, 2)]), (3, h3)]


def check_h_mod_p(p: int, s: int, kk: int) -> CheckReport:
    """Reductions of h_{i,kk,p^s} mod an odd prime p against the forms of
    `_h_forms`.  Where two readings are in circulation the report records
    which one the exact polynomial matches."""
    table = _h_forms(p, s, kk)
    m = p**s
    witness = {"p": p, "s": s, "m": m}

    def cases():
        for i, forms in table:
            got = h_poly(i, kk, m).mod(p)
            matched = next((idx for idx, form in enumerate(forms) if got == form.mod(p)), None)
            if matched is not None and len(forms) > 1:
                witness["h12_matches"] = "proof-form" if matched == 0 else "statement-form"
            yield (None if matched is not None
                   else {**witness, "i": i, "got": [str(c) for c in got.coeffs]})

    return sweep(f"h-mod-p p={p} s={s} k={kk}", cases(), witness)


def check_congrup(p: int, s: int, n_max: int) -> CheckReport:
    """The subsequence congruences that follow from the reduced h forms, for
    m = p^s.  Mod p, (1-x)^(km) == (1-x^m)^k, so the defining identity of
    h_{i,k,m} with the proof form sum_d c_d x^d of `_h_forms` gives

        sum_j (-1)^j C(k,j) b_m(2^k (n - jm) + i) == sum_d c_d b_m(n - d)  (mod p)

    for k = 1, 2, with b_m = 0 below index 0."""
    tables = [(k, _h_forms(p, s, k)) for k in (1, 2)]
    m = p**s
    # (k, i, terms) per congruence, in the order checked; a term (sh, off, c)
    # adds c * v[(n << sh) + off], where v holds b_m mod p from index -8m on,
    # the lowest index read (4(n - 2m) at n = 0)
    low = 8 * m
    rows = [(k, i, [(k, low + i - (j * m << k), (-1) ** j * binom(k, j)) for j in range(k + 1)]
             + [(0, low - d, -c) for d, c in enumerate(forms[0].coeffs) if c])
            for k, table in tables for i, forms in table]
    v = [0] * low + [b % p for b in fpow_prefix(-m, 4 * n_max + 3)]

    def cases():
        for n in range(n_max + 1):
            for k, i, terms in rows:
                total = 0
                for sh, off, c in terms:
                    total += c * v[(n << sh) + off]
                yield {"k": k, "i": i, "n": n} if total % p else None

    return sweep(f"congrup p={p} s={s}", cases())


# ---------------------------------------------------------------------------
# congruences from the derivative identity and from H_m == H_1(x^m)


def check_derivative_identity(m: int, n_max: int) -> CheckReport:
    """n b_m(n) == m sum_i (n-i) b_1(n-i) b_{m-1}(i), and m | b_m(n) whenever
    gcd(m, n) = 1."""
    if m < 2:
        raise ValueError("m >= 2")
    bb = fpow_prefix(-1, n_max)
    prev = fpow_prefix(1 - m, n_max)
    cur = fpow_prefix(-m, n_max)

    def cases():
        for n in range(n_max + 1):
            rhs = m * sum((n - i) * bb[n - i] * prev[i] for i in range(n + 1))
            identity = ("derivative" if n * cur[n] != rhs
                        else "divisibility" if math.gcd(m, n) == 1 and cur[n] % m else None)
            yield {"m": m, "n": n, "identity": identity} if identity else None

    return sweep(f"derivative-identity m={m}", cases())


def check_rps(r: int, p: int, s: int, n_max: int) -> CheckReport:
    """For m = r p^s:  b_m(n) == 0 (mod p) when p^s does not divide n, and
    b_m(p^s n) == b_r(n) (mod p); for r = 1 additionally
    b_m((2n+1)m) == b_m(2nm) (mod p)."""
    q = p**s
    m = r * q
    v = fpow_prefix(-m, n_max)
    vr = fpow_prefix(-r, n_max // q)

    def cases():
        for n in range(n_max + 1):
            if n % q:
                yield {"n": n, "family": "vanishing"} if v[n] % p else None
            else:
                yield {"n": n, "family": "reduction"} if (v[n] - vr[n // q]) % p else None
        if r == 1:
            for n in range(n_max // (2 * m)):
                yield ({"n": n, "family": "odd-even"}
                       if (v[(2 * n + 1) * m] - v[2 * n * m]) % p else None)

    return sweep(f"rps r={r} p={p} s={s}", cases())


def check_radical(m: int, n_max: int) -> CheckReport:
    """rad(m) | b_m(n) whenever p^(nu_p(m)) does not divide n for any prime
    p | m (the prime-by-prime reduction applied jointly)."""
    fac = _factorize(m)
    radical = 1
    for p in fac:
        radical *= p
    v = fpow_prefix(-m, n_max)
    return sweep(f"radical m={m}", ({"m": m, "n": n} if v[n] % radical else None
                                    for n in range(n_max + 1)
                                    if all(n % p**e for p, e in fac.items())))


def _factorize(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def check_window_sum_congruences(n_max: int) -> CheckReport:
    """The three windowed congruences

        sum_{i<=8} b_4(4(n-i)+1) == b_4(n)    (mod 3),  n >= 8,
        sum_{i<=4} b_2(4(n-i))   == b_2(n)    (mod 5),  n >= 4,
        sum_{i<=4} b_2(4(n-i)+2) == b_2(n-2)  (mod 5),  n >= 4,

    plus the three exact h anchors they rest on."""
    anchors = [
        (h_poly(1, 2, 4), 4 * IntPoly((1, 3)) * IntPoly((1, 33, 27, 3)), 3, IntPoly.one()),
        (h_poly(0, 2, 2), IntPoly((1, 10, 5)), 5, IntPoly.one()),
        (h_poly(2, 2, 2), IntPoly((5, 10, 1)), 5, IntPoly.monomial(2)),
    ]

    def cases():
        for got, exact, p, reduced in anchors:
            yield ({"anchor": [str(c) for c in got.coeffs]}
                   if got != exact or got.mod(p) != reduced.mod(p) else None)
        v4 = fpow_prefix(-4, 4 * n_max + 1)
        v2 = fpow_prefix(-2, 4 * n_max + 2)
        for n in range(8, n_max + 1):
            s = sum(v4[4 * n - 31 : 4 * n + 2 : 4])  # b_4(4(n-i)+1), i <= 8
            yield {"congruence": 1, "n": n} if (s - v4[n]) % 3 else None
        for n in range(4, n_max + 1):
            s0 = sum(v2[4 * n - 16 : 4 * n + 1 : 4])  # b_2(4(n-i)), i <= 4
            s2 = sum(v2[4 * n - 14 : 4 * n + 3 : 4])  # b_2(4(n-i)+2), i <= 4
            yield {"congruence": 2, "n": n} if (s0 - v2[n]) % 5 else None
            yield {"congruence": 3, "n": n} if (s2 - v2[n - 2]) % 5 else None

    return sweep("window-sums", cases())


# ---------------------------------------------------------------------------
# divisibility by 8(x+1), palindromic structure


# (m, i0, a_0): check_8x1 reads h_{2^k+i0, k+1, m} from k = i0, check_h12
# reads h_{i0, k+1, m} from k = i0 - 1 and expects the leading a_0
_H8_FAMILIES = ((2, 1, 2), (4, 2, 14))


def check_8x1(k_max: int) -> CheckReport:
    """8(x+1) divides h_{2^k+1, k+1, 2} for k >= 1 and h_{2^k+2, k+1, 4} for
    k >= 2.  x+1 is monic, so by the factor theorem it divides h/8 over Z
    iff h(-1) = 0: the check is 8 | every coefficient and h(-1) = 0."""

    def cases():
        for m, i0, _ in _H8_FAMILIES:
            for k in range(i0, k_max + 1):
                h = h_poly((1 << k) + i0, k + 1, m)
                yield ({"family": m, "k": k}
                       if any(c % 8 for c in h.coeffs) or h.evaluate(-1) else None)

    return sweep("8(x+1)", cases())


def palindromic_decompose(p: IntPoly) -> tuple[int, list[int]]:
    """Write a palindromic P of order s and degree d uniquely as
    sum_j a_{s+j} x^(s+j) (1+x)^(d-s-2j); returns (s, [a_s, a_{s+1}, ...]).

    Raises ValueError when P is not palindromic."""
    if p.is_zero():
        return 0, []
    coeffs = list(p.coeffs)
    s = next(i for i, c in enumerate(coeffs) if c)
    d = p.degree
    if any(p[s + j] != p[d - j] for j in range((d - s) // 2 + 1)):
        raise ValueError("polynomial is not palindromic")
    xp1 = IntPoly((1, 1))
    rem = p
    out = []
    for j in range((d - s) // 2 + 1):
        a = rem[s + j]
        out.append(a)
        rem = rem - IntPoly.monomial(s + j, a) * xp1 ** (d - s - 2 * j)
    if not rem.is_zero():
        raise ValueError("palindromic reduction left a remainder")
    return s, out


def check_h12(k_max: int) -> CheckReport:
    """h_{1,k+1,2} = sum_j a_{j,k} x^j (1+x)^(2k-2j) with a_{0,k} = 2 and
    8 | a_{j,k} for j > 0; likewise h_{2,k+1,4} with leading 14."""

    def cases():
        for m, i0, a0 in _H8_FAMILIES:
            for k in range(i0 - 1, k_max + 1):
                s, a = palindromic_decompose(h_poly(i0, k + 1, m))
                yield ({"family": m, "k": k, "coeffs": a}
                       if s != 0 or a[0] != a0 or any(c % 8 for c in a[1:]) else None)

    return sweep("h12", cases())


def check_4div(n_max: int) -> CheckReport:
    """4 | C(4n, 2j) - C(2n, j) for all n, j <= n_max."""
    return sweep("4div", ({"n": n, "j": j} if (binom(4 * n, 2 * j) - binom(2 * n, j)) % 4
                          else None for n in range(n_max + 1) for j in range(n_max + 1)))


# ---------------------------------------------------------------------------
# annihilating operators


class ShiftOperator(namedtuple("ShiftOperator", "coeffs")):
    """sum_j c_j(x) theta^j acting on sequences indexed by m, where theta is
    the backward shift: (V s)_m = sum_j c_j(x) s_{m-j}.  `coeffs` is the
    tuple of IntPoly c_j."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, seq, m: int) -> IntPoly:
        acc = IntPoly.zero()
        for j, c in enumerate(self.coeffs):
            if m - j >= 0:
                acc = acc + c * seq(m - j)
        return acc


def _operator_product(a: list[IntPoly], b: list[IntPoly]) -> list[IntPoly]:
    """The theta-coefficients of (sum_i a_i theta^i)(sum_j b_j theta^j).

    Every a_i and b_j is packed once (`core_arith.kron_pack`), at one digit
    width: each digit of coefficient s = sum_{i+j=s} a_i b_j is at most
    sum_{i+j=s} max|a_i| max|b_j| min(len a_i, len b_j), and the width sits
    above the largest of these bounds.  Each coefficient is then one packed
    sum of products and one unpack."""
    ca, cb = [p.coeffs for p in a], [p.coeffs for p in b]
    cols = [[(i, s - i) for i in range(len(a)) if 0 <= s - i < len(b)]
            for s in range(len(a) + len(b) - 1)]
    bound = max(sum(max(map(abs, ca[i]), default=0) * max(map(abs, cb[j]), default=0)
                    * min(len(ca[i]), len(cb[j])) for i, j in col) for col in cols)
    nb = bound.bit_length() // 8 + 1
    pa, pb = [kron_pack(c, nb) for c in ca], [kron_pack(c, nb) for c in cb]
    return [IntPoly(kron_unpack(sum(pa[i] * pb[j] for i, j in col),
                                max(len(ca[i]) + len(cb[j]) - 1 for i, j in col), nb))
            for col in cols]


def v_operator(k: int) -> ShiftOperator:
    """V_1 = (x-1) theta^2 + 2 theta - 1, and
    V_k = V_{k-1}(sqrt x, (1+sqrt x)^k theta) * V_{k-1}(-sqrt x, (1-sqrt x)^k theta);
    the product's coefficients must be even in sqrt(x) (asserted)."""
    if k < 1:
        raise ValueError("k >= 1")
    if k == 1:
        return ShiftOperator((IntPoly((-1,)), IntPoly((2,)), IntPoly((-1, 1))))
    prev = v_operator(k - 1).coeffs  # read as polynomials in y
    rows = [_one_plus_y(j * k) for j in range(len(prev))]
    a = [c * r for c, r in zip(prev, rows)]
    b = [_flip(c) * _flip(r) for c, r in zip(prev, rows)]
    error = f"V_{k} coefficient is not even in sqrt(x)"
    return ShiftOperator(tuple(_half_in_x(c, False, error) for c in _operator_product(a, b)))


def check_annihilation(i: int, k: int, m_max: int) -> CheckReport:
    """V_k sends the sequence (h_{i,k,m})_m to zero for every m >= 2^k."""
    op = v_operator(k)
    return sweep(f"annihilation i={i} k={k}", (
        None if op.apply(partial(h_poly, i, k), m).is_zero() else {"i": i, "k": k, "m": m}
        for m in range(op.order, m_max + 1)))


# check_g1_closed_forms compares the series through T^_G1_ORDER
_G1_ORDER = 12


def check_g1_closed_forms() -> CheckReport:
    """sum_m h_{0,1,m} T^m = (T-1)/((x-1)T^2+2T-1) and
    sum_m h_{1,1,m} T^m = -T/((x-1)T^2+2T-1), checked as exact power-series
    identities through T^_G1_ORDER: V_1 applied to the series is the numerator."""
    op = v_operator(1)
    numerators = {0: {0: IntPoly((-1,)), 1: IntPoly.one()},
                  1: {1: IntPoly((-1,))}}
    return sweep("G-closed-forms", (
        None if op.apply(partial(h_poly, i, 1), m) == pmap.get(m, IntPoly.zero())
        else {"i": i, "m": m} for i, pmap in numerators.items() for m in range(_G1_ORDER + 1)))


# ---------------------------------------------------------------------------
# the b_2 valuation table and the color-drop convolution

# (modulus, residues, valuation): one entry per verified equality
B2_VALUATION_TABLE: tuple[tuple[int, tuple[int, ...], int], ...] = (
    (4, (3,), 3),
    (8, (5,), 3),
    (16, (6, 9, 12), 3),
    (32, (8, 17, 26), 3),
    (64, (16, 33, 50), 3),
    (128, (32, 65, 98), 3),
    (256, (64, 129, 194), 3),
    (32, (4, 30), 4),
    (64, (10, 56), 4),
    (128, (48, 82), 4),
    (256, (96, 162), 4),
    (64, (20, 46), 5),
    (128, (42, 88), 5),
    (256, (18, 240), 5),
    (128, (14, 116), 6),
    (256, (106, 152), 6),
    (256, (78, 180), 7),
)


def b2_certificate_witness() -> dict | None:
    """The first entry of B2_VALUATION_TABLE whose polynomial certificate
    fails, as {"modulus", "i", "stage"}, or None when all hold: for
    M = 2^k, h_{i,k,2} == 0 (mod 2^a) ("divisibility") and
    h_{i,k,2}/2^a == (1-x)^(2k-3) (mod 2) ("certificate")."""
    for modulus, residues, a in B2_VALUATION_TABLE:
        k = modulus.bit_length() - 1
        cert = _one_plus_y(2 * k - 3).mod(2)
        for i in residues:
            try:
                hq = h_poly(i, k, 2).divexact_scalar(1 << a)
            except ArithmeticError:
                return {"modulus": modulus, "i": i, "stage": "divisibility"}
            if hq.mod(2) != cert:
                return {"modulus": modulus, "i": i, "stage": "certificate"}
    return None


def check_formula_2k(k: int, n_max: int) -> CheckReport:
    """b_{2^k-1}(n) == sum_j t_{n-j} b_{2^k}(j), the convolution that drops
    one color.  At k = 0 the left side is F^0 = 1, and this is the inverse
    identity sum_j t_{n-j} b(j) == [n == 0]."""
    lhs = fpow_prefix(1 - (1 << k), n_max)[: n_max + 1]
    big = fpow_prefix(-(1 << k), n_max)[: n_max + 1]
    conv = convolve([ptm(i) for i in range(n_max + 1)], big)
    return sweep(f"formula-2^{k}", ({"k": k, "n": n} if conv[n] != lhs[n] else None
                                    for n in range(n_max + 1)))


def check_bm_monotone(m_max: int, n_max: int) -> CheckReport:
    """Artifact-level sanity (not a claim from the source material): more
    colors can only create representations, so b_m(n) >= b_{m-1}(n) >= 1,
    one case per value b_m(n), m <= m_max, n <= n_max."""

    def cases():
        prev = [1] * (n_max + 1)  # the floor 1 stands in for b_0
        for m in range(1, m_max + 1):
            cur = fpow_prefix(-m, n_max)
            for n in range(n_max + 1):
                yield {"m": m} if cur[n] < prev[n] else None
            prev = cur

    return sweep("bm-monotone", cases())
