"""The polynomial family f_n(t) defined by F(x)^t = sum f_n(t) x^n, built
by the log-derivative recurrence

    f_n(t) = (t/n) sum_{k<n} (1 - 2^(nu2(n-k)+1)) f_k(t).

All polynomial arithmetic happens on the integer companion g_n = n! * f_n,
so no rational polynomial arithmetic is needed anywhere, and f_n itself is
never stored: it is g_n over n!.  `FSeries` runs the recurrence in Horner
form over Kronecker-packed rows, one big integer per g_n, and evaluates
f_n(t0) = g_n(t0) / n!; `w_poly` reads the coefficients a(i, n) = g_n[i] / n!
off it.

The values f_n(t) at one integer t do not come from here: `fpow.fpow_prefix`
runs the product form F(x)^t = (1-x)^t F(x^2)^t instead of the polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core_arith import IntPoly, kron_pack, kron_unpack
from .fpow import fpow_at
from .reports import CheckReport, sweep


class FSeries:
    """Append-only cache of g_n = n! * f_n, built by the log-derivative
    recurrence in integer form,

        g_m(t) = t * sum_{k<m} c(m-k) ((m-1)!/k!) g_k(t),   c(j) = 1 - 2^(nu2(j)+1),

    in Horner form over k: H_m <- H_m * k + c(m-k) * g_k for k = 0..m-1,
    then g_m = t * H_m.  The rows are Kronecker-packed for it, each one
    signed integer with an nb-byte digit per power of t (core_arith.kron_pack),
    so a Horner step is one big-by-small multiply-add and t * H_m a shift by
    one digit.  A call runs the steps of all its new rows k by k: packed row
    k goes into every H_m still open, and H_k, complete by then, becomes
    row k.  So only the open H_m and one packed row are held besides the
    IntPoly rows, which are the cache.

    The digits are wide enough by proof: with S_0 = 1 and
    S_m = sum_{k<m} |c(m-k)| ((m-1)!/k!) S_k (the same Horner loop),
    |g_m[i]| <= S_m, and S is nondecreasing (the k = m-1 term alone is
    S_{m-1}).  So digits with h = 2^(8 nb - 1) > S_n hold every row to n.
    Since c(j) < 0, S_m / m! runs the log-derivative recurrence at t = -1,
    so S_m = m! b_1(m), with the binary partition count b_1(m) = f_m(-1)
    read from the production kernel (`fpow.fpow_at`).

    A call that adds fewer rows than the table holds, as in a walk one row
    at a time, keeps its packed rows for the next call, at digits sized for
    twice the table, so such a walk repacks O(log n) times.  A call that at
    least doubles the table keeps only the IntPoly rows: a packed copy, all
    at the widest row's digits, would be about 1.5 times their size.
    """

    def __init__(self):
        self._g: list[IntPoly] = [IntPoly.one()]
        self._nb = 1  # digit bytes of _packed
        self._packed: list[int] | None = None  # g_0, g_1, ... packed, after a short call

    def _bound(self, m: int) -> int:
        """S_m = m! b_1(m)."""
        return math.factorial(m) * fpow_at(-1, m)

    def extend(self, n: int) -> None:
        g = self._g
        m0 = len(g)
        if n < m0:
            return
        short = n < 2 * m0
        packed = self._packed
        if packed is None or self._bound(n).bit_length() >= 8 * self._nb:
            self._nb = self._bound(max(n, 2 * m0) if short else n).bit_length() // 8 + 1
            packed = [kron_pack(p.coeffs, self._nb) for p in g] if short else None
        nb = self._nb
        acc = [0] * (n + 1 - m0)  # H_m for m = m0..n
        for k in range(n + 1):
            if k < m0:
                row = kron_pack(g[k].coeffs, nb) if packed is None else packed[k]
            else:
                row = acc[k - m0] << (8 * nb)  # g_k = t * H_k
                acc[k - m0] = None  # H_k is done; free it
                g.append(IntPoly(kron_unpack(row, k + 1, nb)))
                if packed is not None:
                    packed.append(row)
            # the open H_m with m - k = d * odd, d a power of 2, share the
            # term c(m - k) row = (1 - 2d) row, built once and dropped after
            by_d: dict[int, list[int]] = {}
            for m in range(max(k + 1, m0), n + 1):
                by_d.setdefault((m - k) & (k - m), []).append(m - m0)
            for d, open_ in by_d.items():
                term = (1 - 2 * d) * row
                for j in open_:
                    acc[j] = acc[j] * k + term
        self._packed = packed if short else None

    def g(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        self.extend(n)
        return self._g[n]

    def f_value(self, n: int, t0: int) -> Fraction:
        """f_n(t0) = g_n(t0) / n!."""
        return Fraction(self.g(n).evaluate(t0), math.factorial(n))


_shared = FSeries()


def shared_fseries() -> FSeries:
    return _shared


def _lagrange_int_poly(points: list[tuple[int, Fraction]]) -> IntPoly:
    # exact Lagrange interpolation; fails loudly if the result is not integral
    acc = [Fraction(0)] * len(points)
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= xi - xj
        scale = yi / denom
        for d, c in enumerate(basis):
            acc[d] += scale * c
    coeffs = []
    for c in acc:
        if c.denominator != 1:
            raise ArithmeticError(f"interpolated coefficient {c} is not an integer")
        coeffs.append(c.numerator)
    return IntPoly(coeffs)


# samples of W_k checked past the k interpolation points
_W_EXTRA_CHECKS = 20


def w_poly(k: int) -> IntPoly:
    """The degree-(k-1) integer polynomial W_k with

        a(n-k, n) = (-1)^(n+k) W_k(n) / ((2k)! (n-k-1)!)   for n >= k+1,

    where a(n-k, n) = g_n[n-k] / n! is read from the shared FSeries;
    recovered by exact interpolation at n = k+1 .. 2k and verified at
    _W_EXTRA_CHECKS further sample points.
    """
    if k < 3:
        raise ValueError("w_poly is defined for k >= 3")
    fac2k = math.factorial(2 * k)
    _shared.extend(2 * k + _W_EXTRA_CHECKS)  # every sample's row, in one widening

    def sample(n: int) -> Fraction:
        sign = -1 if (n + k) % 2 else 1
        num = sign * fac2k * math.factorial(n - k - 1) * _shared.g(n)[n - k]
        return Fraction(num, math.factorial(n))

    pts = [(n, sample(n)) for n in range(k + 1, 2 * k + 1)]
    w = _lagrange_int_poly(pts)
    for n in range(2 * k + 1, 2 * k + 1 + _W_EXTRA_CHECKS):
        if sample(n) != w.evaluate(n):
            raise ArithmeticError(f"W_{k} mismatch at extra sample n={n}")
    return w


def check_g_factorization(n: int, p: int) -> CheckReport:
    """g_n(t) == g_{n mod p}(t) * (t - t^p)^(n//p)  (mod p), coefficientwise,
    as one case: the polynomial identity."""
    lhs = _shared.g(n).mod(p)
    base = (IntPoly.x() - IntPoly.monomial(p)).mod(p)
    rhs = _shared.g(n % p).mod(p)
    for _ in range(n // p):
        rhs = (rhs * base).mod(p)
    bad = next((i for i in range(max(len(lhs.coeffs), len(rhs.coeffs))) if lhs[i] != rhs[i]),
               None)
    return sweep(f"g-factorization n={n} p={p}", [
        None if bad is None
        else {"n": n, "p": p, "coeff_index": bad, "lhs": lhs[bad], "rhs": rhs[bad]}])


def check_addition_formula(n: int, t1: int, t2: int) -> CheckReport:
    """f_n(t1+t2) == sum_k f_k(t1) f_{n-k}(t2), evaluated over exact
    rationals, as one case."""
    lhs = _shared.f_value(n, t1 + t2)
    rhs = sum(_shared.f_value(k, t1) * _shared.f_value(n - k, t2) for k in range(n + 1))
    return sweep(f"addition-formula n={n}", [
        None if lhs == rhs else {"n": n, "t1": t1, "t2": t2, "lhs": str(lhs), "rhs": str(rhs)}])


# ---------------------------------------------------------------------------
# logarithm coefficients


def phi_base(k: int, n: int) -> int:
    """Largest e with k^e | n (n >= 1, k >= 2)."""
    e = 0
    while n % k == 0:
        n //= k
        e += 1
    return e


def log_coeff_base(k: int, n: int) -> Fraction:
    """x^n coefficient of log prod (1 - x^(k^j)), which is
    (1 - k^(phi_k(n)+1)) / ((k-1) n): the k-power divisors of n contribute
    the geometric sum (k^(phi+1)-1)/(k-1).  At k = 2 the k-1 factor is 1,
    and this is (1 - 2^(nu2(n)+1)) / n, the x^n coefficient of log F(x)."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and base k >= 2")
    return Fraction(1 - k ** (phi_base(k, n) + 1), (k - 1) * n)
