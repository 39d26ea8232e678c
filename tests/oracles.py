"""Reference routes for the tests: each computes a value of the library by
a route of its own, so a test that compares the two checks the production
code against code it does not share.

F(x)^t = prod_{n>=0} (1 - x^(2^n))^t = sum_n f_n(t) x^n.  For t = m > 0,
f_n(m) = t_m(n) is the m-fold Cauchy convolution of the Prouhet-Thue-Morse
sequence (`tm_oracle`); t_2 also has the short recurrence
t_2(2n) = t_2(n) + t_2(n-1), t_2(2n+1) = -2 t_2(n) (`t2_two_term_prefix`).
For t = -m < 0, f_n(-m) = b_m(n) counts the binary partitions of n in m
colours: Euler's recurrence (`b1_euler_prefix`), coin change (`b1_oracle`),
the half-index sums (`bm_alt_prefix`) and the m-fold convolution of b_1
(`bm_oracle`).  The polynomials g_n = n! f_n have two recurrences besides
the log-derivative one that `f_polys.FSeries` runs:

  (alt 1)  f_n(t) = -sum_{k<n} C(t+n-k-1, n-k) f_k(t) + chi2(n) f_{n/2}(t)
  (alt 2)  f_n(t) = sum_{k<=n/2} C(n-2k-1-t, n-2k) f_k(t)

(`g_prefix_alt1`, `g_prefix_alt2`); `_g_rows_reference` runs the
log-derivative one row by row, `fseries_bounds` the recurrence of the
coefficient bounds of `FSeries`, and `CoeffTable` builds the coefficients
a(i, n) of f_n by their own recurrence.  `_h_per_child` runs the halving
recurrence of h_{i,k,m} one child at a time, and `kernel_pattern_count`
counts the t-regularity campaign's patterns index by index, on values it
is given.

Every product here is the schoolbook `_mul_schoolbook`, on coefficient
lists; IntPoly only wraps a result.  Nothing here calls
`core_arith.convolve`, `core_arith.kron_pack`, an IntPoly product,
`fpow.fpow_prefix` or `fpow.fpow_residues`, and test_oracles.py holds the
module to that.  The one exception is `maxmin_scan`, which checks the
closed-form extrema of `tm_sequences.maxmin_closed`, not the kernel, and
so scans the kernel's prefix.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ptmpow.bm_sequences import v2_b1_churchhouse
from ptmpow.core_arith import IntPoly, binom, nu2, ptm
from ptmpow.tm_sequences import Extrema


def _mul_schoolbook(a, b):
    # the reference multiply, independent of convolve; skips the zeros of a
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _add_scaled(acc: list[int], w: int, p: list[int]) -> None:
    # acc += w * p, coefficientwise, with len(p) <= len(acc)
    for i, c in enumerate(p):
        acc[i] += w * c


# ---------------------------------------------------------------------------
# t_m


def tm_oracle(m: int, n: int) -> int:
    """t_m(n) by literally convolving m copies of the PTM sequence.

    Quadratic in n per convolution, so meant for small m*n only.
    """
    if m < 1:
        raise ValueError("oracle requires m >= 1")
    base = [ptm(i) for i in range(n + 1)]
    acc = base
    for _ in range(m - 1):
        acc = _mul_schoolbook(acc, base)[: n + 1]
    return acc[n]


def t2_two_term_prefix(n: int) -> list[int]:
    """[t_2(0), ..., t_2(n)] by the linear-time two-term recurrence."""
    v = [1, -2]
    for i in range(2, n + 1):
        h = i >> 1
        v.append(-2 * v[h] if i & 1 else v[h] + v[h - 1])
    return v[: n + 1]


def v2_t2k_piecewise(k: int, n: int) -> int:
    """nu2(t_{2^k}(n)) in the piecewise form: writing n = 2^k q + j, it is
    0 for j = 0 and k - nu2(j) + nu2(q+1) for 1 <= j < 2^k."""
    q, j = divmod(n, 1 << k)
    if j == 0:
        return 0
    return k - nu2(j) + nu2(q + 1)


def v2_t3_rec(n: int) -> int | None:
    """nu2(t_3(n)) by the reduction t_3(4n+3) = 8 t_3(n), t_3(4n+6) = 8 t_3(n)
    together with t_3(4n), t_3(4n+1) odd and t_3(2) = 0; None at a zero."""
    if n < 0:
        raise ValueError("defined for n >= 0")
    shift = 0
    while True:
        if n == 2:
            return None
        r = n & 3
        if r in (0, 1):
            return shift
        if r == 3:
            n = (n - 3) >> 2
        else:
            n = (n - 6) >> 2
        shift += 3


def maxmin_scan(m: int, k: int) -> Extrema:
    """Extrema of t_m over [0, 2^k], with the first attaining indices, by
    a scan of the kernel's prefix (the values at 2^20 are out of reach of
    the quadratic oracles)."""
    from ptmpow.fpow import fpow_prefix

    vals = fpow_prefix(m, 1 << k)
    hi = lo = vals[0]
    ahi = alo = 0
    for n in range(1, (1 << k) + 1):
        v = vals[n]
        if v > hi:
            hi, ahi = v, n
        if v < lo:
            lo, alo = v, n
    return Extrema(hi, lo, ahi, alo)


def kernel_pattern_count(vals: list[int], n_max: int, depth: int) -> int:
    """The number of distinct patterns (nu2(vals[2^l n + j]))_{n <= n_max},
    -1 at a zero, over l <= depth and j < 2^l, each pattern built index by
    index: the count of the t-regularity campaign for one t_m."""
    patterns = set()
    for l in range(depth + 1):
        for j in range(1 << l):
            pat = tuple(
                -1 if vals[(n << l) + j] == 0 else nu2(vals[(n << l) + j])
                for n in range(n_max + 1)
            )
            patterns.add(pat)
    return len(patterns)


# ---------------------------------------------------------------------------
# b_m


def b1_euler_prefix(n: int) -> list[int]:
    """[b(0), ..., b(n)] by Euler's recurrence b(2n) = b(2n-1) + b(n),
    b(2n+1) = b(2n)."""
    v = [1, 1]
    for i in range(2, n + 1):
        v.append(v[i - 1] + v[i >> 1] if i % 2 == 0 else v[i - 1])
    return v[: n + 1]


def b1_oracle(n: int) -> int:
    """b(n) by coin-change enumeration over the parts 1, 2, 4, ...."""
    dp = [0] * (n + 1)
    dp[0] = 1
    c = 1
    while c <= n:
        for i in range(c, n + 1):
            dp[i] += dp[i - c]
        c <<= 1
    return dp[n]


def bm_alt_prefix(m: int, n_max: int) -> list[int]:
    """b_m prefix via the second recurrence pair (half-index sums):

        b_m(2n)   = sum_{j<=n} C(2(n-j)+m-1, m-1) b_m(j),
        b_m(2n+1) = sum_{j<=n} C(2(n-j)+m,   m-1) b_m(j).

    Quadratic; used for cross-validation at small n.
    """
    v = [1]
    for i in range(1, n_max + 1):
        n = i >> 1
        extra = 0 if i % 2 == 0 else 1
        v.append(sum(binom(2 * (n - j) + m - 1 + extra, m - 1) * v[j] for j in range(n + 1)))
    return v


def bm_oracle(m: int, n: int) -> int:
    """b_m(n) as the m-fold Cauchy convolution of the binary partition
    sequence."""
    base = b1_euler_prefix(n)
    acc = base
    for _ in range(m - 1):
        acc = _mul_schoolbook(acc, base)[: n + 1]
    return acc[n]


def v2_b2k1_reduced(k: int, n: int) -> int:
    """nu2(b_{2^k-1}(n)) via nu2(b_{2^k-1}(2^k q + j)) = nu2(b_1(2q))."""
    q, _ = divmod(n, 1 << k)
    return v2_b1_churchhouse(2 * q)


def _flip(p: list[int]) -> list[int]:
    # p(y) -> p(-y)
    return [-c if j & 1 else c for j, c in enumerate(p)]


def _h_per_child(i, k, m, memo):
    """h_{i,k,m} by the halving recurrence, one child at a time: the child
    multiplies out its own a = p(y) (1+y)^(km) and b = p(-y) (1-y)^(km),
    p = h_{i mod 2^(k-1), k-1, m}, and keeps the even half of (a+b)/2 (a
    lower child) or the odd half of (a-b)/2 (an upper one), so siblings
    share nothing but the memo."""
    if k == 0:
        return IntPoly.one()
    if (i, k, m) not in memo:
        half = 1 << (k - 1)
        prev = list(_h_per_child(i % half, k - 1, m, memo).coeffs)
        row = [math.comb(m * k, j) for j in range(m * k + 1)]
        a = _mul_schoolbook(prev, row)
        b = _mul_schoolbook(_flip(prev), _flip(row))
        odd = i >= half
        s = [x - y if odd else x + y for x, y in zip(a, b)]
        if any(c & 1 for c in s) or any(s[1 - odd :: 2]):
            raise ArithmeticError(f"per-child parity at {(i, k, m)}")
        memo[i, k, m] = IntPoly(c >> 1 for c in s[odd::2])
    return memo[i, k, m]


# ---------------------------------------------------------------------------
# the polynomials g_n = n! f_n and the coefficients of f_n


def _rising_factorials(j_max: int) -> list[list[int]]:
    # R_j(t) = t(t+1)...(t+j-1), with R_0 = 1; C(t+j-1, j) = R_j / j!
    out = [[1]]
    for j in range(1, j_max + 1):
        out.append(_mul_schoolbook(out[-1], [j - 1, 1]))
    return out


def _falling_factorials(j_max: int) -> list[list[int]]:
    # FF_j(t) = t(t-1)...(t-j+1); C(n-2k-1-t, j) = (-1)^j FF_j / j! when n-2k = j
    out = [[1]]
    for j in range(1, j_max + 1):
        out.append(_mul_schoolbook(out[-1], [-(j - 1), 1]))
    return out


def g_prefix_alt1(n_max: int) -> list[IntPoly]:
    """g_0..g_{n_max} via the binomial recurrence (alt 1), recursing on its
    own values.  Assembled at the g level so every division is exact:

        g_n = -sum_k C(n,k) R_{n-k}(t) g_k + chi2(n) * (n!/(n/2)!) * g_{n/2}
    """
    rising = _rising_factorials(n_max)
    g = [[1]]
    for n in range(1, n_max + 1):
        acc = [0] * (n + 1)
        for k in range(n):
            _add_scaled(acc, -math.comb(n, k), _mul_schoolbook(rising[n - k], g[k]))
        if n % 2 == 0:
            _add_scaled(acc, math.factorial(n) // math.factorial(n // 2), g[n // 2])
        g.append(acc)
    return [IntPoly(c) for c in g]


def g_prefix_alt2(n_max: int) -> list[IntPoly]:
    """g_0..g_{n_max} via the half-index recurrence (alt 2):

        g_n = (-1)^n sum_{k<=n/2} (n!/((n-2k)! k!)) FF_{n-2k}(t) g_k
    """
    falling = _falling_factorials(n_max)
    g = [[1]]
    for n in range(1, n_max + 1):
        acc = [0] * (n + 1)
        sign = -1 if n % 2 else 1
        for k in range(n // 2 + 1):
            j = n - 2 * k
            w = math.factorial(n) // (math.factorial(j) * math.factorial(k))
            _add_scaled(acc, sign * w, _mul_schoolbook(falling[j], g[k]))
        g.append(acc)
    return [IntPoly(c) for c in g]


def _g_rows_reference(n_max):
    # the row recurrence FSeries ran before its Horner form: each row sums
    # c(m-k) (m-1)!/k! g_k coefficient by coefficient
    g = [IntPoly.one()]
    for m in range(1, n_max + 1):
        acc = [0] * m
        ratio = 1  # (m-1)!/k!, updated as k decreases
        for k in range(m - 1, -1, -1):
            _add_scaled(acc, (1 - 2 ** (nu2(m - k) + 1)) * ratio, g[k].coeffs)
            if k:
                ratio *= k
        g.append(IntPoly([0] + acc))
    return g


def fseries_bounds(n_max):
    # the coefficient bounds S_0..S_n_max of FSeries by their defining
    # recurrence, S_m = sum_{k<m} |c(m-k)| ((m-1)!/k!) S_k in Horner form
    bounds = [1]
    for m in range(1, n_max + 1):
        s = 0
        for k, b in enumerate(bounds):
            s = s * k + (2 ** (nu2(m - k) + 1) - 1) * b
        bounds.append(s)
    return bounds


class CoeffTable:
    """a(i, n): the t^i coefficient of f_n(t), built by the coefficient
    recurrence rather than read off g_n:

        a(i+1, n) = (1/n) sum_{j=i}^{n-1} (1 - 2^(nu2(n-j)+1)) a(i, j)
    """

    def __init__(self):
        self._a: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}

    def a(self, i: int, n: int) -> Fraction:
        if i > n:
            raise ValueError("a(i, n) requires i <= n")
        key = (i, n)
        if key in self._a:
            return self._a[key]
        if i == 0:
            v = Fraction(0) if n > 0 else Fraction(1)
        else:
            s = sum((1 - (1 << (nu2(n - j) + 1))) * self.a(i - 1, j) for j in range(i - 1, n))
            v = s / n
        self._a[key] = v
        return v


# ---------------------------------------------------------------------------
# the series themselves


def log_series_oracle(n_max: int, base: int = 2) -> list[Fraction]:
    """Coefficients of log prod (1 - x^(base^j)) up to x^n_max, by formally
    expanding -sum_{j, i} x^(i * base^j) / i.  Independent of
    f_polys.log_coeff_base."""
    acc = [Fraction(0)] * (n_max + 1)
    step = 1
    while step <= n_max:
        for i in range(1, n_max // step + 1):
            acc[i * step] -= Fraction(1, i)
        step *= base
    return acc


def product_series_oracle(t0: int, n_max: int) -> list[int]:
    """Coefficients of prod_{2^j <= n_max} (1 - x^(2^j))^t0 up to x^n_max,
    multiplied out term by term: f_0(t0), ..., f_{n_max}(t0)."""
    series = [1] + [0] * n_max
    step = 1
    while step <= n_max:
        factor = [0] * (n_max + 1)
        for i in range(0, n_max // step + 1):
            if t0 >= 0:
                factor[i * step] = (-1) ** i * math.comb(t0, i)
            else:
                factor[i * step] = math.comb(i - t0 - 1, -t0 - 1)
        # the sparse factor goes first: the schoolbook skips its zeros
        series = _mul_schoolbook(factor, series)[: n_max + 1]
        step *= 2
    return series
