"""Exact integer foundations: binary-digit utilities (s2, nu2 and
nu2_or_none, whose None is the valuation of zero, and the Prouhet-Thue-Morse
sign ptm), the Kronecker packing of a signed integer sequence into one big
integer (`kron_pack`, `kron_unpack`), the exact signed convolution
`convolve` and the dense integer polynomials built on it, and base-4 digit
expansions.

No floating point: every operation is over Python big integers.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# binary-digit utilities


def s2(n: int) -> int:
    """Number of ones in the binary expansion of n >= 0."""
    if n < 0:
        raise ValueError("s2 is defined for nonnegative integers")
    return n.bit_count()


def nu2(n: int) -> int:
    """2-adic valuation of a nonzero integer: largest e with 2^e | n.

    nu2(0) is rejected; where zero is a possible value, use nu2_or_none.
    """
    if n == 0:
        raise ValueError("nu2(0) is undefined; use nu2_or_none where 0 can occur")
    return (n & -n).bit_length() - 1


def nu2_or_none(n: int) -> int | None:
    """nu2(n), or None for n = 0: the one encoding of an infinite valuation."""
    return None if n == 0 else nu2(n)


def ptm(n: int) -> int:
    """Prouhet-Thue-Morse term (-1)^s2(n)."""
    return -1 if n.bit_count() & 1 else 1


def nu2_factorial(n: int) -> int:
    """nu2(n!) = n - s2(n) (Legendre)."""
    return n - s2(n)


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient; 0 when b > a or b < 0."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def nu2_binom(a: int, b: int) -> int:
    """nu2(C(a, b)) via Legendre's formula, without computing the binomial.

    Equals s2(b) + s2(a-b) - s2(a); rejected when the binomial is zero.
    """
    if b < 0 or b > a:
        raise ValueError("nu2_binom of a zero binomial")
    return s2(b) + s2(a - b) - s2(a)


# ---------------------------------------------------------------------------
# dense integer polynomials


def _offsets(n: int, nb: int) -> int:
    # h = 2^(8 nb - 1) in each of n nb-byte little-endian digits
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def kron_pack(seq, nb: int) -> int:
    """sum seq[i] * 2^(8 nb i), for integers |seq[i]| < h = 2^(8 nb - 1).

    Each digit is written offset by h, which keeps the signed digits free of
    carries, and the offsets are subtracted once; to_bytes/from_bytes make
    both steps linear.
    """
    h = 1 << (8 * nb - 1)
    raw = b"".join((v + h).to_bytes(nb, "little") for v in seq)
    return int.from_bytes(raw, "little") - _offsets(len(seq), nb)


def kron_unpack(v: int, n: int, nb: int) -> list[int]:
    """The n signed nb-byte digits of v = sum d_i 2^(8 nb i), each |d_i| < h;
    the inverse of kron_pack.

    Adding the offsets makes digit i read d_i + h in [0, 2h); flipping its
    top bit turns that into d_i in nb-byte two's complement, which
    from_bytes reads into an int no longer than d_i needs.
    """
    off = _offsets(n, nb)
    raw = ((v + off) ^ off).to_bytes(n * nb, "little")
    return [int.from_bytes(raw[i : i + nb], "little", signed=True) for i in range(0, n * nb, nb)]


def convolve(a, b) -> list[int]:
    """The full Cauchy product of two integer sequences of any sign, by one
    big-integer multiply (Kronecker substitution).

    Every product coefficient is bounded by max|a| * max|b| * min(len), so
    nb-byte digits with half-range h = 2^(8 nb - 1) above that bound hold
    them exactly (kron_pack, kron_unpack).
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:  # one side is all zeros; otherwise every |v| <= bound < h
        return [0] * n
    nb = bound.bit_length() // 8 + 1
    return kron_unpack(kron_pack(a, nb) * kron_pack(b, nb), n, nb)


def _zip_pad(a, b):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    else:
        b = b + [0] * (len(a) - len(b))
    return zip(a, b)


class IntPoly:
    """Dense polynomial over Z; coeffs[i] is the coefficient of the i-th power.

    The trailing (highest-index) coefficient is nonzero unless the polynomial
    is zero, which is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "IntPoly":
        return cls((0,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return IntPoly(x + y for x, y in _zip_pad(list(self.coeffs), list(other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        return IntPoly(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate(self, v):
        """Horner evaluation; v may be an int or a Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def mod(self, p: int) -> "IntPoly":
        """Reduce every coefficient to its canonical representative in {0..p-1}."""
        return IntPoly(c % p for c in self.coeffs)

    def divexact_scalar(self, d: int) -> "IntPoly":
        """Divide every coefficient by d; raises if any is not divisible."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c, d)
            if r:
                raise ArithmeticError(f"coefficient {c} not divisible by {d}")
            out.append(q)
        return IntPoly(out)

    def format(self, var: str = "x") -> str:
        """Render per the documented grammar: terms in increasing degree joined
        by " + ", each term `c`, `c*v`, or `c*v^k` with exact decimal c."""
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{var}")
            else:
                terms.append(f"{c}*{var}^{i}")
        return " + ".join(terms)

    def __repr__(self):
        return f"IntPoly({self.format()})"


# ---------------------------------------------------------------------------
# base-4 digits from {0,1,3,6}


def base4_digits_0136(n: int) -> list[int]:
    """The unique expansion n = sum 4^j a_j with a_j in {0,1,3,6} below the
    leading digit and the leading digit in {1,2,3,6}.

    Built least-significant digit first: the digit is forced by n mod 4
    (residue 2 maps to 6, residue 3 to 3), except that a remaining value of
    exactly 2 terminates as a leading 2.
    """
    if n < 1:
        raise ValueError("expansion defined for n >= 1")
    digits = []
    by_residue = (0, 1, 6, 3)
    while n:
        if n == 2:
            digits.append(2)
            break
        d = by_residue[n % 4]
        digits.append(d)
        n = (n - d) >> 2
    return digits


def base4_value_0136(digits) -> int:
    """Inverse of base4_digits_0136: sum 4^j a_j."""
    return sum(d << (2 * j) for j, d in enumerate(digits))
