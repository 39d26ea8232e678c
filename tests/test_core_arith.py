import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmpow.core_arith import (
    IntPoly,
    base4_digits_0136,
    base4_value_0136,
    binom,
    convolve,
    kron_pack,
    kron_unpack,
    nu2,
    nu2_binom,
    nu2_factorial,
    nu2_or_none,
    s2,
)

from oracles import _mul_schoolbook  # cross-check target


def test_s2_basics():
    assert s2(0) == 0
    assert s2(3) == 2
    for k in range(65):
        assert s2(1 << k) == 1
    with pytest.raises(ValueError):
        s2(-1)


def test_nu2_basics():
    assert nu2(1) == 0
    assert nu2(12) == 2
    assert nu2(1 << 20) == 20
    assert nu2(-12) == 2
    with pytest.raises(ValueError):
        nu2(0)
    # None is the one encoding of the valuation of zero
    assert nu2_or_none(0) is None
    assert nu2_or_none(-12) == 2


def test_digit_bookkeeping_sweep():
    # stripping the trailing zeros never changes the digit sum
    for n in range(1, 10**6 + 1):
        assert s2(n >> nu2(n)) == s2(n)


def test_binom_and_valuation():
    assert binom(4, 2) == 6
    assert nu2_binom(4, 2) == 1 == nu2(binom(4, 2))
    assert binom(3, 5) == 0
    with pytest.raises(ValueError):
        nu2_binom(3, 5)
    rng = random.Random(7)
    for _ in range(500):
        a = rng.randrange(0, 300)
        b = rng.randrange(0, a + 1)
        assert nu2_binom(a, b) == (nu2(binom(a, b)) if binom(a, b) else None)


def test_odd_binomials_of_mersenne_rows():
    for m in range(1, 11):
        top = (1 << m) - 1
        assert all(binom(top, j) % 2 == 1 for j in range(top + 1))


def test_power_of_two_row_mod8():
    # C(2^m, k) mod 8 is 1 at the ends, 4 at the quarters, 6 in the middle,
    # 0 elsewhere
    for m in range(3, 11):
        row = 1 << m
        special = {0: 1, row: 1, row // 4: 4, 3 * row // 4: 4, row // 2: 6}
        for k in range(row + 1):
            assert binom(row, k) % 8 == special.get(k, 0)


def test_legendre_against_direct_factorials():
    fact = 1
    for n in range(1, 2001):
        fact *= n
        assert nu2_factorial(n) == nu2(fact)


def test_intpoly_ring_ops():
    t = IntPoly.x()
    g2 = t * t - 3 * t
    assert g2.mod(2) == t * t + t
    assert g2.evaluate(3) == 0
    assert (1 + t) * (1 - t) == 1 - t * t
    assert (t - 2).degree == 1
    assert IntPoly((0, 0)).is_zero() and IntPoly.zero().degree == -1
    assert (t + 1) ** 3 == IntPoly((1, 3, 3, 1))
    assert IntPoly((4, 8)).divexact_scalar(4) == IntPoly((1, 2))
    with pytest.raises(ArithmeticError):
        IntPoly((4, 9)).divexact_scalar(4)


def test_intpoly_format_grammar():
    assert IntPoly(()).format() == "0"
    assert IntPoly((1, -3, 1)).format("t") == "1 + -3*t + 1*t^2"
    assert IntPoly((0, 2)).format() == "2*x"
    assert IntPoly((5,)).format() == "5"


_coeff = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**40, 10**40))


@settings(max_examples=60)
@given(st.lists(_coeff, max_size=90), st.lists(_coeff, max_size=140))
def test_convolve_matches_schoolbook(a, b):
    expect = _mul_schoolbook(a, b) if a and b else []
    assert convolve(a, b) == expect
    pa, pb = IntPoly(a), IntPoly(b)
    assert pa * pb == IntPoly(expect)


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda nb: st.tuples(
    st.just(nb), st.lists(st.integers(1 - 2 ** (8 * nb - 1), 2 ** (8 * nb - 1) - 1), max_size=20))))
def test_kron_pack_round_trip(nb_seq):
    # digits up to h - 1 = 2^(8 nb - 1) - 1 in size, of either sign
    nb, seq = nb_seq
    v = kron_pack(seq, nb)
    assert v == sum(c << (8 * nb * i) for i, c in enumerate(seq))
    assert kron_unpack(v, len(seq), nb) == seq


def test_base4_digit_examples():
    assert base4_digits_0136(1) == [1]
    assert base4_digits_0136(2) == [2]
    assert base4_digits_0136(8) == [0, 2]
    with pytest.raises(ValueError):
        base4_digits_0136(0)


def test_base4_roundtrip_and_constraints():
    for n in range(1, 10**5 + 1):
        d = base4_digits_0136(n)
        assert base4_value_0136(d) == n
        assert all(x in (0, 1, 3, 6) for x in d[:-1])
        assert d[-1] in (1, 2, 3, 6)


def test_base4_uniqueness_by_enumeration():
    # count(n) = [n is a valid single digit] + continuations via the forced
    # residue digit; uniqueness means every count is exactly 1
    by_residue = (0, 1, 6, 3)
    counts = {}

    def count(n: int) -> int:
        if n in counts:
            return counts[n]
        total = 1 if n in (1, 2, 3, 6) else 0
        d = by_residue[n % 4]
        rest = (n - d) >> 2
        if n - d >= 0 and rest >= 1:
            total += count(rest)
        counts[n] = total
        return total

    for n in range(1, 10**5 + 1):
        assert count(n) == 1


def test_packed_convolution_matches_naive():
    rng = random.Random(1)
    a = [rng.randrange(-10**8, 10**8) for _ in range(80)]
    b = [rng.randrange(-10**8, 10**8) for _ in range(50)]
    naive = [sum(a[j] * b[i - j] for j in range(max(0, i - 49), min(i + 1, 80)))
             for i in range(129)]
    assert convolve(a, b) == naive
