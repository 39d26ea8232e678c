import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmpow.core_arith import IntPoly, nu2
from ptmpow.f_polys import shared_fseries
from ptmpow.fpow import fpow_at, fpow_prefix
from ptmpow import bm_sequences, campaigns, fpow, hfamily, tm_sequences
from ptmpow.campaigns import CAMPAIGNS
from ptmpow.bm_sequences import (
    b2_certificate_witness,
    check_4div,
    check_8x1,
    check_annihilation,
    check_bm_monotone,
    check_congrup,
    check_formula_2k,
    check_g1_closed_forms,
    check_h12,
    check_h_identity,
    check_h_mod_p,
    check_parity_b,
    check_radical,
    check_rps,
    check_derivative_identity,
    check_window_sum_congruences,
    check_turan_b,
    h_poly,
    palindromic_decompose,
    v2_b1_churchhouse,
    v2_b2k1_closed,
    v_operator,
)

from oracles import (_h_per_child, b1_euler_prefix, b1_oracle, bm_alt_prefix, bm_oracle,
                     v2_b2k1_reduced)


def test_b1_values_and_oracle():
    assert fpow_at(-1, 0) == 1 and fpow_at(-1, 1) == 1
    assert fpow_at(-1, 2) == 2
    assert fpow_at(-1, 8) == 10
    for n in range(201):
        assert fpow_at(-1, n) == b1_oracle(n)


def test_bm_seeds_and_small_values():
    assert fpow_at(-3, 1) == 3
    assert fpow_at(-2, 2) == 5
    assert fpow_at(-2, 3) == 8
    assert fpow_at(-4, -1) == 0


def test_bm_three_routes_agree():
    for m in range(1, 5):
        alt = bm_alt_prefix(m, 40)
        for n in range(41):
            assert fpow_at(-m, n) == alt[n] == bm_oracle(m, n)


def test_bm_1_matches_b1():
    vals = fpow_prefix(-1, 10**5)
    assert vals[: 10**5 + 1] == b1_euler_prefix(10**5)


def test_f_at_negative_integers_is_bm():
    fs = shared_fseries()
    for m in range(1, 5):
        for n in range(41):
            assert fs.f_value(n, -m) == fpow_at(-m, n)


def test_turan_identities():
    # hand instance: b(2)^2 - b(1) b(3) = 4 - 2 = b(2) b(1)
    b1 = partial(fpow_at, -1)
    assert b1(2) ** 2 - b1(1) * b1(3) == b1(2) * b1(1) == 2
    # hand instance for m=2 at n=1: b_2(2)^2 - b_2(1) b_2(3) = (b_2(0)+b_2(1))^2
    b2 = partial(fpow_at, -2)
    assert b2(2) ** 2 - b2(1) * b2(3) == (b2(0) + b2(1)) ** 2 == 9
    assert check_turan_b(1, 1 << 12).ok
    rep = check_turan_b(2, 1 << 12)
    assert rep.ok
    assert rep.witness["negativity_violations"] == 0


def test_b2_odd_identity_uses_shifted_partial_sum():
    # at n = 1 the identity only balances with the partial sum stopping at
    # n - 1; the same display with the sum through n misses by 8
    b2 = partial(fpow_at, -2)
    lhs = b2(1) ** 2 - b2(0) * b2(2)
    assert lhs == b2(0) ** 2 - b2(0) * b2(1)
    assert lhs != (b2(0) + b2(1)) ** 2 - b2(0) * b2(1)


def test_parity_congruences():
    assert fpow_at(-2, 2) % 8 == 5  # C(2,2) + 4*C(0,0)
    assert check_parity_b(2, 1 << 12).ok
    assert check_parity_b(3, 1 << 12).ok
    assert check_parity_b(4, 1 << 12).ok
    assert check_parity_b(6, 1 << 10).ok


def test_churchhouse_formula():
    assert v2_b1_churchhouse(2) == 1
    assert v2_b1_churchhouse(4) == 2
    assert v2_b1_churchhouse(5) == 2
    vals = fpow_prefix(-1, 1 << 12)
    for n in range(2, (1 << 12) + 1):
        assert v2_b1_churchhouse(n) == nu2(vals[n])


def test_v2_b2k1_piecewise():
    for k in (1, 2, 3):
        vals = fpow_prefix(1 - (1 << k), 1 << 12)
        for n in range(1 << 12):
            got = nu2(vals[n])
            assert got == v2_b2k1_closed(k, n) == v2_b2k1_reduced(k, n)
            assert got in (0, 1, 2)
            assert (got == 0) == (n <= (1 << k) - 1)
            assert vals[n] % 16 != 0
    # the second block of residues pins the value 1
    assert v2_b2k1_closed(2, 4) == 1 and v2_b2k1_closed(2, 7) == 1


def test_h_anchor_polynomials():
    assert h_poly(0, 0, 7) == IntPoly.one()
    assert h_poly(0, 2, 2) == IntPoly((1, 10, 5))
    assert h_poly(2, 2, 2) == IntPoly((5, 10, 1))
    assert h_poly(1, 1, 2) == IntPoly((2,))
    assert h_poly(3, 2, 2) == 8 * IntPoly((1, 1))
    assert h_poly(1, 2, 4) == 4 * IntPoly((1, 3)) * IntPoly((1, 33, 27, 3))
    with pytest.raises(ValueError):
        h_poly(4, 2, 2)


def test_h_defining_identity():
    for k in range(4):
        for i in range(1 << k):
            for m in range(1, 7):
                assert check_h_identity(i, k, m).ok
    # deep residues of the kind the valuation table relies on
    for i, k in ((5, 3), (17, 5), (78, 8), (180, 8)):
        assert check_h_identity(i, k, 2).ok


def test_h_mod_p_reductions():
    assert check_h_mod_p(3, 1, 1).ok
    rep = check_h_mod_p(3, 1, 2)
    assert rep.ok  # m = 3 (mod 4) branch
    for p, s in ((5, 1), (13, 1), (3, 2)):
        rep = check_h_mod_p(p, s, 2)
        assert rep.ok
        # m = p^s = 1 (mod 4): the exact polynomial matches the exponents
        # derived in the proof, (m-1)/4 and (5m-1)/4
        assert rep.witness["h12_matches"] == "proof-form"
    # and explicitly: h_{1,2,5} mod 5 is x + x^6
    got = h_poly(1, 2, 5).mod(5)
    assert got == (IntPoly.monomial(1) + IntPoly.monomial(6)).mod(5)


def test_congruence_families_for_prime_powers():
    assert check_congrup(3, 1, 1 << 10).ok
    assert check_congrup(3, 1, 1 << 10).checked > 0
    assert check_congrup(5, 1, 1 << 9).ok
    assert check_congrup(3, 2, 1 << 8).ok
    assert check_congrup(7, 1, 1 << 8).ok


def test_h_mod_p_reports_its_first_mismatch(monkeypatch):
    # h_{2,2,5} + 1 on a fresh memo: h_{1,2,5} has matched the proof form
    # before h_{2,2,5} = 2x^2 (mod 5) fails
    h_exact = bm_sequences.h_poly
    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    monkeypatch.setattr(bm_sequences, "h_poly", lambda *ikm: (
        h_exact(*ikm) + IntPoly.one() if ikm == (2, 2, 5) else h_exact(*ikm)))
    rep = check_h_mod_p(5, 1, 2)
    assert not rep.ok
    assert rep.witness == {"p": 5, "s": 1, "m": 5, "h12_matches": "proof-form",
                           "i": 2, "got": ["1", "0", "2"]}


@pytest.mark.parametrize("p, index, checked, witness", [
    (3, 1, 1, {"k": 1, "i": 1, "n": 0}),
    (3, 100, 152, {"k": 2, "i": 0, "n": 25}),
    (5, 211, 317, {"k": 2, "i": 3, "n": 52}),
])
def test_congrup_reports_its_first_failure(monkeypatch, p, index, checked, witness):
    # b_p(index) + 1 on a copy of the kernel's memo entry that reaches the
    # last index check_congrup(p, 1, 300) reads, 4 * 300 + 3, so no read
    # grows the copy
    planted = list(fpow_prefix(-p, 4 * 300 + 3))
    planted[index] += 1
    monkeypatch.setitem(fpow._fpow_vals, -p, planted)
    rep = check_congrup(p, 1, 300)
    assert (rep.ok, rep.checked, rep.witness) == (False, checked, witness)


@pytest.mark.parametrize("p", [9, 2, 1, 0, -3])
def test_h_forms_refuse_a_p_that_is_not_an_odd_prime(p):
    # the congruences hold for odd primes only; outside that domain a
    # failing report would read as a failing theorem
    with pytest.raises(ValueError, match="odd prime"):
        check_congrup(p, 1, 50)
    with pytest.raises(ValueError, match="odd prime"):
        check_h_mod_p(p, 1, 1)


@pytest.mark.parametrize("p, s", [(3, -1), (5, -2), (0, -1)])
def test_h_forms_refuse_a_negative_s(p, s):
    # m = p^s must be an integer; s = 0 (m = 1) stays valid
    with pytest.raises(ValueError, match="odd prime" if p < 3 else "s >= 0"):
        check_congrup(p, s, 5)
    with pytest.raises(ValueError, match="odd prime" if p < 3 else "s >= 0"):
        check_h_mod_p(p, s, 1)
    assert check_congrup(3, 0, 5).ok and check_h_mod_p(3, 0, 2).ok


def test_derivative_identity_and_divisibility():
    b1 = partial(fpow_at, -1)
    assert 2 * fpow_at(-2, 2) == 2 * (2 * b1(2) * 1 + 1 * b1(1) * b1(1))
    assert fpow_at(-3, 2) % 3 == 0
    for m in (2, 3, 6):
        assert check_derivative_identity(m, 1 << 10).ok


def test_rps_congruences():
    assert check_rps(1, 3, 1, 1 << 10).ok
    assert check_rps(2, 3, 1, 1 << 10).ok
    assert check_rps(1, 5, 1, 1 << 9).ok
    assert check_rps(1, 3, 2, 1 << 9).ok
    assert check_radical(6, 1 << 10).ok
    assert check_radical(12, 1 << 9).ok


def test_window_sum_congruences():
    assert check_window_sum_congruences(1 << 10).ok
    assert h_poly(2, 2, 2).mod(5) == IntPoly.monomial(2)


def test_8x1_divisibility_and_palindromes(monkeypatch):
    assert check_8x1(5).ok
    assert check_h12(5).ok
    # each failure path, through one perturbed h on a fresh memo, so that no
    # perturbed value is memoised past the test
    h_exact = bm_sequences.h_poly

    def perturb(key, delta):
        monkeypatch.setattr(bm_sequences, "_h_memo", {})
        monkeypatch.setattr(bm_sequences, "h_poly", lambda *ikm: (
            h_exact(*ikm) + delta if ikm == key else h_exact(*ikm)))

    # h_{3,2,2} = 8 + 8x: +8 keeps 8 | h but h(-1) = 8, +1 breaks 8 | h
    for delta in (8, 1):
        perturb((3, 2, 2), delta)
        rep = check_8x1(5)
        assert not rep.ok and rep.witness == {"family": 2, "k": 1}
    # h_{1,1,2} = 2 leads with a_0 = 2; h_{1,2,2} = 2(1+x)^2 + 8x, and one
    # more x keeps it palindromic with a_1 = 9
    perturb((1, 1, 2), 1)
    assert check_h12(5).witness == {"family": 2, "k": 0, "coeffs": [3]}
    perturb((1, 2, 2), IntPoly.x())
    rep = check_h12(5)
    assert not rep.ok and rep.witness == {"family": 2, "k": 1, "coeffs": [2, 9]}
    assert check_4div(64).ok
    from ptmpow.core_arith import binom
    assert binom(4, 2) - binom(2, 1) == 4
    s, coeffs = palindromic_decompose(IntPoly((1, 2, 1)))
    assert s == 0 and coeffs[0] == 1
    with pytest.raises(ValueError):
        palindromic_decompose(IntPoly((1, 2, 3)))


@settings(max_examples=50)
@given(st.integers(0, 3),
       st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_palindromic_decompose_roundtrip(s, coeffs):
    d = s + 2 * (len(coeffs) - 1)
    p = IntPoly.zero()
    for j, a in enumerate(coeffs):
        p = p + IntPoly.monomial(s + j, a) * IntPoly((1, 1)) ** (d - s - 2 * j)
    if p.is_zero():
        return
    s2, got = palindromic_decompose(p)
    rebuilt = IntPoly.zero()
    for j, a in enumerate(got):
        rebuilt = rebuilt + IntPoly.monomial(s2 + j, a) * IntPoly((1, 1)) ** (p.degree - s2 - 2 * j)
    assert rebuilt == p


def test_shift_operators():
    v1 = v_operator(1)
    assert [c.coeffs for c in v1.coeffs] == [(-1,), (2,), (-1, 1)]
    # seeds of the order-2 recurrence h_m = 2 h_{m-1} + (x-1) h_{m-2}
    assert h_poly(0, 1, 0) == IntPoly.one() and h_poly(0, 1, 1) == IntPoly.one()
    assert h_poly(1, 1, 0) == IntPoly.zero() and h_poly(1, 1, 1) == IntPoly.one()
    for i in (0, 1):
        assert check_annihilation(i, 1, 40).ok
    v2 = v_operator(2)
    assert v2.order == 4
    for i in range(4):
        assert check_annihilation(i, 2, 12).ok
    v3 = v_operator(3)
    assert v3.order == 8
    assert check_annihilation(0, 3, 10).ok


def test_operator_factor_order_commutes():
    # build V_2 with the two factors swapped; the result must agree
    from ptmpow.bm_sequences import _flip, _half_in_x, _one_plus_y, _operator_product

    prev = v_operator(1)
    a = [c * _one_plus_y(j * 2) for j, c in enumerate(prev.coeffs)]
    b = [_flip(c) * _flip(_one_plus_y(j * 2)) for j, c in enumerate(prev.coeffs)]
    swapped = [_half_in_x(p, False, "odd power of y") for p in _operator_product(b, a)]
    assert tuple(swapped) == v_operator(2).coeffs


def test_half_in_x_splits_and_rejects_the_other_parity():
    from ptmpow.bm_sequences import _flip, _half_in_x, _one_plus_y

    def split(p):
        # p(y) = even(y^2) + y odd(y^2), through the symmetrised halves
        even = _half_in_x((p + _flip(p)).divexact_scalar(2), False, "even")
        odd = _half_in_x((p - _flip(p)).divexact_scalar(2), True, "odd")
        return even, odd

    y3 = IntPoly.monomial(3)
    assert split(_one_plus_y(2)) == (IntPoly((1, 1)), IntPoly((2,)))
    assert split(_one_plus_y(4)) == (IntPoly((1, 6, 1)), IntPoly((4, 4)))
    assert split(y3) == (IntPoly.zero(), IntPoly((0, 1)))
    for p, odd in ((_one_plus_y(2), False), (_one_plus_y(4), True), (y3, False)):
        with pytest.raises(ArithmeticError, match="wrong parity"):
            _half_in_x(p, odd, "wrong parity")


@pytest.mark.parametrize("upper_first", [False, True])
@pytest.mark.parametrize("k, m", [(4, 2), (5, 3), (6, 5)])
def test_h_sibling_pair_matches_the_per_child_recurrence(monkeypatch, k, m, upper_first):
    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    half, reference = 1 << (k - 1), {}
    for j in range(1 << k):
        i = j ^ half if upper_first else j
        assert h_poly(i, k, m) == _h_per_child(i, k, m, reference), (i, k, m)
        # the sibling is then served without a multiply
        sibling = _h_per_child(i ^ half, k, m, reference)
        with monkeypatch.context() as mp:
            mp.setattr(IntPoly, "__mul__", _no_multiply)
            assert h_poly(i ^ half, k, m) == sibling, (i ^ half, k, m)


def _no_multiply(*_):
    raise AssertionError("a polynomial multiply")


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 12])
def test_h_family_route_matches_the_per_child_recurrence(monkeypatch, m):
    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    for k in range(7):
        reference = {}
        h_poly(0, k, m)  # the chain serves the first request
        assert bm_sequences._h_memo[k, m] is None
        for i in range(1 << k):
            assert h_poly(i, k, m) == _h_per_child(i, k, m, reference), (i, k, m)
        assert bm_sequences._h_memo[k, m] is not None


@pytest.mark.parametrize("k, m", [(10, 3), (9, 5)])
def test_h_family_route_matches_the_chain_on_large_families(monkeypatch, k, m):
    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    family = [h_poly(i, k, m) for i in range(1 << k)]
    assert bm_sequences._h_memo[k, m] is not None
    reference = {}
    assert family == [_h_per_child(i, k, m, reference) for i in range(1 << k)]
    # the chain itself, with no memo, at both ends and across the middle
    for i in (0, 1, 5, (1 << (k - 1)) + 3, (1 << k) - 1):
        assert bm_sequences._h_chain(i, k, m) == family[i], i


@pytest.mark.parametrize("level, upper, bad", [(1, False, (0, 1, 2)), (1, True, (1, 1, 2)),
                                                (3, False, (0, 3, 2)), (3, True, (4, 3, 2))])
def test_a_corrupted_flipped_product_fails_on_the_family_route(monkeypatch, level, upper, bad):
    # B + 2 at digit 0 (a digit of the upper children) or at the first digit
    # under the mask (a flipped one, of the lower children), at one level
    product, calls = hfamily._flipped_product, []

    def corrupt(q, mask, shift, e):
        calls.append(mask)
        out = product(q, mask, shift, e)
        if len(calls) == level:
            out += 2 if upper else 2 * (mask & -mask)
        return out

    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    assert h_poly(0, 4, 2) == _h_per_child(0, 4, 2, {})  # by the chain
    monkeypatch.setattr(hfamily, "_flipped_product", corrupt)
    for i in (0, 13):  # any request raises, and the family is not memoised
        calls.clear()
        with pytest.raises(ArithmeticError, match=re.escape(f"parity violation at {bad}")):
            h_poly(i, 4, 2)
        assert bm_sequences._h_memo == {(4, 2): None}


def test_h_route_choice(monkeypatch):
    routes = []
    chain, family = bm_sequences._h_chain, hfamily.build

    def spy(name, build):
        def wrapped(*args):
            routes.append(name)
            return build(*args)
        return wrapped

    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    monkeypatch.setattr(bm_sequences, "_h_chain", spy("chain", chain))
    monkeypatch.setattr(hfamily, "build", spy("family", family))
    reference = {}
    for i, route in ((5, ["chain"]), (5, ["family"]), (2, []), (7, [])):
        routes.clear()
        assert h_poly(i, 3, 4) == _h_per_child(i, 3, 4, reference)
        assert routes == route, i
    # the packed bytes of Q_k against 3 MiB alone: (10, 6) fits and (10, 7)
    # is 15752 bytes over; at m = 0 the packed Q_k is one byte at any k
    for k, m, fits in ((10, 6, True), (10, 7, False), (11, 4, True), (15, 0, True),
                       (16, 0, True), (1500, 0, True)):
        packed = (m * ((k - 1) * 2**k + 1) + 1) * hfamily.width(k, m)
        assert (packed <= 3 << 20) == fits
        routes.clear()
        h0, h3 = h_poly(0, k, m), h_poly(3, k, m)
        assert routes == ["chain", "family" if fits else "chain"], (k, m)
        assert bm_sequences._h_memo[k, m] is None or fits
        if m == 0:
            assert (h0, h3) == (IntPoly.one(), IntPoly.zero())
    for i in (0, 3, 1000):
        assert h_poly(i, 10, 7) == _h_per_child(i, 10, 7, reference), i


def test_a_family_within_the_byte_budget_is_built_once(monkeypatch):
    # (11, 4) has 2^11 + deg Q_11 + 1 = 83973 digits and residues, past the
    # count that once kept it on the chain, and packs into 2.7 MiB
    builds = []
    build = hfamily.build

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    monkeypatch.setattr(hfamily, "build", counted)
    family = [h_poly(i, 11, 4) for i in range(1 << 11)]
    assert builds == [(11, 4)]
    for i in (0, 1, 777, 1024, 2047):
        assert bm_sequences._h_chain(i, 11, 4) == family[i], i


@pytest.mark.parametrize("at, bad", [(1, (0, 1, 3)), (2, (1, 1, 3))])
def test_a_corrupted_flipped_product_fails_its_childs_parity(monkeypatch, at, bad):
    # b = (1-y)^3 + 2y^at is flip(a) + 2y^at at level 1, so (a+b)/2 gains an
    # odd power of y when `at` is odd, and (a-b)/2 an even one when it is
    # even: each child's own assertion catches its half of the damage
    flip = bm_sequences._flip

    def corrupt(p):
        q = list(flip(p).coeffs)
        if len(q) == 4:  # the binomial row of (1+y)^3
            q[at] += 2
        return IntPoly(q)

    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    monkeypatch.setattr(bm_sequences, "_flip", corrupt)
    for i in (0, 1):  # either child builds the pair, and neither is memoised
        with pytest.raises(ArithmeticError, match=re.escape(f"parity violation at {bad}")):
            h_poly(i, 1, 3)
        assert bm_sequences._h_memo == {}


def test_h_chain_deeper_than_the_recursion_limit(monkeypatch):
    # h_{i,k,0} = [i = 0]: every level multiplies by (1+y)^0 = 1
    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    assert h_poly(0, 1500, 0) == IntPoly.one()
    assert h_poly(3, 1500, 0) == IntPoly.zero()
    assert h_poly((1 << 1500) - 1, 1500, 0) == IntPoly.zero()


def test_operator_product_at_its_digit_bound():
    # equal coefficients attain the digit bound in the middle of theta^1, so
    # a width one byte short of the rule, or a bound without min(len), fails
    p = IntPoly([1000] * 256)
    a, b = [p, p, IntPoly.zero()], [p, p, -p, IntPoly((3, -1))]
    want = [IntPoly.zero()] * 6
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            want[i + j] = want[i + j] + ai * bj
    assert bm_sequences._operator_product(a, b) == want


def test_v_operator_rejects_an_odd_power_in_its_product(monkeypatch):
    product = bm_sequences._operator_product

    def off_by_one(a, b):
        out = product(a, b)
        out[1] = out[1] + IntPoly.monomial(1)
        return out

    monkeypatch.setattr(bm_sequences, "_operator_product", off_by_one)
    with pytest.raises(ArithmeticError, match="V_2 coefficient is not even"):
        v_operator(2)


def test_g1_series_closed_forms():
    assert check_g1_closed_forms().ok


def test_b2_valuation_table():
    assert nu2(fpow_at(-2, 3)) == 3
    assert nu2(fpow_at(-2, 5)) == 3
    assert nu2(fpow_at(-2, 78)) == 7
    runner = CAMPAIGNS["b2-valuation-list"].runner
    assert runner({"n": 1 << 12})[0] == "verified-to-bound"
    # one check per index of each tabulated class up to the bound
    assert runner({"n": 1 << 16}) == ("verified-to-bound", {"checked": 61696})


def test_b2_valuation_table_reports_its_first_mismatch(monkeypatch):
    # doubling b_2 at an index of a tabulated class raises its nu2 to a + 1;
    # the witness is the first such index, in table order
    n_max = 1 << 10
    exact = fpow_prefix(-2, n_max)[: n_max + 1]
    for bad, witness in (([4 * 5 + 3, 4 * 7 + 3], {"modulus": 4, "i": 3, "n": 5}),
                         ([16 * 2 + 9], {"modulus": 16, "i": 9, "n": 2})):
        vals = list(exact)
        for idx in bad:
            vals[idx] *= 2
        monkeypatch.setattr(campaigns, "fpow_prefix", lambda t, n: vals)
        assert CAMPAIGNS["b2-valuation-list"].runner({"n": n_max}) == (
            "counterexample", {**witness, "value_nu2": 4})


# (module, check, args, t, index, plant, checked, witness): f_index(t), as
# the module's check reads it, becomes plant(f_index(t)), and the check
# fails with a witness that holds these items, having counted as checked
# only the cases that held.  t_2(27) = 12 sits between -1 and -11, so a 0
# there breaks Turán's inequality at 27; t_2(28) = -11 sits between 12 and
# 10, after -1, so a 1 there gives the first positive triple at 28; a large
# t_2(40) breaks the mean inequality at 39; b_3(77) and b_3(78) are 0 mod 3,
# and 78 is a multiple of 3.  check_bm_monotone has one case per value, so
# b_3(90) = 0 fails after the 2 * 201 values of b_1, b_2 and the 90 of b_3
# below it; check_radical tests only the n prime to 6, and 77 is the 26th;
# b_2(40) sits in the window of congruence 2 from n = 10 on, after the 3
# anchors, the 57 cases of congruence 1 and 2 * 6 of congruences 2 and 3
PLANTED_CHECKS = (
    (tm_sequences, "check_parity_t", (3, 200), 3, 77, lambda v: v + 1, 77, {"m": 3, "n": 77}),
    (tm_sequences, "check_turan_t", (2, 200), 2, 27, lambda v: 0, 26, {"m": 2, "n": 27}),
    (tm_sequences, "check_logconcave", (200,), 2, 27, lambda v: 0, 26, {"n": 27}),
    (tm_sequences, "check_signs", (2, 200), 2, 28, lambda v: 1, 27, {"m": 2, "n": 28}),
    (tm_sequences, "check_t2_mod4", (100,), 2, 74, lambda v: v + 1, 37, {"n": 37}),
    (tm_sequences, "check_growth", (3, 200), 3, 50, lambda v: 10**9, 49, {"m": 3, "n": 50}),
    (tm_sequences, "check_mean", (200,), 2, 40, lambda v: 10**6, 38, {"n": 39}),
    (bm_sequences, "check_parity_b", (3, 200), -3, 77, lambda v: v + 1, 77,
     {"m": 3, "n": 77}),
    (bm_sequences, "check_parity_b", (2, 200), -2, 77, lambda v: v + 1, 77,
     {"m": 2, "n": 77, "mod": 8}),
    (bm_sequences, "check_rps", (1, 3, 1, 200), -3, 77, lambda v: v + 1, 77,
     {"n": 77, "family": "vanishing"}),
    (bm_sequences, "check_rps", (1, 3, 1, 200), -3, 78, lambda v: v + 1, 78,
     {"n": 78, "family": "reduction"}),
    (bm_sequences, "check_turan_b", (1, 100), -1, 60, lambda v: v + 1, 29, {"n": 30}),
    (bm_sequences, "check_bm_monotone", (4, 200), -3, 90, lambda v: 0, 492, {"m": 3}),
    (bm_sequences, "check_derivative_identity", (3, 200), -3, 77, lambda v: v + 1, 77,
     {"m": 3, "n": 77, "identity": "derivative"}),
    (bm_sequences, "check_radical", (6, 200), -6, 77, lambda v: v + 1, 25, {"m": 6, "n": 77}),
    (bm_sequences, "check_window_sum_congruences", (64,), -2, 40, lambda v: v + 1, 72,
     {"congruence": 2, "n": 10}),
    (bm_sequences, "check_formula_2k", (1, 200), -2, 77, lambda v: v + 1, 77, {"k": 1, "n": 77}),
)


@pytest.mark.parametrize("module,check,args,t,index,plant,checked,witness", PLANTED_CHECKS,
                         ids=[f"{c[1]}{c[2]}@{c[4]}" for c in PLANTED_CHECKS])
def test_a_planted_value_fails_its_check_at_its_index(monkeypatch, module, check, args, t,
                                                      index, plant, checked, witness):
    exact = module.fpow_prefix

    def planted(s, n):
        vals = exact(s, max(n, index))
        if s == t:
            vals = list(vals)  # a copy: the memo is shared
            vals[index] = plant(vals[index])
        return vals

    assert getattr(module, check)(*args).ok
    monkeypatch.setattr(module, "fpow_prefix", planted)
    rep = getattr(module, check)(*args)
    assert (rep.ok, rep.checked) == (False, checked)
    assert {key: rep.witness.get(key) for key in witness} == witness


@pytest.mark.parametrize("stage, plant", [("divisibility", 1), ("certificate", 8)])
def test_a_failed_b2_certificate_names_its_entry(monkeypatch, stage, plant):
    # h_{9,4,2} is 0 mod 2^3: + 1 breaks the divisibility, and + 8 keeps it
    # but flips the constant term of h/2^3 mod 2; the exact runner checks
    # the certificates before any value
    exact = bm_sequences.h_poly

    def planted(i, k, m):
        h = exact(i, k, m)
        return h + IntPoly((plant,)) if (i, k, m) == (9, 4, 2) else h

    assert b2_certificate_witness() is None
    monkeypatch.setattr(bm_sequences, "h_poly", planted)
    witness = {"modulus": 16, "i": 9, "stage": stage}
    assert b2_certificate_witness() == witness
    assert CAMPAIGNS["b2-valuation-list"].runner({"n": 1 << 10}) == ("counterexample", witness)


def test_inverse_and_color_drop_identities():
    # k = 0 is the inverse identity: sum_j t_{n-j} b(j) == [n == 0]
    assert check_formula_2k(0, 10**4).ok
    for k in (1, 2, 3):
        assert check_formula_2k(k, 1 << 10).ok


def test_bm_monotone_in_colors():
    assert check_bm_monotone(6, 1 << 10).ok
    # one case per value b_m(n), m <= m_max, n <= n_max
    assert [check_bm_monotone(m, n).checked for m, n in ((0, 5), (1, 0), (1, 5), (6, 1024))] == [
        0, 1, 6, 6 * 1025]


@pytest.mark.parametrize("n_max, congruences", [(0, 0), (3, 0), (8, 1 + 2 * 5),
                                                 (64, 57 + 2 * 61)])
def test_window_sums_count_their_anchors_and_congruences(n_max, congruences):
    # the 3 exact h anchors, then congruence 1 for 8 <= n <= n_max and
    # congruences 2 and 3 for 4 <= n <= n_max
    assert check_window_sum_congruences(n_max).checked == 3 + congruences


def test_h8_checks_count_the_polynomials_they_read():
    # check_8x1 reads h_{2^k+1,k+1,2} from k = 1 and h_{2^k+2,k+1,4} from
    # k = 2; check_h12 reads h_{1,k+1,2} from k = 0 and h_{2,k+1,4} from k = 1
    assert [check_8x1(k).checked for k in (0, 1, 2, 5)] == [0, 1, 3, 9]
    assert [check_h12(k).checked for k in (0, 1, 5)] == [1, 3, 11]
