import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ptmpow import fpow
from ptmpow.core_arith import IntPoly, nu2
from ptmpow.f_polys import (
    FSeries,
    check_addition_formula,
    check_g_factorization,
    log_coeff_base,
    shared_fseries,
    w_poly,
)
from ptmpow.fpow import fpow_at, fpow_prefix, fpow_residues

from oracles import (CoeffTable, _g_rows_reference, fseries_bounds, g_prefix_alt1,
                     g_prefix_alt2, log_series_oracle, product_series_oracle)

# n!*f_n for n = 0..5, coefficients by increasing degree
G_TABLE = [
    (1,),
    (0, -1),
    (0, -3, 1),
    (0, -2, 9, -1),
    (0, -42, 35, -18, 1),
    (0, -24, 270, -155, 30, -1),
]


def test_first_six_polynomials():
    fs = shared_fseries()
    for n, coeffs in enumerate(G_TABLE):
        assert fs.g(n) == IntPoly(coeffs)


def test_alternative_recurrences_agree():
    fs = FSeries()
    a1 = g_prefix_alt1(40)
    a2 = g_prefix_alt2(40)
    for n in range(41):
        assert a1[n] == a2[n] == fs.g(n)
    assert g_prefix_alt1(1)[1] == g_prefix_alt2(1)[1] == IntPoly((0, -1))
    assert g_prefix_alt1(0) == g_prefix_alt2(0) == [IntPoly((1,))]


@pytest.fixture(scope="module")
def g_reference():
    return _g_rows_reference(200)


def test_fseries_matches_the_row_recurrence_in_any_steps(g_reference):
    walk = FSeries()
    for n in range(201):  # one row per call, widening as it goes
        assert walk.g(n) == g_reference[n], n
    one_shot, uneven = FSeries(), FSeries()
    one_shot.extend(200)
    for n in (0, 5, 17, 64, 65, 200):
        uneven.extend(n)
    for n in range(201):
        assert one_shot.g(n) == uneven.g(n) == g_reference[n], n
    # one call to each small n, whose digits are sized by S_n alone
    for n in range(1, 41):
        fs = FSeries()
        fs.extend(n)
        assert [fs.g(m) for m in range(n + 1)] == g_reference[: n + 1], n
    # a call that doubles the table keeps no packed copy of it; a walk does
    assert one_shot._packed is None and uneven._packed is None
    assert len(walk._packed) == 201


def test_fseries_bound_covers_every_coefficient(g_reference):
    fs = FSeries()
    fs.extend(200)
    for m in range(201):
        assert fs._bound(m) >= max(map(abs, g_reference[m].coeffs)), m


def test_fseries_bound_is_its_recurrence():
    # S_m = m! b_1(m), read in O(m), against the O(m^2) recurrence
    # that defines it, asked for in increasing and then in any order
    want = fseries_bounds(200)
    fs = FSeries()
    assert [fs._bound(m) for m in range(201)] == want
    fs = FSeries()
    assert [fs._bound(m) for m in (200, 7, 0, 64)] == [want[m] for m in (200, 7, 0, 64)]


def test_degree_and_leading_coefficient():
    fs = shared_fseries()
    for n in range(201):
        g = fs.g(n)
        assert g.degree == n
        assert g.coeffs[-1] == (-1) ** n


def test_coefficient_table_closed_forms():
    tab = CoeffTable()
    for n in range(31):
        assert tab.a(n, n) == Fraction((-1) ** n, math.factorial(n))
    assert tab.a(0, 7) == 0
    for n in range(2, 101):
        assert tab.a(n - 1, n) == Fraction((-1) ** (n + 1) * 3,
                                           2 * math.factorial(n - 2))
    for n in range(3, 101):
        assert tab.a(n - 2, n) == Fraction((-1) ** n * (27 * n - 73),
                                           24 * math.factorial(n - 3))
    for n in range(1, 1001):
        assert tab.a(1, n) == Fraction(1 - 2 ** (nu2(n) + 1), n)
    with pytest.raises(ValueError):
        tab.a(5, 4)


def test_coefficient_table_matches_polynomials():
    fs = shared_fseries()
    tab = CoeffTable()
    for n in range(41):
        g = fs.g(n)
        for i in range(n + 1):
            assert tab.a(i, n) == Fraction(g[i], math.factorial(n))


def test_w_polynomials_match_factored_forms():
    n = IntPoly.x()
    expected = {
        3: 45 * (9 * n**2 - 73 * n + IntPoly((176,))),
        4: 7 * (1215 * n**3 - 19710 * n**2 + 121685 * n - IntPoly((266398,))),
        5: 945 * (243 * n**4 - 6570 * n**3 + 74165 * n**2 - 394878 * n
                  + IntPoly((805440,))),
        6: 165 * (45927 * n**5 - 1862595 * n**4 + 33070275 * n**3
                  - 310359581 * n**2 + 1497391014 * n - IntPoly((2916611728,))),
    }
    for k, want in expected.items():
        assert w_poly(k) == want
    with pytest.raises(ValueError):
        w_poly(2)
    # beyond k = 6 there is no factored form to pin; the construction still
    # interpolates to an integer polynomial and survives its extra samples
    assert w_poly(7).degree == 6


def test_g_factorization_examples():
    fs = shared_fseries()
    # hand case: g_2 = t^2 - 3t == (t - t^2) * 1 (mod 2)
    assert fs.g(2).mod(2) == (IntPoly.x() - IntPoly.monomial(2)).mod(2)
    for p in (2, 3, 5, 7, 11, 13):
        assert check_g_factorization(p, p).ok
    for n in range(31):
        for p in (2, 3, 5):
            assert check_g_factorization(n, p).ok


def test_addition_formula():
    fs = shared_fseries()
    for n in range(1, 31):
        assert fs.f_value(n, 0) == 0  # t1 = 1, t2 = -1 collapses to f_n(0)
        assert check_addition_formula(n, 1, -1).ok
        assert check_addition_formula(n, 2, 3).ok
    for n in range(51):
        assert fs.f_value(n, 2) == fpow_at(2, n)
    # evaluation bridge: f_n at positive integers is t_m
    for m in range(1, 6):
        for n in range(41):
            assert fs.f_value(n, m) == fpow_at(m, n)


def test_log_coefficients():
    # (1 - 2^(nu2(n)+1)) / n; the series oracle below pins the same values
    assert log_coeff_base(2, 1) == Fraction(1 - 2, 1) == -1
    assert log_coeff_base(2, 2) == Fraction(1 - 4, 2) == Fraction(-3, 2)
    # base k needs the geometric-sum denominator (k-1)*n; hand expansion of
    # log(1-x) + log(1-x^3) puts -1/3 - 1 = -4/3 on x^3
    assert log_coeff_base(3, 3) == Fraction(1 - 9, 2 * 3) == Fraction(-4, 3)
    oracle = log_series_oracle(64)
    for n in range(1, 65):
        assert oracle[n] == log_coeff_base(2, n)
    oracle3 = log_series_oracle(64, base=3)
    for n in range(1, 65):
        assert oracle3[n] == log_coeff_base(3, n)


def test_truncated_product_oracle():
    fs = shared_fseries()
    for t0 in range(-3, 4):
        series = product_series_oracle(t0, 64)
        vals = fpow_prefix(t0, 64)[:65]
        assert series == vals
        for n in range(65):
            assert fs.f_value(n, t0) == series[n]


def test_value_prefix_matches_polynomial_evaluation():
    fs = shared_fseries()
    vals = fpow_prefix(5, 30)[:31]
    for n in range(31):
        assert fs.f_value(n, 5) == vals[n]


def test_fpow_prefix_satisfies_the_halving_identity(monkeypatch):
    # F(x)^t = (1-x)^t F(x^2)^t, checked index by index in its finite form,
    # from empty memos; the requests step across the 4096-index block
    # edges, and every request returns the same memo list
    monkeypatch.setattr(fpow, "_fpow_vals", {})
    monkeypatch.setattr(fpow, "_fpow_carries", {})
    for t in (0, 10, -10, 11, -11, 13, -13):
        vals = fpow_prefix(t, 0)
        done = 0
        for n in (0, 1, 2, 3, 17, 4095, 4096, 4097, 12300):
            assert fpow_prefix(t, n) is vals
            assert n < len(vals) <= n + 4096
            for i in range(done, len(vals)):
                if t > 0:
                    rhs = sum((-1) ** j * math.comb(t, j) * vals[(i - j) // 2]
                              for j in range(i % 2, min(t, i) + 1, 2))
                    assert vals[i] == rhs, (t, i)
                elif t < 0:
                    lhs = sum((-1) ** j * math.comb(-t, j) * vals[i - j]
                              for j in range(min(-t, i) + 1))
                    assert lhs == (0 if i % 2 else vals[i // 2]), (t, i)
                else:
                    assert vals[i] == (i == 0), (t, i)
            done = len(vals)
        assert vals[:257] == product_series_oracle(t, 256)


def test_fpow_prefix_builds_exactly_the_request(monkeypatch):
    # from an empty memo the kernel stops at index n, below one block and
    # across the block edges, and a memo that ends in a cut block grows on
    # to the same values as one built in whole blocks (n = 2^14 - 1 cuts none)
    def fresh():
        monkeypatch.setattr(fpow, "_fpow_vals", {})
        monkeypatch.setattr(fpow, "_fpow_carries", {})

    for t in (2, -3):
        fresh()
        full = list(fpow_prefix(t, (1 << 14) - 1))
        assert full[:65] == product_series_oracle(t, 64)
        for n in (0, 1, 16, 4095, 4096, 4097, 12288):
            fresh()
            vals = fpow_prefix(t, n)
            assert len(vals) == n + 1 and vals == full[: n + 1], (t, n)
            assert fpow_prefix(t, 12289) == full[:12290], (t, n)


@pytest.mark.parametrize("t", range(-6, 10))
def test_fpow_at_reads_one_value_at_any_integer_t(monkeypatch, t):
    # read one index at a time from an empty memo, and as one prefix from
    # another: f_n(0) = [n == 0], and every index below 0 reads 0
    monkeypatch.setattr(fpow, "_fpow_vals", {})
    monkeypatch.setattr(fpow, "_fpow_carries", {})
    one_at_a_time = [fpow_at(t, n) for n in range(-2, 301)]
    assert one_at_a_time == [0, 0] + product_series_oracle(t, 300)
    monkeypatch.setattr(fpow, "_fpow_vals", {})
    monkeypatch.setattr(fpow, "_fpow_carries", {})
    assert one_at_a_time[2:] == fpow_prefix(t, 300)[:301]


def test_fpow_residues_match_the_exact_prefix(monkeypatch):
    # the uint64 kernel against the exact one at every index below 2^14,
    # starting from an empty memo: a first request of a length that is not a
    # power of two, a smaller request served by the memo, then two grows
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_fpow_res", {})
    for t in (2, 3, 5, 9, -1, -2, -3, -6, -8):
        exact = [v % 2**64 for v in fpow_prefix(t, (1 << 14) - 1)[: 1 << 14]]
        first = fpow_residues(t, 1000)
        assert len(first) == 1001 and fpow_residues(t, 999) is first
        assert first.tolist() == exact[:1001]
        grown = fpow_residues(t, 6000)
        assert len(grown) == 6001 and grown.tolist() == exact[:6001]
        full = fpow_residues(t, (1 << 14) - 1)
        assert len(full) == 1 << 14 and full.tolist() == exact
        assert not full.flags.writeable
        with pytest.raises(ValueError):
            full[0] = 0


@pytest.mark.parametrize("t", [1, 2, 5, 9, -3])
def test_fpow_residues_grown_from_the_memo_equal_a_fresh_build(monkeypatch, t):
    # growth reads the memo array and never writes to it
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_fpow_res", {})
    fresh = fpow_residues(t, 40000).copy()
    monkeypatch.setattr(fpow, "_fpow_res", {})
    memo = fpow_residues(t, 3000)
    before = memo.copy()
    grown = fpow_residues(t, 40000)
    assert grown is not memo and (grown == fresh).all() and (memo == before).all()
    assert not memo.flags.writeable and not grown.flags.writeable


@pytest.mark.parametrize("t", range(-6, 10))
def test_fpow_residues_in_small_blocks_match_the_exact_prefix(monkeypatch, t):
    # blocks of 64 entries: a fresh build, a memo grown from a length that
    # is no block edge, and one grown by less than a block
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_CHUNK", 64)
    monkeypatch.setattr(fpow, "_fpow_res", {})
    exact = [v % 2**64 for v in fpow_prefix(t, 3000)[:3001]]
    assert fpow_residues(t, 1000).tolist() == exact[:1001]
    monkeypatch.setattr(fpow, "_fpow_res", {})
    for n in (5, 700, 730, 3000):
        assert fpow_residues(t, n).tolist() == exact[: n + 1], n


def test_an_interrupted_growth_leaves_the_memo_whole(monkeypatch):
    # a growth works on copies of the memo's array and carries, so one that
    # raises part-way leaves the memo to grow correctly later
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_CHUNK", 64)
    monkeypatch.setattr(fpow, "_fpow_res", {})
    exact = [v % 2**64 for v in fpow_prefix(5, 2000)[:2001]]
    fpow_residues(5, 700)
    subtract, calls = np.subtract, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) > 20:
            raise RuntimeError("interrupted")
        return subtract(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np, "subtract", failing)
        with pytest.raises(RuntimeError):
            fpow_residues(5, 2000)
    assert fpow_residues(5, 2000).tolist() == exact


def test_fpow_residues_hold_one_array(monkeypatch):
    # tracemalloc sees numpy's buffers: a fresh build peaks at its result
    # plus one block of scratch, where two buffers of the result peaked at 2x
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_fpow_res", {})
    n = (1 << 19) - 1
    tracemalloc.start()
    try:
        res = fpow_residues(9, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * res.nbytes, peak / res.nbytes


def test_fpow_residues_need_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        fpow_residues(2, 16)
