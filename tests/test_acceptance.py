"""Acceptance suite: every criterion at its full bound, exact arithmetic,
one pass/fail line per criterion (run with `pytest -s` to see them).

Two entries pin facts that are easy to get wrong:
  * criterion 6: the seventh zero of t_3 is 62 (the recurrence value
    4*14+6); 72 is a near-miss that is not a zero (t_3(72) = 361);
  * criterion 15: the b_{2^m-1} power-of-2 congruence conjecture is
    numerically false at (m=1, k=3, n=1), so that campaign honestly
    reports an observation with the witness instead of verified-to-bound.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ptmpow import bm_sequences, f_polys, fpow
from ptmpow.core_arith import IntPoly, nu2
from ptmpow.f_polys import (
    check_g_factorization,
    shared_fseries,
    w_poly,
)
from ptmpow.fpow import fpow_at, fpow_prefix
from ptmpow.tm_sequences import (
    check_growth,
    check_logconcave,
    check_mean,
    check_nonvanishing,
    check_signs,
    check_t2_mod4,
    check_t3_reducibility_witness,
    maxmin_closed,
    multinomial_s1_enumerate,
    t2_solve_many,
    t2_symmetry_partner,
    t3_zero_seq,
    t3_zero_set_upto,
    v2_t2k_closed,
    v2_t3_closed,
)
from ptmpow.bm_sequences import (
    check_8x1,
    check_annihilation,
    check_g1_closed_forms,
    check_window_sum_congruences,
    h_poly,
    v2_b1_churchhouse,
    v2_b2k1_closed,
    v_operator,
)
from ptmpow.campaigns import CAMPAIGNS, exit_code_for, run_campaign

from oracles import (CoeffTable, bm_alt_prefix, bm_oracle, maxmin_scan, tm_oracle,
                     v2_t2k_piecewise, v2_t3_rec)


@pytest.fixture(autouse=True)
def cold_caches(monkeypatch):
    """Each criterion's budget covers building everything it reads: the
    kernel memos, the h memo and the shared FSeries start empty."""
    for name in ("_fpow_vals", "_fpow_carries", "_fpow_res"):
        monkeypatch.setattr(fpow, name, {})
    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    monkeypatch.setattr(f_polys, "_shared", f_polys.FSeries())


@contextmanager
def criterion(num: int, budget_s: float, desc: str):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL ({time.monotonic() - t0:.2f}s): {desc}")
        raise
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {num:02d} PASS ({dt:.2f}s / {budget_s:.0f}s): {desc}")
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_polynomial_table():
    with criterion(1, 1, "f_0..f_5 match the closed-form table verbatim"):
        fs = shared_fseries()
        table = [
            (1,),
            (0, -1),
            (0, -3, 1),
            (0, -2, 9, -1),
            (0, -42, 35, -18, 1),
            (0, -24, 270, -155, 30, -1),
        ]
        for n, coeffs in enumerate(table):
            assert fs.g(n) == IntPoly(coeffs)


def test_criterion_02_coefficient_closed_forms():
    with criterion(2, 5, "a(n,n), a(n-1,n), a(n-2,n), a(1,n) for n <= 100; W_3..W_6"):
        tab = CoeffTable()
        for n in range(101):
            assert tab.a(n, n) == Fraction((-1) ** n, math.factorial(n))
            if n >= 1:
                assert tab.a(1, n) == Fraction(1 - 2 ** (nu2(n) + 1), n)
            if n >= 2:
                assert tab.a(n - 1, n) == Fraction(
                    (-1) ** (n + 1) * 3, 2 * math.factorial(n - 2))
            if n >= 3:
                assert tab.a(n - 2, n) == Fraction(
                    (-1) ** n * (27 * n - 73), 24 * math.factorial(n - 3))
        x = IntPoly.x()
        assert w_poly(3) == 45 * (9 * x**2 - 73 * x + IntPoly((176,)))
        assert w_poly(4) == 7 * (1215 * x**3 - 19710 * x**2 + 121685 * x
                                 - IntPoly((266398,)))
        assert w_poly(5) == 945 * (243 * x**4 - 6570 * x**3 + 74165 * x**2
                                   - 394878 * x + IntPoly((805440,)))
        assert w_poly(6) == 165 * (45927 * x**5 - 1862595 * x**4
                                   + 33070275 * x**3 - 310359581 * x**2
                                   + 1497391014 * x - IntPoly((2916611728,)))


def test_criterion_03_g_factorization():
    with criterion(3, 30, "g_n = g_{n mod p} (t - t^p)^(n//p) mod p, n <= 60, p in {2,3,5,7}"):
        for n in range(61):
            for p in (2, 3, 5, 7):
                assert check_g_factorization(n, p).ok


def test_criterion_04_oracle_equivalence():
    with criterion(4, 10, "t_m and b_m recurrences match the convolution oracles (n <= 60)"):
        for m in range(1, 7):
            for n in range(61):
                assert fpow_at(m, n) == tm_oracle(m, n)
        for m in range(1, 6):
            alt = bm_alt_prefix(m, 60)
            for n in range(61):
                assert fpow_at(-m, n) == alt[n] == bm_oracle(m, n)


def test_criterion_05_valuation_closed_forms():
    with criterion(5, 60, "nu2(t_{2^k}) closed forms k <= 4 and the t_3 base-4 formula, n <= 2^14"):
        n_max = 1 << 14
        for k in range(5):
            vals = fpow_prefix(1 << k, n_max)
            for n in range(n_max + 1):
                direct = nu2(vals[n])
                assert direct == v2_t2k_closed(k, n) == v2_t2k_piecewise(k, n)
        zeros = t3_zero_set_upto(n_max)
        t3 = fpow_prefix(3, n_max)
        for n in range(1, n_max + 1):
            closed = v2_t3_closed(n)
            assert closed == v2_t3_rec(n)
            if n in zeros:
                assert closed is None and t3[n] == 0
            else:
                assert t3[n] != 0 and closed == nu2(t3[n])


def test_criterion_06_t3_zero_prefix_and_reducibility():
    with criterion(6, 10, "first ten zeros of t_3 (seventh is 62, not 72) and f_{a_k}(3) = 0"):
        prefix = t3_zero_seq(10)
        assert prefix == [2, 11, 14, 47, 50, 59, 62, 191, 194, 203]
        # 72 is not a zero: it fails both the recurrence and the evaluation
        assert 4 * 14 + 6 == 62
        assert fpow_at(3, 72) == 361 != 0
        assert check_t3_reducibility_witness(10).ok


def test_criterion_07_t2_coverage():
    with criterion(7, 60, "t_2 hits every target in [-50,50]; symmetry on n <= 10^5; mod-4 rule to 2^16"):
        targets = [v for v in range(-50, 51) if v]
        found = t2_solve_many(targets)
        for v in targets:
            assert fpow_at(2, found[v].n) == v
            if found[v].shifted_instance is not None:
                assert fpow_at(2, found[v].shifted_instance) == v
        for n in range(10**5 + 1):
            assert fpow_at(2, t2_symmetry_partner(n)) == -fpow_at(2, n)
        assert check_t2_mod4(1 << 16).ok


def test_criterion_08_extrema():
    with criterion(8, 120, "closed extrema match scans: m=2 for 3<=k<=20, m=3 for k<=20 with indices"):
        for k in range(3, 21):
            s, c = maxmin_scan(2, k), maxmin_closed(2, k)
            assert (s.max, s.min, s.argmax, s.argmin) == (c.max, c.min, c.argmax, c.argmin)
        for k in range(21):
            s, c = maxmin_scan(3, k), maxmin_closed(3, k)
            assert (s.max, s.min) == (c.max, c.min)
            assert s.argmin == c.argmin
            if k == 1:
                # closed-form index 2 gives t_3(2) = 0, but the max 1 sits at 0
                assert s.argmax == 0 and c.argmax == 2 and fpow_at(3, 2) == 0
            else:
                assert s.argmax == c.argmax


def test_criterion_09_inequality_suite():
    with criterion(9, 60, "growth, mean (equality at even n), log-concavity (+1 at 2^k-4), signs; n <= 2^16"):
        n_max = 1 << 16
        assert check_growth(2, n_max).ok
        assert check_growth(3, n_max).ok
        assert check_mean(n_max).ok
        assert check_logconcave(n_max).ok
        assert check_signs(2, n_max).ok


def test_criterion_10_b_valuations():
    with criterion(10, 60, "nu2(b_{2^k-1}) piecewise for k <= 3 (n <= 2^14); Churchhouse to 2^16"):
        n_max = 1 << 14
        for k in (1, 2, 3):
            vals = fpow_prefix(1 - (1 << k), n_max)
            for n in range(n_max + 1):
                got = nu2(vals[n])
                assert got == v2_b2k1_closed(k, n)
                assert got in (0, 1, 2)
                assert (got == 0) == (n <= (1 << k) - 1)
        b = fpow_prefix(-1, 1 << 16)
        for n in range(2, (1 << 16) + 1):
            assert v2_b1_churchhouse(n) == nu2(b[n])


def test_criterion_11_h_anchors_and_window_sums():
    with criterion(11, 60, "h anchors, the three windowed congruences (n <= 2^12), 8(x+1) | h for k <= 6"):
        assert h_poly(0, 2, 2) == IntPoly((1, 10, 5))
        assert h_poly(2, 2, 2) == IntPoly((5, 10, 1))
        assert h_poly(1, 2, 4) == 4 * IntPoly((1, 3)) * IntPoly((1, 33, 27, 3))
        assert check_window_sum_congruences(1 << 12).ok
        assert check_8x1(6).ok


def test_criterion_12_operator_suite():
    with criterion(12, 60, "V_1 annihilates to m = 40, V_2 (order 4) to m = 12, G closed forms to T^12"):
        v1 = v_operator(1)
        assert [c.coeffs for c in v1.coeffs] == [(-1,), (2,), (-1, 1)]
        for i in (0, 1):
            assert check_annihilation(i, 1, 40).ok
        assert v_operator(2).order <= 4
        for i in range(4):
            assert check_annihilation(i, 2, 12).ok
        assert check_g1_closed_forms().ok


def test_criterion_13_b2_valuation_table():
    with criterion(13, 120, "the full nu2(b_2) equality table to 2^14, with polynomial certificates"):
        assert CAMPAIGNS["b2-valuation-list"].runner({"n": 1 << 14})[0] == "verified-to-bound"


def test_criterion_14_appendix():
    with criterion(14, 10, "multinomial count by enumeration (n,m <= 8); non-vanishing window n <= 8"):
        for n in range(1, 9):
            for m in range(1, 9):
                assert multinomial_s1_enumerate(n, m) == math.comb(n + m - 1, m - 1)
        assert check_nonvanishing(8).ok


def test_criterion_15_conjecture_campaigns():
    with criterion(15, 600, "conjecture campaigns complete at N = 2^12 with exit code 3"):
        bound = 1 << 12
        expectations = {
            "t5-valuation": "verified-to-bound",
            "t9-valuation": "verified-to-bound",
            "b-pow2-congruence": "verified-to-bound",
            # the conjectured modulus overshoots at (m=1, k=3, n=1); the
            # honest completion is an observation carrying that witness
            "b-pow2m1-congruence": "observation",
            "t-zero-m4plus": "verified-to-bound",
            "t-threesigns-turan": "verified-to-bound",
            "b-turan-m4plus": "verified-to-bound",
            "b3-turan-crossover": "observation",
        }
        for name, want in expectations.items():
            key = "index" if name.startswith("b-pow2") or name == "b-congruence-growth" else "n"
            rep = run_campaign(name, bounds={key: bound})
            assert rep.status == want, (name, rep.status, rep.witness)
            assert exit_code_for(rep) == 3
            assert rep.bounds[key] == bound
        # replay the recorded counterexample through the module operation
        rep = run_campaign("b-pow2m1-congruence", bounds={"index": bound})
        w = rep.witness["failing"][0]
        m = (1 << w["m"]) - 1
        n, k = w["n"], w["k"]
        assert (fpow_at(-m, n << (k + 1)) - fpow_at(-m, n << (k - 1))) % w["mod"] != 0
        print("  note: b-pow2m1-congruence records the witness "
              f"{w} against the conjectured modulus, as documented")
