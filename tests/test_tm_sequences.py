import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmpow.core_arith import nu2, nu2_or_none, ptm
from ptmpow.f_polys import shared_fseries
from ptmpow.fpow import fpow_at, fpow_prefix
from ptmpow.reports import sweep
from ptmpow.tm_sequences import (
    PairTreeNode,
    check_growth,
    check_t2_shift_families,
    check_logconcave,
    check_mean,
    check_nonvanishing,
    check_parity_t,
    check_signs,
    check_t2_mod4,
    check_t3_reducibility_witness,
    check_turan_t,
    maxmin_closed,
    multinomial_s1_enumerate,
    pair_tree_rowmajor,
    t2_solve,
    t2_symmetry_partner,
    t3_zero_seq,
    t3_zero_set_upto,
    v2_t2k_closed,
    v2_t3_closed,
)

from oracles import maxmin_scan, t2_two_term_prefix, tm_oracle, v2_t2k_piecewise, v2_t3_rec

# first zeros of t_3; note the seventh is 62 (= 4*a_3 + 6 = 4*14 + 6, also
# confirmed by a direct scan), not the near-miss 72
A3_PREFIX = [2, 11, 14, 47, 50, 59, 62, 191, 194, 203]


def test_ptm_values():
    assert ptm(0) == 1
    assert ptm(1) == -1
    assert ptm(3) == 1
    assert [ptm(n) for n in range(8)] == [1, -1, -1, 1, -1, 1, 1, -1]


def test_tm_basic_values():
    assert fpow_at(3, 2) == 0
    assert fpow_at(2, 5) == 2
    assert fpow_at(2, 3) == 4
    assert fpow_at(5, 1) == -5
    assert fpow_at(4, -3) == 0


def test_recurrence_matches_convolution_oracle():
    for m in range(1, 5):
        for n in range(41):
            assert fpow_at(m, n) == tm_oracle(m, n)


def test_t1_is_ptm():
    vals = fpow_prefix(1, 10**5)
    for n in range(10**5 + 1):
        assert vals[n] == ptm(n)


def test_t2_fast_path_matches_general_recurrence():
    general = fpow_prefix(2, 10**6)
    assert t2_two_term_prefix(10**6) == general[: 10**6 + 1]


def test_t2_dyadic_anchors():
    assert fpow_at(2, 0) == 1 and fpow_at(2, 1) == -2
    for k in range(1, 21):
        assert fpow_at(2, (1 << k) - 1) == (-2) ** k
        assert fpow_at(2, (1 << k) - 2) == (1 - (-2) ** k) // 3


def test_parity_congruence():
    assert check_parity_t(2, 1 << 12).ok
    assert check_parity_t(7, 1 << 10).ok
    assert check_parity_t(1, 1 << 10).ok  # |t_n| = 1 is always odd


def test_v2_powers_of_two():
    assert v2_t2k_closed(1, 1) == 1  # t_2(1) = -2
    assert v2_t2k_closed(1, 3) == 2  # t_2(3) = 4
    for n in range(200):
        assert v2_t2k_closed(0, n) == 0
    for k in range(5):
        vals = fpow_prefix(1 << k, 1 << 12)
        for n in range(1 << 12):
            c = v2_t2k_closed(k, n)
            assert c == v2_t2k_piecewise(k, n) == nu2(vals[n])


def test_v2_t3_closed_and_recursive():
    assert v2_t3_closed(2) is None
    assert v2_t3_closed(3) == 3
    assert v2_t3_closed(4) == 0
    vals = fpow_prefix(3, 1 << 12)
    for n in range(1, 1 << 12):
        assert v2_t3_closed(n) == v2_t3_rec(n) == nu2_or_none(vals[n])


def test_t3_zero_set():
    assert t3_zero_seq(10) == A3_PREFIX
    assert t3_zero_seq(2)[1] == 4 * 2 + 3 == 11
    zeros = t3_zero_set_upto(10**5)
    vals = fpow_prefix(3, 10**5)
    for n in range(1, 10**5 + 1):
        assert (vals[n] == 0) == (n in zeros) == (v2_t3_closed(n) is None)


def test_72_is_not_a_zero_of_t3():
    # 72 is a tempting mistranscription of the seventh zero 62
    assert fpow_at(3, 62) == 0
    assert fpow_at(3, 72) == 361 != 0
    assert v2_t3_closed(72) is not None


def test_symmetry_partner():
    assert t2_symmetry_partner(0) == 2 and fpow_at(2, 2) == -1
    assert t2_symmetry_partner(2) == 0
    for n in range(10**4 + 1):
        n2 = t2_symmetry_partner(n)
        assert fpow_at(2, n2) == -fpow_at(2, n)


@settings(max_examples=200)
@given(st.integers(0, 10**5))
def test_symmetry_is_a_sign_flipping_involution(n):
    n2 = t2_symmetry_partner(n)
    assert fpow_at(2, n2) == -fpow_at(2, n)
    assert t2_symmetry_partner(n2) == n


def test_pair_tree_reproduces_t2():
    for i, pair in enumerate(pair_tree_rowmajor(1 << 12)):
        assert pair == (fpow_at(2, i + 1), fpow_at(2, i))


def test_pair_tree_invariants():
    node = PairTreeNode(-2, 1)
    frontier = [node]
    for _ in range(9):
        for nd in frontier:
            assert nd.invariants_hold()
        frontier = [c for nd in frontier for c in (nd.left(), nd.right())]


def test_t2_solve():
    assert t2_solve(1).n == 0
    assert t2_solve(-2).n == 1
    assert t2_solve(2).n == 5
    res = t2_solve(-7)
    assert fpow_at(2, res.n) == -7
    assert res.shifted_instance is None or fpow_at(2, res.shifted_instance) == -7
    # past the first scanned block of 4096 indices
    assert t2_solve(-321).n == 7106
    with pytest.raises(ValueError):
        t2_solve(0)


def test_t2_shift_families():
    rep = check_t2_shift_families(1 << 10)
    assert rep.ok and rep.checked == 6 * 4 * (1 << 10)


def test_extrema_m2():
    for k in range(3, 15):
        s, c = maxmin_scan(2, k), maxmin_closed(2, k)
        assert (s.max, s.min, s.argmax, s.argmin) == (c.max, c.min, c.argmax, c.argmin)
    assert maxmin_closed(2, 4).max == 16 and maxmin_closed(2, 4).argmax == 15
    with pytest.raises(ValueError):
        maxmin_closed(2, 2)
    # below the k >= 3 range: recorded scan values, nothing asserted against
    # the closed forms (k=0 would even make the Min exponent fractional)
    assert maxmin_scan(2, 2).max == 4 and maxmin_scan(2, 2).min == -3
    assert maxmin_scan(2, 1).max == 1 and maxmin_scan(2, 1).min == -2


def test_extrema_m3():
    assert maxmin_closed(3, 2).max == 8
    assert maxmin_closed(3, 1).max == 1  # the k=0 Iverson term
    for k in range(13):
        s, c = maxmin_scan(3, k), maxmin_closed(3, k)
        assert (s.max, s.min) == (c.max, c.min)
        assert s.argmin == c.argmin
        if k != 1:
            assert s.argmax == c.argmax
    # the closed-form argmax index fails at k = 1: the max sits at 0, not 2
    assert maxmin_scan(3, 1).argmax == 0
    assert maxmin_closed(3, 1).argmax == 2
    assert fpow_at(3, 2) == 0 != maxmin_scan(3, 1).max


def test_inequality_sweeps():
    assert check_growth(2, 1 << 12).ok
    assert check_growth(3, 1 << 12).ok
    rep = check_mean(1 << 12)
    assert rep.ok
    assert check_logconcave(1 << 12).ok
    assert check_signs(2, 1 << 12).ok
    assert check_turan_t(2, 1 << 12).ok
    # the log-concavity margin is exactly 1 at n = 2^k - 4
    for k in range(3, 12):
        n = (1 << k) - 4
        assert fpow_at(2, n) ** 2 - fpow_at(2, n - 1) * fpow_at(2, n + 1) == 1
    # the mean inequality is an equality at even n (spot values)
    assert 2 * abs(fpow_at(2, 6)) == abs(fpow_at(2, 5) + fpow_at(2, 7))


def test_sign_and_turan_checks_count_the_indices_they_test():
    # both test the middle index n of each triple, n = 1..n_max - 1
    for check in (check_signs, check_turan_t):
        reports = [check(2, n_max) for n_max in (0, 1, 2, 3, 64)]
        assert all(rep.ok for rep in reports)
        assert [rep.checked for rep in reports] == [0, 0, 1, 2, 63]
    # check_logconcave(n) tests n = 1..n
    assert check_logconcave(64).checked == 64


def test_sweep_counts_the_cases_that_held_before_the_first_failure():
    ran = []

    def cases():
        for n in range(10):
            ran.append(n)
            yield {"n": n} if n == 3 else None

    assert sweep("s", cases(), {"unused": 1}) == ("s", False, 3, {"n": 3})
    assert ran == [0, 1, 2, 3]  # no case after the first failure runs
    witness = {}
    assert sweep("s", [None] * 4, witness) == ("s", True, 4, witness)
    assert sweep("s", []) == ("s", True, 0, {})


def test_multinomial_count():
    assert multinomial_s1_enumerate(3, 2) == 4
    import math
    for n in range(1, 9):
        for m in range(1, 9):
            assert multinomial_s1_enumerate(n, m) == math.comb(n + m - 1, m - 1)


def test_nonvanishing_window():
    assert check_nonvanishing(8).ok
    # n = 1: t_m(1) = -m is never 0 for m >= 2 (threshold window starts above 1)
    fs = shared_fseries()
    assert fs.f_value(1, 5) == -5


def test_t3_reducibility_witness():
    assert check_t3_reducibility_witness(3).ok  # covers 2, 11, 14
    fs = shared_fseries()
    assert fs.f_value(2, 3) == 0


def test_t2_mod4():
    assert check_t2_mod4(1 << 12).ok
    assert fpow_at(2, 2) == -1 and (-1 - (1 + 2)) % 4 == 0
