import builtins
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from importlib.util import find_spec
from pathlib import Path

import pytest

from ptmpow import bm_sequences, campaigns, fpow, tm_sequences
from ptmpow.campaigns import CAMPAIGNS, exit_code_for, run_campaign
from ptmpow.cli import _jdump, main
from ptmpow.seqcache import CacheError, cache_load, cache_store
from ptmpow.fpow import fpow_at

from oracles import _h_per_child, kernel_pattern_count


SMALL = {"n": 1 << 8, "index": 1 << 10, "depth": 4}


def _bounds_for(name):
    return {k: SMALL[k] for k in CAMPAIGNS[name].defaults if k in SMALL}


def test_registry_shape():
    assert set(c.kind for c in CAMPAIGNS.values()) <= {"theorem", "conjecture", "question"}
    # every campaign key maps to exactly one claim
    claims = [c.claim for c in CAMPAIGNS.values()]
    assert len(set(claims)) == len(claims)


def test_all_campaigns_complete_at_small_bounds():
    for name in CAMPAIGNS:
        rep = run_campaign(name, bounds=_bounds_for(name))
        assert rep.status in ("verified-to-bound", "observation", "counterexample")
        if rep.kind != "theorem":
            assert rep.status != "counterexample"
            assert exit_code_for(rep) == 3
        else:
            assert rep.status == "verified-to-bound"
            assert exit_code_for(rep) == 0


def test_unknown_campaign_rejected():
    with pytest.raises(KeyError):
        run_campaign("no-such-campaign")


def test_pow2m1_witness_replays():
    rep = run_campaign("b-pow2m1-congruence", bounds={"index": 1 << 10})
    if rep.status == "observation":
        w = rep.witness["failing"][0]
        m, k, n, mod = w["m"], w["k"], w["n"], w["mod"]
        seq_m = (1 << m) - 1
        assert (fpow_at(-seq_m, n << (k + 1)) - fpow_at(-seq_m, n << (k - 1))) % mod != 0


def test_t5_witness_would_replay():
    rep = run_campaign("t5-valuation", bounds={"n": 1 << 9})
    assert rep.status == "verified-to-bound"
    assert rep.bounds == {"n": 1 << 9}


@pytest.mark.parametrize("n,depth", [(0, 0), (2, 5), (4, 3), (8, 3), (64, 5), (115, 5), (300, 7),
                                     (1000, 5)])
def test_t_regularity_counts_the_reference_patterns(n, depth):
    # every range from n = 2 holds zeros of t_3 (t_3(2) = t_3(11) = 0),
    # which the oracle and the exact part encode as -1 and the residue part
    # as 64; at n = 2 and 4 a pattern one entry short gives other counts
    camp = CAMPAIGNS["t-regularity"]
    status, witness = camp.runner({"n": n, "depth": depth})
    want = {f"m={m}": kernel_pattern_count(fpow.fpow_prefix(m, (n + 1) << depth), n, depth)
            for m in (2, 3, 5, 6)}
    assert (status, witness["distinct_kernel_patterns"]) == ("observation", want)
    if find_spec("numpy") is not None:
        assert camp.residue_runner({"n": n, "depth": depth}) == (status, witness)


@pytest.mark.parametrize("t,index", [(5, 13), (6, 2079)])
def test_t_regularity_counts_a_planted_zero_alike_on_both_parts(monkeypatch, t, index):
    # t_5(13) = -400, and t_6(2079) is the last value read at n = 64; a zero
    # there is a new mark in its patterns, -1 in one part and 64 in the other
    pytest.importorskip("numpy")
    camp = CAMPAIGNS["t-regularity"]
    clean = camp.runner({"n": 64, "depth": 5})
    _plant(monkeypatch, t, index, 0)
    want = camp.runner({"n": 64, "depth": 5})
    assert want != clean
    assert camp.residue_runner({"n": 64, "depth": 5}) == want


def test_t_regularity_declines_where_t6_passes_its_int64_limit():
    # at n = 64 and depth 12 the part reads t_6 to 266239, and the half of
    # that prefix holds readings of 61 bits, past the 58 that certify them
    pytest.importorskip("numpy")
    camp = CAMPAIGNS["t-regularity"]
    assert camp.residue_runner({"n": 64, "depth": 12}) is None
    half = fpow.fpow_residues(6, 65 << 12)[: (65 << 11)].view("int64")
    assert max(int(half.max()), -int(half.min())).bit_length() == 61
    assert campaigns._int64_values(5, 65 << 12) is not None


# ---------------------------------------------------------------------------
# the residue backend

RESIDUE_CAMPAIGNS = ("t5-valuation", "t9-valuation", "t2k1-valuation-table",
                     "b-pow2-congruence", "b-pow2m1-congruence", "t-zero-m4plus",
                     "bm-valuation-unbounded", "b-congruence-growth",
                     "t-sign-density", "t-missing-values", "t-threesigns-turan",
                     "b-turan-m4plus", "b3-turan-crossover", "t2-symmetry",
                     "b2-valuation-list", "t-regularity")


def _plant(monkeypatch, t, index, value):
    """Make every kernel, as the campaigns see it, hold `value` at f_index(t):
    the exact prefix, the residues mod 2^64, a stream's prefix and its
    blocks, and the doubles, where a value of 2^1024 or more in absolute
    value is an infinite double."""
    exact, residues, stream, doubles = (campaigns.fpow_prefix, campaigns.fpow_residues,
                                        campaigns.fpow_stream, campaigns.fpow_doubles)

    def planted_prefix(s, n):
        vals = exact(s, max(n, index))
        if s == t:
            vals = list(vals)
            vals[index] = value
        return vals

    def planted_residues(s, n):
        res = residues(s, max(n, index))
        if s == t:
            res = res.copy()
            res[index] = value % 2**64
        return res

    def planted_blocks(blocks):
        for lo, block in blocks:
            if lo <= index < lo + block.size:
                block = block.copy()
                block[index - lo] = value % 2**64
            yield lo, block

    def planted_stream(s, n, k=None):
        res, blocks = stream(s, n, k)
        if s != t:
            return res, blocks
        if index < res.size:
            res = res.copy()
            res[index] = value % 2**64
        return res, planted_blocks(blocks)

    def planted_doubles(s, n):
        f = doubles(s, max(n, index))
        if s == t:
            f = f.copy()
            if abs(value) < 2**1024:
                f[index] = float(value)
            else:
                f[index] = math.inf if value > 0 else -math.inf
        return f

    monkeypatch.setattr(campaigns, "fpow_prefix", planted_prefix)
    monkeypatch.setattr(campaigns, "fpow_residues", planted_residues)
    monkeypatch.setattr(campaigns, "fpow_stream", planted_stream)
    monkeypatch.setattr(campaigns, "fpow_doubles", planted_doubles)


def test_residue_campaigns_are_exactly_the_residue_set():
    assert sorted(n for n, c in CAMPAIGNS.items() if c.residue_runner) == sorted(RESIDUE_CAMPAIGNS)


def _residues_in_verify(monkeypatch, name):
    """Let a `ptmpow verify` process run the residue runner of `name` at any
    size, as a session does, rather than from its cold_size on."""
    monkeypatch.setitem(CAMPAIGNS, name, CAMPAIGNS[name]._replace(cold_size=0))


@pytest.mark.parametrize("name", RESIDUE_CAMPAIGNS)
def test_residue_campaigns_print_the_exact_stdout(capsys, monkeypatch, name):
    # bounds that are not powers of two; b-pow2m1 fails at this bound, so its
    # witness lists are compared too
    pytest.importorskip("numpy")
    _residues_in_verify(monkeypatch, name)
    bound = "1000" if "index" in CAMPAIGNS[name].defaults else "200"
    rc, fast, err = run_cli(capsys, "verify", name, "--bound", bound)
    assert err.endswith("(backend residue)\n")
    monkeypatch.setitem(sys.modules, "numpy", None)
    rc_exact, exact, err = run_cli(capsys, "verify", name, "--bound", bound)
    assert err.endswith("(backend exact: no-numpy)\n")
    assert (rc, fast) == (rc_exact, exact)


PLANTS = {"zero": 0, "2^70": 2**70, "six": 6}
ALL = set(PLANTS)

# (campaign, bounds, t, index, base, declines, changes, raises): a value
# f_index(t) that the campaign reads gets the plant, plus f_base(t) when base
# is set; the residue runner declines on the plants in `declines`, the plants
# in `changes` change the exact verdict, and on the plants in `raises` the
# exact runner raises ValueError instead of giving one.  Index 0 of t_5 sets
# the t2k1 table entry of class 0, index 24 of b_2 holds its largest nu2 up
# to 64, and index 272 of b_3 is the upper end of two differences
# (k = 2, 3) whose lower end is 68, so a plant on f_68(-3) makes both
# differences equal the plant: 0 is an exact 0, which the exact loop skips,
# and 2^70 has nu2 >= 64, and both read as 0 mod 2^64.  A fixed-modulus congruence
# (a masked difference) never declines.  Index 36 of b_2 is 32 n + 4 at
# n = 1, where the table has nu2 = 4; the exact runner takes nu2 of a
# planted 0 there and raises, as no b_2 value is 0.  Index 16397 of t_5 is
# 4n + 1 at n = 4099, in class 2 and past the first chunk, so the t2k1
# table read at the class firsts is kept and the chunk walk finds the
# conflict.
PLANT_SITES = (
    ("t5-valuation", {"n": 64}, 5, 13, None, {"zero", "2^70"}, ALL, set()),
    ("t9-valuation", {"n": 64}, 9, 43, None, {"zero", "2^70"}, ALL, set()),
    ("t2k1-valuation-table", {"n": 64}, 5, 0, None, {"zero", "2^70"}, ALL, set()),
    ("t2k1-valuation-table", {"n": 6000}, 5, 16397, None, {"zero", "2^70"}, ALL, set()),
    ("b-pow2-congruence", {"index": 1024}, -2, 64, None, set(), ALL, set()),
    ("b-pow2m1-congruence", {"index": 1024}, -1, 64, None, set(), ALL, set()),
    ("t-zero-m4plus", {"n": 256}, 4, 100, None, {"zero", "2^70"}, {"zero"}, set()),
    ("bm-valuation-unbounded", {"n": 64}, -2, 24, None, {"zero", "2^70"}, ALL, set()),
    ("b-congruence-growth", {"index": 1024}, -3, 272, 68, {"zero", "2^70"}, {"six"}, set()),
    ("b2-valuation-list", {"n": 64}, -2, 36, None, {"zero", "2^70"}, ALL, {"zero"}),
)


@pytest.mark.parametrize("plant", PLANTS)
# a campaign's later sites are named by their index too
@pytest.mark.parametrize("name,bounds,t,index,base,declines,changes,raises", PLANT_SITES,
                         ids=[s[0] + (f"@{s[3]}" if s[0] in [r[0] for r in PLANT_SITES[:k]] else "")
                              for k, s in enumerate(PLANT_SITES)])
def test_planted_values_give_the_exact_verdict(monkeypatch, name, bounds, t, index, base,
                                               declines, changes, raises, plant):
    pytest.importorskip("numpy")
    camp = CAMPAIGNS[name]
    clean = camp.runner(dict(bounds))
    value = PLANTS[plant] + (0 if base is None else fpow.fpow_prefix(t, base)[base])
    _plant(monkeypatch, t, index, value)
    if plant in raises:
        with pytest.raises(ValueError):
            camp.runner(dict(bounds))
        want = ValueError
    else:
        want = camp.runner(dict(bounds))
    fast = camp.residue_runner(dict(bounds))
    assert fast == (None if plant in declines else want)
    if want is ValueError:
        # only a runner that declines leaves the campaign to one that raises
        with pytest.raises(ValueError):
            run_campaign(name, dict(bounds))
    else:
        rep = run_campaign(name, dict(bounds))
        assert (rep.status, rep.witness, rep.backend) == (
            *want, "exact" if plant in declines else "residue")
    assert (want != clean) == (plant in changes)


# (campaign, bounds, t, index): a value of t_m that an int64 runner reads;
# t_3(15) = 64 is a j = 0 term of the sign count, and t_4(5) = 8 is the
# only 8 in t_4's window, where neither 0, -1 nor -8 is attained
INT64_SITES = (
    ("t-sign-density", {"n": 64}, 3, 15),
    ("t-missing-values", {"n": 256, "span": 50}, 4, 5),
)


@pytest.mark.parametrize("plant", ["zero", "minus-one", "flipped"])
@pytest.mark.parametrize("name,bounds,t,index", INT64_SITES, ids=[s[0] for s in INT64_SITES])
def test_int64_runners_read_planted_values_exactly(monkeypatch, name, bounds, t, index, plant):
    # each plant is far below 2^(64-m), so the int64 certificate holds and
    # the runner settles the campaign with the exact verdict
    pytest.importorskip("numpy")
    camp = CAMPAIGNS[name]
    clean = camp.runner(dict(bounds))
    value = {"zero": 0, "minus-one": -1, "flipped": -fpow.fpow_prefix(t, index)[index]}[plant]
    _plant(monkeypatch, t, index, value)
    want = camp.runner(dict(bounds))
    assert want != clean
    assert camp.residue_runner(dict(bounds)) == want
    rep = run_campaign(name, dict(bounds))
    assert (rep.status, rep.witness, rep.backend) == (*want, "residue")


# (campaign, bounds, m, index): an int64 reading of t_m at an index in the
# half-prefix that certifies a runner's int64 readings
CERTIFIED_SITES = INT64_SITES + (
    ("t-threesigns-turan", {"n": 64}, 6, 20),
    ("t2-symmetry", {"n": 64}, 2, 50),
    ("t-regularity", {"n": 64, "depth": 5}, 6, 1000),
)


@pytest.mark.parametrize("name,bounds,m,index", CERTIFIED_SITES,
                         ids=[s[0] for s in CERTIFIED_SITES])
def test_int64_runners_decline_past_the_proved_bound(monkeypatch, name, bounds, m, index):
    # a half-prefix reading of 2^(64-m) or more in absolute value voids the
    # certificate; -2^63, which np.abs leaves negative, too
    pytest.importorskip("numpy")
    camp = CAMPAIGNS[name]
    for value, declines in ((2 ** (64 - m), True), (-(2**63), True),
                            (2 ** (64 - m) - 1, False), (1 - 2 ** (64 - m), False)):
        with monkeypatch.context() as patch:
            _plant(patch, m, index, value)
            assert (camp.residue_runner(dict(bounds)) is None) == declines, value


def test_int64_certificate_holds_at_the_cold_sizes():
    # the largest half-prefix reading of t_m at 2^16 has 16, 23, 33, 42 and
    # 53 bits for m = 2..6, against limits of 62..58 bits
    pytest.importorskip("numpy")
    size = (1 << 16) + 1
    for m, bits in zip(range(2, 7), (16, 23, 33, 42, 53)):
        half = fpow.fpow_residues(m, size)[: size // 2 + 1].view("int64")
        assert max(int(half.max()), -int(half.min())).bit_length() == bits
    assert all(campaigns._int64_values(m, size) is not None for m in range(2, 7))


class _Reads(list):
    """A list that records the indices read from it."""

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def _signs_and_reads(values):
    import numpy as np

    exact = _Reads(values)
    exact.reads = []
    f = np.array([float(v) if abs(v) < 2**1024 else np.inf for v in values])
    return campaigns._turan_signs(f, lambda top: exact).tolist(), exact.reads


def test_turan_signs_settle_every_unsure_index_exactly():
    pytest.importorskip("numpy")
    # b^2 - ac = +1 and -1 with b near 2^62 and near 2^509: the doubles tie,
    # and at b = 2^53 + 1 their difference is -2^54
    for b in (2**53 + 1, 2**62 + 1, 2**509 + 1):
        assert _signs_and_reads([b - 1, b, b + 1]) == ([1], [0, 1, 2])
        assert _signs_and_reads([2, b, (b * b + 1) // 2]) == ([-1], [0, 1, 2])
    # exact ties, zeros, inf and nan: no index is decided by the doubles
    assert _signs_and_reads([1, 2, 4, 8, 16]) == ([0, 0, 0], [0, 1, 2, 1, 2, 3, 2, 3, 4])
    assert _signs_and_reads([0, 0, 0, 5]) == ([0, 0], [0, 1, 2, 1, 2, 3])
    assert _signs_and_reads([2**1100, 1, 2**1100]) == ([-1], [0, 1, 2])
    assert _signs_and_reads([2**1100] * 3) == ([0], [0, 1, 2])
    # clear signs are read from the doubles alone
    assert _signs_and_reads([1, 5, 1, -3, 2**62]) == ([1, 1, -1], [])
    assert _signs_and_reads([7]) == ([], [])


@pytest.mark.parametrize("chunk", [fpow._CHUNK, 64])
def test_kernel_doubles_of_b_m_are_within_their_bound(monkeypatch, chunk):
    # the float64 kernel against the exact prefix: every double up to n is
    # within a relative fpow_doubles_eps(-m, n) of b_m, with room for the
    # rounding of the exact value to the double it is compared with; a memo
    # grown from a shorter request holds the same doubles as a fresh build;
    # t >= 0, where a pass subtracts, has no such bound
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_CHUNK", chunk)
    for m in range(1, 9):
        for n in (1 << 12, (1 << 16) + 5):
            monkeypatch.setattr(fpow, "_fpow_res", {})
            f = fpow.fpow_doubles(-m, n)[: n + 1]
            exact = np.array([float(v) for v in fpow.fpow_prefix(-m, n)[: n + 1]])
            eps = fpow.fpow_doubles_eps(-m, n)
            assert (np.abs(f - exact) <= (eps - 2**-52) * exact).all(), (m, n)
        monkeypatch.setattr(fpow, "_fpow_res", {})
        fpow.fpow_doubles(-m, 1000)
        assert (fpow.fpow_doubles(-m, n)[: n + 1] == f).all()
    for t in (0, 2):
        with pytest.raises(ValueError):
            fpow.fpow_doubles(t, 100)


def test_doubles_eps_is_memoised_per_block_size(monkeypatch):
    # the bound counts the kernel's blocks, so a memo keyed by (t, n) alone
    # would hand the bound of one block size to another; at n = 2^16 the
    # cumsum chain of the longest block dominates it
    wide = fpow.fpow_doubles_eps(-3, 1 << 16)
    assert fpow.fpow_doubles_eps(-3, 1 << 16) == wide
    monkeypatch.setattr(fpow, "_CHUNK", 64)
    assert fpow.fpow_doubles_eps(-3, 1 << 16) < wide


def test_b_turan_m4plus_holds_only_its_doubles(monkeypatch):
    # tracemalloc sees numpy's buffers: at 2^16 no index is unsure, so no
    # exact b_m is built, and the doubles of b_4..b_6 plus one chunk of
    # scratch are the whole peak
    pytest.importorskip("numpy")
    for name in ("_fpow_vals", "_fpow_carries", "_fpow_res"):
        monkeypatch.setattr(fpow, name, {})
    tracemalloc.start()
    try:
        rep = run_campaign("b-turan-m4plus", {"n": 1 << 16})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.status, rep.backend) == ("verified-to-bound", "residue")
    assert not fpow._fpow_vals
    doubles = sum(fpow.fpow_doubles(-m, 1 << 16).nbytes for m in (4, 5, 6))
    assert peak <= 1.25 * doubles, peak / doubles


@pytest.mark.parametrize("eps,top", [(2.0**-24, 2), (2.0**-20, 4096), (2.0**-12, 4096)])
def test_unsure_b_m_signs_are_settled_on_a_prefix_to_the_last_one(monkeypatch, eps, top):
    # a bound loose enough to leave indices unsure: the signs are still the
    # exact ones, and the exact prefix is built, at most once per chunk,
    # only up to the neighbour of the last unsure index: b_3(2) at 2^-24,
    # where only b_3(1)^2 - b_3(0) b_3(2) = 0 is unsure, and n at the
    # looser bounds
    pytest.importorskip("numpy")
    n = 4096
    tops = []

    def prefix(t, i):
        tops.append(i)
        return fpow.fpow_prefix(t, i)

    monkeypatch.setattr(fpow, "_fpow_vals", {})
    monkeypatch.setattr(fpow, "_fpow_carries", {})
    monkeypatch.setattr(campaigns, "fpow_doubles_eps", lambda t, k: eps)
    monkeypatch.setattr(campaigns, "fpow_prefix", prefix)
    signs = [s for _, part in campaigns._b_turan_signs(3, n) for s in part.tolist()]
    assert len(fpow._fpow_vals[-3]) == max(tops) + 1 == top + 1
    assert len(tops) <= len(list(fpow.chunks(n - 1)))
    b3 = fpow.fpow_prefix(-3, n)
    assert signs == [(x > 0) - (x < 0) for x in (b3[i] ** 2 - b3[i - 1] * b3[i + 1]
                                                 for i in range(1, n))]


# (campaign, bounds, t, index, value, declines, verdict): a planted value of
# f_index(t), whether the whole-array runner declines on it, and the exact
# verdict it gives, where pinned.  t_2(9) = 6 and t_2(3) = 4 get values
# whose partners fail, one of them below index 0; t_3(3..5) = 8, -9, 3, so
# 5 at index 4 shares a sign with both neighbours (25 > 24 keeps Turán), 1
# there breaks both properties, and -1 at index 6 makes the Turán difference
# at n = 5 an exact tie; b_4(1..2) = 4, 14 and b_3(1..2) = 3, 9, so 49 at
# b_4(3) and 27 at b_3(3) are exact ties, and 2^1100 at b_4(30) is an
# infinite double, so the doubles leave n = 29..31 to the exact values.  A
# last b_m value whose double is 2^510 or more declines.
WHOLE_ARRAY_SITES = (
    ("t2-symmetry", {"n": 64}, 2, 9, 18, False, ("counterexample", {"n": 9, "value": 18})),
    ("t2-symmetry", {"n": 64}, 2, 3, -38, False, ("counterexample", {"n": 3, "value": -38})),
    ("t-threesigns-turan", {"n": 64}, 3, 4, 5, False,
     ("observation", {"failing": {"m": 3, "n": 4, "kind": "three-signs"}})),
    ("t-threesigns-turan", {"n": 64}, 3, 4, 1, False,
     ("observation", {"failing": {"m": 3, "n": 4, "kind": "three-signs"}})),
    ("t-threesigns-turan", {"n": 64}, 3, 6, -1, False,
     ("observation", {"failing": {"m": 3, "n": 5, "kind": "turan"}})),
    ("b-turan-m4plus", {"n": 64}, -4, 3, 49, False, ("observation", {"failing": {"m": 4, "n": 2}})),
    ("b-turan-m4plus", {"n": 64}, -4, 30, 2**1100, False,
     ("observation", {"failing": {"m": 4, "n": 29}})),
    ("b-turan-m4plus", {"n": 64}, -4, 64, 2**510, True,
     ("observation", {"failing": {"m": 4, "n": 63}})),
    ("b-turan-m4plus", {"n": 64}, -4, 64, 2**509 - 1, False,
     ("observation", {"failing": {"m": 4, "n": 63}})),
    ("b3-turan-crossover", {"n": 64}, -3, 3, 27, False,
     ("observation", {"crossover_candidate": 23, "positive_beyond": True,
                      "zero_differences_at": [1, 2], "alternation_breaks": [3, 4]})),
    ("b3-turan-crossover", {"n": 64}, -3, 64, 2**510, True, None),
)


@pytest.mark.parametrize("name,bounds,t,index,value,declines,verdict", WHOLE_ARRAY_SITES,
                         ids=[f"{s[0]}-{s[3]}-{s[4]}" for s in WHOLE_ARRAY_SITES])
def test_whole_array_runners_give_the_exact_verdict(monkeypatch, name, bounds, t, index, value,
                                                    declines, verdict):
    pytest.importorskip("numpy")
    camp = CAMPAIGNS[name]
    clean = camp.runner(dict(bounds))
    _plant(monkeypatch, t, index, value)
    want = camp.runner(dict(bounds))
    assert want != clean
    assert verdict in (None, want)
    assert camp.residue_runner(dict(bounds)) == (None if declines else want)
    rep = run_campaign(name, dict(bounds))
    assert (rep.status, rep.witness, rep.backend) == (
        *want, "exact" if declines else "residue")


def test_t2_symmetry_declines_on_a_zero(monkeypatch):
    # the exact runner cannot take nu2(0) and raises
    pytest.importorskip("numpy")
    _plant(monkeypatch, 2, 9, 0)
    camp = CAMPAIGNS["t2-symmetry"]
    assert camp.residue_runner({"n": 64}) is None
    with pytest.raises(ValueError):
        camp.runner({"n": 64})


# the runners walk their arrays in fpow._CHUNK entries; at 64 the bounds
# below span several chunks (of 16 n for t5-valuation, 8 for the width-8
# runners, 21 for t-sign-density), and the kernel builds in 64-entry blocks
EDGE_CHUNK = 64
EDGE_BOUNDS = {"n": 300, "index": 1000}


@pytest.mark.parametrize("name", RESIDUE_CAMPAIGNS)
def test_residue_runners_match_the_exact_runner_across_chunks(monkeypatch, name):
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_CHUNK", EDGE_CHUNK)
    monkeypatch.setattr(fpow, "_fpow_res", {})
    camp = CAMPAIGNS[name]
    bounds = {**camp.defaults, camp.size_key: EDGE_BOUNDS[camp.size_key]}
    assert camp.residue_runner(dict(bounds)) == camp.runner(dict(bounds))


# (campaign, bounds, t, plants): values of f_i(t), {i: value}, on either
# side of a chunk edge.  A plant of 6 (nu2 1) fails the valuation claims at
# its index, last of one chunk (63) or first of the next (64); two equal
# maxima of nu2(b_2) in two chunks give the first; t_3(63..65) = 512, -441,
# -213, so 400 at index 65 fails Turán at n = 64, whose triple reads one
# index into the next chunk, 1 at 64 and 65 gives three signs there, and
# -400 at 66 gives three signs at n = 65, the next chunk's first triple;
# b_4(65) = b_4(64)^2 fails Turán at n = 64; a zero of b_3 at 129 or 150
# moves the crossover two chunks on, so the alternation breaks run through
# every chunk between
EDGE_SITES = (
    ("t5-valuation", {"n": 100}, 5, {63: 6}),
    ("t5-valuation", {"n": 100}, 5, {64: 6}),
    ("t9-valuation", {"n": 100}, 9, {63: 6}),
    ("t9-valuation", {"n": 100}, 9, {64: 6}),
    ("t2k1-valuation-table", {"n": 100}, 9, {63: 6}),
    ("t2k1-valuation-table", {"n": 100}, 9, {64: 6}),
    ("bm-valuation-unbounded", {"n": 300}, -2, {64: 2**40, 128: 2**40}),
    ("bm-valuation-unbounded", {"n": 300}, -2, {63: 2**40, 64: 2**40}),
    ("t-sign-density", {"n": 100}, 3, {63: -512, 64: 441}),
    ("t-missing-values", {"n": 300, "span": 50}, 4, {63: 0, 64: -1}),
    ("t-threesigns-turan", {"n": 200}, 3, {65: 400}),
    ("t-threesigns-turan", {"n": 200}, 3, {64: 1, 65: 1}),
    ("t-threesigns-turan", {"n": 200}, 3, {66: -400}),
    ("b-turan-m4plus", {"n": 200}, -4, {65: None}),
    ("b-turan-m4plus", {"n": 200}, -4, {64: 0}),
    ("b3-turan-crossover", {"n": 300}, -3, {150: 0}),
    ("b3-turan-crossover", {"n": 300}, -3, {64: 0, 129: 0}),
    ("t2-symmetry", {"n": 200}, 2, {63: 18}),
    ("t2-symmetry", {"n": 200}, 2, {64: 18}),
    ("b2-valuation-list", {"n": 300}, -2, {255: 6}),
    ("b2-valuation-list", {"n": 300}, -2, {259: 6}),
)


@pytest.mark.parametrize("name,bounds,t,plants", EDGE_SITES,
                         ids=[f"{s[0]}-{min(s[3])}" for s in EDGE_SITES])
def test_residue_runners_give_the_exact_witness_at_chunk_edges(monkeypatch, name, bounds, t,
                                                               plants):
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_CHUNK", EDGE_CHUNK)
    monkeypatch.setattr(fpow, "_fpow_res", {})
    camp = CAMPAIGNS[name]
    clean = camp.runner(dict(bounds))
    for index, value in plants.items():
        if value is None:  # b_4(index - 1)^2
            value = fpow.fpow_prefix(t, index)[index - 1] ** 2
        _plant(monkeypatch, t, index, value)
    want = camp.runner(dict(bounds))
    assert want != clean
    assert camp.residue_runner(dict(bounds)) == want


def test_a_residue_campaign_holds_its_array_and_one_chunk(monkeypatch):
    # tracemalloc sees numpy's buffers: the kernel's result is the only
    # array as long as the range, and the checks add one chunk of scratch
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_fpow_res", {})
    n = (1 << 16) - 1
    tracemalloc.start()
    try:
        rep = run_campaign("t9-valuation", {"n": n})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.backend == "residue"
    assert peak <= 1.25 * fpow.fpow_residues(9, 8 * n + 7).nbytes


# the residue campaigns that make more than one kernel request
MULTI_ARRAY_CAMPAIGNS = ("t2k1-valuation-table", "bm-valuation-unbounded",
                         "b-pow2-congruence", "b-pow2m1-congruence", "b-congruence-growth",
                         "t-sign-density", "t-missing-values", "t-threesigns-turan",
                         "b-turan-m4plus", "t-zero-m4plus", "t-regularity")


def test_both_backends_share_each_campaign_shape():
    # a campaign's ranges, the order of its kernel requests and its witness
    # are written once, in a shape that each backend binds its part into
    shaped = {name for name, camp in CAMPAIGNS.items() if isinstance(camp.runner, partial)}
    assert shaped == {*MULTI_ARRAY_CAMPAIGNS, "t5-valuation", "t9-valuation"}
    for name in shaped:
        camp = CAMPAIGNS[name]
        assert camp.runner.func is camp.residue_runner.func, name


def test_the_t2k1_campaigns_share_one_valuation_part():
    # all three check that nu2(t_{2^k+1}(2^k n + j)) depends only on the
    # class nu2(n+1), so each backend binds one part into all three shapes
    camps = [CAMPAIGNS[name] for name in ("t5-valuation", "t9-valuation", "t2k1-valuation-table")]
    assert len({camp.runner.args[0] for camp in camps}) == 1
    assert len({camp.residue_runner.args[0] for camp in camps}) == 1


@pytest.mark.parametrize("name", RESIDUE_CAMPAIGNS)
def test_both_backends_request_the_same_kernels(monkeypatch, name):
    # the t of each fpow_prefix call of the exact runner, and of each
    # fpow_residues, fpow_stream or fpow_doubles call of the residue runner,
    # in order; the exact prefix on which `_turan_signs` settles an unsure
    # sign is read while the residue runner runs, so it is not recorded
    pytest.importorskip("numpy")
    camp = CAMPAIGNS[name]
    bounds = {**camp.defaults, **_bounds_for(name)}
    requests = {"exact": [], "residue": []}

    def recording(route, side):
        def request(t, n, *k):
            requests[side].append(t)
            return route(t, n, *k)
        return request

    with monkeypatch.context() as patch:
        patch.setattr(campaigns, "fpow_prefix", recording(campaigns.fpow_prefix, "exact"))
        camp.runner(dict(bounds))
    for route in ("fpow_residues", "fpow_stream", "fpow_doubles"):
        monkeypatch.setattr(campaigns, route, recording(getattr(campaigns, route), "residue"))
    assert camp.residue_runner(dict(bounds)) is not None
    assert requests["exact"] and requests["exact"] == requests["residue"]


def _record_requests(monkeypatch):
    """Wrap the three array routes as the campaigns call them.  Each request
    appends to `alive` how many arrays of earlier requests are still alive
    when it starts, and to `arrays` a weak reference to its own, for a
    stream its prefix."""
    arrays, alive = [], []

    def recording(route):
        def request(t, n, *k):
            alive.append(sum(ref() is not None for ref in arrays))
            got = route(t, n, *k)
            arrays.append(weakref.ref(got[0] if isinstance(got, tuple) else got))
            return got
        return request

    for name in ("fpow_residues", "fpow_stream", "fpow_doubles"):
        monkeypatch.setattr(campaigns, name, recording(getattr(campaigns, name)))
    return arrays, alive


@pytest.mark.parametrize("name", RESIDUE_CAMPAIGNS)
def test_a_verify_scope_holds_one_kernel_array_at_a_time(monkeypatch, name):
    # inside the scope `ptmpow verify` enters, the memo keeps no array, and
    # no runner holds an array into its next request
    pytest.importorskip("numpy")
    _residues_in_verify(monkeypatch, name)
    monkeypatch.setattr(fpow, "_fpow_res", {})
    arrays, alive = _record_requests(monkeypatch)
    with fpow.arrays_unkept():
        rep = run_campaign(name, _bounds_for(name))
    assert rep.backend == "residue"
    assert (len(alive) > 1) == (name in MULTI_ARRAY_CAMPAIGNS), alive
    assert alive == [0] * len(alive)
    assert fpow._fpow_res == {} and fpow._keep_arrays
    # outside it the memo keeps every array, so a second run builds none:
    # each of its requests returns an array the first run left in the memo
    first = run_campaign(name, _bounds_for(name))
    kept = [array for array, _ in fpow._fpow_res.values()]
    arrays.clear()
    again = run_campaign(name, _bounds_for(name))
    assert ((first.status, first.witness) == (again.status, again.witness)
            == (rep.status, rep.witness))
    now = [array for array, _ in fpow._fpow_res.values()]
    assert len(now) == len(kept) and all(a is b for a, b in zip(now, kept))
    assert arrays and all(any(ref() is array for array in kept) for ref in arrays)


def test_cli_verify_keeps_no_kernel_array(monkeypatch, capsys):
    # the process ends after its one campaign, so verify stores nothing, and
    # the memo is back on for whatever the process runs next
    pytest.importorskip("numpy")
    _residues_in_verify(monkeypatch, "t2k1-valuation-table")
    monkeypatch.setattr(fpow, "_fpow_res", {})
    rc, _, err = run_cli(capsys, "verify", "t2k1-valuation-table", "--bound", "200")
    assert rc == 3 and err.endswith("(backend residue)\n")
    assert fpow._fpow_res == {} and fpow._keep_arrays
    fpow.fpow_residues(5, 10)
    assert list(fpow._fpow_res) == [(5, "uint64")]


def test_cli_verify_defaults_openblas_to_one_thread(monkeypatch, capsys):
    # ptmpow calls no BLAS; a value the caller set stays
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    run_cli(capsys, "verify", "t5-valuation", "--bound", "64")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    run_cli(capsys, "verify", "t5-valuation", "--bound", "64")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_no_campaign_writes_to_a_shared_prefix(monkeypatch):
    # fpow_prefix hands every caller its memo list: after every runner of
    # every campaign, each memo must equal a fresh build
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_fpow_vals", {})
    monkeypatch.setattr(fpow, "_fpow_carries", {})
    for name, camp in CAMPAIGNS.items():
        for runner in filter(None, (camp.runner, camp.residue_runner)):
            runner({**camp.defaults, **_bounds_for(name)})
    built = fpow._fpow_vals
    assert len(built) > 10
    monkeypatch.setattr(fpow, "_fpow_vals", {})
    monkeypatch.setattr(fpow, "_fpow_carries", {})
    for t, vals in built.items():
        assert fpow.fpow_prefix(t, len(vals) - 1) == vals, t


# the size from which a `ptmpow verify` process runs each campaign on its
# residue runner: below it the exact runner of a fresh process finishes
# sooner than the residue runner with its numpy import (README, "Residue
# backend")
CROSSOVERS = {"t5-valuation": 7 << 12, "t9-valuation": 3 << 12,
              "t2k1-valuation-table": 1 << 13, "b-pow2-congruence": 5 << 14,
              "b-pow2m1-congruence": 1 << 17, "t-zero-m4plus": 7 << 12,
              "bm-valuation-unbounded": 3 << 14, "b-congruence-growth": 1 << 16,
              "t-sign-density": 3 << 13, "t-missing-values": 3 << 15,
              "t-threesigns-turan": 1 << 15, "b-turan-m4plus": 3 << 14,
              "b3-turan-crossover": 15 << 13, "b2-valuation-list": 5 << 16,
              "t2-symmetry": 3 << 15, "t-regularity": 1 << 11}


def _stub_backends(monkeypatch):
    """Make every runner a stub and `import numpy` read a stand-in module
    without entering it in sys.modules, so each run_campaign call starts
    like a fresh process and the backend is all run_campaign decided.
    Returns run(name, size) -> (backend, backend_reason, whether `import
    numpy` ran)."""
    fake = types.ModuleType("numpy")
    imports = []
    real_import = builtins.__import__

    def recording_import(name, *args, **kwargs):
        if name == "numpy":
            imports.append(name)
            if "numpy" not in sys.modules:
                return fake
        return real_import(name, *args, **kwargs)

    def stub(backend, bounds):
        return "observation", {"backend": backend}

    for name, camp in CAMPAIGNS.items():
        monkeypatch.setitem(CAMPAIGNS, name, camp._replace(
            runner=partial(stub, "exact"),
            residue_runner=camp.residue_runner and partial(stub, "residue")))
    monkeypatch.setattr(builtins, "__import__", recording_import)
    monkeypatch.delitem(sys.modules, "numpy", raising=False)

    def run(name, size):
        imports.clear()
        rep = run_campaign(name, {CAMPAIGNS[name].size_key: size})
        assert rep.witness == {"backend": rep.backend}
        return rep.backend, rep.backend_reason, bool(imports)

    return run


def test_a_verify_process_waits_for_the_crossover_and_a_session_does_not(monkeypatch):
    run = _stub_backends(monkeypatch)
    assert sorted(CROSSOVERS) == sorted(RESIDUE_CAMPAIGNS)
    # a verify process pays the numpy import for its one campaign alone
    with fpow.arrays_unkept():
        for name, size in CROSSOVERS.items():
            assert run(name, size - 1) == ("exact", "import", False), name
            assert run(name, size) == ("residue", None, True), name
    # a session pays it once, so it runs every residue runner at any size
    for name, camp in CAMPAIGNS.items():
        want = ("residue", None, True) if camp.residue_runner else ("exact", None, False)
        assert run(name, camp.minimum) == want, name
    # where numpy cannot be imported, every exact runner runs
    monkeypatch.setitem(sys.modules, "numpy", None)
    for name in RESIDUE_CAMPAIGNS:
        assert run(name, 1 << 20) == ("exact", "no-numpy", True), name
        with fpow.arrays_unkept():
            assert run(name, 1 << 20) == ("exact", "no-numpy", True), name
    # a residue runner that declines hands the campaign to the exact runner
    monkeypatch.setitem(CAMPAIGNS, "t5-valuation", CAMPAIGNS["t5-valuation"]._replace(
        residue_runner=lambda bounds: None))
    monkeypatch.delitem(sys.modules, "numpy")
    assert run("t5-valuation", 64) == ("exact", "declined", True)


# the benchmark's verify-cold jobs (perfbench/workloads.py), one `ptmpow
# verify NAME --bound B` process each, with B less 13 per input variant, and
# the backend each runs on: its faster side in a fresh process
COLD_JOBS = (("t5-valuation", 1 << 16, "residue"), ("t9-valuation", 1 << 16, "residue"),
             ("t2k1-valuation-table", 1 << 16, "residue"),
             ("b-pow2-congruence", 1 << 16, "exact"), ("b-pow2m1-congruence", 1 << 16, "exact"),
             ("t-zero-m4plus", 1 << 16, "residue"), ("b-turan-m4plus", 1 << 16, "residue"),
             ("t-threesigns-turan", 1 << 16, "residue"),
             ("b3-turan-crossover", 1 << 17, "residue"),
             ("b2-valuation-list", 1 << 17, "exact"), ("t2-symmetry", 1 << 18, "residue"))
# the first item of each verify-warm variant, which its session runs before
# anything has imported numpy
WARM_FIRSTS = (("t5-valuation", 1 << 15), ("b-pow2-congruence", 65523),
               ("b-turan-m4plus", 65510))


def test_the_benchmark_jobs_run_on_their_faster_backend(monkeypatch):
    run = _stub_backends(monkeypatch)
    with fpow.arrays_unkept():
        for name, bound, want in COLD_JOBS:
            for variant in range(3):
                assert run(name, bound - 13 * variant)[0] == want, (name, variant)
    # every warm session stays on residues from its first item on
    for name, size in WARM_FIRSTS:
        assert run(name, size) == ("residue", None, True), name


def test_b2_valuation_list_runs_exact_without_the_numpy_import(monkeypatch):
    # a fresh process runs it exact up to 2^17 in less time than the numpy
    # import takes, so a verify process runs it exact there, also where
    # numpy happens to be loaded
    calls = []
    monkeypatch.setattr(campaigns, "fpow_residues", lambda *args: calls.append(args))
    with fpow.arrays_unkept():
        rep = run_campaign("b2-valuation-list", {"n": 1 << 17})
    assert (rep.status, rep.backend, rep.backend_reason) == (
        "verified-to-bound", "exact", "import")
    assert calls == []


def test_b2_valuation_list_on_residues_builds_no_exact_prefix(monkeypatch):
    # the certificates read h_{i,k,2} alone, and the values come from residues
    pytest.importorskip("numpy")
    monkeypatch.setattr(fpow, "_fpow_vals", {})
    monkeypatch.setattr(fpow, "_fpow_carries", {})
    rep = run_campaign("b2-valuation-list", {"n": 1 << 16})
    assert (rep.status, rep.backend) == ("verified-to-bound", "residue")
    assert len(fpow._fpow_vals.get(-2, ())) <= 1
    assert (rep.status, rep.witness) == CAMPAIGNS["b2-valuation-list"].runner({"n": 1 << 16})


def test_a_failed_b2_certificate_is_a_counterexample_on_either_backend(monkeypatch):
    # h_{9,4,2} + 1 is odd at x^0, so 2^3 no longer divides it; the residue
    # runner reports that entry itself, as the exact runner does
    pytest.importorskip("numpy")
    exact = bm_sequences.h_poly
    monkeypatch.setattr(bm_sequences, "h_poly", lambda i, k, m: exact(i, k, m) + (
        1 if (i, k, m) == (9, 4, 2) else 0))
    want = ("counterexample", {"modulus": 16, "i": 9, "stage": "divisibility"})
    assert CAMPAIGNS["b2-valuation-list"].runner({"n": 64}) == want
    assert CAMPAIGNS["b2-valuation-list"].residue_runner({"n": 64}) == want
    rep = run_campaign("b2-valuation-list", {"n": 64})
    assert (rep.status, rep.witness, rep.backend) == (*want, "residue")
    assert exit_code_for(rep) == 1


def test_a_conjecture_counterexample_is_reported_as_an_observation(monkeypatch):
    # conjecture campaigns never hard-fail: run_campaign downgrades the status
    camp = CAMPAIGNS["t5-valuation"]
    stub = camp._replace(runner=lambda bounds: (campaigns.COUNTEREXAMPLE, {"n": 7}),
                         residue_runner=None)
    monkeypatch.setitem(CAMPAIGNS, "t5-valuation", stub)
    rep = run_campaign("t5-valuation", {"n": 64})
    assert (rep.kind, rep.status, rep.witness, rep.backend) == (
        "conjecture", "observation", {"n": 7}, "exact")
    assert exit_code_for(rep) == 3


# ---------------------------------------------------------------------------
# cache files


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "t_2.seq")
    values = [fpow_at(2, n) for n in range(1 << 12)]
    cache_store("t", 2, values, path)
    family, m, loaded = cache_load(path)
    assert (family, m, loaded) == ("t", 2, values)


def test_cache_rejects_corruption(tmp_path):
    path = str(tmp_path / "b_3.seq")
    cache_store("b", 3, [fpow_at(-3, n) for n in range(256)], path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-2] + b"7\n")
    with pytest.raises(CacheError):
        cache_load(path)


def _seq_bytes(family, m, values):
    """A cache file's bytes, formatted whole."""
    body = "".join(f"{v}\n" for v in values).encode()
    return f"ptmpow v1 {family} {m} {len(values)} {zlib.crc32(body):08x}\n".encode() + body


@pytest.mark.parametrize("count", [0, 1, 4096, 4097, 9000])
def test_cache_store_writes_the_whole_file_format_in_batches(tmp_path, count):
    # the crc is filled in after the batches are written, and equals the
    # whole body's
    path = tmp_path / "b_2.seq"
    values = fpow.fpow_prefix(-2, 9000)[:count]
    cache_store("b", 2, values, str(path))
    assert path.read_bytes() == _seq_bytes("b", 2, values)
    assert cache_load(str(path)) == ("b", 2, values)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_cache_store_through_a_path_that_cannot_seek(tmp_path):
    values = fpow.fpow_prefix(3, 9000)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with ThreadPoolExecutor(1) as pool:
        read = pool.submit(fifo.read_bytes)
        cache_store("t", 3, values, str(fifo))
        piped = read.result(timeout=60)
    cache_store("t", 3, values, str(tmp_path / "t_3.seq"))
    assert piped == (tmp_path / "t_3.seq").read_bytes() == _seq_bytes("t", 3, values)


def test_cache_load_rejects_a_letter_or_a_truncated_body(tmp_path):
    # a body line that is no integer is reported as corruption, since the
    # checksum is known before it is reported
    path = tmp_path / "b_1.seq"
    cache_store("b", 1, fpow.fpow_prefix(-1, 9000), str(path))
    raw = path.read_bytes()
    at = raw.index(b"\n", len(raw) // 2) - 3
    path.write_bytes(raw[:at] + b"x" + raw[at + 1 :])
    with pytest.raises(CacheError, match="checksum mismatch"):
        cache_load(str(path))
    for cut in (len(raw) - 1, len(raw) // 2, raw.index(b"\n") + 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(CacheError):
            cache_load(str(path))
    # a body that matches its crc but is no integer is still refused
    body = b"1\n2x\n"
    path.write_bytes(f"ptmpow v1 b 1 2 {zlib.crc32(body):08x}\n".encode() + body)
    with pytest.raises(CacheError, match="not an integer"):
        cache_load(str(path))


def test_cache_store_and_load_hold_one_batch_of_text(tmp_path):
    # b_6 to 2^16 is 6.8 MB of text; the values as ints are about 0.77 of
    # it, so a load peaks at its result plus one read, and a store at one
    # formatted batch
    path = tmp_path / "b_6.seq"
    values = fpow.fpow_prefix(-6, 1 << 16)
    peaks = []
    for call in (partial(cache_store, "b", 6, values, str(path)), partial(cache_load, str(path))):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / path.stat().st_size)
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.5 and peaks[1] < 1.2, peaks


def test_cache_rejects_wrong_version(tmp_path):
    path = str(tmp_path / "x.seq")
    Path(path).write_text("ptmpow v9 t 2 1 00000000\n1\n")
    with pytest.raises(CacheError):
        cache_load(path)


# ---------------------------------------------------------------------------
# the command line


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def assert_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_cli_seq_csv(capsys):
    rc, out, _ = run_cli(capsys, "seq", "t", "2", "0..8")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert [int(v) for _, v in rows] == [1, -2, -1, 4, -3, 2, 3, -8, 1]
    assert [int(n) for n, _ in rows] == list(range(9))


def test_cli_seq_writes_in_blocks(monkeypatch):
    # batched writes of whole lines: not one write per line, and not one
    # string of the whole window
    class Stdout(io.StringIO):
        def write(self, text):
            assert text.endswith("\n")
            blocks.append(text.count("\n"))
            return super().write(text)

    blocks, out = [], Stdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["seq", "t", "2", "3..9000"]) == 0
    assert sum(blocks) == 8998 and 1 < len(blocks) <= 8998 // 1000
    t2_vals = fpow.fpow_prefix(2, 9000)
    assert out.getvalue() == "".join(f"{n},{t2_vals[n]}\n" for n in range(3, 9001))


def test_cli_seq_json_and_determinism(capsys):
    rc1, out1, _ = run_cli(capsys, "seq", "b", "1", "0..8", "--format", "json")
    rc2, out2, _ = run_cli(capsys, "seq", "b", "1", "0..8", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["values"] == ["1", "1", "2", "2", "4", "4", "6", "6", "10"]


@pytest.mark.parametrize("lo", [0, 5000])
@pytest.mark.parametrize("width", [1, 4096, 4097])
def test_cli_seq_json_is_the_whole_record_written_in_batches(monkeypatch, lo, width):
    class Stdout(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    writes, out = [], Stdout()
    monkeypatch.setattr(sys, "stdout", out)
    hi = lo + width - 1
    assert main(["seq", "t", "3", f"{lo}..{hi}", "--format", "json"]) == 0
    vals = fpow.fpow_prefix(3, hi)
    assert out.getvalue() == _jdump({"family": "t", "m": 3, "from": lo, "to": hi,
                                     "values": [str(v) for v in vals[lo : hi + 1]]}) + "\n"
    # the head, one write per 4096 values and the tail
    assert len(writes) == 2 + -(-width // 4096)


def test_cli_seq_t3(capsys):
    rc, out, _ = run_cli(capsys, "seq", "t", "3", "0..4")
    assert rc == 0
    assert [int(line.split(",")[1]) for line in out.strip().splitlines()] == [1, -3, 0, 8, -9]


def test_cli_seq_f_eval_negative_point(capsys):
    rc, out, _ = run_cli(capsys, "seq", "f-eval", "-2", "0..6")
    assert rc == 0
    vals = [int(line.split(",")[1]) for line in out.strip().splitlines()]
    assert vals == [fpow_at(-2, n) for n in range(7)]


def test_cli_seq_bad_range(capsys):
    rc, _, err = run_cli(capsys, "seq", "t", "2", "8..2")
    assert rc == 2 and "error" in err


def test_cli_seq_and_cache_refuse_large_m(capsys, tmp_path):
    # the kernel keeps an |M|-entry carry list, so |M| > 2^20 is refused
    # before it starts
    for family, m in (("t", 2**30), ("f-eval", 2**30), ("f-eval", -2**30),
                      ("b", 2**20 + 1)):
        rc, out, err = run_cli(capsys, "seq", family, str(m), "0..3")
        assert rc == 2 and out == "" and "|m| <= 2^20" in err
    path = tmp_path / "big.seq"
    rc, out, err = run_cli(capsys, "cache", "store", "t", str(2**30), "--bound", "4",
                           "--path", str(path))
    assert rc == 2 and out == "" and "|m| <= 2^20" in err
    assert not path.exists()


def test_cli_refuses_costly_kernel_requests(capsys, monkeypatch, tmp_path):
    # (|M|+1)(B+1) kernel steps above 2^24 are refused before the kernel runs
    def kernel(t, n):
        calls.append((t, n))
        return [1] * (n + 1)

    calls = []
    monkeypatch.setattr(fpow, "fpow_prefix", kernel)
    path = tmp_path / "b_1000.seq"
    for argv in (["seq", "b", "1000", "262144..262144"],
                 ["seq", "t", "2", "5592405..5592405"],
                 ["cache", "store", "b", "1000", "--bound", "262144", "--path", str(path)],
                 ["val", "b-pow2m1", "--k", "20", "--bound", "16"]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "" and "the limit is 2^24" in err
    assert calls == [] and not path.exists()
    # the benchmark's requests, val --k 20 and the exact limit all run
    for argv in (["seq", "t", "3", "0..65536", "--format", "json"],
                 ["seq", "b", "6", "0..65536"],
                 ["cache", "store", "b", "6", "--bound", "65536", "--path", str(path)],
                 ["val", "t-pow2", "--k", "20", "--bound", "4"],
                 ["val", "b-pow2m1", "--k", "20", "--bound", "15"],
                 ["seq", "t", "2", "5592404..5592404"]):
        assert run_cli(capsys, *argv)[0] != 2
    assert calls[-2:] == [(-(2**20 - 1), 15), (2, 5592404)]


def test_cli_poly(capsys):
    rc, out, _ = run_cli(capsys, "poly", "f", "3")
    assert rc == 0 and out.strip() == "(-2*t + 9*t^2 + -1*t^3)/3!"
    rc, out, _ = run_cli(capsys, "poly", "h", "0", "2", "2")
    assert rc == 0 and out.strip() == "1 + 10*x + 5*x^2"
    rc, out, _ = run_cli(capsys, "poly", "W", "3")
    assert rc == 0 and out.strip() == "7920 + -3285*n + 405*n^2"
    rc, out, _ = run_cli(capsys, "poly", "h", "1", "2", "4", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"i": 1, "k": 2, "m": 4,
                               "coeffs": ["4", "144", "504", "336", "36"]}
    # the JSON lines, byte for byte: f is g_n over n!, unreduced
    rc, out, _ = run_cli(capsys, "poly", "f", "2", "--format", "json")
    assert rc == 0
    assert out == '{"den_factorial_of":2,"kind":"f","n":2,"num_coeffs":["0","-3","1"]}\n'
    rc, out, _ = run_cli(capsys, "poly", "g", "2", "--format", "json")
    assert rc == 0 and out == '{"coeffs":["0","-3","1"],"kind":"g","n":2}\n'
    rc, _, _ = run_cli(capsys, "poly", "h", "1", "2")
    assert rc == 2
    # a chain of 1000 levels, past the recursion limit; h_{i,k,0} = [i = 0]
    assert run_cli(capsys, "poly", "h", "0", "1000", "0")[:2] == (0, "1\n")
    assert run_cli(capsys, "poly", "h", "3", "1000", "0")[:2] == (0, "0\n")
    # a negative index must not wrap around the g_n memo
    for kind, n in (("g", "-1"), ("f", "-2")):
        rc, out, err = run_cli(capsys, "poly", kind, n)
        assert rc == 2 and out == "" and "n >= 0" in err


def test_cli_poly_h_over_a_whole_family_in_one_process(capsys, monkeypatch):
    # the first request walks the chain, the second builds the family, and
    # the rest read it; every output is the per-child recurrence's
    from ptmpow import bm_sequences

    monkeypatch.setattr(bm_sequences, "_h_memo", {})
    reference = {}
    for i in range(32):
        rc, out, _ = run_cli(capsys, "poly", "h", str(i), "5", "3", "--format", "json")
        assert rc == 0
        want = _h_per_child(i, 5, 3, reference).coeffs
        assert json.loads(out) == {"i": i, "k": 5, "m": 3, "coeffs": [str(c) for c in want]}, i
    assert bm_sequences._h_memo[5, 3] is not None


def test_cli_poly_refuses_a_build_past_the_bit_limit(capsys, monkeypatch):
    # the estimate is checked before any builder runs (all are None here)
    from ptmpow import bm_sequences, f_polys

    monkeypatch.setattr(bm_sequences, "h_poly", None)
    monkeypatch.setattr(f_polys, "shared_fseries", None)
    monkeypatch.setattr(f_polys, "w_poly", None)
    for argv in (["g", "100000"], ["f", "341"], ["W", "161"], ["h", "0", "1", "100000000"],
                 ["h", "0", "128", "1"], ["h", "0", "2", "1000", "--format", "json"],
                 ["h", "0", str(2**20), "0"]):
        rc, out, err = run_cli(capsys, "poly", *argv)
        assert rc == 2 and out == "" and "the limit is 2^20" in err, argv
    # just below the limit the builders are called (and fail on None here)
    for argv in (["g", "340"], ["W", "160"], ["h", "0", "127", "1"], ["h", "3", "2", "417"]):
        with pytest.raises(TypeError):
            main(["poly", *argv])


def test_cli_val(capsys):
    rc, out, _ = run_cli(capsys, "val", "t3", "--bound", "64")
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["ok"] for r in rows)
    assert rows[1] == {"n": 2, "direct": "INFINITE", "closed": "INFINITE", "ok": True}
    rc, out, _ = run_cli(capsys, "val", "b1", "--bound", "64")
    assert rc == 0
    # the whole output of the two families that read --k, byte for byte
    for family, closed in (("t-pow2", [0, 2, 1, 2, 0, 3, 2, 3, 0]),
                           ("b-pow2m1", [0, 0, 0, 0, 1, 1, 1, 1, 2])):
        rc, out, _ = run_cli(capsys, "val", family, "--k", "2", "--bound", "8")
        assert rc == 0 and out == "".join(
            f'{{"closed":{v},"direct":{v},"n":{n},"ok":true}}\n' for n, v in enumerate(closed))
    assert_usage_error("val", "b1", "--bound", "-5")
    # t3 starts at n = 1 and b1 at n = 2: a bound below checks nothing
    for family, bound, first in (("t3", "0", 1), ("b1", "1", 2)):
        rc, out, err = run_cli(capsys, "val", family, "--bound", bound)
        assert rc == 2 and out == "" and f"--bound >= {first}" in err
    # 2^k needs k >= 0 and b_(2^k - 1) needs k >= 1; the message names --k
    assert_usage_error("val", "t-pow2", "--k", "-1", "--bound", "4")
    assert "--k >= 0" in capsys.readouterr().err
    assert_usage_error("val", "b-pow2m1", "--k", "0", "--bound", "4")
    assert "--k >= 1" in capsys.readouterr().err
    # F(x)^(2^k) runs 2^k passes per block, so both stop at k = 20
    for family in ("t-pow2", "b-pow2m1"):
        assert_usage_error("val", family, "--k", "21", "--bound", "4")
        assert "--k <= 20" in capsys.readouterr().err


def test_cli_search(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, "search", "2")
    assert rc == 0 and json.loads(out)["n"] == 5
    rc, out, _ = run_cli(capsys, "search", "0")
    assert rc == 2 and out == ""
    # |t_2(n)| <= n+1: a target past the scan cap is refused before any scan
    with monkeypatch.context() as patch:
        patch.setattr(tm_sequences, "fpow_prefix", None)
        for target in ("100000000", "-8388609"):
            rc, out, err = run_cli(capsys, "search", target)
            assert rc == 2 and out == "" and "scan cap" in err
    # a target within the cap but not found below it is a usage error too;
    # t_2 stays below 4097 on [0, 2^13]
    monkeypatch.setattr(tm_sequences, "_T2_SCAN_CAP", 1 << 13)
    rc, out, err = run_cli(capsys, "search", "5000")
    assert rc == 2 and out == "" and "not found below 8192" in err


def test_cli_verify_exit_codes(capsys, tmp_path):
    out_path = str(tmp_path / "reports.jsonl")
    rc, out, _ = run_cli(capsys, "verify", "t5-valuation", "--bound", "256",
                         "--out", out_path)
    assert rc == 3
    payload = json.loads(out)
    assert payload["status"] == "verified-to-bound"
    persisted = json.loads(Path(out_path).read_text())
    assert persisted["name"] == "t5-valuation" and "wall_ms" in persisted

    rc, out, _ = run_cli(capsys, "verify", "b2-valuation-list", "--bound", "2048")
    assert rc == 0
    assert json.loads(out)["kind"] == "theorem"

    rc, _, err = run_cli(capsys, "verify", "nope")
    assert rc == 2 and "unknown campaign" in err

    # a negative bound checks nothing, so it must not report verified-to-bound
    assert_usage_error("verify", "t5-valuation", "--bound", "-5")
    assert_usage_error("verify", "b2-valuation-list", "--bound", "-1")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("route", ["fpow_prefix", "fpow_stream"])
def test_cli_verify_exits_2_on_a_bound_it_cannot_allocate(monkeypatch, capsys, route):
    # exit 1 is a theorem counterexample, so a failed allocation must not
    # reach it; the exact route runs at this bound, the stream once the
    # residue runner does
    if route == "fpow_stream":
        pytest.importorskip("numpy")
        _residues_in_verify(monkeypatch, "t2-symmetry")

    def unallocated(*args):
        raise MemoryError("Unable to allocate 2.00 PiB")

    monkeypatch.setattr(campaigns, route, unallocated)
    rc, out, err = run_cli(capsys, "verify", "t2-symmetry", "--bound", "64")
    assert (rc, out, err) == (2, "", "error: Unable to allocate 2.00 PiB\n")


def test_cli_verify_lets_a_runner_bug_raise(monkeypatch, capsys):
    # no handler raises KeyError by design, so one from a runner is a bug,
    # not a usage error; an unknown campaign still exits 2
    def broken(name, bounds=None):
        raise KeyError("runner bug")

    monkeypatch.setattr(campaigns, "run_campaign", broken)
    with pytest.raises(KeyError, match="runner bug"):
        main(["verify", "t5-valuation"])
    rc, out, err = run_cli(capsys, "verify", "no-such-campaign")
    assert rc == 2 and out == "" and "unknown campaign" in err


# the least size bound at which each campaign checks anything
MINIMUMS = {"t-zero-m4plus": 1, "t-threesigns-turan": 2, "b-turan-m4plus": 2,
            "b3-turan-crossover": 2, "b-pow2m1-congruence": 256, "b-pow2-congruence": 256,
            "b-congruence-growth": 256, "b2-valuation-list": 3}


def test_cli_verify_refuses_empty_ranges(capsys):
    assert {name: c.minimum for name, c in CAMPAIGNS.items() if c.minimum} == MINIMUMS
    for name, least in MINIMUMS.items():
        for bound in (0, least - 1):
            rc, out, err = run_cli(capsys, "verify", name, "--bound", str(bound))
            assert rc == 2 and out == "" and f">= {least}, got {bound}" in err
        rc, out, _ = run_cli(capsys, "verify", name, "--bound", str(least))
        assert rc == (0 if CAMPAIGNS[name].kind == "theorem" else 3)
        assert json.loads(out)["bounds"] == {CAMPAIGNS[name].size_key: least}
    # b2-valuation-list at n = 3 checks its first tabulated index, b_2(3)
    assert run_campaign("b2-valuation-list", {"n": 3}).witness == {"checked": 1}
    # at index 256 every (m, k) of b-pow2m1-congruence checks n = 1
    witness = run_campaign("b-pow2m1-congruence", {"index": 256}).witness
    assert len(witness["failing"]) + len(witness["verified_for"]) == 9
    # at index 256 b-congruence-growth takes a difference at every k, and
    # b3-turan-crossover at n = 2 reads its first sign, b_3(1)^2 = b_3(0) b_3(2)
    fit = run_campaign("b-congruence-growth", {"index": 256}).witness["f(k) for k=2..7"]
    assert all(len(per_k) == 6 and "exact" not in per_k for per_k in fit.values())
    assert run_campaign("b3-turan-crossover", {"n": 2}).witness["zero_differences_at"] == [1]
    for name in ("t5-valuation", "b-pow2-congruence"):
        with pytest.raises(ValueError):
            run_campaign(name, {CAMPAIGNS[name].size_key: -1})


def test_run_campaign_refuses_bounds_it_does_not_read(monkeypatch):
    # a key the campaign does not define, and a negative depth or span, are
    # refused before any runner starts; zero is a bound like any other
    def unreached(bounds):
        raise AssertionError(f"a runner ran on {bounds}")

    with monkeypatch.context() as patch:
        for name, camp in CAMPAIGNS.items():
            patch.setitem(CAMPAIGNS, name, camp._replace(
                runner=unreached, residue_runner=camp.residue_runner and unreached))
        for name, bounds, message in (
                ("t5-valuation", {"N": 10}, "t5-valuation has no bound N; its bounds are n"),
                ("t-regularity", {"n": 8, "width": 2}, "no bound width; its bounds are n, depth"),
                ("b-pow2-congruence", {"n": 1024}, "no bound n; its bounds are index"),
                ("t-missing-values", {"span": -5}, "requires span >= 0, got -5"),
                ("t-regularity", {"depth": -1}, "requires depth >= 0, got -1")):
            with pytest.raises(ValueError, match=message):
                run_campaign(name, bounds)
    rep = run_campaign("t-missing-values", {"n": 64, "span": 0})
    assert rep.bounds == {"n": 64, "span": 0}
    assert run_campaign("t-regularity", {"n": 8, "depth": 0}).witness[
        "distinct_kernel_patterns"] == {f"m={m}": 1 for m in (2, 3, 5, 6)}


def test_cli_verify_bound_sets_only_size_keys(capsys):
    rc, out, _ = run_cli(capsys, "verify", "t-regularity", "--bound", "8")
    assert rc == 3 and json.loads(out)["bounds"] == {"n": 8, "depth": 5}
    rc, out, _ = run_cli(capsys, "verify", "t-missing-values", "--bound", "64")
    assert rc == 3 and json.loads(out)["bounds"] == {"n": 64, "span": 50}


def test_cli_verify_rejects_removed_options(capsys, tmp_path):
    for extra in (["--jobs", "2"], ["--cache-dir", str(tmp_path)]):
        assert_usage_error("verify", "t5-valuation", *extra)
    assert_usage_error("cache", "store", "t", "2", "--bound", "4", "--cache-dir", str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_out_records_backend(monkeypatch, capsys, tmp_path):
    pytest.importorskip("numpy")
    path = str(tmp_path / "reports.jsonl")

    def verify(name, bound):
        rc, out, _ = run_cli(capsys, "verify", name, "--bound", str(bound), "--out", path)
        payload = json.loads(out)
        assert rc == (0 if payload["kind"] == "theorem" else 3) and "backend" not in payload
        assert "backend_reason" not in payload
        return payload

    t9_from = CROSSOVERS["t9-valuation"]
    verify("t9-valuation", 32)
    verify("t9-valuation", t9_from)
    verify("b2-valuation-list", 32)
    verify("t-regularity", 8)
    with monkeypatch.context() as patch:
        _plant(patch, 4, 20, 2**70)
        _residues_in_verify(patch, "t-zero-m4plus")
        assert verify("t-zero-m4plus", 32)["status"] == "verified-to-bound"
    monkeypatch.setitem(sys.modules, "numpy", None)
    verify("t9-valuation", t9_from)
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    assert [(r["name"], r["backend"], r.get("backend_reason")) for r in records] == [
        ("t9-valuation", "exact", "import"),
        ("t9-valuation", "residue", None),
        ("b2-valuation-list", "exact", "import"),
        ("t-regularity", "exact", "import"),
        ("t-zero-m4plus", "exact", "declined"),
        ("t9-valuation", "exact", "no-numpy"),
    ]
    assert not any("fallbacks" in r for r in records)


def test_cli_verify_names_the_backend_reason_on_stderr(monkeypatch, capsys):
    # the stderr line adds backend_reason where it is set, and stdout does
    # not change with it
    pytest.importorskip("numpy")

    def verify(name, bound):
        rc, out, err = run_cli(capsys, "verify", name, "--bound", str(bound))
        assert rc == 3 and err.count("\n") == 1
        return out, err[err.index("(backend") :]

    t9_from = CROSSOVERS["t9-valuation"]
    assert verify("t9-valuation", 32)[1] == "(backend exact: import)\n"
    residue, err = verify("t9-valuation", t9_from)
    assert err == "(backend residue)\n"
    with monkeypatch.context() as patch:
        _plant(patch, 4, 20, 2**70)
        _residues_in_verify(patch, "t-zero-m4plus")
        assert verify("t-zero-m4plus", 32)[1] == "(backend exact: declined)\n"
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert verify("t9-valuation", t9_from) == (residue, "(backend exact: no-numpy)\n")


def test_cli_verify_opens_out_before_any_work(monkeypatch, capsys, tmp_path):
    # a path that cannot be written to exits 2 before any runner starts
    def unreached(bounds):
        raise AssertionError(f"a runner ran on {bounds}")

    camp = CAMPAIGNS["t5-valuation"]
    monkeypatch.setitem(CAMPAIGNS, "t5-valuation", camp._replace(
        runner=unreached, residue_runner=unreached))
    out = str(tmp_path / "no-such-dir" / "x.jsonl")
    rc, stdout, err = run_cli(capsys, "verify", "t5-valuation", "--bound", "65536", "--out", out)
    assert rc == 2 and stdout == "" and "x.jsonl" in err
    assert not (tmp_path / "no-such-dir").exists()


def test_cli_cache_roundtrip(capsys, tmp_path):
    seq = str(tmp_path / "t_2.seq")
    rc, out, _ = run_cli(capsys, "cache", "store", "t", "2", "--bound", "512",
                         "--path", seq)
    assert rc == 0 and json.loads(out)["count"] == 513
    rc, out, _ = run_cli(capsys, "cache", "load", "t", "2", "--path", seq)
    assert rc == 0 and json.loads(out)["m"] == 2
    rc, _, _ = run_cli(capsys, "cache", "store", "t", "2", "--path", seq)
    assert rc == 2  # missing --bound
    path = tmp_path / "negative.seq"
    assert_usage_error("cache", "store", "t", "2", "--bound", "-1", "--path", str(path))
    assert not path.exists()


def test_cli_cache_load_refuses_a_bound(capsys, tmp_path):
    # a load reads the file's own count: a --bound is refused before the
    # file is read, not ignored
    path = str(tmp_path / "t_2.seq")
    assert run_cli(capsys, "cache", "store", "t", "2", "--bound", "9", "--path", path)[0] == 0
    for bound in ("5", "9", "0"):
        rc, out, err = run_cli(capsys, "cache", "load", "t", "2", "--bound", bound,
                               "--path", path)
        assert rc == 2 and out == "" and "cache load takes no --bound" in err
    rc, out, err = run_cli(capsys, "cache", "load", "t", "2", "--bound", "5",
                           "--path", str(tmp_path / "missing.seq"))
    assert rc == 2 and out == "" and "--bound" in err


def test_cli_cache_load_rejects_other_sequence(capsys, tmp_path):
    path = str(tmp_path / "b6.seq")
    rc, _, _ = run_cli(capsys, "cache", "store", "b", "6", "--bound", "64", "--path", path)
    assert rc == 0
    for family, m in (("t", "2"), ("t", "6"), ("b", "5")):
        rc, out, err = run_cli(capsys, "cache", "load", family, m, "--path", path)
        assert rc == 2 and out == "" and "b_6" in err
    rc, out, _ = run_cli(capsys, "cache", "load", "b", "6", "--path", path)
    assert rc == 0 and json.loads(out)["count"] == 65


def _cache_store_to(path, stdout):
    """`ptmpow cache store t 2 --bound 3 --path path` in a fresh interpreter
    with `stdout` as its stdout, stderr captured as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "ptmpow.cli", "cache", "store", "t", "2",
                           "--bound", "3", "--path", str(path)], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_cli_cache_store_refuses_the_file_stdout_writes_to(tmp_path):
    # the report, printed after the store, would land over the head of the
    # file the store wrote: refused before any work, by name or by the
    # same file under another name, in write and append mode
    out = tmp_path / "out.txt"
    for path in ("/dev/stdout", out):
        for mode in ("w", "a"):
            out.write_text("kept\n")
            with open(out, mode) as fh:
                proc = _cache_store_to(path, fh)
            assert proc.returncode == 2 and "stdout" in proc.stderr
            assert out.read_text() == ("" if mode == "w" else "kept\n")
    # another regular file, and a pipe, take the cache and then the report
    assert _cache_store_to(tmp_path / "t_2.seq", subprocess.DEVNULL).returncode == 0
    assert cache_load(str(tmp_path / "t_2.seq")) == ("t", 2, [1, -2, -1, 4])
    proc = _cache_store_to("/dev/stdout", subprocess.PIPE)
    body = "".join(f"{v}\n" for v in (1, -2, -1, 4))
    head = f"ptmpow v1 t 2 4 {zlib.crc32(body.encode()):08x}\n"
    report = '{"count":4,"family":"t","m":2,"path":"/dev/stdout"}\n'
    assert proc.returncode == 0 and proc.stdout == head + body + report


_FOOTPRINT = """
import contextlib, io, json, sys
import ptmpow.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        ptmpow.cli.main(argv)
print(json.dumps(sorted(sys.modules)))
"""


def _modules_loaded_by(*argvs):
    """The module names a fresh interpreter holds after `import ptmpow.cli`
    and one `main(argv)` for each argv in turn."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(argvs)],
                          check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    return set(json.loads(proc.stdout))


def test_cli_loads_only_what_its_command_runs():
    # every CLI start pays for what it imports, so `import ptmpow.cli` loads
    # no other module of the package and each handler imports its own
    def package(mods):
        return {m for m in mods if m.split(".")[0] == "ptmpow"}

    bare = _modules_loaded_by()
    assert package(bare) == {"ptmpow", "ptmpow.cli"}
    assert not bare & {"numpy", "fractions", "dataclasses"}
    seq = _modules_loaded_by(("seq", "t", "2", "0..8"))
    assert package(seq) == {"ptmpow", "ptmpow.cli", "ptmpow.fpow"}
    verify = _modules_loaded_by(("verify", "t5-valuation", "--bound", "64"))
    assert "ptmpow.campaigns" in verify
    assert not verify & {"ptmpow.bm_sequences", "ptmpow.tm_sequences", "numpy"}
    # below its crossover every campaign runs exact in a verify process,
    # without numpy; from it on the residue runner imports numpy
    below = [("verify", name, "--bound", str(max(CAMPAIGNS[name].minimum, 64)))
             for name in CROSSOVERS]
    assert "numpy" not in _modules_loaded_by(*below)
    at = ("verify", "t2k1-valuation-table", "--bound", str(CROSSOVERS["t2k1-valuation-table"]))
    assert ("numpy" in _modules_loaded_by(at)) == (find_spec("numpy") is not None)
    # an exact t-sign-density prints its frequencies without the fractions
    # module, which would load decimal too
    density = _modules_loaded_by(("verify", "t-sign-density", "--bound", "64"))
    assert not density & {"fractions", "decimal", "numpy"}
    # the b_m side reads ptm from core_arith, so it loads no t_m or f_n code
    for argv in (("verify", "b2-valuation-list", "--bound", "64"), ("poly", "h", "0", "2", "2")):
        loaded = _modules_loaded_by(argv)
        assert "ptmpow.bm_sequences" in loaded
        assert not loaded & {"ptmpow.tm_sequences", "ptmpow.f_polys", "fractions", "numpy"}, argv
    # one request per family walks the chain, so it never loads the packed family
    assert "ptmpow.hfamily" not in _modules_loaded_by(("poly", "h", "5", "4", "3"))


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
