"""The in-order checks of a verify process against the exact route on a
shared prefix: `fpow.fpow_stream` against the residues it continues, the
streamed residue parts against the same parts on a session's arrays and
against the exact parts, with planted values; the one exact prefix of
`fpow.arrays_unkept()`; and the two-halving reads of t_2."""

from contextlib import nullcontext

import pytest

from ptmpow import bm_sequences, campaigns, fpow, tm_sequences
from ptmpow.campaigns import CAMPAIGNS, COUNTEREXAMPLE

np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    # a fresh process's kernel memos: an array kept by another test would be
    # read in the verify scope too, and no block would be built
    for name in ("_fpow_vals", "_fpow_carries", "_fpow_res"):
        monkeypatch.setattr(fpow, name, {})


def _residues(t, n):
    return [v % 2**64 for v in fpow.fpow_prefix(t, n)[: n + 1]]


@pytest.mark.parametrize("t", range(-6, 10))
def test_fpow_stream_continues_any_prefix_from_its_half(monkeypatch, t):
    # blocks of 64 entries: the stream covers 0..n in order from a prefix
    # that ends at n // 2, past it, at n or beyond, and builds the blocks
    # above the prefix into one read-only buffer
    monkeypatch.setattr(fpow, "_CHUNK", 64)
    exact = _residues(t, 3000)
    with fpow.arrays_unkept():  # each request is exactly k + 1 long
        for n in (0, 1, 2, 63, 64, 129, 1000, 2999):
            for k in sorted({n // 2, n // 2 + 1, (n + 1) * 3 // 4, n, n + 5}):
                prefix, blocks = fpow.fpow_stream(t, n, k)
                assert prefix.size == k + 1
                blocks = list(blocks)
                los = [lo for lo, _ in blocks]
                ends = [lo + block.size for lo, block in blocks]
                assert los == [0, *ends[:-1]] and ends[-1] == n + 1, (n, k)
                assert all(0 < block.size <= 64 for _, block in blocks)
                assert not any(block.flags.writeable for _, block in blocks)
                assert len({id(block.base) for lo, block in blocks if lo > k}) <= 1
                # a built block is valid until the next is drawn
                got = [int(v) for _, block in fpow.fpow_stream(t, n, k)[1] for v in block]
                assert got == exact[: n + 1], (n, k)
        with pytest.raises(ValueError):
            fpow.fpow_stream(t, 1000, 499)


@pytest.mark.parametrize("t", [-6, -1, 2, 9])
def test_fpow_stream_builds_whole_blocks_above_the_prefix(t):
    # at the production block size: two blocks above the prefix, the last
    # one partial, built in a verify scope, since a session builds none
    n = 3 * fpow._CHUNK + 100
    with fpow.arrays_unkept():
        got = np.concatenate([block.copy() for _, block in fpow.fpow_stream(t, n)[1]])
    assert got.tolist() == _residues(t, n)


@pytest.mark.parametrize("t", [-6, -1, 2, 9])
def test_a_session_stream_builds_nothing(t):
    # the prefix is the kept array, and every block a slice of it
    n = 3 * fpow._CHUNK + 100
    prefix, blocks = fpow.fpow_stream(t, n, n // 2)
    assert prefix is fpow.fpow_residues(t, n) and prefix.size == n + 1
    assert all(np.shares_memory(block, prefix) for _, block in blocks)


def test_a_stream_advances_a_copy_of_the_kept_carries():
    # a verify scope reads a session's array and streams past its end from
    # the carries the memo ended it with; the memo grows later from its own,
    # unmoved by the stream
    fpow.fpow_residues(9, 2000)
    with fpow.arrays_unkept():
        prefix, blocks = fpow.fpow_stream(9, 3000, 1500)
        assert prefix.size == 2001
        got = [int(v) for _, block in blocks for v in block]
    assert got == _residues(9, 3000)
    assert fpow.fpow_residues(9, 5000).tolist() == _residues(9, 5000)


@pytest.mark.parametrize("scope", ["session", "verify"])
def test_a_stream_refuses_a_prefix_below_half_its_range(scope):
    with fpow.arrays_unkept() if scope == "verify" else nullcontext():
        for n, k in ((1000, 499), (1001, 499), (1, -1)):
            with pytest.raises(ValueError, match="needs a prefix"):
                fpow.fpow_stream(5, n, k)
        fpow.fpow_stream(5, 1001, 500)


def _plant(monkeypatch, plants):
    """Make every exact prefix and every streamed block the campaigns read
    hold plants[i] at index i (mod 2^64 in a block), without the kernel
    building on it.  Returns the last index of each stream's prefix."""
    stream, prefix = campaigns.fpow_stream, campaigns.fpow_prefix
    requests = []

    def planted_blocks(blocks):
        for lo, block in blocks:
            hits = {i: v for i, v in plants.items() if lo <= i < lo + block.size}
            if hits:
                block = block.copy()
                for i, v in hits.items():
                    block[i - lo] = v % 2**64
            yield lo, block

    def planted_stream(t, n, k=None):
        res, blocks = stream(t, n, k)
        requests.append(res.size - 1)
        return res, planted_blocks(blocks)

    def planted_prefix(t, n):
        vals = list(prefix(t, n))
        for i, v in plants.items():
            if i < len(vals):
                vals[i] = v
        return vals

    monkeypatch.setattr(campaigns, "fpow_stream", planted_stream)
    monkeypatch.setattr(campaigns, "fpow_prefix", planted_prefix)
    return requests


def _scope_and_session(part, *args):
    """part(*args) as a verify process runs it and as a session does, from
    fresh memos each."""
    with fpow.arrays_unkept():
        cold = part(*args)
    fpow._fpow_res.clear()
    return cold, part(*args)


# t_5 at n <= 3 * 2^12 - 1: indices up to 4 * 3 * 2^12 - 1 = 49151, the
# prefix of a verify process to 24575, and two blocks above it, the last
# 8192 long.  nu2 is 3 at n = 1 (index 5), and 27 at the class of
# n = 2^13 - 1, first at index 32764, in the first block above the prefix
T5_N = 3 * (1 << 12) - 1
T5_TOP = 4 * (T5_N + 1) - 1
VALUATION_PLANTS = {
    "first-block": {5: 3 << 5},
    "class-first-above-the-prefix": {32764: 3 << 20},
    "last-partial-block": {T5_TOP - 1: 3 << 9},
    "zero": {40000: 0},
}


@pytest.mark.parametrize("expect_of", [campaigns._T5_VALUATION[2], None],
                         ids=["closed-form", "table"])
@pytest.mark.parametrize("site", list(VALUATION_PLANTS))
def test_streamed_valuation_part_reads_what_the_exact_part_reads(monkeypatch, site, expect_of):
    requests = _plant(monkeypatch, VALUATION_PLANTS[site])
    args = (5, 4, expect_of, T5_N)
    cold, warm = _scope_and_session(campaigns._res_valuation_of, *args)
    # the verify process streams from a prefix to half the range, the
    # session from all of it
    assert requests == [T5_TOP // 2, T5_TOP]
    assert cold == warm
    table, failure = campaigns._run_valuation_of(*args)
    if site == "zero":
        # a zero residue declines: a zero value, or nu2 >= 64
        assert cold is None and failure == (40000, None)
        return
    # the streamed table holds the classes whose first index precedes the
    # failure, each as the exact part reads it
    assert failure and cold[1] == failure
    assert cold[0] == table[: len(cold[0])] and len(cold[0]) > 1


def test_streamed_valuation_part_verifies_with_the_exact_table():
    args = (9, 8, None, 3 * (1 << 12) + 4099)
    cold, warm = _scope_and_session(campaigns._res_valuation_of, *args)
    assert cold == warm == campaigns._run_valuation_of(*args)


@pytest.mark.parametrize("plants", [{}, {5: 0}, {30000: 0}, {T5_TOP - 1: 0}],
                         ids=["clean", "first-block", "above-the-prefix", "last-partial-block"])
def test_streamed_zero_part_declines_at_a_zero_residue(monkeypatch, plants):
    _plant(monkeypatch, plants)
    cold, warm = _scope_and_session(campaigns._res_t_zero_of, 4, T5_TOP)
    exact = campaigns._run_t_zero_of(4, T5_TOP)
    assert cold == warm == (None if plants else 0)
    assert exact == min(plants, default=0)


@pytest.mark.parametrize("plants", [{}, {7: 1 << 40}, {30000: 1 << 40}, {T5_TOP - 1: 1 << 40},
                                    {T5_TOP - 1: 1 << 40, 30000: 1 << 40}, {T5_TOP - 1: 0}],
                         ids=["clean", "first-block", "above-the-prefix", "last-partial-block",
                              "two-equal", "zero"])
def test_streamed_max_nu2_part_gives_the_exact_first_maximum(monkeypatch, plants):
    _plant(monkeypatch, plants)
    cold, warm = _scope_and_session(campaigns._res_max_nu2_of, 2, T5_TOP)
    assert cold == warm
    if 0 in plants.values():
        assert cold is None
    else:
        assert cold == campaigns._run_max_nu2_of(2, T5_TOP)
        assert not plants or cold == (40, min(plants))


def test_a_verify_scope_keeps_one_exact_prefix(monkeypatch):
    # every exact runner, and every residue runner that settles an index
    # exactly, requests one t at a time: after each request the memo holds
    # that t's prefix alone, while a session keeps every prefix it built
    sizes = []

    def watched(request):
        def call(t, n):
            vals = request(t, n)
            sizes.append(len(fpow._fpow_vals))
            return vals
        return call

    monkeypatch.setattr(fpow, "fpow_prefix", watched(fpow.fpow_prefix))
    for module in (campaigns, tm_sequences, bm_sequences):
        monkeypatch.setattr(module, "fpow_prefix", watched(module.fpow_prefix))
    for name, camp in CAMPAIGNS.items():
        bounds = {**camp.defaults, camp.size_key: max(camp.minimum, 300)}
        with fpow.arrays_unkept():
            for runner in filter(None, (camp.runner, camp.residue_runner)):
                runner(dict(bounds))
    assert sizes and max(sizes) == 1
    fpow._fpow_vals.clear()
    campaigns._b_pow2_congruence(campaigns._run_firsts, {"index": 1024})
    assert set(fpow._fpow_vals) == {-2, -4, -8}


def test_a_verify_scope_keeps_the_prefixes_stored_before_it():
    # an in-process caller of a verify keeps its session's prefixes: the
    # scope drops only those it built, the last one when it ends
    session = fpow.fpow_prefix(3, 100)
    with fpow.arrays_unkept():
        fpow.fpow_prefix(-2, 50)
        fpow.fpow_prefix(5, 50)
        assert set(fpow._fpow_vals) == {3, 5}
        assert fpow.fpow_prefix(3, 300) is session
    assert set(fpow._fpow_vals) == {3} and len(session) > 300


def test_turan_signs_build_their_settling_prefix_once_per_part(monkeypatch):
    # with a loose error bound every index of b_m past the first few is
    # unsure, so each 64-entry chunk settles on a longer exact prefix of the
    # same t, grown where the last chunk left it
    monkeypatch.setattr(fpow, "_CHUNK", 64)
    monkeypatch.setattr(campaigns, "fpow_doubles_eps", lambda t, n: 2.0**-11)
    fresh, calls, prefix = [], [], campaigns.fpow_prefix

    def counted(t, n):
        fresh.append(t not in fpow._fpow_vals)
        calls.append(t)
        return prefix(t, n)

    monkeypatch.setattr(campaigns, "fpow_prefix", counted)
    with fpow.arrays_unkept():
        got = [campaigns._res_b_turan_of(m, 1000) for m in (4, 5, 6)]
    assert calls.count(-4) > 10 and set(calls) == {-4, -5, -6}
    assert fresh.count(True) == 3
    assert got == [campaigns._run_b_turan_of(m, 1000) for m in (4, 5, 6)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 64, 1000, 4000])
def test_t2_two_halving_reads_equal_the_exact_prefix(n):
    top = (3 * n + 2) // 4
    quarter = fpow.fpow_residues(2, top)[: top + 1].view("int64")
    p = np.arange(3 * n + 3, dtype=np.int64)
    assert campaigns._t2_at(quarter, p).tolist() == fpow.fpow_prefix(2, 3 * n + 2)[: 3 * n + 3]


@pytest.mark.parametrize("index", [1, 100, 1500, 2999])
def test_a_planted_t2_array_value_is_caught(monkeypatch, index):
    # a wrong t_2 in the array the partners are read from, which the kernel
    # also builds the blocks above the array on: the residue runner reports
    # a counterexample no later than the value's own index, in a verify
    # process and in a session alike, and so does the exact runner, which
    # reads each partner straight from its prefix
    monkeypatch.setattr(fpow, "_CHUNK", 64)
    value = -fpow.fpow_at(2, index)
    blocks = fpow._blocks

    def planted(t, n, dtype):
        res, carry = blocks(t, n, dtype)
        res = res.copy()
        res[index] = value % 2**64
        return res, carry

    monkeypatch.setattr(fpow, "_blocks", planted)
    cold, warm = _scope_and_session(campaigns._res_t2_symmetry, {"n": 4000})
    assert cold == warm and cold[0] == COUNTEREXAMPLE and cold[1]["n"] <= index
    _plant(monkeypatch, {index: value})
    assert campaigns._run_t2_symmetry({"n": 4000})[0] == COUNTEREXAMPLE


@pytest.mark.parametrize("q", [1, 100, 500, 999])
def test_a_planted_quarter_value_fails_the_partners_read_from_it(q):
    # t_2(4q + r) reads t_2(q), and t_2(4q + 4 + r) reads it as t_2(q) for
    # r < 3 (b_3 = 0): with the sign of t_2(q) flipped in the array, the
    # true t_2 up to n fail exactly at the n whose partner is one of those
    n_max = 4000
    vals = fpow.fpow_prefix(2, 3 * n_max + 4)
    quarter = np.array(vals[: (3 * n_max + 2) // 4 + 1], np.int64)
    quarter[q] *= -1
    readers = [n for n in range(n_max + 1)
               for p in [tm_sequences.t2_partner_index(n, vals[n])]
               if p >> 2 == q or (p >> 2 == q + 1 and p & 3 != 3)]
    bad = campaigns._t2_partner_misses(np.array(vals[: n_max + 1], np.int64), 0, quarter)
    assert readers and np.flatnonzero(bad).tolist() == readers
