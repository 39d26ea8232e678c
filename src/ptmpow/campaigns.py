"""Named verification campaigns: the open questions and conjectures about
t_m and b_m, plus two theorems (the b_2 valuation table and the t_2
symmetry), run to a finite bound and reported honestly.

A campaign never asserts beyond its bound.  Theorem-backed campaigns may
report `counterexample` (which the CLI turns into a hard failure);
conjecture and question campaigns only ever report `verified-to-bound` or
`observation`, recording any witness they find.

`run_campaign` runs one campaign and returns its `CampaignReport`; the CLI
prints it and appends the `--out` record.  A size bound below the
campaign's `minimum` is refused before any work, since it would check
nothing.  The runners read values from `fpow`; those that need
`tm_sequences` or `bm_sequences` import them themselves, so a process that
runs another campaign does not load them.  A whole-array runner holds one
`fpow_residues`, `fpow_stream` or `fpow_doubles` array at a time plus one
slice of `fpow.chunks` of scratch: it checks the range slice by slice and
stops at the first failing slice.  A bound key the campaign does not define, or a
negative value of a key other than its size, is refused before any work.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial
from math import gcd

from .core_arith import nu2, nu2_or_none
from .fpow import (UNIT_ROUNDOFF, arrays_kept, chunks, fpow_doubles, fpow_doubles_eps,
                   fpow_prefix, fpow_residues, fpow_stream)

VERIFIED = "verified-to-bound"
COUNTEREXAMPLE = "counterexample"
OBSERVATION = "observation"


class CampaignReport(namedtuple("CampaignReport", "name kind claim bounds status witness "
                                "wall_ms backend backend_reason", defaults=("exact", None))):
    """What `run_campaign` returns.  `backend` is "residue" when a
    whole-array runner settled the campaign, else "exact".  `backend_reason`
    says why a campaign with a residue runner ran exact: "no-numpy" (numpy
    does not import), "import" (a verify process below the campaign's
    cold_size) or "declined" (the residue runner returned None); else None."""

    __slots__ = ()

    def payload(self) -> dict:
        """Deterministic part (no wall time or backend), for golden
        output.  The `theorem` tag is the claim text from the traceability
        matrix."""
        return {
            "name": self.name,
            "kind": self.kind,
            "theorem": self.claim,
            "bounds": self.bounds,
            "status": self.status,
            "witness": self.witness,
        }


def _ceil_half(v: int) -> int:
    return (v + 1) // 2


# ---------------------------------------------------------------------------
# shapes: what the two backends of a campaign share
#
# A campaign with both backends is a shape plus one part per backend.  The
# shape holds the m (and k) ranges, the order of the kernel requests, how
# their results combine and the witness.  A part is one backend's check of
# one kernel request: `_run_*_of` reads `fpow_prefix`, `_res_*_of` reads
# residues or doubles (below).  It returns the values the shape needs, or
# None when a residue part declines, and the shape then returns None at
# once.  The registry binds a part into its shape with `partial`; the
# three t_{2^k+1} campaigns bind one valuation part per backend, which
# checks that nu2 depends only on the class nu2(n+1), against a closed form
# or against the values at each class's first index.  Each exact part reads
# the values and decides each index itself, so the exact runner stays an
# independent reference for the check; only the loop and the witness are
# shared.


def _valuation(part, m, width, expect_of, extra, bounds):
    """nu2(f_(width*n + j)(m)) = expect_of(nu2(n + 1)) for n <= bounds["n"]
    and j < width, with `part` a valuation part; `extra` adds witness keys
    from the failing index i = width*n + j."""
    found = part(m, width, expect_of, bounds["n"])
    if found is None:
        return None
    if not found[1]:
        return VERIFIED, {}
    i, got = found[1]
    n = i // width
    return OBSERVATION, {"failing": {"m": m, "n": n, "j": i % width, **extra(i),
                                     "expected": expect_of(nu2(n + 1)), "actual": got}}


# (m, width, expect_of, extra) of t5-valuation and t9-valuation; expect_of
# takes an int or an int64 array
_T5_VALUATION = (5, 4, lambda v: 4 * _ceil_half(v) - v % 2, lambda i: {})
_T9_VALUATION = (9, 8, lambda v: 5 * _ceil_half(v) - 2 * (v % 2),
                 lambda i: {"residue_class": i % 64})


def _t2k1_table(part, bounds):
    """Fit the strictly increasing table A_{k, nu2(n+1)} for m = 2^k + 1: the
    valuation part, with no closed form, reads it at the first index of each
    class and gives the first index that contradicts it."""
    out = {}
    for k in (2, 3):
        found = part((1 << k) + 1, 1 << k, None, bounds["n"])
        if found is None:
            return None
        table, conflict = found
        if conflict:
            i, got = conflict
            n = i >> k
            v = nu2(n + 1)
            return OBSERVATION, {"k": k, "n": n, "j": i & ((1 << k) - 1), "conflict_class": v,
                                 "values": [table[v], got]}
        if table[0] != 0 or any(a >= b for a, b in zip(table, table[1:])):
            return OBSERVATION, {"k": k, "table_not_strictly_increasing": table}
        out[f"A_{k}"] = table
    return VERIFIED, out


def _t_regular(valuations_of, bounds):
    """Kernel-of-subsequences statistics: how many distinct valuation
    patterns (nu2(t_m(2^l n + j)))_(n <= bounds["n"]), l <= depth, j < 2^l,
    there are per m.  valuations_of(m, size) gives nu2 of t_m(0..size - 1),
    with one mark for a zero, as a sequence whose slices compare by value,
    or None; each pattern is a strided slice of it."""
    n_max, depth = bounds["n"], bounds["depth"]
    stats = {}
    for m in (2, 3, 5, 6):
        v2 = valuations_of(m, (n_max + 1) << depth)
        if v2 is None:
            return None
        stats[f"m={m}"] = len({v2[j : (n_max << l) + j + 1 : 1 << l]
                               for l in range(depth + 1) for j in range(1 << l)})
    return OBSERVATION, {"distinct_kernel_patterns": stats,
                         "note": "-1 encodes an infinite valuation"}


def _bm_unbounded(max_nu2_of, bounds):
    """The running maximum of nu2(b_m(n)) for n <= bounds["n"]: max_nu2_of(m,
    n_max) gives the largest value and the first n at which it occurs."""
    out = {}
    for m in (2, 4, 5, 6):
        found = max_nu2_of(m, bounds["n"])
        if found is None:
            return None
        out[f"m={m}"] = {"max_nu2": found[0], "at": found[1]}
    return OBSERVATION, out


def _b_pow2_congruence(firsts, bounds):
    """b_{2^m}(2^(k+1) n) == b_{2^m}(2^(k-1) n)  (mod 2^k) for k >= m+2.
    firsts(t, idx_max, ks, mod_of) gives, per k in ks, the least n >= 1 with
    f_(n << (k+1))(t) != f_(n << (k-1))(t) (mod mod_of(k)), or 0 when every n
    up to idx_max >> (k+1) holds; it never declines."""
    for m in (1, 2, 3):
        ks = range(m + 2, m + 5)
        for k, n in zip(ks, firsts(-(1 << m), bounds["index"], ks, lambda k: 1 << k)):
            if n:
                return OBSERVATION, {"failing": {"m": m, "k": k, "n": n}}
    return VERIFIED, {}


def _pow2m1_mod(k):
    """The conjectured modulus of b-pow2m1-congruence at k."""
    return 1 << (4 * ((k + 1) // 2) - 2)


def _b_pow2m1_congruence(firsts, bounds):
    """b_{2^m-1}(2^(k+1) n) == b_{2^m-1}(2^(k-1) n)
    (mod 2^(4*floor((k+1)/2)-2)), with `firsts` as in `_b_pow2_congruence`.
    The conjectured modulus is numerically too strong for some (m, k), so
    failures are recorded per (m, k) instead of ending the campaign."""
    failures = []
    verified = []
    for m in (1, 2, 3):
        ks = range(m + 2, m + 5)
        for k, n in zip(ks, firsts(1 - (1 << m), bounds["index"], ks, _pow2m1_mod)):
            if n:
                failures.append({"m": m, "k": k, "n": n, "mod": _pow2m1_mod(k)})
            else:
                verified.append({"m": m, "k": k})
    if failures:
        return OBSERVATION, {"failing": failures, "verified_for": verified}
    return VERIFIED, {}


def _b_congruence_growth(min_nu2s, bounds):
    """Empirically fit f(k) = min_n nu2(b_m(2^(k+1) n) - b_m(2^(k-1) n)).
    min_nu2s(t, idx_max, ks) gives, per k in ks, the least nu2 of the
    nonzero differences f_(n << (k+1))(t) - f_(n << (k-1))(t), n up to
    idx_max >> (k+1), or "exact" when there are none; None for a k declines."""
    fit = {}
    for m in (3, 5, 6):
        per_k = min_nu2s(-m, bounds["index"], range(2, 8))
        if None in per_k:
            return None
        fit[f"m={m}"] = per_k
    return OBSERVATION, {"f(k) for k=2..7": fit}


def _ratio_text(a, b):
    """a/b in lowest terms, for a >= 0 and b > 0, as str(Fraction(a, b))
    prints it: "0" and whole numbers without "/1".  The fractions module
    would load decimal too."""
    g = gcd(a, b)
    return f"{a // g}" if g == b else f"{a // g}/{b // g}"


def _sign_density(exceptions_of, bounds):
    """The exceptions to sgn t_m(3n + j) = (-1)^j for n <= bounds["n"] and
    their frequency: exceptions_of(m, n_max) counts them for j = 0 and 1."""
    n_max = bounds["n"]
    out = {}
    for m in (2, 3, 4, 5):
        hits = exceptions_of(m, n_max)
        if hits is None:
            return None
        for j in (0, 1):
            out[f"m={m},j={j}"] = {
                "exceptions": hits[j],
                "frequency": _ratio_text(hits[j], n_max + 1),
            }
    return OBSERVATION, out


def _first_failing(ms, witness, first_failure, bounds):
    """VERIFIED when first_failure(m, bounds["n"]) finds no failure (a falsy
    value) for any m in ms, else OBSERVATION with witness(m, failure) for
    the first m that has one."""
    for m in ms:
        found = first_failure(m, bounds["n"])
        if found is None:
            return None
        if found:
            return OBSERVATION, witness(m, found)
    return VERIFIED, {}


# no three consecutive t_m values share a sign, and t_m(n)^2 > t_m(n-1)
# t_m(n+1), for 1 <= n < bounds["n"]: a part gives the first n that fails
# either with its kind, "three-signs" where both fail, or ()
_threesigns_turan = partial(_first_failing, (2, 3, 4, 5, 6), lambda m, found: {
    "failing": {"m": m, "n": found[0], "kind": found[1]}})
# b_m(n)^2 > b_m(n-1) b_m(n+1) for 1 <= n < bounds["n"]: a part gives the
# first n that fails, or 0
_b_turan_m4plus = partial(_first_failing, (4, 5, 6),
                          lambda m, n: {"failing": {"m": m, "n": n}})
# t_m(n) != 0 for 1 <= n <= bounds["n"]: a part gives the first n with
# t_m(n) = 0, or 0
_t_zero_m4plus = partial(_first_failing, range(4, 9),
                         lambda m, n: {"zero_found": {"m": m, "n": n}})


def _t_missing_values(attained_of, bounds):
    """The values in [-span, span] that t_m(0..n) does not attain:
    attained_of(m, n_max, span) gives the set of those it attains."""
    span = bounds["span"]
    out = {}
    for m in (3, 4, 5):
        attained = attained_of(m, bounds["n"], span)
        if attained is None:
            return None
        missing = [v for v in range(-span, span + 1) if v not in attained]
        out[f"m={m}"] = {"attained_in_window": len(attained), "missing": missing}
    return OBSERVATION, out


def _crossover_verdict(last, zeros, breaks):
    """The verdict of b3-turan-crossover from the last n <= n_max - 1 at which
    b_3(n)^2 - b_3(n-1) b_3(n+1) <= 0, the n at which it is 0 and the n up
    to `last` that break the alternation."""
    return OBSERVATION, {"crossover_candidate": last, "positive_beyond": True,
                         "zero_differences_at": zeros, "alternation_breaks": breaks}


# ---------------------------------------------------------------------------
# exact runners and parts


def _run_valuation_of(m, width, expect_of, n_max):
    """The valuation part of the t_{2^k+1} campaigns, m = width + 1: the
    table of nu2(f_(width*n)(m)) at n = 2^v - 1, the first n of each class
    v = nu2(n + 1), and the first index i = width*n + j, n <= n_max, whose
    valuation is not expect_of(v), or not the table's entry when expect_of
    is None, as (i, got), or ().  nu2 of a zero is None."""
    vals = fpow_prefix(m, width * n_max + width - 1)
    table = [nu2_or_none(vals[((1 << v) - 1) * width]) for v in range((n_max + 1).bit_length())]
    expect = table if expect_of is None else [expect_of(v) for v in range(len(table))]
    for n in range(n_max + 1):
        want = expect[nu2(n + 1)]
        for j in range(width):
            got = nu2_or_none(vals[width * n + j])
            if got != want:
                return table, (width * n + j, got)
    return table, ()


def _run_valuations_of(m, size):
    """nu2 of t_m(0..size - 1) as a tuple, -1 at a zero, where v & -v is 0."""
    return tuple((v & -v).bit_length() - 1 for v in fpow_prefix(m, size - 1)[:size])


def _run_max_nu2_of(m, n_max):
    vals = fpow_prefix(-m, n_max)
    best, arg = -1, 0
    for n in range(n_max + 1):
        v = nu2(vals[n]) if vals[n] else 0
        if v > best:
            best, arg = v, n
    return best, arg


def _run_firsts(t, idx_max, ks, mod_of):
    seq = fpow_prefix(t, idx_max)
    return [next((n for n in range(1, (idx_max >> (k + 1)) + 1)
                  if (seq[n << (k + 1)] - seq[n << (k - 1)]) % mod_of(k)), 0)
            for k in ks]


def _run_min_nu2s(t, idx_max, ks):
    seq = fpow_prefix(t, idx_max)
    out = []
    for k in ks:
        diffs = (seq[n << (k + 1)] - seq[n << (k - 1)] for n in range(1, (idx_max >> (k + 1)) + 1))
        out.append(min((nu2(d) for d in diffs if d), default="exact"))
    return out


def _run_sign_exceptions_of(m, n_max):
    vals = fpow_prefix(m, 3 * n_max + 1)
    return [sum(1 for n in range(n_max + 1)
                if (vals[3 * n + j] > 0) - (vals[3 * n + j] < 0) != (-1) ** j)
            for j in (0, 1)]


def _run_threesigns_of(m, n_max):
    vals = fpow_prefix(m, n_max + 1)
    for n in range(1, n_max):
        a, b, c = vals[n - 1], vals[n], vals[n + 1]
        if (a > 0 and b > 0 and c > 0) or (a < 0 and b < 0 and c < 0):
            return n, "three-signs"
        if b * b <= a * c:
            return n, "turan"
    return ()


def _run_b_turan_of(m, n_max):
    vals = fpow_prefix(-m, n_max + 1)
    for n in range(1, n_max):
        if vals[n] ** 2 <= vals[n - 1] * vals[n + 1]:
            return n
    return 0


def _run_b3_crossover(bounds):
    n_max = bounds["n"]
    vals = fpow_prefix(-3, n_max + 1)
    # the sign of b^2 - ac at n = 1 .. n_max - 1, each difference taken once;
    # the alternation wants -1 at odd n and +1 at even n up to the last
    # nonpositive n
    signs = [(d > 0) - (d < 0)
             for d in (vals[n] ** 2 - vals[n - 1] * vals[n + 1] for n in range(1, n_max))]
    zeros = [n for n, sign in enumerate(signs, 1) if sign == 0]
    last = max((n for n, sign in enumerate(signs, 1) if sign <= 0), default=0)
    breaks = [n for n, sign in enumerate(signs[:last], 1) if sign == (1 if n & 1 else -1)]
    return _crossover_verdict(last, zeros, breaks)


def _run_t_zero_of(m, n_max):
    vals = fpow_prefix(m, n_max)
    return next((n for n in range(1, n_max + 1) if vals[n] == 0), 0)


def _run_t_attained_of(m, n_max, span):
    vals = fpow_prefix(m, n_max)
    return {v for v in vals[: n_max + 1] if -span <= v <= span}


def _run_b2_valuation_list(bounds):
    """Every tabulated equality nu2(b_2(M n + i)) = a for indices <= n, after
    the polynomial certificates used to derive them
    (`bm_sequences.b2_certificate_witness`)."""
    from .bm_sequences import B2_VALUATION_TABLE, b2_certificate_witness

    witness = b2_certificate_witness()
    if witness:
        return COUNTEREXAMPLE, witness
    n_max = bounds["n"]
    v = fpow_prefix(-2, n_max)
    checked = 0
    for modulus, residues, a in B2_VALUATION_TABLE:
        for i in residues:
            # nu2(x) == a exactly when the low a + 1 bits of x are 2^a
            low_bits = list(map(((2 << a) - 1).__and__, v[i : n_max + 1 : modulus]))
            if low_bits.count(1 << a) < len(low_bits):
                n = next(n for n, b in enumerate(low_bits) if b != 1 << a)
                return COUNTEREXAMPLE, {"modulus": modulus, "i": i, "n": n,
                                        "value_nu2": nu2(v[modulus * n + i])}
            checked += len(low_bits)
    return VERIFIED, {"checked": checked}


def _run_t2_symmetry(bounds):
    from .tm_sequences import t2_partner_index

    n_max = bounds["n"]
    # |t_2(n)| <= n+1, so the partner shift 2^(nu2+1) stays below 2(n+1)
    vals = fpow_prefix(2, 3 * n_max + 4)
    for n in range(n_max + 1):
        n2 = t2_partner_index(n, vals[n])
        if n2 < 0 or vals[n2] != -vals[n]:
            return COUNTEREXAMPLE, {"n": n, "value": vals[n]}
    return VERIFIED, {}


# ---------------------------------------------------------------------------
# residue runners and parts ("residue" in a report: a whole-array runner
# ran): the same checks on values mod 2^64 (`fpow_residues`), on t_m read
# exactly from its residues as int64 (`_int64_values`), or on doubles whose
# sign of b^2 - ac is certified (`_turan_signs`): t_m's int64 readings
# converted, and b_m from the kernel's blocks run in float64
# (`fpow_doubles`, with the error bound `fpow_doubles_eps`, both beside the
# blocks they count), so the b_m parts build the exact prefix only up to the
# last index the doubles leave unsure.  run_campaign calls a residue runner
# only when numpy imports, in a session at any size and in a `ptmpow
# verify` process (inside `fpow.arrays_unkept()`) from the campaign's
# `cold_size`, so a runner decides only the mathematics.  Each gives the
# exact runner's (status, witness), or None, in which case run_campaign
# runs the exact runner for the whole campaign (`backend_reason`
# "declined"): when a residue whose nu2 is taken or that is tested for zero
# is 0 (a zero value or nu2 >= 64), when the certificate of an int64
# reading of t_m fails, and when the double of a b_m value is not below
# 2^510.  Any exact settling of such an index would build the exact prefix
# up to it, so declining costs no more.  A masked congruence difference is
# exact, so `_res_firsts` never declines; `_res_min_nu2s` takes nu2 of the
# whole difference and declines on a difference of 0 mod 2^64.
#
# Memory: one array per kernel request plus one chunk.  Every part that
# reads a whole index range walks it in `chunks` or in the blocks of
# `fpow_stream` (the Turán checks with one neighbour on either side) and
# stops at the first one that fails or declines, so no temporary is as long
# as the range.  A zero residue past the first failure is then never read;
# the exact part gives the same result there, since it reads no index past
# the failure.  The valuation, zero and max-nu2 parts and t2-symmetry read
# their kernel in order from `fpow_stream`, t2-symmetry its partners from
# the prefix the stream starts from.  The valuation part fills its table of
# class firsts as the blocks pass, since a class's first index precedes the
# rest of its class.  The congruence
# parts take their strided differences, at most an eighth of the array,
# whole.  Each part reads one array in its own call, whose locals, views
# included, die when it returns, so no array outlives its call into the
# next request; a verify process then holds one array, or the half of one
# that a stream starts from, at a time, and, when it runs exact, one exact
# prefix (`fpow.fpow_prefix`).  The valuation-pattern part of t-regularity
# also writes nu2 of its int64 readings, chunk by chunk, into one uint8
# buffer, an eighth of its array, whose bytes the shape slices.  The int64
# certificate is taken per m, so a failure on one m is reported even where
# a later m would have declined; the exact runner gives the same witness.


def _nu2_residues(r):
    """nu2 of each uint64 residue (a count of trailing zero bits): 64 at 0.
    One temporary as long as r: its lowest set bit, less 1."""
    import numpy as np

    low = np.negative(r)
    low &= r
    low -= 1
    return np.bitwise_count(low)


def _by_class(table, lo, hi, width):
    """table[nu2(i // width + 1)] for i = lo..hi - 1: looked up once per n
    and repeated, so only the result is as long as the range."""
    import numpy as np

    n = np.arange(lo // width + 1, (hi - 1) // width + 2, dtype=np.uint64)
    return table[_nu2_residues(n)].repeat(width)[lo % width : lo % width + hi - lo]


def _res_valuation_of(m, width, expect_of, n_max):
    """`_run_valuation_of` on residues, one block of indices at a time, or
    None at a residue of 0.  A class's first index precedes the rest of its
    class, so the table fills as the blocks pass; with a failing index it
    holds the classes whose first index is not after it."""
    import numpy as np

    firsts = [((1 << v) - 1) * width for v in range((n_max + 1).bit_length())]
    table = np.zeros(len(firsts), np.uint8)
    # uint8, as the nu2 of the residues are
    expect = table if expect_of is None else expect_of(np.arange(len(firsts))).astype(np.uint8)
    for lo, block in fpow_stream(m, width * (n_max + 1) - 1)[1]:
        if not block.all():
            return None
        got = _nu2_residues(block)
        hi = lo + block.size
        for v in range(bisect_left(firsts, lo), bisect_left(firsts, hi)):
            table[v] = got[firsts[v] - lo]
        bad = got != _by_class(expect, lo, hi, width)
        i = int(bad.argmax())
        if bad[i]:
            return table[: bisect_right(firsts, lo + i)].tolist(), (lo + i, int(got[i]))
    return table.tolist(), ()


def _congruence_reads(t, idx_max, ks, read):
    """[read(k, d) for k in ks], where d holds f_(n << (k+1))(t) -
    f_(n << (k-1))(t) mod 2^64 for n = 1..idx_max >> (k+1) (at n = 0 the
    difference is 0), from one residue array that dies on return."""
    seq = fpow_residues(t, idx_max)
    out = []
    for k in ks:
        big, small, end = 1 << (k + 1), 1 << (k - 1), (idx_max >> (k + 1)) + 1
        out.append(read(k, seq[big : end * big : big] - seq[small : end * small : small]))
    return out


def _res_firsts(t, idx_max, ks, mod_of):
    """`_run_firsts` on residues, exact for mod_of(k) a power of two."""
    def first(k, d):
        bad = (d & (mod_of(k) - 1)) != 0
        return int(bad.argmax()) + 1 if bad.any() else 0

    return _congruence_reads(t, idx_max, ks, first)


def _res_min_nu2s(t, idx_max, ks):
    """`_run_min_nu2s` on residues, with None at a k whose differences hold
    one of 0 mod 2^64: an exact 0, which the exact part skips, or nu2 >= 64."""
    def min_nu2(k, d):
        if not d.all():
            return None
        return int(_nu2_residues(d).min()) if d.size else "exact"

    return _congruence_reads(t, idx_max, ks, min_nu2)


def _res_valuations_of(m, size):
    """`_run_valuations_of` on int64 values, as bytes with 64 at a zero, or
    None.  A certified reading is below 2^63, so a nonzero one has nu2 <= 62
    and 64 marks a zero alone, as -1 does in the exact part."""
    vals = _int64_values(m, size)
    if vals is None:
        return None
    import numpy as np

    v2 = np.empty(size, np.uint8)
    for lo, hi in chunks(size):
        # as uint64: bitwise_count of a signed value counts its absolute value
        v2[lo:hi] = _nu2_residues(vals[lo:hi].view(np.uint64))
    return v2.tobytes()


def _res_max_nu2_of(m, n_max):
    """`_run_max_nu2_of` on residues, one block at a time, or None."""
    # argmax and a strict > across blocks take the first maximum, as the
    # exact loop's strict > does
    best, arg = -1, 0
    for lo, block in fpow_stream(-m, n_max)[1]:
        if not block.all():
            return None
        v = _nu2_residues(block)
        at = int(v.argmax())
        if int(v[at]) > best:
            best, arg = int(v[at]), lo + at
    return best, arg


def _int64_values(m, size):
    """[t_m(0), ..., t_m(size - 1)] as an exact int64 array, or None when
    the certificate fails.

    F^m = (1-x)^m F(x^2)^m makes t_m(i) a sum of values t_m(k), k <= i/2,
    times binomials C(m, j) of one parity of j, whose absolute values add up
    to 2^(m-1).  The certificate: every int64 reading up to (size - 1)//2 has
    absolute value below 2^(64-m).  By induction over the dyadic blocks
    [2^j, 2^(j+1)) from t_m(0) = 1, each of those readings is exact, and so
    every |t_m(i)|, i < size, is below 2^63 and read exactly too."""
    vals = fpow_residues(m, size - 1)[:size].view("int64")
    return vals if _certifies(vals[: (size - 1) // 2 + 1], 64 - m) else None


def _certifies(vals, bits):
    """True when every int64 reading in `vals` is below 2^bits in absolute
    value.  At bits = 64 - m on the readings of t_m(0..k) this proves every
    int64 reading of t_m up to 2k + 1 exact (see `_int64_values`)."""
    # not np.abs, which leaves -2^63 negative
    return max(int(vals.max()), -int(vals.min())) < 1 << bits


def _turan_signs(f, prefix, lo=0, eps=0.0):
    """sgn(v(n)^2 - v(n-1) v(n+1)) for n = 1..len(f) - 2, as an int8 array,
    where v(n) = prefix(top)[lo + n] is an integer (prefix(top) holds the
    values up to index top at least) and f[n] its double: correctly rounded
    at eps = 0, else within a relative error eps of it.

    With u = UNIT_ROUNDOFF = 2^-53, a = f[n-1], b = f[n], c = f[n+1],
    P = fl(b*b) and Q = fl(a*c), each input is within a relative eps + u of
    its integer, so the rounding of the inputs, of both products and of the difference
    D = fl(P - Q) leaves D within (2 eps + 4u)(P + |Q|) of the exact value,
    plus terms of second order, below 0.1 eps for eps < 2^-10.  So where
    |D| > (2.1 eps + 8u)(P + |Q|) the sign of D is the sign of the exact
    value; every other index (ties, zeros, inf and nan among them) is
    settled with exact Python ints, read in increasing order of n from one
    prefix up to the last such index."""
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore"):
        d = f[:-2] * f[2:]
        tol = np.abs(d)
        p = f[1:-1] * f[1:-1]
        tol += p
        tol *= 2.1 * eps + 8 * UNIT_ROUNDOFF
        np.subtract(p, d, out=d)
        del p
        signs = (d > 0).view(np.int8) - (d < 0).view(np.int8)
        unsure = np.flatnonzero(~(np.abs(d, out=d) > tol)).tolist()
    vals = prefix(lo + unsure[-1] + 2) if unsure else None
    for i in unsure:
        a, b, c = (int(vals[j]) for j in range(lo + i, lo + i + 3))
        x = b * b - a * c
        signs[i] = (x > 0) - (x < 0)
    return signs


def _b_turan_signs(m, n_max):
    """The `_turan_signs` of b_m(0..n_max) as an iterator of (lo, signs at
    n = lo + 1..hi) over the chunks (lo, hi) of its n_max - 1 indices, each
    chunk read with one neighbour on either side from `fpow_doubles`; or
    None when the double of b_m(n_max) is not below 2^510.  b_m is positive
    and nondecreasing, so below that every product of two values is a
    finite double.  An index the doubles leave unsure is settled on
    fpow_prefix(-m, ·), built only up to the last such index."""
    f = fpow_doubles(-m, n_max)
    if not f[n_max] < 2.0**510:
        return None
    prefix = partial(fpow_prefix, -m)
    return ((lo, _turan_signs(f[lo : hi + 2], prefix, lo, fpow_doubles_eps(-m, hi + 1)))
            for lo, hi in chunks(n_max - 1))


def _res_sign_exceptions_of(m, n_max):
    """`_run_sign_exceptions_of` on int64 values, or None."""
    vals = _int64_values(m, 3 * n_max + 2)
    if vals is None:
        return None
    import numpy as np

    return [sum(int(np.count_nonzero(np.sign(vals[3 * lo + j : 3 * hi : 3]) != (-1) ** j))
                for lo, hi in chunks(n_max + 1, 3))
            for j in (0, 1)]


def _res_t_attained_of(m, n_max, span):
    """`_run_t_attained_of` on int64 values, or None."""
    vals = _int64_values(m, n_max + 1)
    if vals is None:
        return None
    import numpy as np

    # seen[v + span]: whether v in [-span, span] is attained
    seen = np.zeros(2 * span + 1, dtype=bool)
    for lo, hi in chunks(n_max + 1):
        part = vals[lo:hi]
        seen[part[(part >= -span) & (part <= span)] + span] = True
    return set((np.flatnonzero(seen) - span).tolist())


def _res_threesigns_of(m, n_max):
    """`_run_threesigns_of` on int64 values, or None."""
    # a first index failing both properties reports three-signs, as the
    # exact loop, which tests that first, does
    vals = _int64_values(m, n_max + 1)
    if vals is None:
        return None
    import numpy as np

    # n = lo + 1..hi, with one neighbour on either side
    for lo, hi in chunks(n_max - 1):
        part = vals[lo : hi + 2]
        s = np.sign(part)
        three = (s[:-2] == s[1:-1]) & (s[1:-1] == s[2:]) & (s[1:-1] != 0)
        bad = _turan_signs(part.astype(np.float64), lambda top: part) <= 0
        bad |= three
        i = int(bad.argmax())
        if bad[i]:
            return lo + i + 1, "three-signs" if three[i] else "turan"
    return ()


def _res_b_turan_of(m, n_max):
    """`_run_b_turan_of` on the doubles of b_m, or None."""
    signs = _b_turan_signs(m, n_max)
    if signs is None:
        return None
    for lo, part in signs:
        bad = part <= 0
        i = int(bad.argmax())
        if bad[i]:
            return lo + i + 1
    return 0


def _res_b3_crossover(bounds):
    n_max = bounds["n"]
    signs = _b_turan_signs(3, n_max)
    if signs is None:
        return None
    import numpy as np

    # the alternation wants -1 at odd n and +1 at even n up to the last
    # nonpositive n; every n after it is positive, so when a chunk has a
    # nonpositive sign, the odd n between the last one before and the chunk
    # break the alternation, and so do the chunk's own up to its last one
    last, zeros, breaks = 0, [], []
    for lo, part in signs:
        n = np.arange(lo + 1, lo + 1 + part.size)
        zeros += n[part == 0].tolist()
        nonpositive = np.flatnonzero(part <= 0)
        if nonpositive.size:
            top = int(nonpositive[-1]) + 1
            breaks += range((last + 1) | 1, lo + 1, 2)
            head, n = part[:top], n[:top]
            breaks += n[head == np.where(n & 1, 1, -1)].tolist()
            last = lo + top
    return _crossover_verdict(last, zeros, breaks)


# (a_r, b_r) for r = 0..3: F^2 = (1-x)^2 F(x^2)^2 gives t_2(2k) = t_2(k) +
# t_2(k-1) and t_2(2k+1) = -2 t_2(k), and so, halving twice,
# t_2(4q + r) = a_r t_2(q) + b_r t_2(q-1), with t_2(-1) = 0
_T2_TWO_HALVINGS = ((1, -1), (-2, -2), (-1, 1), (4, 0))


def _t2_at(quarter, p):
    """t_2(p) for an int64 array p of indices 0 <= p < 4 len(quarter), read
    with two halvings from the int64 readings quarter = t_2(0), t_2(1), ...;
    p is overwritten.  Exact when every reading in quarter is exact and
    below 2^61, since |a_r| + |b_r| <= 4."""
    import numpy as np

    a, b = np.array(_T2_TWO_HALVINGS).T
    r = np.bitwise_and(p, 3, out=np.empty(p.size, np.uint8), casting="unsafe")
    q = np.right_shift(p, 2, out=p)
    got = np.take(quarter, q)
    q -= 1
    prev = np.take(quarter, q, mode="wrap")
    prev[q < 0] = 0
    # q is read; its buffer takes a_r, then b_r
    got *= np.take(a, r, out=q)
    prev *= np.take(b, r, out=q)
    got += prev
    return got


def _t2_partner_misses(m, lo, quarter):
    """Where t_2(p) != -m for the nonzero m = t_2(lo), t_2(lo + 1), ... and
    p the partner index of each, as a bool array, or None when a partner
    lies past what `_t2_at` reads from quarter."""
    # m = t_2(n) has the partner p = n + (-1)^e 2^w, w = nu2(m) + 1, where
    # e = w - 1 + (m - 2^(w-1)) / 2^w = w - 1 + (m >> w)
    import numpy as np

    w = np.negative(m)
    w &= m
    w -= 1
    np.add(np.bitwise_count(w), 1, out=w)
    # +1 where e is even, else -1, times 2^w, plus n
    p = np.right_shift(m, w)
    p ^= w
    p &= 1
    p *= 2
    p -= 1
    np.left_shift(p, w, out=p)
    del w  # so that `_t2_at` holds three buffers, not four
    p += np.arange(lo, lo + m.size)
    if p.max() >= 4 * quarter.size:
        return None
    bad = p < 0
    np.maximum(p, 0, out=p)
    got = _t2_at(quarter, p)
    got += m  # 0 exactly where t_2(p) = -m, also when the sum wraps
    bad |= got != 0
    return bad


def _res_t2_symmetry(bounds):
    # the m = t_2(n) come in blocks of t_2 up to n in order, and their
    # partners p <= 3n + 2 are read with `_t2_at` from t_2 up to
    # top = (3n + 2) // 4 >= n // 2, the prefix the stream starts from.  The
    # certificate: every reading up to top is below 2^61, so the first half
    # of them proves every reading up to 2 top + 1 >= n exact
    # (`_int64_values`).  Every m, n <= 2 top + 1, is t_2(k) + t_2(k - 1)
    # or -2 t_2(k) with k <= top, so it is below 2^62, which keeps
    # 2^(nu2(m) + 1) within int64.  That bound holds for a correct kernel;
    # the readings above top are outside the certificate, so each block is
    # still checked below 2^62, and a wrong value there declines instead of
    # overflowing the shift.  Each block's check
    # holds at most three int64 buffers of one block, which die with
    # `_t2_partner_misses`
    n_max = bounds["n"]
    top = (3 * n_max + 2) // 4
    res, blocks = fpow_stream(2, n_max, top)
    quarter = res[: top + 1].view("int64")
    if not _certifies(quarter, 61):
        return None
    for lo, block in blocks:
        m = block.view("int64")
        bad = _t2_partner_misses(m, lo, quarter) if m.all() and _certifies(m, 62) else None
        if bad is None:
            return None
        n = int(bad.argmax())
        if bad[n]:
            return COUNTEREXAMPLE, {"n": lo + n, "value": int(m[n])}
    return VERIFIED, {}


def _res_t_zero_of(m, n_max):
    """`_run_t_zero_of` on residues, one block at a time: a nonzero residue
    proves a nonzero value, and a zero residue declines."""
    blocks = fpow_stream(m, n_max)[1]
    return 0 if all((block[1:] if lo == 0 else block).all() for lo, block in blocks) else None


def _res_b2_valuation_list(bounds):
    # nu2(x) = a exactly when the low a + 1 bits of x are 2^a, and a + 1 <= 8,
    # so residues mod 2^64 decide every equality.  The polynomial
    # certificates stay exact and come first, as in the exact runner
    from .bm_sequences import B2_VALUATION_TABLE, b2_certificate_witness

    witness = b2_certificate_witness()
    if witness:
        return COUNTEREXAMPLE, witness
    n_max = bounds["n"]
    res = fpow_residues(-2, n_max)
    checked = 0
    for modulus, residues, a in B2_VALUATION_TABLE:
        for i in residues:
            line = res[i : n_max + 1 : modulus]
            for lo, hi in chunks(line.size):
                bad = (line[lo:hi] & ((2 << a) - 1)) != 1 << a
                n = int(bad.argmax())
                if bad[n]:
                    value = int(line[lo + n])
                    if not value:  # nu2 >= 64
                        return None
                    return COUNTEREXAMPLE, {"modulus": modulus, "i": i, "n": lo + n,
                                            "value_nu2": nu2(value)}
            checked += line.size
    return VERIFIED, {"checked": checked}


# ---------------------------------------------------------------------------
# registry (the traceability matrix)


class Campaign(namedtuple("Campaign", "name kind claim defaults runner residue_runner "
                          "minimum cold_size", defaults=(None, 0, 0))):
    """One registered claim.  `kind` is theorem, conjecture or question.
    `minimum` is the least value of the size key at which the runner checks
    anything.  `cold_size` is the least value of the size key at which a
    `ptmpow verify` process runs the residue runner; below it the exact
    runner finishes before the residue runner and its numpy import would (a
    session runs it at any size)."""

    __slots__ = ()

    @property
    def size_key(self) -> str:
        """The bound that sets how far the campaign runs: n or index."""
        return "index" if "index" in self.defaults else "n"


# cold_size: a `ptmpow verify` process runs one campaign and pays the numpy
# import for it alone, about 0.08-0.10 s on one CPU, which is most of a
# residue run at 2^16.  Each value is the first measured size at which the
# residue runner with its import beat the exact runner: whole fresh
# processes pinned to one CPU, medians of 9 or 11 interleaved runs per side
# (Python 3.11, numpy 2.4).  Beside each value, exact vs residue in ms just
# below it and at it.


CAMPAIGNS: dict[str, Campaign] = {}
for _camp in (
    Campaign(
        "t5-valuation", "conjecture",
        "nu2(t_5(4n+j)) = 4*ceil(nu2(n+1)/2) - (nu2(n+1) mod 2) for j in 0..3",
        {"n": 1 << 12}, partial(_valuation, _run_valuation_of, *_T5_VALUATION),
        partial(_valuation, _res_valuation_of, *_T5_VALUATION),
        # 206 vs 214 ms at 24576, 220 vs 203 at 28672
        cold_size=7 << 12),
    Campaign(
        "t9-valuation", "conjecture",
        "nu2(t_9(8n+j)) = 5*ceil(nu2(n+1)/2) - 2*(nu2(n+1) mod 2) for j in 0..7",
        {"n": 1 << 12}, partial(_valuation, _run_valuation_of, *_T9_VALUATION),
        partial(_valuation, _res_valuation_of, *_T9_VALUATION),
        # 153 vs 160 ms at 10240, 221 vs 195 at 12288
        cold_size=3 << 12),
    Campaign(
        "t2k1-valuation-table", "conjecture",
        "nu2(t_{2^k+1}(2^k n + j)) = A_{k, nu2(n+1)} for a strictly increasing "
        "integer table with A_{k,0} = 0",
        {"n": 1 << 12}, partial(_t2k1_table, _run_valuation_of),
        partial(_t2k1_table, _res_valuation_of),
        # 155 vs 167 ms at 6144, 160 vs 150 at 8192
        cold_size=1 << 13),
    Campaign(
        "t-regularity", "question",
        "is (nu2(t_m(n)))_n 2-regular?  (statistics only: count distinct dyadic "
        "subsequence patterns)",
        {"n": 64, "depth": 5}, partial(_t_regular, _run_valuations_of),
        partial(_t_regular, _res_valuations_of),
        # the gate reads n alone, while both parts read (n + 1) 2^depth values
        # of each t_m; at the default depth 5, 165 vs 175 ms at 1792, 196 vs
        # 170 at 2048
        cold_size=1 << 11),
    Campaign(
        "bm-valuation-unbounded", "conjecture",
        "for m not of the form 2^k - 1 the sequence nu2(b_m(n)) is unbounded "
        "(report the running maximum)",
        {"n": 1 << 12}, partial(_bm_unbounded, _run_max_nu2_of),
        partial(_bm_unbounded, _res_max_nu2_of),
        # 176 vs 204 ms at 32768, 174 vs 156 at 49152
        cold_size=3 << 14),
    Campaign(
        "b-pow2-congruence", "conjecture",
        "b_{2^m}(2^(k+1) n) = b_{2^m}(2^(k-1) n) (mod 2^k) for k >= m+2",
        {"index": 1 << 14}, partial(_b_pow2_congruence, _run_firsts),
        partial(_b_pow2_congruence, _res_firsts),
        # every (m, k) checks n >= 1 at index 2^(k+1), and k+1 reaches 8
        minimum=1 << 8,
        # 153 vs 203 ms at 65536, 157 vs 154 at 81920
        cold_size=5 << 14),
    Campaign(
        "b-pow2m1-congruence", "conjecture",
        "b_{2^m-1}(2^(k+1) n) = b_{2^m-1}(2^(k-1) n) "
        "(mod 2^(4*floor((k+1)/2)-2)) for k >= m+2",
        {"index": 1 << 14}, partial(_b_pow2m1_congruence, _run_firsts),
        partial(_b_pow2m1_congruence, _res_firsts),
        # every (m, k) checks n >= 1 at index 2^(k+1), and k+1 reaches 8
        minimum=1 << 8,
        # 142 vs 152 ms at 98304, 232 vs 206 at 131072
        cold_size=1 << 17),
    Campaign(
        "b-congruence-growth", "conjecture",
        "b_m(2^(k+1) n) = b_m(2^(k-1) n) (mod 2^f(k)) with nondecreasing "
        "f(k) = O(k) (empirical fit of f)",
        {"index": 1 << 14}, partial(_b_congruence_growth, _run_min_nu2s),
        partial(_b_congruence_growth, _res_min_nu2s),
        # every k takes a difference at n = 1, index 2^(k+1), and k+1 reaches 8
        minimum=1 << 8,
        # 122 vs 134 ms at 49152, 221 vs 218 at 65536
        cold_size=1 << 16),
    Campaign(
        "t-sign-density", "conjecture",
        "the exception sets {n : sgn t_m(3n+j) != (-1)^j} are infinite of "
        "density 0 (finite frequencies reported)",
        {"n": 1 << 12}, partial(_sign_density, _run_sign_exceptions_of),
        partial(_sign_density, _res_sign_exceptions_of),
        # 133 vs 139 ms at 16384, 162 vs 144 at 24576
        cold_size=3 << 13),
    Campaign(
        "t-threesigns-turan", "conjecture",
        "for m >= 2: no three consecutive t_m values share a sign and "
        "t_m(n)^2 > t_m(n-1) t_m(n+1)",
        {"n": 1 << 12}, partial(_threesigns_turan, _run_threesigns_of),
        partial(_threesigns_turan, _res_threesigns_of), minimum=2,
        # 151 vs 178 ms at 16384, 218 vs 216 at 32768
        cold_size=1 << 15),
    Campaign(
        "b-turan-m4plus", "conjecture",
        "for m >= 4: b_m(n)^2 - b_m(n-1) b_m(n+1) > 0",
        {"n": 1 << 12}, partial(_b_turan_m4plus, _run_b_turan_of),
        partial(_b_turan_m4plus, _res_b_turan_of), minimum=2,
        # 227 vs 245 ms at 32768, 253 vs 206 at 49152
        cold_size=3 << 14),
    Campaign(
        "b3-turan-crossover", "conjecture",
        "for m = 3 the sign of b_3(n)^2 - b_3(n-1) b_3(n+1) alternates up to "
        "some n_0 and is positive afterwards (search for n_0)",
        {"n": 1 << 12}, _run_b3_crossover, _res_b3_crossover, minimum=2,
        # 152 vs 172 ms at 114688, 167 vs 147 at 122880
        cold_size=15 << 13),
    Campaign(
        "t-zero-m4plus", "conjecture",
        "t_m(n) = 0 has no solution for m >= 4",
        {"n": 1 << 14}, partial(_t_zero_m4plus, _run_t_zero_of),
        partial(_t_zero_m4plus, _res_t_zero_of), minimum=1,
        # 144 vs 152 ms at 24576, 170 vs 158 at 28672
        cold_size=7 << 12),
    Campaign(
        "t-missing-values", "conjecture",
        "for m >= 3 infinitely many integers are never attained by t_m "
        "(window histogram of attained values)",
        {"n": 1 << 14, "span": 50}, partial(_t_missing_values, _run_t_attained_of),
        partial(_t_missing_values, _res_t_attained_of),
        # 139 vs 149 ms at 65536, 159 vs 150 at 98304
        cold_size=3 << 15),
    Campaign(
        "b2-valuation-list", "theorem",
        "the pinned table of exact values nu2(b_2(M n + i)) = a, with the polynomial "
        "certificates h_{i,k,2} = 0 (mod 2^a) and h/2^a = (1-x)^(2k-3) (mod 2)",
        {"n": 1 << 14}, _run_b2_valuation_list, _res_b2_valuation_list,
        # the first tabulated index is 4n + 3 at n = 0
        minimum=3,
        # 178 vs 187 ms at 262144, 203 vs 190 at 327680
        cold_size=5 << 16),
    Campaign(
        "t2-symmetry", "theorem",
        "t_2(n') = -t_2(n) for n' = n + (-1)^e * 2^(nu2(m)+1), "
        "m = t_2(n), e = nu2(m) + (m - 2^nu2(m))/2^(nu2(m)+1)",
        {"n": 1 << 14}, _run_t2_symmetry, _res_t2_symmetry,
        # 209 vs 224 ms at 65536, 244 vs 221 at 98304
        cold_size=3 << 15),
):
    CAMPAIGNS[_camp.name] = _camp


def run_campaign(name: str, bounds: dict | None = None) -> CampaignReport:
    if name not in CAMPAIGNS:
        raise KeyError(f"unknown campaign {name!r}; known: {', '.join(sorted(CAMPAIGNS))}")
    camp = CAMPAIGNS[name]
    eff = dict(camp.defaults)
    if bounds:
        eff.update(bounds)
    # a key the campaign does not read would be reported as a bound it
    # checked, and a negative depth or span checks nothing or fails deep
    # inside a runner; both are refused before any work
    unknown = sorted(eff.keys() - camp.defaults.keys())
    if unknown:
        raise ValueError(f"{name} has no bound {', '.join(unknown)}; its bounds are "
                         f"{', '.join(camp.defaults)}")
    for key, value in eff.items():
        if key != camp.size_key and value < 0:
            raise ValueError(f"{name} requires {key} >= 0, got {value}")
    size = eff[camp.size_key]
    if size < camp.minimum:
        # below it the range is empty, and nothing checked verifies nothing
        raise ValueError(f"{name} requires {camp.size_key} >= {camp.minimum}, got {size}")
    t0 = time.monotonic()
    # the one place that decides whether numpy runs.  A session pays its
    # import once and runs every residue runner; a `ptmpow verify` process
    # (inside fpow.arrays_unkept()) pays it for one campaign, so it runs the
    # residue runner only from the campaign's cold_size
    verdict = reason = None
    if camp.residue_runner and size < camp.cold_size and not arrays_kept():
        reason = "import"
    elif camp.residue_runner:
        try:
            import numpy  # noqa: F401
        except ImportError:
            reason = "no-numpy"
        else:
            verdict = camp.residue_runner(eff)
            reason = None if verdict else "declined"
    backend = "residue"
    if verdict is None:
        backend, verdict = "exact", camp.runner(eff)
    status, witness = verdict
    wall_ms = int((time.monotonic() - t0) * 1000)
    if camp.kind != "theorem" and status == COUNTEREXAMPLE:
        status = OBSERVATION  # conjecture campaigns never hard-fail
    return CampaignReport(name, camp.kind, camp.claim, eff, status, witness, wall_ms,
                          backend, reason)


def exit_code_for(report: CampaignReport) -> int:
    """0 theorem verified, 1 theorem counterexample, 3 observation-only."""
    if report.kind == "theorem":
        return 0 if report.status == VERIFIED else 1
    return 3
