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
`fpow_residues` or `fpow_doubles` array at a time plus one slice of
`fpow.chunks` of scratch: it checks the range slice by slice and stops at
the first failing slice.  A bound key the campaign does not define, or a
negative value of a key other than its size, is refused before any work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from .core_arith import nu2, nu2_or_none
from .fpow import (arrays_kept, chunks, fpow_doubles, fpow_doubles_eps, fpow_prefix,
                   fpow_residues)

VERIFIED = "verified-to-bound"
COUNTEREXAMPLE = "counterexample"
OBSERVATION = "observation"


@dataclass
class CampaignReport:
    name: str
    kind: str
    claim: str
    bounds: dict[str, int]
    status: str
    witness: dict
    wall_ms: int
    # "residue" when a whole-array runner settled the campaign, else "exact"
    backend: str = "exact"
    # why a campaign with a residue runner ran exact: "no-numpy" (numpy does
    # not import), "import" (a verify process below the campaign's cold_size)
    # or "declined" (the residue runner returned None); else None
    backend_reason: str | None = None

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
# runners


def _valuation_verdict(m, width, extra, i, expect, got):
    """The verdict of a valuation claim on f_i(m), i = width*n + j, from its
    first failing index i, the expected and the actual valuation; `extra`
    adds witness keys from i."""
    return OBSERVATION, {"failing": {"m": m, "n": i // width, "j": i % width, **extra(i),
                                     "expected": expect, "actual": got}}


def _run_valuation(m, width, expect_of, extra, bounds):
    """Check nu2(f_(width*n + j)(m)) = expect_of(nu2(n + 1)) for n <= bounds["n"]."""
    n_max = bounds["n"]
    vals = fpow_prefix(m, width * n_max + width - 1)
    for n in range(n_max + 1):
        expect = expect_of(nu2(n + 1))
        for j in range(width):
            got = nu2_or_none(vals[width * n + j])
            if got != expect:
                return _valuation_verdict(m, width, extra, width * n + j, expect, got)
    return VERIFIED, {}


# (m, width, expect_of, extra) of t5-valuation and t9-valuation; expect_of
# takes an int or an int64 array
_T5_VALUATION = (5, 4, lambda v: 4 * _ceil_half(v) - v % 2, lambda i: {})
_T9_VALUATION = (9, 8, lambda v: 5 * _ceil_half(v) - 2 * (v % 2),
                 lambda i: {"residue_class": i % 64})


def _run_t2k1_table(bounds):
    # fit the strictly increasing table A_{k, nu2(n+1)} for m = 2^k + 1
    n_max = bounds["n"]
    out = {}
    for k in (2, 3):
        m = (1 << k) + 1
        vals = fpow_prefix(m, (n_max << k) + (1 << k) - 1)
        table: dict[int, int] = {}
        for n in range(n_max + 1):
            v = nu2(n + 1)
            for j in range(1 << k):
                got = nu2_or_none(vals[(n << k) + j])
                if table.setdefault(v, got) != got:
                    return OBSERVATION, {"k": k, "n": n, "j": j,
                                         "conflict_class": v,
                                         "values": [table[v], got]}
        fitted = [table[v] for v in sorted(table)]
        if fitted[0] != 0 or any(a >= b for a, b in zip(fitted, fitted[1:])):
            return OBSERVATION, {"k": k, "table_not_strictly_increasing": fitted}
        out[f"A_{k}"] = fitted
    return VERIFIED, out


def _run_t_regular(bounds):
    # kernel-of-subsequences statistics: how many distinct valuation patterns
    # the dyadic subsequences nu2(t_m(2^l n + j)) show, per m; each pattern
    # is a strided slice of one valuation list
    n_max = bounds["n"]
    depth = bounds["depth"]
    stats = {}
    for m in (2, 3, 5, 6):
        vals = fpow_prefix(m, (n_max << depth) + (1 << depth))
        # nu2 of each value, and -1 at a zero, where v & -v is 0
        v2 = [(v & -v).bit_length() - 1 for v in vals[: (n_max + 1) << depth]]
        patterns = {tuple(v2[j : (n_max << l) + j + 1 : 1 << l])
                    for l in range(depth + 1) for j in range(1 << l)}
        stats[f"m={m}"] = len(patterns)
    return OBSERVATION, {"distinct_kernel_patterns": stats,
                         "note": "-1 encodes an infinite valuation"}


def _run_bm_unbounded(bounds):
    n_max = bounds["n"]
    out = {}
    for m in (2, 4, 5, 6):
        vals = fpow_prefix(-m, n_max)
        best, arg = -1, 0
        for n in range(n_max + 1):
            v = nu2(vals[n]) if vals[n] else 0
            if v > best:
                best, arg = v, n
        out[f"m={m}"] = {"max_nu2": best, "at": arg}
    return OBSERVATION, out


def _run_b_pow2_congruence(bounds):
    # b_{2^m}(2^(k+1) n) == b_{2^m}(2^(k-1) n)  (mod 2^k) for k >= m+2
    idx_max = bounds["index"]
    for m in (1, 2, 3):
        seq = fpow_prefix(-(1 << m), idx_max)
        for k in range(m + 2, m + 5):
            for n in range((idx_max >> (k + 1)) + 1):
                if (seq[n << (k + 1)] - seq[n << (k - 1)]) % (1 << k):
                    return OBSERVATION, {"failing": {"m": m, "k": k, "n": n}}
    return VERIFIED, {}


def _pow2m1_mod(k):
    """The conjectured modulus of b-pow2m1-congruence at k."""
    return 1 << (4 * ((k + 1) // 2) - 2)


def _run_b_pow2m1_congruence(bounds):
    # b_{2^m-1}(2^(k+1) n) == b_{2^m-1}(2^(k-1) n)  (mod 2^(4*floor((k+1)/2)-2))
    # the conjectured modulus is numerically too strong for some (m, k),
    # so failures are recorded per (m, k) instead of aborting the campaign
    idx_max = bounds["index"]
    failures = []
    verified = []
    for m in (1, 2, 3):
        seq = fpow_prefix(1 - (1 << m), idx_max)
        for k in range(m + 2, m + 5):
            mod = _pow2m1_mod(k)
            n = next((n for n in range(1, (idx_max >> (k + 1)) + 1)
                      if (seq[n << (k + 1)] - seq[n << (k - 1)]) % mod), None)
            if n is None:
                verified.append({"m": m, "k": k})
            else:
                failures.append({"m": m, "k": k, "n": n, "mod": mod})
    if failures:
        return OBSERVATION, {"failing": failures, "verified_for": verified}
    return VERIFIED, {}


def _run_b_congruence_growth(bounds):
    # empirically fit f(k) = min_n nu2(b_m(2^(k+1) n) - b_m(2^(k-1) n))
    idx_max = bounds["index"]
    fit = {}
    for m in (3, 5, 6):
        seq = fpow_prefix(-m, idx_max)
        per_k = []
        for k in range(2, 8):
            best = None
            for n in range(1, (idx_max >> (k + 1)) + 1):
                d = seq[n << (k + 1)] - seq[n << (k - 1)]
                if d == 0:
                    continue
                v = nu2(d)
                best = v if best is None else min(best, v)
            per_k.append(best if best is not None else "exact")
        fit[f"m={m}"] = per_k
    return OBSERVATION, {"f(k) for k=2..7": fit}


def _run_sign_density(bounds):
    from fractions import Fraction

    n_max = bounds["n"]
    out = {}
    for m in (2, 3, 4, 5):
        vals = fpow_prefix(m, 3 * n_max + 1)
        for j in (0, 1):
            want = 1 if j == 0 else -1
            hits = sum(
                1
                for n in range(n_max + 1)
                if (vals[3 * n + j] > 0) - (vals[3 * n + j] < 0) != want
            )
            out[f"m={m},j={j}"] = {
                "exceptions": hits,
                "frequency": str(Fraction(hits, n_max + 1)),
            }
    return OBSERVATION, out


# the m of t-threesigns-turan
_THREESIGNS_MS = (2, 3, 4, 5, 6)


def _run_threesigns_turan(bounds):
    n_max = bounds["n"]
    for m in _THREESIGNS_MS:
        vals = fpow_prefix(m, n_max + 1)
        for n in range(1, n_max):
            a, b, c = vals[n - 1], vals[n], vals[n + 1]
            if (a > 0 and b > 0 and c > 0) or (a < 0 and b < 0 and c < 0):
                return OBSERVATION, {"failing": {"m": m, "n": n, "kind": "three-signs"}}
            if b * b <= a * c:
                return OBSERVATION, {"failing": {"m": m, "n": n, "kind": "turan"}}
    return VERIFIED, {}


def _run_b_turan_m4plus(bounds):
    n_max = bounds["n"]
    for m in (4, 5, 6):
        vals = fpow_prefix(-m, n_max + 1)
        for n in range(1, n_max):
            if vals[n] ** 2 <= vals[n - 1] * vals[n + 1]:
                return OBSERVATION, {"failing": {"m": m, "n": n}}
    return VERIFIED, {}


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
    return OBSERVATION, {
        "crossover_candidate": last,
        "positive_beyond": True,
        "zero_differences_at": zeros,
        "alternation_breaks": breaks,
    }


def _run_t_zero_m4plus(bounds):
    n_max = bounds["n"]
    for m in range(4, 9):
        vals = fpow_prefix(m, n_max)
        for n in range(1, n_max + 1):
            if vals[n] == 0:
                return OBSERVATION, {"zero_found": {"m": m, "n": n}}
    return VERIFIED, {}


def _run_t_missing_values(bounds):
    n_max = bounds["n"]
    span = bounds["span"]
    out = {}
    for m in (3, 4, 5):
        vals = fpow_prefix(m, n_max)
        attained = {v for v in vals[: n_max + 1] if -span <= v <= span}
        missing = [v for v in range(-span, span + 1) if v not in attained]
        out[f"m={m}"] = {"attained_in_window": len(attained), "missing": missing}
    return OBSERVATION, out


def _run_b2_valuation_list(bounds):
    from .bm_sequences import b2_valuation_table_suite

    rep = b2_valuation_table_suite(bounds["n"])
    if rep.ok:
        return VERIFIED, {"checked": rep.checked}
    return COUNTEREXAMPLE, rep.witness


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
# residue runners ("residue" in a report: a whole-array runner ran): the
# same checks on values mod 2^64 (`fpow_residues`), on t_m read exactly from
# its residues as int64 (`_int64_values`), or on doubles whose sign of
# b^2 - ac is certified (`_turan_signs`): t_m's int64 readings converted,
# and b_m from the kernel's blocks run in float64 (`fpow_doubles`, with
# the error bound `fpow_doubles_eps`, both beside the blocks they count),
# so the b_m runners build the exact prefix only up to the last index the
# doubles leave unsure.  run_campaign calls one only when numpy imports, in
# a session at any size and in a `ptmpow verify` process (inside
# `fpow.arrays_unkept()`) from the campaign's `cold_size`, so a runner
# decides only the mathematics.  Each returns the exact runner's (status,
# witness), or None, in which case run_campaign runs the exact runner for
# the whole campaign (`backend_reason` "declined"):
# when a residue whose nu2 is taken or that is tested for zero is 0 (a zero
# value or nu2 >= 64), when the certificate of an int64 reading of t_m
# fails, and when the double of a b_m value is not below 2^510.  Any exact
# settling of such an index would build the exact prefix up to it, so
# declining costs no more.  A masked congruence difference is exact, so the
# two congruence runners with a fixed modulus never decline;
# b-congruence-growth takes nu2 of the whole difference and declines on a
# difference of 0 mod 2^64.
#
# Memory: one array per kernel request plus one chunk.  Every runner that
# reads a whole index range walks it in `chunks` (the Turán checks with one
# neighbour on either side) and stops at the first chunk that fails or
# declines, so no temporary is as long as the range.  A
# zero residue past the first failure is then never read; the exact runner
# gives the same witness there, since it reads no index past the failure.
# The congruence runners take their strided differences, at most an eighth
# of the array, whole.  A runner that reads several arrays reads each in its
# own call (`_res_t2k1_fit`, `_res_bm_max_nu2`, `_congruence_reads`, ...),
# whose locals, views included, die when it returns, so no array outlives
# its call into the next request; under `fpow.arrays_unkept()`, as in
# `ptmpow verify`, the process then holds one array at a time.  The int64
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


def _nu2_classes(lo, hi):
    """nu2(n + 1) for n = lo..hi - 1, as int64."""
    import numpy as np

    return _nu2_residues(np.arange(lo + 1, hi + 1, dtype=np.uint64)).astype(np.int64)


def _res_valuation(m, width, expect_of, extra, bounds):
    """`_run_valuation` on residues, one chunk of indices at a time."""
    n_max = bounds["n"]
    res = fpow_residues(m, width * (n_max + 1) - 1)
    for lo, hi in chunks(n_max + 1, width):
        part = res[width * lo : width * hi]
        if not part.all():
            return None
        expect = expect_of(_nu2_classes(lo, hi)).repeat(width)
        got = _nu2_residues(part)
        bad = got != expect
        i = int(bad.argmax())
        if bad[i]:
            return _valuation_verdict(m, width, extra, width * lo + i,
                                      int(expect[i]), int(got[i]))
    return VERIFIED, {}


def _all_verified(verdicts):
    """The first of `verdicts` that is None or not VERIFIED, else VERIFIED
    with their witnesses merged: a runner that reads one array per verdict
    makes each in a call that drops its array on return, so the next
    request starts with none alive."""
    out = {}
    for verdict in verdicts:
        if verdict is None or verdict[0] != VERIFIED:
            return verdict
        out.update(verdict[1])
    return VERIFIED, out


def _observed(parts):
    """OBSERVATION with the witness parts merged, or None when one is None
    (a decline); as `_all_verified`, for the observation runners."""
    out = {}
    for part in parts:
        if part is None:
            return None
        out.update(part)
    return OBSERVATION, out


def _res_t2k1_table(bounds):
    return _all_verified(_res_t2k1_fit(k, bounds["n"]) for k in (2, 3))


def _res_t2k1_fit(k, n_max):
    """The verdict of `_res_t2k1_table` on m = 2^k + 1 alone, VERIFIED with
    its fitted table A_k."""
    width = 1 << k
    res = fpow_residues(width + 1, (n_max + 1) * width - 1)
    # class v first occurs at n = 2^v - 1, j = 0
    firsts = res[[((1 << v) - 1) << k for v in range((n_max + 1).bit_length())]]
    if not firsts.all():
        return None
    table = _nu2_residues(firsts)
    for lo, hi in chunks(n_max + 1, width):
        part = res[lo << k : hi << k]
        if not part.all():
            return None
        cls = _nu2_classes(lo, hi).repeat(width)
        got = _nu2_residues(part)
        bad = got != table[cls]
        i = int(bad.argmax())
        if bad[i]:
            v = int(cls[i])
            return OBSERVATION, {"k": k, "n": lo + (i >> k), "j": i & (width - 1),
                                 "conflict_class": v,
                                 "values": [int(table[v]), int(got[i])]}
    fitted = table.tolist()
    if fitted[0] != 0 or any(a >= b for a, b in zip(fitted, fitted[1:])):
        return OBSERVATION, {"k": k, "table_not_strictly_increasing": fitted}
    return VERIFIED, {f"A_{k}": fitted}


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


def _first_failure(mod, d):
    """The least n >= 1 whose difference d[n - 1] is not 0 mod `mod`, or
    None; exact on residues mod 2^64 for `mod` a power of two."""
    bad = (d & (mod - 1)) != 0
    return int(bad.argmax()) + 1 if bad.any() else None


def _res_b_pow2_congruence(bounds):
    idx_max = bounds["index"]
    for m in (1, 2, 3):
        ks = range(m + 2, m + 5)
        firsts = _congruence_reads(-(1 << m), idx_max, ks,
                                   lambda k, d: _first_failure(1 << k, d))
        for k, n in zip(ks, firsts):
            if n is not None:
                return OBSERVATION, {"failing": {"m": m, "k": k, "n": n}}
    return VERIFIED, {}


def _res_b_pow2m1_congruence(bounds):
    idx_max = bounds["index"]
    failures = []
    verified = []
    for m in (1, 2, 3):
        ks = range(m + 2, m + 5)
        firsts = _congruence_reads(1 - (1 << m), idx_max, ks,
                                   lambda k, d: _first_failure(_pow2m1_mod(k), d))
        for k, n in zip(ks, firsts):
            if n is None:
                verified.append({"m": m, "k": k})
            else:
                failures.append({"m": m, "k": k, "n": n, "mod": _pow2m1_mod(k)})
    if failures:
        return OBSERVATION, {"failing": failures, "verified_for": verified}
    return VERIFIED, {}


def _res_bm_unbounded(bounds):
    return _observed(_res_bm_max_nu2(m, bounds["n"]) for m in (2, 4, 5, 6))


def _res_bm_max_nu2(m, n_max):
    """The witness part of `_res_bm_unbounded` for b_m alone, or None."""
    # argmax and a strict > across chunks take the first maximum, as the
    # exact loop's strict > does
    res = fpow_residues(-m, n_max)
    best, arg = -1, 0
    for lo, hi in chunks(n_max + 1):
        part = res[lo:hi]
        if not part.all():
            return None
        v = _nu2_residues(part)
        at = int(v.argmax())
        if int(v[at]) > best:
            best, arg = int(v[at]), lo + at
    return {f"m={m}": {"max_nu2": best, "at": arg}}


def _min_nu2(k, d):
    """min nu2 over the differences d, "exact" when there are none, or None
    on a difference of 0 mod 2^64: an exact 0, which the exact loop skips,
    or nu2 >= 64."""
    if not d.all():
        return None
    return int(_nu2_residues(d).min()) if d.size else "exact"


def _res_b_congruence_growth(bounds):
    fit = {}
    for m in (3, 5, 6):
        per_k = _congruence_reads(-m, bounds["index"], range(2, 8), _min_nu2)
        if None in per_k:
            return None
        fit[f"m={m}"] = per_k
    return OBSERVATION, {"f(k) for k=2..7": fit}


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
    return vals if _certifies(vals[: (size - 1) // 2 + 1], m) else None


def _certifies(half, m):
    """True when the int64 readings `half` of t_m(0..k) are all below
    2^(64-m) in absolute value, which proves every int64 reading of t_m up
    to 2k + 1 exact (see `_int64_values`)."""
    # not np.abs, which leaves -2^63 negative
    return max(int(half.max()), -int(half.min())) < 1 << (64 - m)


# the unit roundoff of a double
_U = 2.0**-53


def _turan_signs(f, prefix, lo=0, eps=0.0):
    """sgn(v(n)^2 - v(n-1) v(n+1)) for n = 1..len(f) - 2, as an int8 array,
    where v(n) = prefix(top)[lo + n] is an integer (prefix(top) holds the
    values up to index top at least) and f[n] its double: correctly rounded
    at eps = 0, else within a relative error eps of it.

    With u = 2^-53, a = f[n-1], b = f[n], c = f[n+1], P = fl(b*b) and
    Q = fl(a*c), each input is within a relative eps + u of its integer, so
    the rounding of the inputs, of both products and of the difference
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
        tol *= 2.1 * eps + 8 * _U
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


def _res_sign_density(bounds):
    return _observed(_res_sign_exceptions(m, bounds["n"]) for m in (2, 3, 4, 5))


def _res_sign_exceptions(m, n_max):
    """The witness part of `_res_sign_density` for t_m alone, or None."""
    vals = _int64_values(m, 3 * n_max + 2)
    if vals is None:
        return None
    from fractions import Fraction

    import numpy as np

    out = {}
    for j in (0, 1):
        want = 1 if j == 0 else -1
        hits = sum(int(np.count_nonzero(np.sign(vals[3 * lo + j : 3 * hi : 3]) != want))
                   for lo, hi in chunks(n_max + 1, 3))
        out[f"m={m},j={j}"] = {
            "exceptions": hits,
            "frequency": str(Fraction(hits, n_max + 1)),
        }
    return out


def _res_t_missing_values(bounds):
    return _observed(_res_t_attained(m, bounds["n"], bounds["span"]) for m in (3, 4, 5))


def _res_t_attained(m, n_max, span):
    """The witness part of `_res_t_missing_values` for t_m alone, or None."""
    vals = _int64_values(m, n_max + 1)
    if vals is None:
        return None
    import numpy as np

    # seen[v + span]: whether v in [-span, span] is attained
    seen = np.zeros(2 * span + 1, dtype=bool)
    for lo, hi in chunks(n_max + 1):
        part = vals[lo:hi]
        seen[part[(part >= -span) & (part <= span)] + span] = True
    return {f"m={m}": {"attained_in_window": int(np.count_nonzero(seen)),
                       "missing": (np.flatnonzero(~seen) - span).tolist()}}


def _res_threesigns_turan(bounds):
    return _all_verified(_res_threesigns_of(m, bounds["n"]) for m in _THREESIGNS_MS)


def _res_threesigns_of(m, n_max):
    """The verdict of `_res_threesigns_turan` on t_m alone."""
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
            kind = "three-signs" if three[i] else "turan"
            return OBSERVATION, {"failing": {"m": m, "n": lo + i + 1, "kind": kind}}
    return VERIFIED, {}


def _res_b_turan_m4plus(bounds):
    return _all_verified(_res_b_turan_of(m, bounds["n"]) for m in (4, 5, 6))


def _res_b_turan_of(m, n_max):
    """The verdict of `_res_b_turan_m4plus` on b_m alone."""
    signs = _b_turan_signs(m, n_max)
    if signs is None:
        return None
    for lo, part in signs:
        bad = part <= 0
        i = int(bad.argmax())
        if bad[i]:
            return OBSERVATION, {"failing": {"m": m, "n": lo + i + 1}}
    return VERIFIED, {}


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
    return OBSERVATION, {
        "crossover_candidate": last,
        "positive_beyond": True,
        "zero_differences_at": zeros,
        "alternation_breaks": breaks,
    }


def _res_t2_symmetry(bounds):
    # m = t_2(n) has the partner p = n + (-1)^e 2^w, w = nu2(m) + 1, where
    # e = w - 1 + (m - 2^(w-1)) / 2^w = w - 1 + (m >> w).  p <= 3n + 2, and
    # F^2 = (1-x)^2 F(x^2)^2 gives t_2(2k) = t_2(k) + t_2(k-1) and
    # t_2(2k+1) = -2 t_2(k), so t_2 is built only up to (3n + 2) // 2, and
    # three int64 buffers of one chunk hold every step
    import numpy as np

    n_max = bounds["n"]
    top = (3 * n_max + 2) // 2
    half = fpow_residues(2, top)[: top + 1].view("int64")
    if not _certifies(half, 2):
        return None
    for lo, hi in chunks(n_max + 1):
        m = half[lo:hi]
        if not m.all():
            return None
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
        p += np.arange(lo, hi)
        if p.max() >= 2 * half.size:
            return None
        bad = p < 0
        np.maximum(p, 0, out=p)
        odd = (p & 1).astype(bool)
        k = np.right_shift(p, 1, out=w)
        got = np.take(half, k)
        k -= 1
        np.take(half, k, out=p, mode="wrap")
        p[odd | (k < 0)] = 0
        got += p
        np.multiply(got, -2, out=got, where=odd)
        got += m  # 0 exactly where t_2(p) = -m, also when the sum wraps
        bad |= got != 0
        n = int(bad.argmax())
        if bad[n]:
            return COUNTEREXAMPLE, {"n": lo + n, "value": int(m[n])}
    return VERIFIED, {}


def _res_t_zero_m4plus(bounds):
    # a nonzero residue proves a nonzero value
    n_max = bounds["n"]
    for m in range(4, 9):
        if not fpow_residues(m, n_max)[1 : n_max + 1].all():
            return None
    return VERIFIED, {}


def _res_b2_valuation_list(bounds):
    # nu2(x) = a exactly when the low a + 1 bits of x are 2^a, and a + 1 <= 8,
    # so residues mod 2^64 decide every equality.  The polynomial
    # certificates stay exact and come first, as in the exact suite
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


@dataclass(frozen=True)
class Campaign:
    name: str
    kind: str  # theorem | conjecture | question
    claim: str
    defaults: dict
    runner: object
    residue_runner: object = None
    # the least value of the size key at which the runner checks anything
    minimum: int = 0
    # the least value of the size key at which a `ptmpow verify` process
    # runs the residue runner; below it the exact runner finishes before the
    # residue runner and its numpy import would (a session runs it at any size)
    cold_size: int = 0

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
        {"n": 1 << 12}, partial(_run_valuation, *_T5_VALUATION),
        partial(_res_valuation, *_T5_VALUATION),
        # 206 vs 214 ms at 24576, 220 vs 203 at 28672
        cold_size=7 << 12),
    Campaign(
        "t9-valuation", "conjecture",
        "nu2(t_9(8n+j)) = 5*ceil(nu2(n+1)/2) - 2*(nu2(n+1) mod 2) for j in 0..7",
        {"n": 1 << 12}, partial(_run_valuation, *_T9_VALUATION),
        partial(_res_valuation, *_T9_VALUATION),
        # 153 vs 160 ms at 10240, 221 vs 195 at 12288
        cold_size=3 << 12),
    Campaign(
        "t2k1-valuation-table", "conjecture",
        "nu2(t_{2^k+1}(2^k n + j)) = A_{k, nu2(n+1)} for a strictly increasing "
        "integer table with A_{k,0} = 0",
        {"n": 1 << 12}, _run_t2k1_table, _res_t2k1_table,
        # 155 vs 167 ms at 6144, 160 vs 150 at 8192
        cold_size=1 << 13),
    Campaign(
        "t-regularity", "question",
        "is (nu2(t_m(n)))_n 2-regular?  (statistics only: count distinct dyadic "
        "subsequence patterns)",
        {"n": 64, "depth": 5}, _run_t_regular),
    Campaign(
        "bm-valuation-unbounded", "conjecture",
        "for m not of the form 2^k - 1 the sequence nu2(b_m(n)) is unbounded "
        "(report the running maximum)",
        {"n": 1 << 12}, _run_bm_unbounded, _res_bm_unbounded,
        # 176 vs 204 ms at 32768, 174 vs 156 at 49152
        cold_size=3 << 14),
    Campaign(
        "b-pow2-congruence", "conjecture",
        "b_{2^m}(2^(k+1) n) = b_{2^m}(2^(k-1) n) (mod 2^k) for k >= m+2",
        {"index": 1 << 14}, _run_b_pow2_congruence, _res_b_pow2_congruence,
        # every (m, k) checks n >= 1 at index 2^(k+1), and k+1 reaches 8
        minimum=1 << 8,
        # 153 vs 203 ms at 65536, 157 vs 154 at 81920
        cold_size=5 << 14),
    Campaign(
        "b-pow2m1-congruence", "conjecture",
        "b_{2^m-1}(2^(k+1) n) = b_{2^m-1}(2^(k-1) n) "
        "(mod 2^(4*floor((k+1)/2)-2)) for k >= m+2",
        {"index": 1 << 14}, _run_b_pow2m1_congruence, _res_b_pow2m1_congruence,
        # every (m, k) checks n >= 1 at index 2^(k+1), and k+1 reaches 8
        minimum=1 << 8,
        # 142 vs 152 ms at 98304, 232 vs 206 at 131072
        cold_size=1 << 17),
    Campaign(
        "b-congruence-growth", "conjecture",
        "b_m(2^(k+1) n) = b_m(2^(k-1) n) (mod 2^f(k)) with nondecreasing "
        "f(k) = O(k) (empirical fit of f)",
        {"index": 1 << 14}, _run_b_congruence_growth, _res_b_congruence_growth,
        # 122 vs 134 ms at 49152, 221 vs 218 at 65536
        cold_size=1 << 16),
    Campaign(
        "t-sign-density", "conjecture",
        "the exception sets {n : sgn t_m(3n+j) != (-1)^j} are infinite of "
        "density 0 (finite frequencies reported)",
        {"n": 1 << 12}, _run_sign_density, _res_sign_density,
        # 133 vs 139 ms at 16384, 162 vs 144 at 24576
        cold_size=3 << 13),
    Campaign(
        "t-threesigns-turan", "conjecture",
        "for m >= 2: no three consecutive t_m values share a sign and "
        "t_m(n)^2 > t_m(n-1) t_m(n+1)",
        {"n": 1 << 12}, _run_threesigns_turan, _res_threesigns_turan, minimum=2,
        # 151 vs 178 ms at 16384, 218 vs 216 at 32768
        cold_size=1 << 15),
    Campaign(
        "b-turan-m4plus", "conjecture",
        "for m >= 4: b_m(n)^2 - b_m(n-1) b_m(n+1) > 0",
        {"n": 1 << 12}, _run_b_turan_m4plus, _res_b_turan_m4plus, minimum=2,
        # 227 vs 245 ms at 32768, 253 vs 206 at 49152
        cold_size=3 << 14),
    Campaign(
        "b3-turan-crossover", "conjecture",
        "for m = 3 the sign of b_3(n)^2 - b_3(n-1) b_3(n+1) alternates up to "
        "some n_0 and is positive afterwards (search for n_0)",
        {"n": 1 << 12}, _run_b3_crossover, _res_b3_crossover,
        # 152 vs 172 ms at 114688, 167 vs 147 at 122880
        cold_size=15 << 13),
    Campaign(
        "t-zero-m4plus", "conjecture",
        "t_m(n) = 0 has no solution for m >= 4",
        {"n": 1 << 14}, _run_t_zero_m4plus, _res_t_zero_m4plus, minimum=1,
        # 144 vs 152 ms at 24576, 170 vs 158 at 28672
        cold_size=7 << 12),
    Campaign(
        "t-missing-values", "conjecture",
        "for m >= 3 infinitely many integers are never attained by t_m "
        "(window histogram of attained values)",
        {"n": 1 << 14, "span": 50}, _run_t_missing_values, _res_t_missing_values,
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
