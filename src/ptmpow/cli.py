"""Command-line front end.

    ptmpow seq    {t,b,f-eval} M A..B        sequence dumps (csv or json)
    ptmpow poly   {f,g,W} N | h I K M        exact polynomial printouts
    ptmpow val    {t-pow2,t3,b-pow2m1,b1}    valuation reports as JSON lines
    ptmpow verify CAMPAIGN                   run a named campaign
    ptmpow search TARGET                     least n with t_2(n) = TARGET
    ptmpow cache  {store,load} ...           sequence cache files

Exit codes: 0 all-pass, 1 theorem counterexample, 2 usage/data error,
3 campaign finished in observation-only mode.  seq and cache take
|M| <= 2^20, seq, cache store and val refuse a kernel cost (|M|+1)(B+1)
above 2^24, val refuses a bound below its family's first index, poly
refuses to build a polynomial of more than 2^20 bits, search exits 2
on a target past its scan cap, and cache load, which reads the file's own
count, refuses a --bound, and cache store refuses a --path that is the
regular file stdout writes to.  Output on stdout is byte-deterministic for fixed
(version, arguments); timing goes to stderr.

seq (csv and json) and cache store write their text TEXT_BATCH values at a
time, and cache load reads it in batches too, so a request holds its values
and one batch of text: a b_m window's text is larger than its values.

The handlers format the library's values themselves: poly f prints g_n
over n!, and val prints the valuation of zero, None in the library, as
"INFINITE".

A handler imports what it runs.  The module level imports only the stdlib
modules the parser needs, so every process, --version included, starts
without the rest of the package; each _cmd_* function imports its own
modules (seq only ptmpow.fpow), at function level and never inside a loop.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import TEXT_BATCH, __version__


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if a < 0 or b < a:
        raise ValueError(f"bad range {text!r}")
    return a, b


def nonnegative_int(text: str) -> int:
    """argparse type of every --bound: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"bound must be >= 0, got {n}")
    return n


# the largest |m| of seq, cache and val: the kernel for F(x)^(±m) keeps an
# |m|-entry carry list and runs |m| passes per block
_FAMILY_M_MAX = 1 << 20


# the largest kernel cost of one request.  Building F(x)^(±m) to index n
# runs |m| passes over about n + 1 entries after one upsampling copy, so
# its cost is (|m| + 1)(n + 1) entry steps, and its memory is linear in n.
# Measured (Python 3.11, 2 cores, one run each), requests at this limit
# took 0.8 s and 0.27 GiB (t_2 to n = 5592404), 1.0 s and 0.62 GiB (b_1 to
# 2^23 - 1), 3.7-4.8 s (|m| = 2^20 - 1 to n = 15) and 5-10 s (|m| from 299
# to 4095); seq b 1000 262144..262144, 16x over it, ran past 120 s
_FAMILY_COST_MAX = 1 << 24


def _family_prefix(family: str, m: int, n: int) -> list[int]:
    """The kernel prefix behind a family name: t_m is F^m, b_m is F^(-m),
    and f-eval at m is F^m for any integer m with |m| <= 2^20.  Requests
    past _FAMILY_COST_MAX are refused before any work."""
    if abs(m) > _FAMILY_M_MAX:
        raise ValueError(f"{family} requires |m| <= 2^20, got {m}")
    if family != "f-eval" and m < 1:
        raise ValueError(f"{family} requires m >= 1")
    cost = (abs(m) + 1) * (n + 1)
    if cost > _FAMILY_COST_MAX:
        raise ValueError(f"{family} {m} up to index {n} needs (|m|+1)(n+1) = {cost} "
                         f"kernel steps; the limit is 2^24")
    from .fpow import fpow_prefix

    return fpow_prefix(-m if family == "b" else m, n)


def _cmd_seq(args) -> int:
    lo, hi = _parse_range(args.range)
    vals = _family_prefix(args.family, args.m, hi)
    # one write per TEXT_BATCH values: a print per line is a system call each
    # when stdout is unbuffered, and one string of the whole window (seq b 6
    # 0..65536 is 7 MB) would raise the peak memory
    write = sys.stdout.write
    if args.format == "json":
        # _jdump of the whole record, written as its head, the quoted values
        # in batches and its tail: "values" is the last of the sorted keys
        write(_jdump({"family": args.family, "m": args.m, "from": lo, "to": hi,
                      "values": []})[:-2])
        for at in range(lo, hi + 1, TEXT_BATCH):
            write(("," if at > lo else "")
                  + ",".join(f'"{vals[n]}"' for n in range(at, min(at + TEXT_BATCH, hi + 1))))
        write("]}\n")
    else:
        for at in range(lo, hi + 1, TEXT_BATCH):
            write("".join(f"{n},{vals[n]}\n"
                          for n in range(at, min(at + TEXT_BATCH, hi + 1))))
    return 0


# the largest polynomial poly builds, in coefficients times the bits of the
# largest one; poly g 340 and poly h 0 127 1, just below it, took 2.7-3.1 s
# and 5.1 s (Python 3.11, 2 cores), and poly h 0 4 1000, 40 times over, 80 s
_POLY_BITS_MAX = 1 << 20


def _poly_bits(kind: str, p: list[int]) -> int:
    """About the bits of the largest polynomial or number `poly KIND P`
    builds: g_n has n + 1 coefficients near n! < 2^(n bitlen(n)), W_k reads
    g up to 2k + 20, h_{i,k,m} has at most km + 1 below 2^(m k(k+1)/2) (level
    j multiplies by (1+y)^(jm)), and h_poly checks i against 2^k."""
    if kind == "h":
        k, m = max(p[1], 0), max(p[2], 0)
        return max((k * m + 1) * (m * k * (k + 1) // 2), k + 1)
    n = max(2 * p[0] + 20 if kind == "W" else p[0], 0)
    return (n + 1) * n * n.bit_length()


def _cmd_poly(args) -> int:
    kind = args.kind
    p = args.params
    if kind in ("f", "g", "W") and len(p) != 1:
        raise ValueError(f"poly {kind} takes one parameter")
    if kind == "h" and len(p) != 3:
        raise ValueError("poly h takes i k m")
    bits = _poly_bits(kind, p)
    if bits > _POLY_BITS_MAX:
        raise ValueError(f"poly {kind} {' '.join(map(str, p))} builds a polynomial or "
                         f"number of about {bits} bits; the limit is 2^20")
    if kind == "h":
        from .bm_sequences import h_poly

        i, k, m = p
        poly, var, record = h_poly(i, k, m), "x", {"i": i, "k": k, "m": m}
    elif kind == "W":
        from .f_polys import w_poly

        poly, var, record = w_poly(p[0]), "n", {"kind": "W", "k": p[0]}
    else:
        from .f_polys import shared_fseries

        poly, var, record = shared_fseries().g(p[0]), "t", {"kind": kind, "n": p[0]}
    coeffs = [str(c) for c in poly.coeffs]
    text = poly.format(var)
    if kind == "f":
        # f_n = g_n / n!, printed unreduced
        text = f"({text})/{p[0]}!"
        record.update(den_factorial_of=p[0], num_coeffs=coeffs)
    else:
        record["coeffs"] = coeffs
    print(_jdump(record) if args.format == "json" else text)
    return 0


def _cmd_val(args) -> int:
    from .bm_sequences import v2_b1_churchhouse, v2_b2k1_closed
    from .core_arith import nu2_or_none
    from .tm_sequences import v2_t2k_closed, v2_t3_closed

    k = args.k
    # family -> (kernel family, m from --k, first n, closed form of nu2 at n);
    # t3 and b1 ignore --k, so m is computed only for the chosen family
    family, m_of, first, closed = {
        "t-pow2": ("t", lambda: 1 << k, 0, lambda n: v2_t2k_closed(k, n)),
        "t3": ("t", lambda: 3, 1, v2_t3_closed),
        "b-pow2m1": ("b", lambda: (1 << k) - 1, 0, lambda n: v2_b2k1_closed(k, n)),
        "b1": ("b", lambda: 1, 2, v2_b1_churchhouse),
    }[args.family]
    if args.bound < first:
        # a bound below the first index would check nothing and pass
        raise ValueError(f"val {args.family} requires --bound >= {first}, got {args.bound}")
    vals = _family_prefix(family, m_of(), args.bound)
    enc = lambda v: "INFINITE" if v is None else v
    all_ok = True
    for n in range(first, args.bound + 1):
        direct, want = nu2_or_none(vals[n]), closed(n)
        all_ok &= direct == want
        print(_jdump({"n": n, "direct": enc(direct), "closed": enc(want),
                      "ok": direct == want}))
    return 0 if all_ok else 1


def _cmd_verify(args) -> int:
    import os
    from contextlib import nullcontext

    # before numpy can load: ptmpow calls no BLAS, and OpenBLAS would start
    # one thread per CPU as numpy loads (about 60 ms of the import on 2 CPUs)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .campaigns import CAMPAIGNS, exit_code_for, run_campaign
    from .fpow import arrays_unkept

    if args.campaign not in CAMPAIGNS:
        print(f"unknown campaign {args.campaign!r}; known: "
              f"{', '.join(sorted(CAMPAIGNS))}", file=sys.stderr)
        return 2
    bounds = {}
    if args.bound is not None:
        # override the size key only, never depth or span
        bounds = {CAMPAIGNS[args.campaign].size_key: args.bound}
    # opened before any work, so a path that cannot be written to costs no run;
    # one campaign, which reads each kernel array once: keep none of them
    with open(args.out, "a", encoding="utf-8") if args.out else nullcontext() as fh, \
            arrays_unkept():
        report = run_campaign(args.campaign, bounds)
        if fh:
            record = dict(report.payload(), wall_ms=report.wall_ms, backend=report.backend)
            if report.backend_reason:
                record["backend_reason"] = report.backend_reason
            fh.write(_jdump(record) + "\n")
    print(_jdump(report.payload()))
    reason = f": {report.backend_reason}" if report.backend_reason else ""
    print(f"{report.name}: {report.status} in {report.wall_ms} ms "
          f"(backend {report.backend}{reason})", file=sys.stderr)
    return exit_code_for(report)


def _cmd_search(args) -> int:
    from .tm_sequences import t2_solve

    res = t2_solve(args.target)
    print(_jdump({"target": res.target, "n": res.n,
                  "shifted_instance": res.shifted_instance}))
    return 0


def _is_stdout_file(path: str) -> bool:
    """True when `path` is the regular file that stdout writes to.  A pipe
    or FIFO is not one: what cache store writes there goes out before the
    report does."""
    import os
    import stat

    try:
        st, out = os.stat(path), os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # no such file, or a stdout without a descriptor
        return False
    return stat.S_ISREG(st.st_mode) and (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)


def _cmd_cache(args) -> int:
    from .seqcache import cache_load, cache_store

    path = args.path or f"./{args.family}_{args.m}.seq"
    if args.action == "store":
        if _is_stdout_file(path):
            # the report, printed through stdout's own offset, would
            # overwrite the head of the file that cache_store wrote
            print(f"error: {path} is the file stdout writes to; cache store "
                  f"would write its report over it", file=sys.stderr)
            return 2
        values = _family_prefix(args.family, args.m, args.bound)
        if len(values) > args.bound + 1:
            # a fresh process's prefix ends at the bound, so this copy of
            # its item list (8 bytes a value) is made only for a longer one
            values = values[: args.bound + 1]
        cache_store(args.family, args.m, values, path)
        print(_jdump({"path": path, "family": args.family, "m": args.m,
                      "count": len(values)}))
        return 0
    family, m, values = cache_load(path)
    if (family, m) != (args.family, args.m):
        print(f"error: {path} holds {family}_{m}, not {args.family}_{args.m}",
              file=sys.stderr)
        return 2
    print(_jdump({"path": path, "family": family, "m": m, "count": len(values)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ptmpow",
        description="exact arithmetic and verification for the coefficient "
                    "families of prod(1-x^(2^n))^t")
    ap.add_argument("--version", action="version", version=f"ptmpow {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="dump a sequence window")
    p.add_argument("family", choices=["t", "b", "f-eval"])
    p.add_argument("m", type=int, help="m for t/b; the evaluation point for f-eval")
    p.add_argument("range", help="inclusive window A..B")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("poly", help="print one polynomial exactly")
    p.add_argument("kind", choices=["f", "g", "W", "h"])
    p.add_argument("params", type=int, nargs="+", help="f/g/W: n | k; h: i k m")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("val", help="valuation report: direct vs closed form")
    p.add_argument("family", choices=["t-pow2", "t3", "b-pow2m1", "b1"])
    p.add_argument("--k", type=int, default=1, help="k for the t-pow2/b-pow2m1 families")
    p.add_argument("--bound", type=nonnegative_int, required=True)
    p.set_defaults(fn=_cmd_val)

    p = sub.add_parser("verify", help="run a named verification campaign")
    p.add_argument("campaign")
    p.add_argument("--bound", type=nonnegative_int, default=None)
    p.add_argument("--out", default=None, help="append the report as a JSON line")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("search", help="least n with t_2(n) = TARGET")
    p.add_argument("target", type=int)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("cache", help="store/load sequence prefixes")
    p.add_argument("action", choices=["store", "load"])
    p.add_argument("family", choices=["t", "b"])
    p.add_argument("m", type=int)
    p.add_argument("--bound", type=nonnegative_int, default=None)
    p.add_argument("--path", default=None, help="default ./FAMILY_M.seq")
    p.set_defaults(fn=_cmd_cache)

    return ap


# the --k range of each val family: t-pow2 reads t_(2^k), b-pow2m1 reads
# b_(2^k - 1), and there is no b_0; 2^k stays within _FAMILY_M_MAX
_VAL_K_MAX = _FAMILY_M_MAX.bit_length() - 1
_VAL_K_RANGE = {"t-pow2": (0, _VAL_K_MAX), "b-pow2m1": (1, _VAL_K_MAX)}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    k_range = _VAL_K_RANGE.get(args.family) if args.command == "val" else None
    if k_range and not k_range[0] <= args.k <= k_range[1]:
        parser.error(f"val {args.family} requires --k >= {k_range[0]} and "
                     f"--k <= {k_range[1]}, got {args.k}")
    if args.command == "cache" and (args.bound is None) == (args.action == "store"):
        # a load reads the file's own count, so a --bound there would be ignored
        print("cache store requires --bound" if args.action == "store"
              else "cache load takes no --bound", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    # seqcache.CacheError is a ValueError; a MemoryError is a bound the
    # machine cannot allocate, not a counterexample
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
