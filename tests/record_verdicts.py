"""Record the verdicts that tests/test_verdicts.py holds the library to.

    PYTHONPATH=src python tests/record_verdicts.py > tests/verdicts.jsonl

Each line is one call and what it returned, as JSON `[call, verdict]`:

- `["claim", name]`: the campaign's kind, claim text and default bounds,
  which its stdout prints beside the verdict.
- `["campaign", name, backend, bounds]`: the campaign's exact or residue
  runner at those bounds, and its `(status, witness)` (null when a residue
  runner declines).  Every campaign runs at its default bounds and at each
  size of SIZES that is at least its `minimum`.
- `["check", module, function, args]`: a `check_*` of that module, and its
  `[name, ok, checked, witness]`.
- `["cli", argv, ...]`: each argv through `ptmpow.cli.main` in turn, in one
  fresh working directory and from empty kernel memos, as a fresh process
  starts, and `{"runs": [[exit code, sha256 of stdout], ...], "files":
  {name: sha256}}` of every file they left there.

The test re-runs every line and compares bytes.  Record with numpy
installed, so that the residue lines are written; re-record only for a
verdict that is meant to change, and name the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from importlib import import_module
from pathlib import Path

# the size bounds every campaign runs at besides its defaults
SIZES = (3, 300, 1000, 4099)

# (module, function, args): the arguments the tier-1 tests pass, plus the
# edge bounds 0 and 1 and a few small sizes
CHECKS = (
    *(("tm_sequences", "check_parity_t", args) for args in ((2, 4096), (7, 1024), (1, 1024),
                                                             (2, 0))),
    ("tm_sequences", "check_t2_shift_families", (1024,)),
    ("tm_sequences", "check_t2_shift_families", (0,)),
    *(("tm_sequences", "check_growth", (m, n)) for m in (2, 3) for n in (0, 1, 4096)),
    *(("tm_sequences", "check_mean", (n,)) for n in (0, 1, 4096)),
    *(("tm_sequences", "check_logconcave", (n,)) for n in (0, 1, 3, 4, 64, 4096)),
    *(("tm_sequences", check, (2, n)) for check in ("check_signs", "check_turan_t")
      for n in (0, 1, 2, 3, 64, 4096)),
    *(("tm_sequences", "check_t2_mod4", (n,)) for n in (0, 4096)),
    *(("tm_sequences", "check_nonvanishing", (n,)) for n in (0, 1, 8)),
    *(("tm_sequences", "check_t3_reducibility_witness", (n,)) for n in (0, 3, 10)),
    *(("bm_sequences", "check_turan_b", (m, n)) for m in (1, 2) for n in (0, 1, 4096)),
    *(("bm_sequences", "check_parity_b", args) for args in ((2, 4096), (3, 4096), (4, 4096),
                                                             (6, 1024), (3, 0), (2, 0))),
    *(("bm_sequences", "check_h_identity", (i, k, m)) for k in range(4) for i in range(1 << k)
      for m in range(1, 7)),
    *(("bm_sequences", "check_h_identity", (i, k, 2)) for i, k in ((5, 3), (17, 5), (78, 8),
                                                                   (180, 8))),
    ("bm_sequences", "check_h_identity", (0, 0, 0)),
    *(("bm_sequences", "check_h_mod_p", args) for args in ((3, 1, 1), (3, 1, 2), (5, 1, 2),
                                                            (13, 1, 2), (3, 2, 2), (3, 0, 2))),
    *(("bm_sequences", "check_congrup", args) for args in ((3, 1, 1024), (5, 1, 512),
                                                            (3, 2, 256), (7, 1, 256),
                                                            (3, 1, 0), (3, 0, 64))),
    *(("bm_sequences", "check_derivative_identity", (m, n)) for m in (2, 3, 6)
      for n in (0, 1024)),
    *(("bm_sequences", "check_rps", args) for args in ((1, 3, 1, 1024), (2, 3, 1, 1024),
                                                        (1, 5, 1, 512), (1, 3, 2, 512),
                                                        (1, 3, 1, 0))),
    *(("bm_sequences", "check_radical", args) for args in ((6, 1024), (12, 512), (6, 0))),
    *(("bm_sequences", "check_window_sum_congruences", (n,)) for n in (0, 3, 4, 8, 64, 1024,
                                                                      4096)),
    *(("bm_sequences", "check_8x1", (k,)) for k in (0, 1, 2, 5, 6)),
    *(("bm_sequences", "check_h12", (k,)) for k in (0, 1, 5)),
    *(("bm_sequences", "check_4div", (n,)) for n in (0, 64)),
    *(("bm_sequences", "check_annihilation", args) for args in ((0, 1, 40), (1, 1, 40),
                                                                 (0, 2, 12), (1, 2, 12),
                                                                 (2, 2, 12), (3, 2, 12),
                                                                 (0, 3, 10), (0, 1, 2),
                                                                 (0, 2, 2))),
    ("bm_sequences", "check_g1_closed_forms", ()),
    *(("bm_sequences", "check_formula_2k", args) for args in ((0, 10**4), (1, 1024), (2, 1024),
                                                               (3, 1024), (1, 0))),
    *(("bm_sequences", "check_bm_monotone", args) for args in ((6, 1024), (1, 5), (1, 0),
                                                                (0, 5))),
    *(("f_polys", "check_g_factorization", (p, p)) for p in (2, 3, 5, 7, 11, 13)),
    *(("f_polys", "check_g_factorization", (n, p)) for n in range(61) for p in (2, 3, 5, 7)),
    *(("f_polys", "check_addition_formula", (n, t1, t2)) for n in range(31)
      for t1, t2 in ((1, -1), (2, 3))),
)

# the argv runs of the command line: seq windows that cross a 4096-value
# batch, in csv and json; each val family at a small bound; poly f, g, W and
# h in text and json; search; cache store then load on one file, whose
# bytes are recorded; and the verify runs above
# verify runs, each as a `ptmpow verify` process makes it (inside
# fpow.arrays_unkept()): the campaigns whose residue parts read their kernel
# in order, and t2-symmetry, at their cold_size and 4099 past it, where the
# top level of each request spans at least two fpow._CHUNK blocks and ends
# in a partial one; and b-pow2-congruence at 2^16, below its cold_size, so
# exact, on three values of t
_STREAMED = (("t5-valuation", 7 << 12), ("t9-valuation", 3 << 12),
             ("t2k1-valuation-table", 1 << 13), ("bm-valuation-unbounded", 3 << 14),
             ("t-zero-m4plus", 7 << 12), ("t2-symmetry", 3 << 15))
_SEQ_WINDOWS = ("0..0", "0..4095", "0..4096", "4095..4096", "100..9000")
CLI = (
    *((("seq", "t", "3", window, "--format", fmt),) for window in _SEQ_WINDOWS
      for fmt in ("csv", "json")),
    *((("seq", "t", "2", "0..8", "--format", fmt),) for fmt in ("csv", "json")),
    *((("seq", "b", m, window, "--format", fmt),) for m, window in (("1", "0..9000"),
                                                                    ("6", "4000..4200"))
      for fmt in ("csv", "json")),
    *((("seq", "f-eval", m, window, "--format", fmt),) for m, window in (("-2", "0..6"),
                                                                         ("0", "0..5"),
                                                                         ("3", "0..300"))
      for fmt in ("csv", "json")),
    (("seq", "t", "2", "8..2"),),
    (("seq", "b", "0", "0..3"),),
    *((("val", *argv),) for argv in (("t-pow2", "--k", "2", "--bound", "64"),
                                     ("t3", "--bound", "64"),
                                     ("b-pow2m1", "--k", "2", "--bound", "64"),
                                     ("b1", "--bound", "64"), ("b1", "--bound", "1"))),
    *((("poly", *params, "--format", fmt),) for params in (("f", "3"), ("f", "10"), ("g", "5"),
                                                           ("g", "20"), ("W", "3"), ("W", "4"),
                                                           ("h", "0", "2", "2"),
                                                           ("h", "1", "2", "4"),
                                                           ("h", "7", "3", "3"),
                                                           ("h", "5", "4", "3"))
      for fmt in ("text", "json")),
    *((("search", target),) for target in ("-7", "100", "-1000", "0")),
    *((("cache", "store", family, m, "--bound", bound, "--path", "c.seq"),
       ("cache", "load", family, m, "--path", "c.seq"))
      for family, m, bound in (("b", "6", "300"), ("t", "2", "9000"), ("t", "3", "0"),
                               ("b", "1", "4095"), ("b", "1", "4096"))),
    (("cache", "store", "b", "6", "--bound", "64", "--path", "c.seq"),
     ("cache", "load", "t", "6", "--path", "c.seq")),
    (("cache", "load", "t", "2", "--path", "missing.seq"),),
    (("cache", "store", "t", "2", "--path", "c.seq"),),
    *((("verify", name, "--bound", str(bound)),) for name, cold in _STREAMED
      for bound in (cold, cold + 4099)),
    (("verify", "b-pow2-congruence", "--bound", "65536"),),
)


def calls():
    """Every recorded call, in file order."""
    from ptmpow.campaigns import CAMPAIGNS

    for name, camp in CAMPAIGNS.items():
        yield ["claim", name]
        sizes = [camp.defaults] + [{**camp.defaults, camp.size_key: size} for size in SIZES
                                   if size >= camp.minimum]
        for backend in ("exact", "residue") if camp.residue_runner else ("exact",):
            for bounds in sizes:
                yield ["campaign", name, backend, bounds]
    for module, function, args in CHECKS:
        yield ["check", module, function, list(args)]
    for argvs in CLI:
        yield ["cli", *map(list, argvs)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the kernel memos of ptmpow.fpow, which a command-line run starts without
_MEMOS = ("_fpow_vals", "_fpow_carries", "_fpow_res")


def _cli_verdict(argvs) -> dict:
    """Each argv through the command line in one fresh working directory,
    so that a relative --path, which stdout prints, is the same each time,
    and from empty kernel memos, so that a run builds what a process would."""
    from ptmpow import fpow
    from ptmpow.cli import main

    runs, cwd = [], os.getcwd()
    memos = {name: getattr(fpow, name) for name in _MEMOS}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in _MEMOS:
                setattr(fpow, name, {})
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        rc = main(argv)
                    except SystemExit as exc:  # an argparse usage error
                        rc = exc.code
                runs.append([rc, _sha256(out.getvalue().encode())])
            files = {name: _sha256(Path(name).read_bytes()) for name in sorted(os.listdir())}
        finally:
            os.chdir(cwd)
            for name, memo in memos.items():
                setattr(fpow, name, memo)
    return {"runs": runs, "files": files}


def verdict_line(call) -> str:
    """The line that records `call` and what it returns now."""
    if call[0] == "check":
        _, module, function, args = call
        rep = getattr(import_module(f"ptmpow.{module}"), function)(*args)
        verdict = [rep.name, rep.ok, rep.checked, rep.witness]
    elif call[0] == "cli":
        verdict = _cli_verdict(call[1:])
    else:
        from ptmpow.campaigns import CAMPAIGNS

        camp = CAMPAIGNS[call[1]]
        if call[0] == "claim":
            verdict = [camp.kind, camp.claim, camp.defaults]
        else:
            backend, bounds = call[2:]
            verdict = (camp.runner if backend == "exact" else camp.residue_runner)(dict(bounds))
    return json.dumps([call, verdict])


if __name__ == "__main__":
    for call in calls():
        print(verdict_line(call))
