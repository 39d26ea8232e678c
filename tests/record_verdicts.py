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

The test re-runs every line and compares bytes.  Record with numpy
installed, so that the residue lines are written; re-record only for a
verdict that is meant to change, and name the change in CHANGES.md.
"""

from __future__ import annotations

import json
from importlib import import_module

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


def verdict_line(call) -> str:
    """The line that records `call` and what it returns now."""
    if call[0] == "check":
        _, module, function, args = call
        rep = getattr(import_module(f"ptmpow.{module}"), function)(*args)
        verdict = [rep.name, rep.ok, rep.checked, rep.witness]
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
