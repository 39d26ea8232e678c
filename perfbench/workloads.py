"""The four benchmark workloads: their jobs, sizes and seeded input variants.

A seed picks one of VARIANTS input variants per workload.  The variants of a
workload differ in their inputs (windows, bounds, the (i, k, m) of the
polynomial checks) but are sized to cost the same, so runs with different seeds stay comparable.
The program only ever sees the argv or the calls generated here.

Every job has a key, and perfbench/goldens.json maps each key to the result
recorded at the seed commit.
"""

from __future__ import annotations

import json

VARIANTS = 3
SCALES = ("full", "tiny")
WORKLOADS = ("verify-cold", "verify-warm", "poly-families", "seq-io")

# Commands no workload runs and goldens.json leaves out, because their output
# is meant to change when known defects are fixed: ``--bound`` on
# t-regularity / t-missing-values overwrites ``depth`` / ``span`` as well as
# the size, and a negative bound is accepted.  verify-warm still runs both
# campaigns, with explicit bound dicts.
EXCLUDED_FROM_GOLDENS = (
    "verify t-regularity --bound N",
    "verify t-missing-values --bound N",
    "verify <any campaign> --bound <negative>",
)

# verify-cold: (campaign, bound).  Campaigns whose checks need only 2-adic
# valuations or congruences come first; the rest depend on sign or magnitude
# and must stay on exact integers.
_COLD = {
    "full": (
        ("t5-valuation", 1 << 16),
        ("t9-valuation", 1 << 16),
        ("t2k1-valuation-table", 1 << 16),
        ("b-pow2-congruence", 1 << 16),
        ("b-pow2m1-congruence", 1 << 16),
        ("t-zero-m4plus", 1 << 16),
        ("b-turan-m4plus", 1 << 16),
        ("t-threesigns-turan", 1 << 16),
        ("b3-turan-crossover", 1 << 17),
        ("b2-valuation-list", 1 << 17),
        ("t2-symmetry", 1 << 18),
    ),
    "tiny": (
        ("t5-valuation", 256),
        ("b-turan-m4plus", 256),
        ("b2-valuation-list", 256),
    ),
}

# verify-warm: every campaign with an explicit bound dict.
_WARM = {
    "full": {
        "t5-valuation": {"n": 1 << 15},
        "t9-valuation": {"n": 1 << 15},
        "t2k1-valuation-table": {"n": 1 << 14},
        "t-regularity": {"n": 128, "depth": 5},
        "bm-valuation-unbounded": {"n": 1 << 16},
        "b-pow2-congruence": {"index": 1 << 16},
        "b-pow2m1-congruence": {"index": 1 << 16},
        "b-congruence-growth": {"index": 1 << 16},
        "t-sign-density": {"n": 1 << 15},
        "t-threesigns-turan": {"n": 1 << 16},
        "b-turan-m4plus": {"n": 1 << 16},
        "b3-turan-crossover": {"n": 1 << 16},
        "t-zero-m4plus": {"n": 1 << 16},
        "t-missing-values": {"n": 1 << 16, "span": 50},
        "b2-valuation-list": {"n": 1 << 16},
        "t2-symmetry": {"n": 1 << 16},
    },
    "tiny": {
        "t5-valuation": {"n": 64},
        "t-regularity": {"n": 8, "depth": 3},
        "b-pow2-congruence": {"index": 256},
        "t-missing-values": {"n": 256, "span": 10},
        "b2-valuation-list": {"n": 256},
    },
}

# poly-families: every variant builds h_{i,k,m} for all i of the same two
# (k, m), which carry the time; the variant picks the (i, k, m) fed to
# check_h_identity and the (i, k, m_max) fed to check_annihilation, which
# cost little, so the variants cost the same.
_CHECKS = (
    {"identity": ((1, 4, 3), (6, 4, 3), (11, 4, 3)), "annihilation": ((0, 3, 12), (5, 3, 12))},
    {"identity": ((2, 3, 5), (5, 3, 5), (7, 3, 5)), "annihilation": ((1, 2, 10), (3, 2, 10))},
    {"identity": ((3, 4, 2), (9, 4, 2), (14, 4, 2)), "annihilation": ((2, 3, 12), (7, 3, 12))},
)
_POLY = {
    "full": {"h_all": ((10, 3), (9, 5)), "v_operator": 5, "fseries": 160, "w_poly": 12},
    "tiny": {"h_all": ((4, 3), (3, 5)), "v_operator": 3, "fseries": 24, "w_poly": 4},
}

# seq-io: window start per variant; the window end is fixed, so every
# variant builds the same prefix (the cache store bound is the end minus
# the start, so its file is new per variant).
_SEQ = {
    "full": {"t": 65536, "b": 65536, "f": 2048, "cache": 65536, "lo": (0, 256, 512), "f_lo": (0, 16, 32)},
    "tiny": {"t": 512, "b": 512, "f": 64, "cache": 512, "lo": (0, 8, 16), "f_lo": (0, 2, 4)},
}

# verify bounds move by this much per variant: a new input at the same cost.
_BOUND_STEP = 13


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _shift(bound: int, variant: int) -> int:
    return bound - _BOUND_STEP * variant if bound >= 1024 else bound


def cli_jobs(workload: str, variant: int, scale: str) -> list[list[str]]:
    """The argv lists of one pass of a CLI workload, in the order they run."""
    if workload == "verify-cold":
        return [["verify", name, "--bound", str(_shift(bound, variant))]
                for name, bound in _COLD[scale]]
    if workload == "seq-io":
        s = _SEQ[scale]
        lo, f_lo = s["lo"][variant], s["f_lo"][variant]
        bound = s["cache"] - lo
        path = f"b6_{bound}.seq"
        return [
            ["seq", "t", "3", f"{lo}..{s['t']}", "--format", "json"],
            ["seq", "b", "6", f"{lo}..{s['b']}"],
            ["seq", "f-eval", "3", f"{f_lo}..{s['f']}"],
            # store must precede load; the path is relative to the job's cwd
            # and names the bound, so the load's output is fixed by its argv
            ["cache", "store", "b", "6", "--bound", str(bound), "--path", path],
            ["cache", "load", "b", "6", "--path", path],
        ]
    raise ValueError(f"{workload} is not a CLI workload")


def warm_plan(variant: int, scale: str) -> list[tuple[str, dict]]:
    """(campaign, bounds) in run order; the variant rotates the order, which
    changes which campaign pays for a shared prefix, and moves the bounds."""
    items = list(_WARM[scale].items())
    rot = variant * len(items) // VARIANTS
    items = items[rot:] + items[:rot]
    return [(name, {k: _shift(v, variant) if k in ("n", "index") else v for k, v in b.items()})
            for name, b in items]


def poly_plan(variant: int, scale: str) -> dict:
    return {**_POLY[scale], **_CHECKS[variant]}


def cli_key(argv: list[str]) -> str:
    return "ptmpow " + " ".join(argv)


def warm_key(name: str, bounds: dict) -> str:
    return f"run_campaign {name} {json.dumps(bounds, sort_keys=True)}"
