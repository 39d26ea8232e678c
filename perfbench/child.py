"""One benchmark process: a traced CLI job, or an in-process session.

    child.py cli REPORT -- ARGV...       ptmpow.cli.main(ARGV) under the tracer
    child.py warm|poly REPORT SPEC_JSON  a fresh-interpreter session

The report (JSON, written to REPORT) carries ``imported``, the
CLOCK_MONOTONIC time at which the imports were done, so the parent can time
set-up from the moment it started this process; the cache-filling pass of a
warm session is timed item by item like the timed passes.  Stdout of a CLI
job is exactly the program's stdout.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from calib import calibrate, scaled
from tracer import Tracer
from workloads import warm_key

H_CHUNK = 128  # h residues per timed item


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _payload_digest(report) -> str:
    return _digest(json.dumps(report.payload(), sort_keys=True, separators=(",", ":")))


def _check_text(rep) -> str:
    return json.dumps([rep.name, rep.ok, rep.checked, rep.witness], sort_keys=True)


def _import_cli() -> float:
    t0 = time.perf_counter()
    import ptmpow.cli  # noqa: F401  (the console script imports exactly this)
    return time.perf_counter() - t0


def run_cli(report_path: str, argv: list[str]) -> int:
    import_s = _import_cli()
    tracer = Tracer()
    tracer.install()
    import ptmpow.cli

    try:
        rc = ptmpow.cli.main(argv)
    except SystemExit as exc:  # argparse exits on --version and usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(report_path, "w") as fh:
        json.dump({"import_s": import_s, "trace": tracer.summary()}, fh)
    return rc


class Stopwatch:
    """Times calls between calibration loops; the loop after one call is
    the loop before the next.  ``times`` gets [seconds, scaled seconds]."""

    def __init__(self):
        self.times: list[list[float]] = []
        self._cal: float | None = None

    def __call__(self, fn, *args):
        before = self._cal if self._cal is not None else calibrate()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        self._cal = calibrate()
        self.times.append([wall, scaled(wall, before, self._cal)])
        return out


def _warm_pass(plan, timed: Stopwatch) -> list[list[str]]:
    """[key, digest] per campaign; one timed item per campaign."""
    from ptmpow.campaigns import run_campaign

    return [[warm_key(name, bounds), _payload_digest(timed(run_campaign, name, bounds))]
            for name, bounds in plan]


def _coeff_lines(polys) -> str:
    return "\n".join(",".join(map(str, p.coeffs)) for p in polys)


def _poly_pass(plan, timed: Stopwatch) -> list[list[str]]:
    """[key, digest] per family built or check run.  The h families are
    timed in chunks of H_CHUNK residues, so no timed item is long."""
    from ptmpow.bm_sequences import check_annihilation, check_h_identity, h_poly, v_operator
    from ptmpow.f_polys import shared_fseries, w_poly

    def h_range(k, m, lo, hi):
        return [h_poly(i, k, m) for i in range(lo, hi)]

    def g_prefix(n):
        series = shared_fseries()
        series.extend(n)
        return [series.g(j) for j in range(n + 1)]

    out = []
    for k, m in plan["h_all"]:
        polys = []
        for lo in range(0, 1 << k, H_CHUNK):
            polys += timed(h_range, k, m, lo, min(lo + H_CHUNK, 1 << k))
        out.append([f"h_poly all i k={k} m={m}", _digest(_coeff_lines(polys))])
    op = timed(v_operator, plan["v_operator"])
    out.append([f"v_operator {plan['v_operator']}", _digest(_coeff_lines(op.coeffs))])
    gs = timed(g_prefix, plan["fseries"])
    out.append([f"FSeries.extend {plan['fseries']}", _digest(_coeff_lines(gs))])
    w = timed(w_poly, plan["w_poly"])
    out.append([f"w_poly {plan['w_poly']}", _digest(_coeff_lines([w]))])
    for i, k, m in plan["identity"]:
        rep = timed(check_h_identity, i, k, m)
        out.append([f"check_h_identity {i} {k} {m}", _digest(_check_text(rep))])
    for i, k, m_max in plan["annihilation"]:
        rep = timed(check_annihilation, i, k, m_max)
        out.append([f"check_annihilation {i} {k} {m_max}", _digest(_check_text(rep))])
    return out


def run_session(kind: str, report_path: str, spec: dict) -> int:
    """warm: set-up is the import plus one cache-filling pass, then
    spec["passes"] timed passes over warm caches.  poly: set-up is the
    import, then one timed pass from cold caches.  Every timed item is
    bracketed by calibration loops."""
    import_s = _import_cli()
    do_pass = _warm_pass if kind == "warm" else _poly_pass
    imported = time.monotonic()
    imported_cal = calibrate()
    results = []
    setup = Stopwatch()
    if kind == "warm":
        results.append({"setup": True, "items": do_pass(spec["plan"], setup)})
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    for _ in range(spec["passes"] if kind == "warm" else 1):
        if tracer:
            tracer.reset()
        timed = Stopwatch()
        items = do_pass(spec["plan"], timed)
        results.append({"times": timed.times, "items": items,
                        "trace": tracer.summary() if tracer else None})
    report = {"imported": imported, "imported_cal_s": imported_cal, "setup_times": setup.times,
              "import_s": import_s, "passes": results}
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, report_path = argv[0], argv[1]
    if mode == "cli":
        if argv[2] != "--":
            raise SystemExit("usage: child.py cli REPORT -- ARGV...")
        return run_cli(report_path, argv[3:])
    return run_session(mode, report_path, json.loads(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
