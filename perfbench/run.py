"""The ptmpow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  One client drives the program in a closed loop:
one ``ptmpow`` process at a time, the next one started when the previous one
has exited.  Each process is a fresh interpreter, so no module cache
(``_tm_caches``, ``_bm_caches``, ``_h_memo``, the shared ``FSeries``) carries
over between runs.  Every job's exit code and output digest is compared with
the golden recorded at the seed commit (perfbench/goldens.json).

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, wall_s, peak_rss_mib); with ``--trace 1`` it carries the per-layer
metrics from traced passes, alternated with untraced ones so the tracing
overhead is measured in the same run.  The line before it is a report with
the environment, the input variant, failed_frac and the unscaled times.

Every timed item (a process, a campaign, a chunk of a polynomial family) is
bracketed by calibration loops, and its time is scaled to a reference
machine speed (see calib.py); times are medians over a run's repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

import workloads as wl
from calib import calibrate, pin_to_one_cpu, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics
CONSOLE = "import sys; from ptmpow.cli import main; sys.exit(main())"  # the console script
JOB_TIMEOUT_S = 170
SETUPS_PER_PASS = 3  # cold `ptmpow --version` runs before each pass of a CLI workload
MIN_CLI_PASSES = 2
MIN_SESSIONS = 3  # in-process sessions per untraced run
WARM_PASSES = 4  # timed passes per verify-warm session


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program or goldens)."""


def git_sha() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "numpy": find_spec("numpy") is not None,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Runner:
    """Starts the program's processes one at a time, checks their output, and
    brackets each process with calibration loops."""

    def __init__(self, workdir: Path, goldens: dict):
        self.workdir = workdir
        self.goldens = goldens
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self._cal: float | None = None

    def check(self, key: str, rc, digest: str) -> None:
        self.attempted += 1
        want = self.goldens.get(key)
        if want is None:
            self.failures.append(f"{key}: no golden")
        elif want["rc"] != rc or want["sha256"] != digest:
            self.failures.append(f"{key}: rc {rc} digest {digest[:12]}, golden rc {want['rc']}")

    def _spawn(self, cmd: list[str]) -> dict:
        """Run one process; its exit code is None on a timeout.  The
        calibration loop after one process is the loop before the next."""
        before = self._cal if self._cal is not None else calibrate()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=JOB_TIMEOUT_S)
            rc, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            proc, rc, out = None, None, b""
        wall = time.monotonic() - t0
        if proc is not None and rc not in (0, 1, 3):
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        self._cal = calibrate()
        return {"t0": t0, "wall_s": wall, "rc": rc, "stdout": out, "cal_before_s": before,
                "scaled_s": scaled(wall, before, self._cal)}

    def cli_job(self, argv: list[str], traced: bool) -> dict:
        report = self.workdir / "job.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(report), "--", *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE, *argv]
        run = self._spawn(cmd)
        key = wl.cli_key(argv)
        self.check(key, run["rc"], sha256(run["stdout"]))
        job = {"key": key, "wall_s": run["wall_s"], "scaled_s": run["scaled_s"],
               "stdout_bytes": len(run["stdout"])}
        if traced and run["rc"] is not None and report.exists():
            job.update(json.loads(report.read_text()))
            report.unlink()
        return job

    def session(self, kind: str, plan, passes: int, traced: bool) -> dict:
        report = self.workdir / "session.json"
        spec = json.dumps({"plan": plan, "passes": passes, "trace": traced})
        run = self._spawn([sys.executable, str(BENCH / "child.py"), kind, str(report), spec])
        if run["rc"] != 0 or not report.exists():
            self.attempted += 1
            self.failures.append(f"{kind} session exited with {run['rc']}")
            return {"setup_s": None, "passes": []}
        data = json.loads(report.read_text())
        report.unlink()
        for p in data["passes"]:
            for key, digest in p["items"]:
                self.check(key, None, digest)
        start = data["imported"] - run["t0"]
        data["start_factor"] = scaled(1.0, run["cal_before_s"], data["imported_cal_s"])
        data["setup_s"] = start + sum(w for w, _ in data["setup_times"])
        data["setup_scaled_s"] = start * data["start_factor"] + sum(x for _, x in data["setup_times"])
        data["passes"] = [p for p in data["passes"] if not p.get("setup")]
        return data


# ---------------------------------------------------------------------------
# per-layer metrics from trace summaries

def scale_summary(summary: dict, factor: float) -> dict:
    """Trace summary with its times scaled to the reference speed, like wall_s."""
    names = {name: {**row, "total_s": row["total_s"] * factor, "self_s": row["self_s"] * factor}
             for name, row in summary["names"].items()}
    return {**summary, "names": names}


def merge(summaries: list[dict]) -> dict:
    """Add up trace summaries of the processes of one pass."""
    out = {"spans": 0, "names": {}, "counters": {}}
    for s in summaries:
        out["spans"] += s["spans"]
        for name, row in s["names"].items():
            acc = out["names"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for k, v in s["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    names, c = s["names"], s["counters"]

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    run_total, run_self = get("campaigns.run", "total_s"), get("campaigns.run", "self_s")
    m = {
        "core_arith.intpoly_mul.calls": get("core_arith.intpoly_mul", "calls"),
        "core_arith.intpoly_mul.self_s": get("core_arith.intpoly_mul", "self_s"),
        "core_arith.intpoly_pow.calls": get("core_arith.intpoly_pow", "calls"),
        "core_arith.intpoly_pow.self_s": get("core_arith.intpoly_pow", "self_s"),
        "core_arith.sqrtpoly.self_s": get("core_arith.sqrtpoly", "self_s"),
        "core_arith.convolve_nonneg.self_s": get("core_arith.convolve_nonneg", "self_s"),
        "f_polys.fseries_extend.self_s": get("f_polys.fseries_extend", "self_s"),
        "f_polys.w_poly.self_s": get("f_polys.w_poly", "self_s"),
        "f_polys.value_prefix.self_s": get("f_polys.value_prefix", "self_s"),
        "f_polys.value_prefix.terms": c.get("f_polys.value_prefix.terms", 0),
        "bm_sequences.h_poly.calls": get("bm_sequences.h_poly", "calls"),
        "bm_sequences.h_poly.self_s": get("bm_sequences.h_poly", "self_s"),
        "bm_sequences.h_poly.memo_hit_ratio": _ratio(c.get("bm_sequences.h_poly.memo_hits", 0),
                                                     get("bm_sequences.h_poly", "calls")),
        "bm_sequences.v_operator.self_s": get("bm_sequences.v_operator", "self_s"),
        "campaigns.run.calls": get("campaigns.run", "calls"),
        "campaigns.check.self_s": run_self,
        "campaigns.build_share": _ratio(run_total - run_self, run_total),
        "seqcache.store.self_s": get("seqcache.store", "self_s"),
        "seqcache.load.self_s": get("seqcache.load", "self_s"),
        "seqcache.bytes_written": c.get("seqcache.bytes_written", 0),
        "seqcache.bytes_read": c.get("seqcache.bytes_read", 0),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.stdout_bytes": stdout_bytes,
        "trace.spans": s["spans"],
    }
    for layer in ("tm_sequences", "bm_sequences"):
        m[f"{layer}.extend.self_s"] = get(f"{layer}.extend", "self_s")
        m[f"{layer}.indices_built"] = c.get(f"{layer}.indices_built", 0)
        m[f"{layer}.prefix.hit_ratio"] = _ratio(c.get(f"{layer}.prefix.hits", 0),
                                                c.get(f"{layer}.prefix.calls", 0))
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: median([m[k] for m in per_pass]) for k in per_pass[0]} if per_pass else {}


# ---------------------------------------------------------------------------
# workloads


def repeat(step, seconds: float, trace: bool, min_untraced: int) -> dict[bool, list]:
    """Call step(traced) until `seconds` have passed, untraced and traced in
    turn when tracing.  A step is not started when it would end more than
    half a step past the deadline."""
    done = {False: [], True: []}
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        traced = trace and i % 2 == 1
        t0 = time.monotonic()
        done[traced].append(step(traced))
        i += 1
        step_s = time.monotonic() - t0
        enough = len(done[False]) >= min_untraced and (not trace or done[True])
        if enough and time.monotonic() + step_s / 2 >= deadline:
            return done


def typical_pass(passes: list[list[dict]], field: str) -> float:
    """Sum over the jobs of a pass of each job's median `field` over the passes."""
    if not passes:
        return 0.0
    return sum(median([p[j][field] for p in passes]) for j in range(len(passes[0])))


def run_cli_workload(runner: Runner, jobs: list[list[str]], seconds: float, trace: bool) -> dict:
    runner.cli_job(["--version"], False)  # untimed: fills __pycache__ on a fresh checkout
    setups = []

    def one_pass(traced):
        # set-up samples are spread over the run, so no single phase of the
        # machine's speed decides their median
        setups.extend(runner.cli_job(["--version"], False) for _ in range(SETUPS_PER_PASS))
        return [runner.cli_job(argv, traced) for argv in jobs]

    done = repeat(one_pass, seconds, trace, 1 if trace else MIN_CLI_PASSES)
    out = {
        "setup_s": median([j["scaled_s"] for j in setups]),
        "wall_s": typical_pass(done[False], "scaled_s"),
        "raw": {"setup_s": median([j["wall_s"] for j in setups]),
                "wall_s": typical_pass(done[False], "wall_s"), "passes": len(done[False])},
        "samples": [sum(j["scaled_s"] for j in p) for p in done[False]],
    }
    if trace:
        traced = done[True]

        def factor(j):
            return j["scaled_s"] / j["wall_s"]

        layers = median_metrics([
            layer_metrics(merge([scale_summary(j["trace"], factor(j)) for j in p if "trace" in j]),
                          sum(j["stdout_bytes"] for j in p))
            for p in traced])
        layers["cli.import_s"] = median([j["import_s"] * factor(j)
                                         for p in traced for j in p if "import_s" in j])
        out["layers"] = layers
        out["traced_wall_s"] = typical_pass(traced, "scaled_s")
        out["missing"] = sorted({m for p in traced for j in p if "trace" in j for m in j["trace"]["missing"]})
    return out


def run_session_workload(runner: Runner, kind: str, plan, seconds: float, trace: bool) -> dict:
    done = repeat(lambda traced: runner.session(kind, plan, WARM_PASSES, traced),
                  seconds, trace, 1 if trace else MIN_SESSIONS)

    def passes(sessions):
        return [[{"wall_s": w, "scaled_s": x} for w, x in p["times"]]
                for s in sessions for p in s["passes"]]

    ok = [s for s in done[False] if s["setup_s"] is not None]
    untraced = passes(done[False])
    out = {
        "setup_s": median([s["setup_scaled_s"] for s in ok]),
        "wall_s": typical_pass(untraced, "scaled_s"),
        "raw": {"setup_s": median([s["setup_s"] for s in ok]),
                "wall_s": typical_pass(untraced, "wall_s"), "passes": len(untraced)},
        "samples": [sum(j["scaled_s"] for j in p) for p in untraced],
    }
    if trace:
        traced = [s for s in done[True] if s["passes"]]

        def factor(times):
            return sum(x for _, x in times) / sum(w for w, _ in times)

        layers = median_metrics([layer_metrics(scale_summary(p["trace"], factor(p["times"])), 0)
                                 for s in traced for p in s["passes"]])
        layers["cli.import_s"] = median([s["import_s"] * s["start_factor"] for s in traced])
        out["layers"] = layers
        out["traced_wall_s"] = typical_pass(passes(traced), "scaled_s")
        out["missing"] = sorted({m for s in traced for p in s["passes"] for m in p["trace"]["missing"]})
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple[dict, dict]:
    if not (ROOT / "src" / "ptmpow" / "cli.py").is_file():
        raise BenchError(f"no ptmpow sources under {ROOT / 'src'}")
    try:
        goldens = json.loads(GOLDENS.read_text())["jobs"]
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read goldens or benchmark spec: {exc}") from exc
    variant = wl.variant_of(seed)
    env = environment()  # before pinning, so nproc is what the machine offers
    pin_to_one_cpu()
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, goldens)
    try:
        if workload == "verify-warm":
            res = run_session_workload(runner, "warm", wl.warm_plan(variant, scale), seconds, trace)
        elif workload == "poly-families":
            res = run_session_workload(runner, "poly", wl.poly_plan(variant, scale), seconds, trace)
        else:
            res = run_cli_workload(runner, wl.cli_jobs(workload, variant, scale), seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    failed = len(runner.failures)
    report = {
        "workload": workload, "seed": seed, "variant": variant, "scale": scale, "trace": trace,
        "env": env, "failed_frac": failed / max(runner.attempted, 1),
        "failures": runner.failures[:10], "unscaled": res["raw"], "wall_samples": res["samples"],
    }
    if trace:
        metrics = dict(res["layers"])
        metrics["trace.wall_s"] = res["traced_wall_s"]
        metrics["trace.untraced_wall_s"] = res["wall_s"]
        metrics["trace.overhead_s"] = res["traced_wall_s"] - res["wall_s"]
        report["missing_entry_points"] = res["missing"]
    else:
        metrics = {"setup_s": res["setup_s"], "wall_s": res["wall_s"], "peak_rss_mib": peak_rss_mib}
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        # a metric that no pass produced (every traced process failed) reads 0
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=wl.SCALES, default="full",
                    help="tiny: a seconds-long run of every workload, for the smoke test")
    args = ap.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
