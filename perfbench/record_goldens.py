"""Record perfbench/goldens.json: the exit code and stdout sha256 of every CLI
job, and the payload or coefficient digest of every in-process job, for every
workload, input variant and scale.

    python3 perfbench/record_goldens.py

Run it only at a commit whose output is trusted (the goldens were recorded at
the seed commit); a change to the program must reproduce them, not re-record
them.  A job seen twice with different results aborts the recording.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl


class Recorder(run.Runner):
    def check(self, key: str, rc, digest: str) -> None:
        got = {"rc": rc, "sha256": digest}
        if self.goldens.setdefault(key, got) != got:
            raise SystemExit(f"nondeterministic result for {key}")


def main() -> int:
    workdir = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = Recorder(workdir, {})
    try:
        rec.cli_job(["--version"], False)
        for scale in wl.SCALES:
            for variant in range(wl.VARIANTS):
                for workload in ("verify-cold", "seq-io"):
                    for argv in wl.cli_jobs(workload, variant, scale):
                        rec.cli_job(argv, False)
                rec.session("warm", wl.warm_plan(variant, scale), 0, False)
                rec.session("poly", wl.poly_plan(variant, scale), 0, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed_out = [k for k, v in rec.goldens.items() if k.startswith("ptmpow ") and v["rc"] is None]
    if rec.failures or timed_out:
        raise SystemExit(f"failed: {rec.failures + timed_out}")
    out = {
        "recorded_at": run.git_sha(),
        "excluded": list(wl.EXCLUDED_FROM_GOLDENS),
        "jobs": dict(sorted(rec.goldens.items())),
    }
    run.GOLDENS.write_text(json.dumps(out, indent=1) + "\n")
    print(f"{len(out['jobs'])} goldens written to {run.GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
