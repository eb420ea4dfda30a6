"""Run the reference jobs of shrinker-audit into one directory.

    python tools/reference_jobs.py OUT_DIR

Each job runs in a fresh process, from the ``src/`` of the checkout this
script belongs to, with ``OUT_DIR/<job>`` as its working directory and
``--out .``, so the ``report:`` line it prints names no directory. The
job's ``stdout``, ``stderr`` and ``exit_code`` are saved beside its
reports. Two checkouts' runs then compare in one command:

    python tools/report_diff.py OLD_DIR NEW_DIR --rtol 0 --atol 0

There is one job per subcommand, then one refusal per error exit code,
so that the comparison covers stderr and the exit codes of the error
paths too. OUT_DIR must be absent or empty. Uses the standard library
only. Exits 0 when every job exited with its expected code, 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# each job's argv and its expected exit code
JOBS = {
    "audit-chain": (["audit-chain", "--c", "0.1,0.5", "--ry", "10.12,20.21"], 0),
    "scan": (["scan", "--c", "0.1", "--ry", "19.87,40.3"], 0),
    "geodesic": (["geodesic"], 0),
    "verify-identities": (["verify-identities", "--model", "sphereproduct:k=2,m=2",
                           "--samples", "500"], 0),
    # c >= 1: a bad configuration
    "refused-config": (["audit-chain", "--c", "0.1,1.5"], 2),
    # shooting stalls: its tolerance, shoot_tol * s_bar = 1e-16, is below the
    # endpoint miss it can reach; the output changes once that is fixed
    "refused-solver": (["geodesic", "--model", "sphere:n=2", "--c", "0.2", "--ry", "1e-6"], 3),
    # the flat model has R == 0, which the scan refuses
    "refused-model": (["scan", "--model", "gaussian:n=3", "--c", "0.1", "--ry", "5"], 4),
}


def run_job(argv, job_dir: Path) -> int:
    job_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "shrinker_audit.cli", *argv, "--out", "."],
                          cwd=job_dir, env=env, capture_output=True, text=True)
    (job_dir / "stdout").write_text(proc.stdout, encoding="utf-8")
    (job_dir / "stderr").write_text(proc.stderr, encoding="utf-8")
    (job_dir / "exit_code").write_text(f"{proc.returncode}\n", encoding="utf-8")
    return proc.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python tools/reference_jobs.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    status = 0
    for name, (job, expected) in JOBS.items():
        code = run_job(job, out / name)
        print(f"{name}: exit {code} (expected {expected})")
        status |= code != expected
    return status


if __name__ == "__main__":
    sys.exit(main())
