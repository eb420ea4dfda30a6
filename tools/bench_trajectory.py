"""Record one point of the benchmark trajectory: ``BENCH_<pr>.json``.

    python tools/bench_trajectory.py run --pr 31 [--reference DIR] [--baseline CHECKOUT]
    python tools/bench_trajectory.py counts [--reference DIR]

``run`` runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
of this checkout in a fresh process for seeds 1..10, alternating the three
workloads within each seed. T is BENCHMARK.json's ``run_seconds``, the run
length every benchmark run uses; ten seeds give the ten pairs that a claimed
gain is judged on. It reads each run's last line, the JSON object
with ``correct`` and ``metrics``, and its ``# env`` line. Per workload the
file holds the median, q1 and q3 of every end-to-end metric, the run count
and every ``correct`` flag. It also records nproc, the Python and numpy
versions and the git HEAD, and the deterministic counts below.

``--baseline CHECKOUT`` runs the same command in another checkout, such as
a ``git clone`` of the parent commit, next to each run of this one, so the
two form pairs; each side runs first in every other pair. The file then
also holds the baseline's git HEAD, its statistics and, per metric, how
many pairs read lower, equal and higher on this checkout.
Seconds from different sessions on a noisy host do not compare; pairs
taken in one session do.

``counts`` prints the deterministic counts, which compare across hosts:
the RK4 steps (fine run and predictor), Newton iterations (the same two)
and descent iterations summed over the cells of each job of a
``tools/reference_jobs.py`` directory (default ``tools/reference``); and
the lines, AST code lines (no docstrings, comments or blank lines) and
module count of ``src/shrinker_audit``, and the lines of README.md.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("chain", "scan", "identities")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "pass_frac")
SEEDS = 10
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
COUNT_KEYS = ("rk4_steps_fine", "rk4_steps_predictor", "newton_iterations_fine",
              "newton_iterations_predictor", "descent_iterations")


# ---------------------------------------------------------------------------
# Deterministic counts
# ---------------------------------------------------------------------------


def _evidence(node):
    """Every ``minimal_evidence`` dict in a report, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "minimal_evidence" and isinstance(value, dict):
                yield value
            yield from _evidence(value)
    elif isinstance(node, list):
        for value in node:
            yield from _evidence(value)


def job_counts(job_dir: Path) -> dict:
    """The solver counts summed over every report of one job's directory."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    for report in sorted(job_dir.glob("*.json")):
        for evidence in _evidence(json.loads(report.read_text(encoding="utf-8"))):
            shooting = evidence.get("shooting")
            if shooting:
                counts["rk4_steps_fine"] += shooting["rk4_steps"]
                counts["newton_iterations_fine"] += shooting["newton_iterations"]
                predictor = shooting.get("predictor", {})
                counts["rk4_steps_predictor"] += predictor.get("rk4_steps", 0)
                counts["newton_iterations_predictor"] += predictor.get("newton_iterations", 0)
            if "descent" in evidence:
                counts["descent_iterations"] += evidence["descent"]["iterations"]
    return counts


def code_lines(text: str) -> int:
    """Lines that hold a token of code: no docstring, comment or blank line."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts(reference: Path, root: Path = ROOT) -> dict:
    """The deterministic counts of a reference directory and of a checkout."""
    modules = [path.read_text(encoding="utf-8")
               for path in sorted((root / "src" / "shrinker_audit").glob("*.py"))]
    jobs = {job.name: job_counts(job) for job in sorted(reference.iterdir()) if job.is_dir()}
    return {
        "jobs": {name: c for name, c in jobs.items() if any(c.values())},
        "total": {key: sum(c[key] for c in jobs.values()) for key in COUNT_KEYS},
        "src_lines": sum(text.count("\n") for text in modules),
        "src_code_lines": sum(code_lines(text) for text in modules),
        "src_modules": len(modules),
        "readme_lines": (root / "README.md").read_text(encoding="utf-8").count("\n"),
    }


def print_counts(found: dict) -> None:
    print(f"src/shrinker_audit: {found['src_lines']} lines, {found['src_code_lines']} "
          f"AST code lines, {found['src_modules']} modules")
    print(f"README.md: {found['readme_lines']} lines")
    for name, c in {**found["jobs"], "total": found["total"]}.items():
        print(f"{name}: {c['rk4_steps_fine'] + c['rk4_steps_predictor']} RK4 steps "
              f"({c['rk4_steps_fine']} fine, {c['rk4_steps_predictor']} predictor), "
              f"{c['newton_iterations_fine'] + c['newton_iterations_predictor']} Newton "
              f"iterations ({c['newton_iterations_fine']} fine, "
              f"{c['newton_iterations_predictor']} predictor), "
              f"{c['descent_iterations']} descent iterations")


# ---------------------------------------------------------------------------
# perfbench runs
# ---------------------------------------------------------------------------


def parse_run(stdout: str):
    """``(env, result)`` of one ``perfbench/run.py`` output: the ``# env``
    line's object and the last line's."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1])


def run_perfbench(checkout: Path, workload: str, seed: int):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def summarize(results) -> dict:
    """Per workload: run count, every correct flag, and the median [q1, q3]
    of each end-to-end metric, from ``(workload, result)`` pairs."""
    out = {}
    for workload in WORKLOADS:
        mine = [result for name, result in results if name == workload]
        if not mine:
            continue
        metrics = {}
        for metric in END_TO_END:
            values = [result["metrics"][metric]["value"] for result in mine]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            metrics[metric] = {"median": median, "q1": q1, "q3": q3,
                               "unit": mine[0]["metrics"][metric]["unit"]}
        out[workload] = {"runs": len(mine), "correct": [r["correct"] for r in mine],
                         "metrics": metrics}
    return out


def pair_counts(pairs) -> dict:
    """Per workload and metric: the pairs whose change reads lower, equal or
    higher than its baseline, from ``(workload, baseline, change)`` triples."""
    out = {}
    for workload, base, change in pairs:
        for metric in END_TO_END:
            a = base["metrics"][metric]["value"]
            b = change["metrics"][metric]["value"]
            tally = out.setdefault(workload, {}).setdefault(
                metric, {"lower": 0, "equal": 0, "higher": 0})
            tally["lower" if b < a else "equal" if b == a else "higher"] += 1
    return out


def git_head(checkout: Path):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def trajectory(pr: int, reference: Path, baseline=None) -> dict:
    results, base_results, pairs = [], [], []
    for seed in range(1, SEEDS + 1):
        for workload in WORKLOADS:
            if baseline is None:
                env, result = run_perfbench(ROOT, workload, seed)
            else:
                # each side runs first in every other pair
                sides = [baseline, ROOT][:: 1 if len(pairs) % 2 == 0 else -1]
                runs = {side: run_perfbench(side, workload, seed) for side in sides}
                (_, base), (env, result) = runs[baseline], runs[ROOT]
                base_results.append((workload, base))
                pairs.append((workload, base, result))
            results.append((workload, result))
            print(f"seed {seed} {workload}: correct={result['correct']} " + " ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in END_TO_END))
    record = {
        "pr": pr,
        "head": git_head(ROOT),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} "
                   "--trace 0",
        "seeds": list(range(1, SEEDS + 1)),
        "env": {key: env[key] for key in ("nproc", "python", "numpy")},
        "workloads": summarize(results),
        "counts": counts(reference),
    }
    if baseline is not None:
        record["baseline"] = {"head": git_head(baseline),
                              "workloads": summarize(base_results),
                              "pairs": pair_counts(pairs)}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run perfbench and write BENCH_<pr>.json")
    p_run.add_argument("--pr", type=int, required=True)
    p_run.add_argument("--baseline", type=Path, help="another checkout, run alternately")
    p_counts = sub.add_parser("counts", help="print the deterministic counts")
    for p in (p_run, p_counts):
        p.add_argument("--reference", type=Path, default=ROOT / "tools" / "reference",
                       help="a tools/reference_jobs.py output directory")
    args = parser.parse_args(argv)
    if args.mode == "counts":
        print_counts(counts(args.reference))
        return 0
    record = trajectory(args.pr, args.reference, args.baseline)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
