#!/usr/bin/env python3
"""Benchmark of the shrinker-audit CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload's CLI job in-process through
``shrinker_audit.cli.main`` for ``--seconds`` seconds and reports the
end-to-end metrics. ``--trace 1`` runs the CLI job once as the reference,
then replays it through the same public calls with a span around each call
into a layer, and reports the per-layer metrics. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for the workloads and metrics.
"""

import os

# Pinned before numpy is imported: one BLAS thread, serial grid cells.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("SHRINKER_AUDIT_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("chain", "scan", "identities")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}

PER_LAYER = {
    "ops": "count",
    "phigeo.shoot.busy_s": "s",
    "phigeo.shoot.ms_per_node": "ms",
    "phigeo.shoot.calls": "count",
    "phigeo.shoot.nodes": "count",
    "phigeo.descent.busy_s": "s",
    "phigeo.descent.ms_per_iter": "ms",
    "phigeo.descent.iters": "count",
    "phigeo.descent.converged_frac": "frac",
    "phigeo.certify.busy_s": "s",
    "models.background_geodesic.busy_s": "s",
    "models.batch_geom.us_per_call": "us",
    "models.eval_geometry.us_per_call": "us",
    "numgeom.chart.us_per_call": "us",
    "numgeom.wlap.us_per_call": "us",
    "numgeom.wlap.calls": "count",
    "numgeom.ricci_fd.busy_s": "s",
    "audit.second_variation.busy_s": "s",
    "audit.combined_integral.busy_s": "s",
    "audit.boundary_term.busy_s": "s",
    "audit.weighted_ricci.busy_s": "s",
    "audit.radial_envelope.busy_s": "s",
    "audit.good_point.busy_s": "s",
    "audit.good_point.shoot_share": "frac",
    "audit.soliton_identities.busy_s": "s",
    "audit.deltaf_rf.busy_s": "s",
    "audit.gradient_f_bound.busy_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly across repeats and runs of one seed.
EXACT_COUNTS = ("ops", "phigeo.shoot.calls", "phigeo.shoot.nodes",
                "phigeo.descent.iters", "numgeom.wlap.calls")



def load_workloads():
    """Import the workloads and the program from this checkout's ``src``.

    Exits with code 2 when the program is absent or resolves elsewhere.
    """
    sys.path.insert(0, str(SRC))
    try:
        import shrinker_audit
        import workloads
    except ImportError as exc:
        print(f"error: cannot import shrinker_audit from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in Path(shrinker_audit.__file__).resolve().parents:
        print(f"error: shrinker_audit resolves to {shrinker_audit.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return workloads


def run_environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "seed": seed,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Set-up time: process start to the first timed call, in fresh processes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, parse the model and the CLI inputs, print the clock."""
    wl = load_workloads().WORKLOADS[workload]
    from shrinker_audit import cli
    from shrinker_audit.models import parse_model

    parse_model(wl.model)
    cli.build_parser().parse_args(wl.argv(wl.inputs(seed), OUT_ROOT / "setup"))
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int) -> list:
    """Set-up times of fresh processes; CLOCK_MONOTONIC is shared by both sides."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def untraced_run(wl, workloads, seed: int, seconds: float, run_dir: Path):
    setup = measure_setup(wl.name, seed)
    inputs = wl.inputs(seed)
    walls, attempted, failed, problems = [], 0, 0, []
    first_report = None
    start = time.perf_counter()
    while True:
        wall, outcome, raw = workloads.run_cli_job(wl, inputs, run_dir / f"rep{len(walls)}")
        walls.append(wall)
        attempted += outcome.ops
        failed += outcome.failed
        problems += outcome.notes
        if first_report is None:
            first_report = raw
        elif raw is not None and raw != first_report:
            problems.append("report bytes differ between repeats of one seed")
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
    }
    detail = {"inputs": inputs, "setup_samples": setup, "wall_samples": walls}
    return metrics, attempted, failed, problems, detail


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, counts: dict, probes: dict, ops: int, job_s: float,
                  reference_wall: float) -> dict:
    busy = tracer.self_times()
    calls = tracer.call_counts()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(probes)
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            # the span a busy time covers is named like the metric
            metrics[name] = busy.get(name.removesuffix(".busy_s"), 0.0)
    nodes = counts.get("phigeo.shoot.nodes", 0)
    iters = counts.get("phigeo.descent.iters", 0)
    descents = counts.get("descents", 0)
    shoot = metrics["phigeo.shoot.busy_s"]
    descent = metrics["phigeo.descent.busy_s"]
    good_point = metrics["audit.good_point.busy_s"]
    metrics.update({
        "ops": ops,
        "phigeo.shoot.calls": calls["phigeo.shoot"],
        "phigeo.shoot.nodes": nodes,
        "phigeo.shoot.ms_per_node": 1e3 * shoot / nodes if nodes else 0.0,
        "phigeo.descent.iters": iters,
        "phigeo.descent.ms_per_iter": 1e3 * descent / iters if iters else 0.0,
        "phigeo.descent.converged_frac": (
            counts.get("descents_converged", 0) / descents if descents else 0.0),
        "numgeom.wlap.calls": counts.get("numgeom.wlap.calls", 0),
        "audit.good_point.shoot_share": shoot / good_point if good_point else 0.0,
        "trace.job_s": job_s,
        "trace.overhead_s": job_s - reference_wall,
    })
    return metrics


def predictions(workload: str, m: dict) -> dict:
    """The share each workload was chosen for, as measured: True confirms it."""
    if workload == "chain":
        phigeo = {k: m[k] for k in ("phigeo.shoot.busy_s", "phigeo.descent.busy_s",
                                    "phigeo.certify.busy_s")}
        return {"descent is the largest phigeo share":
                max(phigeo, key=phigeo.get) == "phigeo.descent.busy_s"}
    if workload == "scan":
        return {"shooting is most of audit.good_point": m["audit.good_point.shoot_share"] > 0.5,
                "descent busy time is 0": m["phigeo.descent.busy_s"] == 0.0}
    fd_share = (m["audit.soliton_identities.busy_s"] + m["audit.deltaf_rf.busy_s"]) / m["trace.job_s"]
    return {f"FD identity audits are most of the job ({fd_share:.3f})": fd_share > 0.5,
            "descent busy time is 0": m["phigeo.descent.busy_s"] == 0.0}


def check_counts_repeat(workload: str, seed: int, counts: dict, problems: list) -> None:
    """Compare the counts with those an earlier run of this seed recorded."""
    path = OUT_ROOT / "counts" / f"{workload}-seed{seed}-{source_digest()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counts:
            problems.append(f"counts differ from an earlier run of this seed: {earlier}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")


def traced_run(wl, workloads, seed: int, seconds: float, run_dir: Path):
    from tracing import Tracer

    inputs = wl.inputs(seed)
    start = time.perf_counter()
    reference_wall, reference, _ = workloads.run_cli_job(wl, inputs, run_dir / "reference")
    attempted, failed, problems = reference.ops, reference.failed, list(reference.notes)
    reps = []
    while True:
        tracer = Tracer()
        job_start = time.perf_counter()
        try:
            replay = wl.replay(tracer, inputs)
            job_s = time.perf_counter() - job_start
            probes = wl.probes(tracer, replay)
        except Exception:  # a failed replay fails its ops; the run still reports
            ops = wl.expected_ops(inputs)
            attempted += ops
            failed += ops
            problems.append(f"replay raised: {traceback.format_exc()[-400:]}")
            break
        outcome = replay.outcome
        attempted += outcome.ops
        failed += outcome.failed
        problems += outcome.notes
        for key, value in reference.outputs.items():
            if outcome.outputs.get(key) != value:
                problems.append(f"traced {key} = {outcome.outputs.get(key)!r} "
                                f"differs from the CLI report's {value!r}")
        metrics = layer_metrics(tracer, replay.counts, probes, outcome.ops, job_s,
                                reference_wall)
        reps.append((tracer, metrics, outcome.outputs))
        if time.perf_counter() - start >= seconds:
            break
    if not reps:
        return dict.fromkeys(PER_LAYER, 0.0), attempted, failed, problems, {}
    counts = {name: reps[0][1][name] for name in EXACT_COUNTS}
    for _, metrics, outputs in reps[1:]:
        if {name: metrics[name] for name in EXACT_COUNTS} != counts:
            problems.append("counts differ between traced repeats")
        if outputs != reps[0][2]:
            problems.append("deterministic outputs differ between traced repeats")
    check_counts_repeat(wl.name, seed, counts, problems)
    metrics = {name: statistics.median(rep[1][name] for rep in reps) for name in PER_LAYER}
    for name in EXACT_COUNTS:
        metrics[name] = counts[name]
    detail = {
        "inputs": inputs,
        "reference_wall_s": reference_wall,
        "predictions": predictions(wl.name, metrics),
        "repeats": [{"metrics": m, "spans": t.to_records()} for t, m, _ in reps],
    }
    return metrics, attempted, failed, problems, detail


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    workloads = load_workloads()
    wl = workloads.WORKLOADS[args.workload]
    run_dir = OUT_ROOT / "runs" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failed, problems, detail = run(
            wl, workloads, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = run_environment(args.seed)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": wl.name, "trace": args.trace, "env": env, "problems": problems,
              "result": result, **detail}
    trace_dir = OUT_ROOT / "records"
    trace_dir.mkdir(parents=True, exist_ok=True)
    kind = "traced" if args.trace else "untraced"
    (trace_dir / f"{wl.name}-seed{args.seed}-{kind}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print("# predictions " + json.dumps(detail.get("predictions", {}), sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
