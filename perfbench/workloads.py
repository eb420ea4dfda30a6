"""The benchmark's three workloads.

Each workload turns a seed into CLI inputs, checks the report the CLI wrote
(the correctness gate), and replays the same job through the public calls
the subcommand makes, with a span around each call into a layer. Replays
return the per-op deterministic outputs that must equal the CLI report bit
for bit, the work counts, and the material the per-call probes run on.

Probes time ``models`` and ``numgeom`` public calls on the workload's own
points and path nodes. They run after the replayed job, under their own
root span, so they never count towards the traced job time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from shrinker_audit import audit, cli
from shrinker_audit.models import (
    background_geodesic,
    base_point,
    canonical_target,
    distance,
    eval_geometry,
    exp_map,
    log_map,
    parse_model,
    random_point,
)
from shrinker_audit.numgeom import (
    Chart,
    FDConfig,
    potential_field,
    ricci_fd,
    scalar_field,
    weighted_laplacian_fd,
)
from shrinker_audit.phigeo import (
    PhiParams,
    certify_minimal_candidate,
    minimize_action_discrete,
    phi_value,
    solve_bvp_shooting,
)

CYLINDER = "cylinder:k=2,m=2"
SPHERE_PRODUCT = "sphereproduct:k=2,m=2"
DRIFT_TOL = 1e-6  # acceptance-suite conservation tolerance
PROBE_PASSES = 3
WLAP_PROBE_POINTS = 200
CHART_PROBE_POINTS = 500


@dataclass
class Outcome:
    """Gate result of one job: ops attempted and failed, one note per failed
    op, and the deterministic per-op outputs keyed by op and quantity."""

    ops: int
    failed: int = 0
    notes: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    @classmethod
    def all_failed(cls, ops: int, note: str) -> "Outcome":
        return cls(ops=ops, failed=ops, notes=[note])


@dataclass
class Replay:
    outcome: Outcome
    counts: dict
    probe_input: dict


def _band(rng: random.Random, centre: float, rel: float = 0.025) -> float:
    """A radius drawn uniformly within +-rel of ``centre``, to 4 decimals."""
    return round(centre * (1.0 + rng.uniform(-rel, rel)), 4)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _report_ok(report) -> bool:
    """The CLI's cell verdict: pass, or inconclusive with a positive margin."""
    return report.passed if report.conclusive else report.margin > 0.0


def run_cli_job(wl, inputs: dict, out_dir: Path):
    """Run the workload's CLI job in-process and gate its report.

    Returns (wall seconds, outcome, report bytes or None). A non-zero exit or
    an exception fails every op of the job.
    """
    sink = io.StringIO()
    errors = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
            code = cli.main(wl.argv(inputs, out_dir))
    except Exception:  # a traceback fails the job's ops, not the benchmark
        code = None
        errors.write(traceback.format_exc())
    wall = time.perf_counter() - start
    report = out_dir / wl.report_name
    if code != 0 or not report.is_file():
        note = f"exit {code}: {errors.getvalue().strip()[-400:]}"
        return wall, Outcome.all_failed(wl.expected_ops(inputs), note), None
    raw = report.read_bytes()
    return wall, wl.check_report(json.loads(raw), inputs), raw


def _call(tracer, name, fn, *args, **kwargs):
    with tracer.span(name):
        return fn(*args, **kwargs)


def _us_per_call(tracer, name, fn, items) -> float:
    """Median over passes of the mean time of ``fn(item)``, in microseconds."""
    items = list(items)
    if not items:
        return 0.0
    per_pass = []
    for _ in range(PROBE_PASSES):
        with tracer.span(name):
            t0 = time.perf_counter()
            for item in items:
                fn(item)
            per_pass.append((time.perf_counter() - t0) / len(items))
    return 1e6 * statistics.median(per_pass)


def _spread(items, limit: int) -> list:
    """At most ``limit`` items, evenly spaced over the sequence."""
    items = list(items)
    if len(items) <= limit:
        return items
    idx = np.linspace(0, len(items) - 1, limit).round().astype(int)
    return [items[i] for i in idx]


def _wlap_probe(tracer, model, points, make_field, fd) -> float:
    charts = [Chart(model, p) for p in _spread(points, WLAP_PROBE_POINTS)]
    origin = np.zeros(model.n)
    fields = [(chart, make_field(chart), potential_field(chart)) for chart in charts]
    return _us_per_call(
        tracer,
        "probe:numgeom.wlap",
        lambda item: weighted_laplacian_fd(item[0], item[1], item[2], origin, fd),
        fields,
    )


class _Grid:
    """A CLI job on the cylinder over a c grid times radii drawn from the seed.

    Subclasses gate one cell of the report; the replay builds its cells in
    the report's shape, so one gate serves both.
    """

    model = CYLINDER

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"c": self.C_GRID, "ry": tuple(_band(rng, r) for r in self.RY_CENTRES)}

    def expected_ops(self, inputs: dict) -> int:
        return len(inputs["c"]) * len(inputs["ry"])

    def argv(self, inputs: dict, out_dir: Path) -> list:
        return [self.subcommand, "--model", self.model, "--c", _floats(inputs["c"]),
                "--ry", _floats(inputs["ry"]), "--out", str(out_dir)]

    def check_report(self, payload: dict, inputs: dict) -> Outcome:
        cells = payload["cells"]
        if len(cells) != self.expected_ops(inputs) or not payload["all_ok"]:
            return Outcome.all_failed(self.expected_ops(inputs), "cells missing or all_ok false")
        out = Outcome(ops=len(cells))
        for i, cell in enumerate(cells):
            self.check_cell(out, i, cell)
        return out


class Chain(_Grid):
    """``audit-chain`` over c in {0.1, 0.5} x radii near 10 and 20."""

    name = "chain"
    subcommand = "audit-chain"
    report_name = "audit_chain.json"
    C_GRID = (0.1, 0.5)
    RY_CENTRES = (10.0, 20.0)

    @staticmethod
    def check_cell(out: Outcome, i: int, cell: dict) -> None:
        ev = cell["minimal_evidence"]
        drift = max(r["context"]["drift"] for r in cell["reports"])
        checks = {
            "ok": cell["ok"],
            "J_agree": ev["J_agree"],
            "C_agree": ev["C_agree"],
            "below_background": ev["below_background"],
            f"drift<={DRIFT_TOL}": drift <= DRIFT_TOL,
        }
        missed = [name for name, passed in checks.items() if not passed]
        if missed:
            out.fail(f"cell{i}: {', '.join(missed)}")
        out.outputs[f"cell{i}.J_shooting"] = ev["J_shooting"]
        out.outputs[f"cell{i}.J_discrete"] = ev["J_discrete"]
        for r in cell["reports"]:
            out.outputs[f"cell{i}.{r['name']}.lhs"] = r["lhs"]
            out.outputs[f"cell{i}.{r['name']}.rhs"] = r["rhs"]

    def replay(self, tracer, inputs: dict) -> Replay:
        cfg = cli.RunConfig()
        fd = FDConfig(h=cfg.fd_h)
        out = Outcome(ops=self.expected_ops(inputs))
        counts = {"phigeo.shoot.nodes": 0, "phigeo.descent.iters": 0,
                  "descents": 0, "descents_converged": 0, "numgeom.wlap.calls": 0}
        solved = []
        with tracer.span("job"):
            model = parse_model(self.model)
            cells = [(c, ry) for c in inputs["c"] for ry in inputs["ry"]]
            for i, (c_val, ry) in enumerate(cells):
                with tracer.span("cell", op=f"cell{i}"):
                    params = PhiParams(c_val)
                    x = base_point(model)
                    y = canonical_target(model, ry)
                    shoot = _call(tracer, "phigeo.shoot", solve_bvp_shooting, model, params,
                                  x, y, tol=cfg.shoot_tol, step=cfg.step, density=cfg.density)
                    disc = _call(tracer, "phigeo.descent", minimize_action_discrete, model,
                                 params, x, y, N=cfg.N, max_iters=cfg.max_iters)
                    ev = _call(tracer, "phigeo.certify", certify_minimal_candidate,
                               model, params, shoot, disc)
                    tol = cfg.audit_tol
                    reports = [
                        _call(tracer, "audit.second_variation", audit.second_variation_audit,
                              model, params, shoot, tol, fd),
                        _call(tracer, "audit.combined_integral", audit.combined_integral_audit,
                              model, params, shoot, tol),
                        _call(tracer, "audit.boundary_term", audit.boundary_term_audit,
                              model, params, shoot, tol),
                        _call(tracer, "audit.weighted_ricci",
                              audit.weighted_ricci_integral_audit, model, params, shoot, tol=tol),
                        _call(tracer, "audit.radial_envelope", audit.radial_envelope_audit,
                              model, params, shoot, tol),
                    ]
                self.check_cell(out, i, {"ok": all(_report_ok(r) for r in reports),
                                         "minimal_evidence": ev,
                                         "reports": [r.to_dict() for r in reports]})
                iterations = disc.minimal_evidence["descent"]["iterations"]
                out.outputs[f"cell{i}.iterations"] = iterations
                counts["phigeo.shoot.nodes"] += shoot.n_nodes
                counts["phigeo.descent.iters"] += iterations
                counts["descents"] += 1
                if not {"stalled", "budget-exhausted"} & set(disc.flags):
                    counts["descents_converged"] += 1
                # second-variation evaluates one drifted Laplacian per path node
                counts["numgeom.wlap.calls"] += shoot.n_nodes
                solved.append((params, x, y, shoot, disc))
        return Replay(out, counts, {"model": model, "cfg": cfg, "fd": fd, "solved": solved})

    def probes(self, tracer, replay: Replay) -> dict:
        probe_input = replay.probe_input
        model, cfg, fd = probe_input["model"], probe_input["cfg"], probe_input["fd"]
        solved = probe_input["solved"]
        with tracer.span("probe"):
            # the background geodesics shooting (64 nodes), descent (N) and
            # certification (256) build for each cell
            for params, x, y, _, _ in solved:
                for nodes in (64, cfg.N, 256):
                    _call(tracer, "models.background_geodesic", background_geodesic,
                          model, x, y, nodes)

            def bb_iteration_geometry(pos):
                mid = pos[1:-1]
                distance(model, pos[:-1], pos[1:])
                step = log_map(model, mid, pos[:-2])
                log_map(model, mid, pos[2:])
                exp_map(model, mid, -1e-3 * step)

            batch = _us_per_call(tracer, "probe:models.batch_geom", bb_iteration_geometry,
                                 [disc.pos for *_, disc in solved] * 20)
            nodes = [p for *_, shoot, _ in solved for p in shoot.pos]
            params_first = solved[0][0]
            return {
                "models.batch_geom.us_per_call": batch,
                "models.eval_geometry.us_per_call": _us_per_call(
                    tracer, "probe:models.eval_geometry",
                    lambda p: eval_geometry(model, p), nodes),
                "numgeom.chart.us_per_call": _us_per_call(
                    tracer, "probe:numgeom.chart", lambda p: Chart(model, p),
                    _spread(nodes, CHART_PROBE_POINTS)),
                "numgeom.wlap.us_per_call": _wlap_probe(
                    tracer, model, nodes,
                    lambda chart: scalar_field(
                        chart, lambda q: phi_value(model, params_first, q)),
                    fd),
            }


class Scan(_Grid):
    """``scan`` at c = 0.1 over radii near 20 and 40."""

    name = "scan"
    subcommand = "scan"
    report_name = "scan.json"
    C_GRID = (0.1,)
    RY_CENTRES = (20.0, 40.0)

    @staticmethod
    def check_cell(out: Outcome, i: int, cell: dict) -> None:
        missed = []
        if not cell["ok"]:
            missed.append("ok")
        if not cell["d_zy"] <= cell["ry"] / 2.0:
            missed.append("d_zy<=ry/2")
        if missed:
            out.fail(f"cell{i}: {', '.join(missed)}")
        for key in ("c_hat", "d_zy", "ricci_norm_z"):
            out.outputs[f"cell{i}.{key}"] = cell[key]

    def replay(self, tracer, inputs: dict) -> Replay:
        cfg = cli.RunConfig()
        out = Outcome(ops=self.expected_ops(inputs))
        results = []
        with tracer.span("job"):
            model = parse_model(self.model)
            cells = [(c, ry) for c in inputs["c"] for ry in inputs["ry"]]
            for i, (c_val, ry) in enumerate(cells):
                with tracer.span("cell", op=f"cell{i}"):
                    params = PhiParams(c_val)
                    y = canonical_target(model, ry)
                    res = _call(tracer, "audit.good_point", audit.find_good_point, model,
                                params, y, density=cfg.density, step=cfg.step, tol=cfg.audit_tol)
                self.check_cell(out, i, {
                    "ok": _report_ok(res.report) and res.d_zy <= ry / 2.0 + 1e-9,
                    "ry": ry, "d_zy": res.d_zy, "c_hat": res.c_hat,
                    "ricci_norm_z": res.ricci_norm,
                })
                results.append((params, y, res))
        return Replay(out, {}, {"model": model, "cfg": cfg, "results": results})

    def probes(self, tracer, replay: Replay) -> dict:
        model, cfg = replay.probe_input["model"], replay.probe_input["cfg"]
        results = replay.probe_input["results"]
        nodes = 0
        with tracer.span("probe"):
            # find_good_point's own shooting solve, repeated on the same (O, y)
            origin = base_point(model)
            for params, y, _ in results:
                with tracer.span("phigeo.shoot"):
                    path = solve_bvp_shooting(model, params, origin, y,
                                              step=cfg.step, density=cfg.density)
                nodes += path.n_nodes
            geom = _us_per_call(tracer, "probe:models.eval_geometry",
                                lambda p: eval_geometry(model, p),
                                [p for *_, res in results for p in res.path.pos])
        replay.counts["phigeo.shoot.nodes"] = nodes
        return {"models.eval_geometry.us_per_call": geom}


class Identities:
    """``verify-identities`` on the sphere product with a CLI seed of its own."""

    name = "identities"
    model = SPHERE_PRODUCT
    SAMPLES = 2000
    report_name = "verify_identities.json"

    def inputs(self, seed: int) -> dict:
        return {"samples": self.SAMPLES, "seed": random.Random(seed).randrange(2**31)}

    def expected_ops(self, inputs: dict) -> int:
        # soliton, deltaf-Rf and gradient-f pairs plus the FD Ricci check
        return 7

    def argv(self, inputs: dict, out_dir: Path) -> list:
        return ["verify-identities", "--model", self.model,
                "--samples", str(inputs["samples"]), "--seed", str(inputs["seed"]),
                "--out", str(out_dir)]

    def check_report(self, payload: dict, inputs: dict) -> Outcome:
        reports = payload["reports"]
        if len(reports) != self.expected_ops(inputs) or not payload["all_pass"]:
            return Outcome.all_failed(self.expected_ops(inputs), "audits missing or all_pass false")
        return self._outcome(reports)

    @staticmethod
    def _outcome(reports: list) -> Outcome:
        out = Outcome(ops=len(reports))
        for r in reports:
            if not r["pass"]:
                out.fail(f"{r['name']}: margin {r['margin']:.3e}")
            out.outputs[f"{r['name']}.lhs"] = r["lhs"]
            out.outputs[f"{r['name']}.rhs"] = r["rhs"]
        return out

    def replay(self, tracer, inputs: dict) -> Replay:
        cfg = cli.RunConfig()
        fd = FDConfig(h=cfg.fd_h)
        n_ricci = 10
        with tracer.span("job"):
            model = parse_model(self.model)
            rng = np.random.default_rng(inputs["seed"])
            points = [random_point(model, rng) for _ in range(inputs["samples"])]
            with tracer.span("audit.soliton_identities", op="soliton-identity"):
                reports = list(audit.check_soliton_identities(model, points, cfg=fd))
            with tracer.span("audit.deltaf_rf", op="deltaf-Rf"):
                reports += audit.check_deltaf_Rf(model, points, cfg=fd)
            with tracer.span("audit.gradient_f_bound", op="gradient-f-bound"):
                reports += audit.gradient_f_bound_audit(model, points)
            with tracer.span("ricci_fd_check", op="ricci-fd-vs-closed"):
                worst = 0.0
                origin = np.zeros(model.n)
                for p in points[:n_ricci]:
                    chart = Chart(model, p)
                    rc = _call(tracer, "numgeom.ricci_fd", ricci_fd, chart, origin, fd)
                    worst = max(worst, float(np.max(np.abs(rc - _closed_ricci(model, chart)))))
                reports.append(audit.AuditReport("ricci-fd-vs-closed", worst, 1e-4, 0.0))
        out = self._outcome([r.to_dict() for r in reports])
        counts = {
            # two drifted Laplacians per sample for the soliton identities,
            # one for the R/f expansion
            "numgeom.wlap.calls": 3 * len(points),
        }
        return Replay(out, counts, {"model": model, "fd": fd, "points": points})

    def probes(self, tracer, replay: Replay) -> dict:
        probe_input = replay.probe_input
        model, fd, points = probe_input["model"], probe_input["fd"], probe_input["points"]
        with tracer.span("probe"):
            return {
                "models.eval_geometry.us_per_call": _us_per_call(
                    tracer, "probe:models.eval_geometry",
                    lambda p: eval_geometry(model, p), points),
                "numgeom.chart.us_per_call": _us_per_call(
                    tracer, "probe:numgeom.chart", lambda p: Chart(model, p),
                    _spread(points, CHART_PROBE_POINTS)),
                "numgeom.wlap.us_per_call": _wlap_probe(
                    tracer, model, points, potential_field, fd),
            }


def _closed_ricci(model, chart: Chart) -> np.ndarray:
    """Closed-form Ricci at the chart origin: g/2 on sphere blocks, 0 on flat."""
    g0 = chart.metric_at(np.zeros(model.n))
    closed = np.zeros_like(g0)
    offset = 0
    for f in model.factors:
        if f.kind == "sphere":
            block = slice(offset, offset + f.dim)
            closed[block, block] = 0.5 * g0[block, block]
        offset += f.dim
    return closed


WORKLOADS = {w.name: w for w in (Chain(), Scan(), Identities())}
