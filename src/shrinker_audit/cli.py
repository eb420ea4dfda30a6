"""Command-line front end.

Four subcommands: ``verify-identities`` (pointwise identity suite),
``geodesic`` (both boundary-value solvers plus cross-checks on one case),
``audit-chain`` (the displayed inequality chain over a (c, r_y) grid), and
``scan`` (the good-point scanner with the empirical uniform constant).

Reports are JSON with sorted keys, paths are CSV; identical configuration
and seed produce byte-identical output.

Exit codes: 0 success, 2 bad configuration / degenerate endpoints, 3 solver
failure, 4 typed refusal (precondition, degenerate model, short cutoff).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import phigeo, quadrature
from .errors import (
    ConfigError,
    CutoffUndefinedError,
    DegenerateEndpointsError,
    DegenerateModelError,
    InvalidModelError,
    PreconditionError,
    ShrinkerAuditError,
    SolverError,
)
from .models import (
    base_point,
    canonical_target,
    chart_ricci,
    parse_model,
    random_points,
)
from .numgeom import CHART_RADIUS, Chart, FDConfig, ricci_fd
from .phigeo import (
    PhiParams,
    certify_minimal_candidate,
    minimize_action_discrete,
    path_json_dict,
    solve_bvp_shooting,
    write_path_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_REFUSED = 4


@dataclass
class RunConfig:
    """Run parameters; every tolerance the suites use lives here.

    Each solver and audit field defaults to the library's own named default.
    """

    model: str = "cylinder:k=2,m=2"
    c: tuple = (0.1,)
    ry: tuple = (10.0,)
    samples: int = 100
    seed: int = 0
    out: str = "reports"
    N: int = phigeo.DEFAULT_DESCENT_N
    step: float = phigeo.MAX_IVP_STEP
    shoot_tol: float = phigeo.DEFAULT_SHOOT_TOL
    density: int = quadrature.DEFAULT_DENSITY
    drift_tol: float = phigeo.DEFAULT_DRIFT_TOL
    audit_tol: float = audit_mod.DEFAULT_TOL
    fd_h: float = FDConfig.h
    max_iters: int = phigeo.DEFAULT_DESCENT_ITERS

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(f.default)
            if kind is tuple:
                ok = isinstance(value, tuple) and all(_is_finite_number(v) for v in value)
            elif kind is float:
                ok = _is_finite_number(value)
            else:  # int or str
                ok = isinstance(value, kind) and not isinstance(value, bool)
            if not ok:
                raise ConfigError(f"{f.name} must be {_KIND_NAMES[kind]} (got {value!r})")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1 (got {self.samples})")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0 (got {self.seed})")
        if not 16 <= self.N <= quadrature.MAX_GRID_INTERVALS:
            raise ConfigError(
                f"N must lie in [16, {quadrature.MAX_GRID_INTERVALS}] (got {self.N})")
        if not 0.0 < self.step <= phigeo.MAX_IVP_STEP:
            raise ConfigError(f"step must lie in (0, {phigeo.MAX_IVP_STEP}] (got {self.step})")
        for name in ("shoot_tol", "drift_tol", "audit_tol", "fd_h"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive (got {getattr(self, name)})")
        if not self.fd_h < CHART_RADIUS / 10.0:
            raise ConfigError(f"fd_h must be below {CHART_RADIUS / 10.0} (got {self.fd_h})")
        if self.density < 4:
            raise ConfigError(f"density must be >= 4 (got {self.density})")
        if self.density > quadrature.MAX_DENSITY:
            raise ConfigError(f"density must be at most quadrature.MAX_DENSITY = "
                              f"{quadrature.MAX_DENSITY:.6g} "
                              f"(got an integer of {len(str(self.density))} digits)")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1 (got {self.max_iters})")
        if not self.c:
            raise ConfigError("c grid must not be empty")
        for value in self.c:
            if not value > 0.0:
                raise ConfigError(f"c must be positive (got {value})")
        if not self.ry:
            raise ConfigError("ry grid must not be empty")
        for value in self.ry:
            if not value > 0.0:
                raise ConfigError(f"ry must be positive (got {value})")

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["out"]
        return out


_KIND_NAMES = {
    tuple: "a list of finite numbers",
    float: "a finite number",
    int: "an integer",
    str: "a string",
}


# The config fields each subcommand reads; a config file may set no others.
# model, c, ry and out are common so one config file drives every subcommand;
# c and ry are not flags of verify-identities, which ignores them.
_COMMON_FIELDS = {"model", "c", "ry", "out"}
_COMMAND_FIELDS = {
    "verify-identities": _COMMON_FIELDS | {"samples", "seed", "fd_h"},
    "geodesic": _COMMON_FIELDS | {"N", "step", "shoot_tol", "density", "drift_tol",
                                  "max_iters"},
    "audit-chain": _COMMON_FIELDS | {"N", "step", "shoot_tol", "density", "drift_tol",
                                     "max_iters", "audit_tol", "fd_h"},
    "scan": _COMMON_FIELDS | {"step", "density", "drift_tol", "audit_tol"},
}


def _is_finite_number(value) -> bool:
    """An int or a finite float; bools are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    command = getattr(args, "command", None)
    read = _COMMAND_FIELDS.get(command, known)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"config file {args.config!r}: {exc}") from exc
        except ValueError as exc:  # malformed, or an integer of more digits than Python reads
            raise ConfigError(
                f"config file {args.config!r} cannot be read as JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
            if key not in read:
                raise ConfigError(f"config field {key!r} is not read by {command}")
            if key in ("c", "ry"):
                items = value if isinstance(value, list) else [value]
                if not all(_is_finite_number(v) for v in items):
                    raise ConfigError(f"{key} must be a finite number or a list of them "
                                      f"(got {value!r})")
                value = tuple(float(v) for v in items)
            setattr(cfg, key, value)
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / name
    with open(dest, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return dest


def _report_ok(report: audit_mod.AuditReport) -> bool:
    """Pass, or inconclusive with a strictly positive margin."""
    if report.conclusive:
        return report.passed
    return report.margin > 0.0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify_identities(config: RunConfig) -> int:
    model = parse_model(config.model)
    rng = np.random.default_rng(config.seed)
    fd_cfg = FDConfig(h=config.fd_h)
    points = random_points(model, rng, config.samples)
    reports = audit_mod.check_pointwise_identities(model, points, cfg=fd_cfg)
    notices = ["model has R == 0: curvature-ratio audits skipped"] if model.degenerate else []
    reports += audit_mod.gradient_f_bound_audit(model, points)
    # FD cross-check of the curvature itself at a few of the sampled points.
    chart = Chart(model, points[:10])
    origin = np.zeros(chart.shape + (model.n,))
    closed = chart_ricci(model, chart.metric_at(origin))
    worst = float(np.max(np.abs(ricci_fd(chart, origin, fd_cfg) - closed)))
    reports.append(
        audit_mod.AuditReport(
            "ricci-fd-vs-closed", worst, 1e-4, 0.0, context={"model": model.label}
        )
    )
    for report in reports:
        print(report.summary_line())
    for notice in notices:
        print(f"NOTE  {notice}")
    payload = {
        "command": "verify-identities",
        "config": config.to_dict(),
        "notices": notices,
        "reports": [r.to_dict() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    dest = _write_json(Path(config.out), "verify_identities.json", payload)
    print(f"report: {dest}")
    return EXIT_OK if payload["all_pass"] else 1


def cmd_geodesic(config: RunConfig) -> int:
    if len(config.c) > 1 or len(config.ry) > 1:
        raise ConfigError(f"geodesic solves one (c, ry) case; got c={list(config.c)}, "
                          f"ry={list(config.ry)}")
    model = parse_model(config.model)
    params = PhiParams(config.c[0])
    x = base_point(model)
    y = canonical_target(model, config.ry[0])
    shoot = solve_bvp_shooting(
        model, params, x, y, tol=config.shoot_tol, step=config.step, density=config.density,
        drift_tol=config.drift_tol,
    )
    disc = minimize_action_discrete(model, params, x, y, N=config.N, max_iters=config.max_iters)
    evidence = certify_minimal_candidate(model, params, shoot, disc)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_path_csv(out_dir / "geodesic_shooting.csv", model, params, shoot)
    write_path_csv(out_dir / "geodesic_discrete.csv", model, params, disc)
    payload = {
        "command": "geodesic",
        "config": config.to_dict(),
        "evidence": evidence,
        "shooting": path_json_dict(model, params, shoot),
        "discrete": path_json_dict(model, params, disc),
    }
    dest = _write_json(out_dir, "geodesic_summary.json", payload)
    equivalent = evidence["J_agree"] and evidence["C_agree"]
    print(
        f"J shooting={shoot.action_J:.9g} discrete={disc.action_J:.9g} "
        f"C shooting={shoot.C_value:.9g} discrete={disc.C_value:.9g}"
    )
    print(f"cross-solver equivalence: {'PASS' if equivalent else 'FAIL'}")
    print(f"report: {dest}")
    return EXIT_OK if equivalent else 1


def _shot_cells(model, cells, prepare, **solver):
    """Shoot every cell of a grid in one lockstep ``solve_bvp_shooting_batch``.

    ``prepare(c, ry)`` runs a cell's checks that need no path and returns its
    problem ``(params, x, y)``. On the first pull every cell is prepared and
    shot; then each cell's ``(params, x, y, path)`` is yielded in grid order.
    The error a cell's preparation or solve raised is raised when the loop
    reaches that cell, so errors come in grid order, as if the cells ran
    one after another.
    """
    staged = []
    for cell in cells:
        try:
            staged.append(prepare(*cell))
        except ShrinkerAuditError as exc:
            staged.append(exc)
    problems = [p for p in staged if not isinstance(p, Exception)]
    paths = iter(phigeo.solve_bvp_shooting_batch(model, problems, **solver))
    for problem in staged:
        path = problem if isinstance(problem, Exception) else next(paths)
        if isinstance(path, Exception):
            raise path
        yield (*problem, path)


def _audit_cell(model, config, cell, params, x, y, shoot):
    c_val, ry = cell
    disc = minimize_action_discrete(model, params, x, y, N=config.N, max_iters=config.max_iters)
    certify_minimal_candidate(model, params, shoot, disc)
    reports = audit_mod.run_audit_chain(
        model, params, shoot, tol=config.audit_tol, cfg=FDConfig(h=config.fd_h)
    )
    return {
        "c": c_val,
        "ry": ry,
        "minimal_evidence": shoot.minimal_evidence,
        "reports": [r.to_dict() for r in reports],
        "ok": all(_report_ok(r) for r in reports),
        "lines": [r.summary_line() for r in reports],
    }


def cmd_audit_chain(config: RunConfig) -> int:
    model = parse_model(config.model)
    for c_val in config.c:
        if not c_val < 1.0:
            raise ConfigError(f"c must be < 1 for the audit chain (got {c_val})")
    cells = [(c_val, ry) for c_val in config.c for ry in config.ry]
    solved = _shot_cells(
        model, cells,
        lambda c_val, ry: (PhiParams(c_val), base_point(model), canonical_target(model, ry)),
        tol=config.shoot_tol, step=config.step, density=config.density,
        drift_tol=config.drift_tol,
    )
    results = [_audit_cell(model, config, cell, *shot) for cell, shot in zip(cells, solved)]
    all_ok = all(cell["ok"] for cell in results)
    for cell in results:
        print(f"cell c={cell['c']} ry={cell['ry']}:")
        for line in cell.pop("lines"):
            print(f"  {line}")
    payload = {
        "command": "audit-chain",
        "config": config.to_dict(),
        "cells": results,
        "all_ok": all_ok,
    }
    dest = _write_json(Path(config.out), "audit_chain.json", payload)
    print(f"report: {dest}")
    return EXIT_OK if all_ok else 1


def cmd_scan(config: RunConfig) -> int:
    model = parse_model(config.model)
    for c_val in config.c:
        if not c_val < 1.0:
            raise ConfigError(f"c must be < 1 for the scan (got {c_val})")
    cells = [(c_val, ry) for c_val in config.c for ry in config.ry]

    def prepare(c_val, ry):
        params = PhiParams(c_val)
        y = canonical_target(model, ry)
        audit_mod.check_good_point_target(model, y)
        return params, base_point(model), y

    def run_cell(cell, params, y, path):
        c_val, ry = cell
        result = audit_mod.good_point_on_path(model, params, y, path, tol=config.audit_tol)
        return {
            "c": c_val,
            "ry": ry,
            "minimal_evidence": path.minimal_evidence,
            "ricci_norm_z": result.ricci_norm,
            "bound": result.bound,
            "c_hat": result.c_hat,
            "d_zy": result.d_zy,
            "window": list(result.window),
            "z": [float(v) for v in result.z],
            "report": result.report.to_dict(),
            "ok": _report_ok(result.report) and result.d_zy <= ry / 2.0 + 1e-9,
        }

    solved = _shot_cells(model, cells, prepare, step=config.step, density=config.density,
                         drift_tol=config.drift_tol)
    results = [run_cell(cell, params, y, path)
               for cell, (params, _, y, path) in zip(cells, solved)]
    c_hat_sup = max(cell["c_hat"] for cell in results)
    all_ok = all(cell["ok"] for cell in results)
    for cell in results:
        status = "PASS" if cell["ok"] else "FAIL"
        print(
            f"{status}  scan c={cell['c']} ry={cell['ry']}: |Rc|(z)={cell['ricci_norm_z']:.6g} "
            f"<= C_hat*(ry+1)={cell['bound']:.6g} (C_hat={cell['c_hat']:.6g})"
        )
    print(f"empirical uniform constant sup C_hat = {c_hat_sup:.6g}")
    # every catalog model has constant |Rc|, so the scan has nothing to search
    notice = "|Rc| is constant on this model: z is the first node of each scan window"
    print(f"NOTE  {notice}")
    payload = {
        "command": "scan",
        "config": config.to_dict(),
        "notices": [notice],
        "cells": results,
        "c_hat_sup": c_hat_sup,
        "all_ok": all_ok,
    }
    dest = _write_json(Path(config.out), "scan.json", payload)
    print(f"report: {dest}")
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinker-audit",
        description="Numerical audits on explicit gradient Ricci shrinkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, grid=True):
        # no abbreviations: --c would otherwise mean --config where --c is absent
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--model", help="model string, e.g. cylinder:k=2,m=2")
        if grid:
            p.add_argument("--c", type=_float_list,
                           help="comma-separated potential constants (geodesic takes one)")
            p.add_argument("--ry", type=_float_list,
                           help="comma-separated target radii (geodesic takes one)")
        p.add_argument("--out", help="output directory for reports (default ./reports)")
        p.add_argument("--config", help="JSON config file; flags override its fields")
        return p

    n_help = f"discrete-minimizer grid size (default {phigeo.DEFAULT_DESCENT_N})"
    p_verify = add_command("verify-identities", "pointwise identity suite", grid=False)
    p_verify.add_argument("--samples", type=int,
                          help=f"random sample points (default {RunConfig.samples})")
    p_verify.add_argument("--seed", type=int, help=f"random seed (default {RunConfig.seed})")
    p_geo = add_command("geodesic", "solve one boundary-value case both ways")
    p_geo.add_argument("--N", type=int, help=n_help)
    p_chain = add_command("audit-chain", "inequality chain over a (c, ry) grid")
    p_chain.add_argument("--N", type=int, help=n_help)
    add_command("scan", "good-point scan over a (c, ry) grid")
    return parser


_COMMANDS = {
    "verify-identities": cmd_verify_identities,
    "geodesic": cmd_geodesic,
    "audit-chain": cmd_audit_chain,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_config_from_args(args))
    except (ConfigError, InvalidModelError, DegenerateEndpointsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionError, DegenerateModelError, CutoffUndefinedError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ShrinkerAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
