"""Command-line front end.

Four subcommands: ``verify-identities`` (pointwise identity suite),
``geodesic`` (both boundary-value solvers plus cross-checks on one case),
``audit-chain`` (the displayed inequality chain over a (c, r_y) grid), and
``scan`` (the good-point scanner with the empirical uniform constant).

This module writes every output file: reports are JSON with sorted keys,
paths are CSV; identical configuration and seed produce byte-identical
output. ``RunConfig.validate`` makes every check on a run's values, c < 1
for audit-chain and scan and one case for geodesic among them, before the
``out`` check and before the model string is parsed.

Exit codes: 0 success, 1 an audit failed, 2 bad configuration /
degenerate endpoints / an output that cannot be written, 3 solver failure,
4 typed refusal (precondition, degenerate model, short cutoff).
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
    ModelSpec,
    base_point,
    canonical_target,
    parse_model,
    radial_distance,
    random_points,
)
from .numgeom import CHART_RADIUS, FDConfig
from .phigeo import PhiParams, certify_minimal_candidate, minimize_action_discrete, phi_value
from .quadrature import PhiPath

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_REFUSED = 4

# verify-identities on 10**6 samples of sphereproduct:k=2,m=2 takes about 15 s
# and 240 MB peak RSS on 2 cores; memory grows linearly with the samples
MAX_SAMPLES = 10**6


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

    def validate(self, command: str | None = None) -> None:
        """Check every field's value, then the rules of ``command``, if given.

        ``c`` and ``ry`` may be a finite number or a list of them; each
        becomes a tuple of floats.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(f.default)
            if kind is tuple:
                items = value if isinstance(value, (list, tuple)) else [value]
                ok = all(_is_finite_number(v) for v in items)
                if ok:
                    setattr(self, f.name, tuple(float(v) for v in items))
            elif kind is float:
                ok = _is_finite_number(value)
            else:  # int or str
                ok = isinstance(value, kind) and not isinstance(value, bool)
            if not ok:
                raise ConfigError(f"{f.name} must be {_KIND_NAMES[kind]} (got {value!r})")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"samples must lie in [1, {MAX_SAMPLES}] (got {self.samples})")
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
        for name in ("c", "ry"):
            if not getattr(self, name):
                raise ConfigError(f"{name} grid must not be empty")
            for value in getattr(self, name):
                if not value > 0.0:
                    raise ConfigError(f"{name} must be positive (got {value})")
        if command in _C_BELOW_ONE:
            for c_val in self.c:
                if not c_val < 1.0:
                    raise ConfigError(f"c must be < 1 for {_C_BELOW_ONE[command]} (got {c_val})")
        if command == "geodesic" and (len(self.c) > 1 or len(self.ry) > 1):
            raise ConfigError(f"geodesic solves one (c, ry) case; got c={list(self.c)}, "
                              f"ry={list(self.ry)}")

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


# The subcommands whose audits need the paper's c < 1, as their errors name them.
_C_BELOW_ONE = {"audit-chain": "the audit chain", "scan": "the scan"}

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
            setattr(cfg, key, value)
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate(command)
    # refused before any work: out, or the nearest part of it that exists, is a file
    out = Path(cfg.out)
    existing = next(part for part in (out, *out.parents) if part.exists())
    if not existing.is_dir():
        raise ConfigError(f"out {cfg.out!r} cannot be a directory: {str(existing)!r} "
                          "exists and is not one")
    return cfg


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _report(config: RunConfig, command: str, filename: str, ok: bool, **fields) -> int:
    """Write a subcommand's JSON report into ``config.out`` and print its path.

    The report holds ``command``, the config and ``fields``. Returns the exit
    code: 0 when ``ok``, 1 when an audit failed.
    """
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / filename
    with open(dest, "w", encoding="utf-8") as handle:
        json.dump({"command": command, "config": config.to_dict(), **fields}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report: {dest}")
    return EXIT_OK if ok else 1


def path_csv_lines(model: ModelSpec, params: PhiParams, path: PhiPath):
    """CSV rows: s, point coords, velocity coords, |S|^2, phi, r."""
    dim = model.ambient_dim
    header = (
        ["s"]
        + [f"p{i}" for i in range(dim)]
        + [f"v{i}" for i in range(dim)]
        + ["speed_sq", "phi", "r"]
    )
    yield ",".join(header)
    speed_sq = path.speed_sq()
    phis = phi_value(model, params, path.pos)
    radii = radial_distance(model, path.pos)
    for i in range(path.n_nodes):
        row = (
            [repr(float(path.s[i]))]
            + [repr(float(v)) for v in path.pos[i]]
            + [repr(float(v)) for v in path.vel[i]]
            + [repr(float(speed_sq[i])), repr(float(phis[i])), repr(float(radii[i]))]
        )
        yield ",".join(row)


def write_path_csv(dest, model: ModelSpec, params: PhiParams, path: PhiPath) -> None:
    with open(dest, "w", encoding="utf-8") as handle:
        for line in path_csv_lines(model, params, path):
            handle.write(line + "\n")


def path_json_dict(model: ModelSpec, params: PhiParams, path: PhiPath) -> dict:
    return {
        "model": model.label,
        "c": params.c,
        "s_bar": path.s_bar,
        "n_nodes": path.n_nodes,
        "C_value": path.C_value,
        "drift": path.drift,
        "action_J": path.action_J,
        "is_minimal_candidate": path.is_minimal_candidate,
        "minimal_evidence": path.minimal_evidence,
        "flags": list(path.flags),
        "start": [float(v) for v in path.pos[0]],
        "end": [float(v) for v in path.pos[-1]],
    }


def _solved_cells(config: RunConfig, model, check=None):
    """Shoot every (c, r_y) cell of the config's grid in one lockstep
    ``solve_bvp_shooting_batch``, with the config's solver fields.

    A cell's problem is ``(PhiParams(c), base_point, canonical_target(ry))``;
    ``check(model, y)``, when given, runs on its target first. On the first
    pull every cell is set up and shot; then each cell's ``(c, ry, params,
    x, y, path)`` is yielded in grid order. The error a cell's setup or
    solve raised is raised when the loop reaches that cell, so errors come
    in grid order, as if the cells ran one after another.
    """
    staged = []
    for c_val in config.c:
        for ry in config.ry:
            try:
                y = canonical_target(model, ry)
                if check is not None:
                    check(model, y)
                staged.append((c_val, ry, PhiParams(c_val), base_point(model), y))
            except ShrinkerAuditError as exc:
                staged.append(exc)
    paths = iter(phigeo.solve_bvp_shooting_batch(
        model, [cell[2:] for cell in staged if not isinstance(cell, Exception)],
        tol=config.shoot_tol, step=config.step, density=config.density,
        drift_tol=config.drift_tol,
    ))
    for cell in staged:
        path = cell if isinstance(cell, Exception) else next(paths)
        if isinstance(path, Exception):
            raise path
        yield (*cell, path)


def _discrete(config: RunConfig, model, params, x, y, shoot):
    """The discrete minimizer's path and the evidence certifying ``shoot``."""
    disc = minimize_action_discrete(model, params, x, y, N=config.N, max_iters=config.max_iters)
    return disc, certify_minimal_candidate(model, params, shoot, disc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify_identities(config: RunConfig, model: ModelSpec) -> int:
    rng = np.random.default_rng(config.seed)
    fd_cfg = FDConfig(h=config.fd_h)
    points = random_points(model, rng, config.samples)
    reports = audit_mod.check_pointwise_identities(model, points, cfg=fd_cfg)
    notices = ["model has R == 0: curvature-ratio audits skipped"] if model.degenerate else []
    reports += audit_mod.gradient_f_bound_audit(model, points)
    reports.append(audit_mod.ricci_fd_audit(model, points, fd_cfg))
    for report in reports:
        print(report.summary_line())
    for notice in notices:
        print(f"NOTE  {notice}")
    all_pass = all(r.ok for r in reports)
    return _report(config, "verify-identities", "verify_identities.json", all_pass,
                   notices=notices, reports=[r.to_dict() for r in reports], all_pass=all_pass)


def cmd_geodesic(config: RunConfig, model: ModelSpec) -> int:
    ((_, _, params, x, y, shoot),) = _solved_cells(config, model)
    disc, evidence = _discrete(config, model, params, x, y, shoot)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_path_csv(out_dir / "geodesic_shooting.csv", model, params, shoot)
    write_path_csv(out_dir / "geodesic_discrete.csv", model, params, disc)
    print(f"J shooting={shoot.action_J:.9g} discrete={disc.action_J:.9g} "
          f"C shooting={shoot.C_value:.9g} discrete={disc.C_value:.9g}")
    equivalent = evidence["J_agree"] and evidence["C_agree"]
    print(f"cross-solver equivalence: {'PASS' if equivalent else 'FAIL'}")
    return _report(config, "geodesic", "geodesic_summary.json", equivalent,
                   evidence=evidence, shooting=path_json_dict(model, params, shoot),
                   discrete=path_json_dict(model, params, disc))


def cmd_audit_chain(config: RunConfig, model: ModelSpec) -> int:
    cells, lines = [], []
    for c_val, ry, params, x, y, shoot in _solved_cells(
            config, model, audit_mod.check_audit_chain_target):
        # the certification joins shoot.minimal_evidence
        disc, _ = _discrete(config, model, params, x, y, shoot)
        reports = audit_mod.run_audit_chain(
            model, params, shoot, tol=config.audit_tol, cfg=FDConfig(h=config.fd_h)
        )
        lines += [f"cell c={c_val} ry={ry}:", *(f"  {r.summary_line()}" for r in reports)]
        evidence = {**shoot.minimal_evidence, "descent": disc.minimal_evidence["descent"]}
        cells.append({"c": c_val, "ry": ry, "minimal_evidence": evidence,
                      "reports": [r.to_dict() for r in reports],
                      "ok": all(r.ok for r in reports)})
    print("\n".join(lines))
    all_ok = all(cell["ok"] for cell in cells)
    return _report(config, "audit-chain", "audit_chain.json", all_ok, cells=cells, all_ok=all_ok)


def cmd_scan(config: RunConfig, model: ModelSpec) -> int:
    cells = []
    for c_val, ry, params, _, y, path in _solved_cells(config, model,
                                                       audit_mod.check_good_point_target):
        result = audit_mod.good_point_on_path(model, params, y, path, tol=config.audit_tol)
        cells.append({
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
            "ok": result.report.ok,
        })
    c_hat_sup = max(cell["c_hat"] for cell in cells)
    for cell in cells:
        status = "PASS" if cell["ok"] else "FAIL"
        print(
            f"{status}  scan c={cell['c']} ry={cell['ry']}: |Rc|(z)={cell['ricci_norm_z']:.6g} "
            f"<= C_hat*(ry+1)={cell['bound']:.6g} (C_hat={cell['c_hat']:.6g})"
        )
    print(f"empirical uniform constant sup C_hat = {c_hat_sup:.6g}")
    # every catalog model has constant |Rc|, so the scan has nothing to search
    notice = "|Rc| is constant on this model: z is the first node of each scan window"
    print(f"NOTE  {notice}")
    all_ok = all(cell["ok"] for cell in cells)
    return _report(config, "scan", "scan.json", all_ok, notices=[notice], cells=cells,
                   c_hat_sup=c_hat_sup, all_ok=all_ok)


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
        config = _config_from_args(args)
        return _COMMANDS[args.command](config, parse_model(config.model))
    except (ConfigError, InvalidModelError, DegenerateEndpointsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # an OSError: out cannot be checked or written
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
