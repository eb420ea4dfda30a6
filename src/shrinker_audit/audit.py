"""Numerical audits of the soliton identity chain, with explicit margins.

Each audit evaluates one named identity or inequality on concrete points or
paths and reports lhs, rhs, margin = rhs - lhs and a quadrature error
estimate. Audits never claim more than the numerics support: a report is
``conclusive`` only when the quadrature error is at most 1% of the margin,
and the pass flag always carries its tolerance.

Path audits integrate against ``quadrature.cutoff``, the trapezoid cutoff
on the path's ``audit_grid`` pieces, through ``quadrature.integrate_pieces``,
and the scan snaps its window to that grid.

The scan comes in three parts so that a grid of cells can share its solves:
``check_good_point_target`` (the refusals that need no path), the shooting
solve, and ``good_point_on_path`` (the windowed part). ``find_good_point``
composes them for one cell; the ``scan`` subcommand solves all its cells in
one lockstep ``solve_bvp_shooting_batch`` and then runs the windowed part
cell by cell. Each cell's path, and the shooting counts in its
``minimal_evidence``, are bitwise those of its own solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import DegenerateModelError, PreconditionError
from .models import (
    GeometryEval,
    ModelSpec,
    base_point,
    chart_ricci,
    distance,
    eval_geometry,
    grad_potential,
    potential_f,
    radial_distance,
    validate_point,
)
from .numgeom import Chart, FDConfig, ricci_fd, weighted_laplacians_at_centers
from .quadrature import PhiPath, cutoff
from .phigeo import MAX_IVP_STEP, PhiParams, phi_value, solve_bvp_shooting

DEFAULT_TOL = 1e-6
# FD residual allowed in both soliton identities
SOLITON_IDENTITY_TOL = 1e-4
# FD residual allowed between the drifted Laplacian of R/f and its expansion
DELTAF_RF_TOL = 1e-4
# FD residual allowed between the FD Ricci tensor and its closed form, and
# the number of leading samples at whose chart centers it is checked
RICCI_FD_TOL = 1e-4
RICCI_FD_SAMPLES = 10
# rounding allowed in the gradient bounds; the first is an equality on the flat model
GRADIENT_BOUND_TOL = 1e-12
# Charts per finite-difference stack: large enough to amortize the per-call
# overhead, small enough that the stencil arrays stay out of peak memory.
FD_BLOCK = 128


@dataclass
class AuditReport:
    """One audited (in)equality: lhs <= rhs up to tolerance, margin = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    quadrature_error: float = 0.0
    context: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance

    @property
    def conclusive(self) -> bool:
        return self.quadrature_error <= 0.01 * abs(self.margin)

    @property
    def ok(self) -> bool:
        """The verdict: pass, or inconclusive with a strictly positive margin."""
        return self.passed if self.conclusive else self.margin > 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "quadrature_error": self.quadrature_error,
            "conclusive": self.conclusive,
            "context": self.context,
        }

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if not self.conclusive:
            verdict += "?"
        return f"{verdict:5s} {self.name}: margin={self.margin:.6e}"


# ---------------------------------------------------------------------------
# Path audit plumbing
# ---------------------------------------------------------------------------


def _boundary_coupling(model: ModelSpec, path: PhiPath, zeta: np.ndarray, ramps):
    """Slope-weighted integral of zeta * <grad f, S> over the ramps, with its error."""
    coupling = np.einsum("ij,ij->i", grad_potential(model, path.pos), path.vel)
    return quadrature.integrate_pieces(path.s, zeta * coupling, ramps)


def _speed_bound(path: PhiPath, params: PhiParams) -> float:
    return math.sqrt(path.C_value + params.c)


def _path_context(model: ModelSpec, params: PhiParams, path: PhiPath) -> dict:
    return {
        "model": model.label,
        "c": params.c,
        "s_bar": path.s_bar,
        "C_value": path.C_value,
        "drift": path.drift,
        "n_nodes": path.n_nodes,
        "is_minimal_candidate": path.is_minimal_candidate,
        "A": _speed_bound(path, params),
    }


# ---------------------------------------------------------------------------
# Pointwise identity audits (finite-difference oracle driven)
# ---------------------------------------------------------------------------


def _drifted_laplacians(model: ModelSpec, points: np.ndarray, cfg: FDConfig, *funcs):
    """FD drifted Laplacian of each function of manifold points ``func(pos)``
    at every point: an array of shape (len(funcs), P).

    Charts are stacked FD_BLOCK at a time, which bounds the stencil arrays.
    Each block maps its stencil to the manifold once and computes its
    Christoffels once; f and every function share those points, and the
    block's stencil is freed before the next block starts.
    """
    out = np.empty((len(funcs), len(points)))
    for start in range(0, len(points), FD_BLOCK):
        chart = Chart(model, points[start : start + FD_BLOCK])
        out[:, start : start + FD_BLOCK] = weighted_laplacians_at_centers(chart, funcs, cfg)
    return out


def _identity_reports(model: ModelSpec, sample_points, cfg: FDConfig, soliton, deltaf):
    """The soliton pair (FD rows R and f) and/or the deltaf-Rf pair (FD row
    R/f) from one FD pass and one ``eval_geometry`` of the samples. The
    rows are independent, so a report's bits do not depend on which others
    share the pass. The R/f audit is refused before any FD work unless
    f > 1e-12 at every sample.
    """
    geom = eval_geometry(model, sample_points)
    funcs = [lambda pos: np.full(pos.shape[:-1], model.scalar_R),
             lambda pos: potential_f(model, pos)] if soliton else []
    if deltaf:
        low = np.flatnonzero(geom.f <= 1e-12)
        if len(low):
            raise DegenerateModelError(
                f"{model}: R/f audit needs f > 0 at every sample (got f={float(geom.f[low[0]])})"
            )
        funcs.append(lambda pos: model.scalar_R / potential_f(model, pos))
    laps = _drifted_laplacians(model, geom.point, cfg, *funcs)
    reports = _soliton_reports(geom, cfg, *laps[:2]) if soliton else []
    return reports + (_deltaf_reports(geom, cfg, laps[-1]) if deltaf else [])


def check_soliton_identities(model: ModelSpec, sample_points, cfg: FDConfig = FDConfig()):
    """Drifted-Laplacian identities for R and f, evaluated by the FD oracle.

    For constant-R models the curvature identity reduces to 2|Rc|^2 = R,
    which is itself a consequence of the soliton structure; both sides are
    evaluated anyway so a broken model cannot slip through. No CLI path
    calls it (``check_pointwise_identities`` gives its reports bitwise);
    perfbench's identities replay and the tests keep it.
    """
    return _identity_reports(model, sample_points, cfg, soliton=True, deltaf=False)


def check_deltaf_Rf(model: ModelSpec, sample_points, cfg: FDConfig = FDConfig()):
    """Drifted Laplacian of R/f: FD value vs the four-term expansion, plus
    the upper bound -|Rc|^2/f + 4(1+sqrt(n))^2/f. No CLI path calls it
    (``check_pointwise_identities`` gives its reports bitwise); perfbench's
    identities replay and the tests keep it."""
    return _identity_reports(model, sample_points, cfg, soliton=False, deltaf=True)


def check_pointwise_identities(model: ModelSpec, sample_points, cfg: FDConfig = FDConfig()):
    """``check_soliton_identities`` then, unless R == 0, ``check_deltaf_Rf``,
    bitwise, from one FD pass: each block maps its stencil and computes its
    Christoffels once for R, f and R/f."""
    return _identity_reports(model, sample_points, cfg, soliton=True,
                             deltaf=not model.degenerate)


def _soliton_reports(geom: GeometryEval, cfg: FDConfig, lap_r, lap_f):
    resid_r = np.abs(lap_r - (-2.0 * geom.ricci_norm_sq + geom.scalar_R))
    resid_f = np.abs(lap_f - (geom.model.n / 2.0 - geom.f))
    ctx = {"model": geom.model.label, "points": len(geom.point), "fd_h": cfg.h}
    return [
        AuditReport("soliton-identity:curvature", float(np.max(resid_r)), SOLITON_IDENTITY_TOL,
                    0.0, context=dict(ctx)),
        AuditReport("soliton-identity:potential", float(np.max(resid_f)), SOLITON_IDENTITY_TOL,
                    0.0, context=dict(ctx)),
    ]


def _deltaf_rf_constant(n: int) -> float:
    """4(1+sqrt(n))^2: the paper's constant in the bound on the drifted
    Laplacian of R/f, which the combined and weighted Ricci integrals carry."""
    return 4.0 * (1.0 + math.sqrt(n)) ** 2


def _deltaf_reports(geom: GeometryEval, cfg: FDConfig, lap_rf):
    n, R, f = geom.model.n, geom.scalar_R, geom.f
    expansion = (
        (R / f**2) * (2.0 * f - n / 2.0)
        - 2.0 * geom.ricci_norm_sq / f
        - 4.0 * geom.ricci(geom.grad_f, geom.grad_f) / f**2
        + 2.0 * R * geom.grad_f_norm_sq() / f**3
    )
    bound_rhs = (-geom.ricci_norm_sq + _deltaf_rf_constant(n)) / f
    k = int(np.argmin(bound_rhs - expansion))
    ctx = {"model": geom.model.label, "fd_h": cfg.h}
    return [
        AuditReport("deltaf-Rf:expansion", float(np.max(np.abs(lap_rf - expansion))),
                    DELTAF_RF_TOL, 0.0, context=dict(ctx)),
        AuditReport("deltaf-Rf:bound", float(expansion[k]), float(bound_rhs[k]), 0.0,
                    context=dict(ctx)),
    ]


def gradient_f_bound_audit(model: ModelSpec, sample_points):
    """Pointwise |grad f| <= sqrt(f) <= sqrt(n/2) + r.

    On the flat model the first bound is an equality, so the tolerance
    ``GRADIENT_BOUND_TOL`` absorbs float rounding.
    """
    geom = eval_geometry(model, sample_points)
    sqrt_f = np.sqrt(geom.f)
    grad_norm = np.sqrt(geom.grad_f_norm_sq())
    radial = math.sqrt(model.n / 2.0) + radial_distance(model, geom.point)
    a = int(np.argmin(sqrt_f - grad_norm))
    b = int(np.argmin(radial - sqrt_f))
    ctx = {"model": model.label}
    return [
        AuditReport("gradient-f-bound:sqrt-f", float(grad_norm[a]), float(sqrt_f[a]),
                    GRADIENT_BOUND_TOL, context=dict(ctx)),
        AuditReport("gradient-f-bound:radial", float(sqrt_f[b]), float(radial[b]),
                    GRADIENT_BOUND_TOL, context=dict(ctx)),
    ]


def ricci_fd_audit(model: ModelSpec, sample_points, cfg: FDConfig = FDConfig()) -> AuditReport:
    """FD Ricci tensor against its closed form ``models.chart_ricci`` at the
    chart centers of the first ``RICCI_FD_SAMPLES`` samples: lhs is the
    largest entry of their difference."""
    chart = Chart(model, sample_points[:RICCI_FD_SAMPLES])
    origin = np.zeros(chart.shape + (model.n,))
    closed = chart_ricci(model, chart.metric_at(origin))
    worst = float(np.max(np.abs(ricci_fd(chart, origin, cfg) - closed)))
    return AuditReport("ricci-fd-vs-closed", worst, RICCI_FD_TOL, 0.0,
                       context={"model": model.label})


# ---------------------------------------------------------------------------
# Path audits (the displayed inequality chain)
# ---------------------------------------------------------------------------


def second_variation_audit(model: ModelSpec, params: PhiParams, path: PhiPath,
                           tol: float = DEFAULT_TOL,
                           cfg: FDConfig = FDConfig()) -> AuditReport:
    """Stability-style integral inequality along a minimal candidate.

    LHS: integral of zeta^2 * (Rc_f(S,S) - drifted Laplacian of phi), with
    Rc_f(S,S) = |S|^2/2 by the soliton structure and the Laplacian term
    FD-evaluated along the path. RHS: n * integral of slope^2 minus twice
    the slope-weighted boundary coupling with grad f.
    """
    zs, whole, ramps = cutoff(path)
    rc_term = 0.5 * path.speed_sq()
    (lap_phi,) = _drifted_laplacians(model, path.pos, cfg,
                                     lambda q: phi_value(model, params, q))
    lhs, err_lhs = quadrature.integrate_pieces(path.s, zs * zs * (rc_term - lap_phi), whole)
    boundary, err_b = _boundary_coupling(model, path, zs, ramps)
    rhs = model.n * 2.0 - 2.0 * boundary  # the integral of zeta'^2 is 2
    ctx = _path_context(model, params, path)
    ctx["boundary_term"] = boundary
    return AuditReport(
        "second-variation", lhs, rhs, tol, err_lhs + 2.0 * err_b, context=ctx
    )


def combined_integral_audit(model: ModelSpec, params: PhiParams, path: PhiPath,
                            tol: float = DEFAULT_TOL) -> AuditReport:
    """Combined inequality mixing the curvature ratio, the speed, and the
    boundary coupling, all weighted by the cutoff."""
    validate_point(model, path.pos)
    zs, whole, ramps = cutoff(path)
    n = model.n
    f = potential_f(model, path.pos)
    safe = f > 0.0
    inv_f = np.where(safe, 1.0 / np.where(safe, f, 1.0), 0.0)
    i_rc, err_rc = quadrature.integrate_pieces(
        path.s, zs * zs * model.ricci_norm_sq * inv_f, whole)
    i_invf, err_invf = quadrature.integrate_pieces(path.s, zs * zs * inv_f, whole)
    i_speed, err_speed = quadrature.integrate_pieces(path.s, zs * zs * path.speed_sq(), whole)
    boundary, err_b = _boundary_coupling(model, path, zs, ramps)
    coeff = _deltaf_rf_constant(n)
    lhs = 0.5 * params.c * (i_rc - coeff * i_invf) + 0.5 * i_speed
    rhs = 2.0 * n - 2.0 * boundary
    qerr = 0.5 * params.c * (err_rc + coeff * err_invf) + 0.5 * err_speed + 2.0 * err_b
    ctx = _path_context(model, params, path)
    ctx["boundary_term"] = boundary
    return AuditReport("combined-integral", lhs, rhs, tol, qerr, context=ctx)


def boundary_term_audit(model: ModelSpec, params: PhiParams, path: PhiPath,
                        tol: float = DEFAULT_TOL) -> AuditReport:
    """Slope-weighted boundary coupling against its closed-form estimate."""
    zs, _, ramps = cutoff(path)
    boundary, err_b = _boundary_coupling(model, path, zs, ramps)
    lhs = -boundary
    a_bound = _speed_bound(path, params)
    r_x = float(radial_distance(model, path.pos[0]))
    r_y = float(radial_distance(model, path.pos[-1]))
    rhs = 0.5 * a_bound * (math.sqrt(2.0 * model.n) + r_x + r_y + 2.0 * a_bound)
    ctx = _path_context(model, params, path)
    ctx.update({"r_x": r_x, "r_y": r_y})
    return AuditReport("boundary-term", lhs, rhs, tol, err_b, context=ctx)


def radial_envelope_audit(model: ModelSpec, params: PhiParams, path: PhiPath,
                          tol: float = DEFAULT_TOL) -> AuditReport:
    """r(gamma(s)) <= min(r(x) + s*A, r(y) + (s_bar - s)*A) at every interior node.

    The envelope equals r at both endpoints by construction, so they are left
    out of the minimum slack, which could otherwise never be positive.
    """
    a_bound = _speed_bound(path, params)
    radii = radial_distance(model, path.pos)
    r_x = float(radii[0])
    r_y = float(radii[-1])
    envelope = np.minimum(r_x + path.s * a_bound, r_y + (path.s_bar - path.s) * a_bound)
    k = 1 + int(np.argmin(envelope[1:-1] - radii[1:-1]))
    ctx = _path_context(model, params, path)
    ctx.update({"worst_node": k, "worst_s": float(path.s[k])})
    return AuditReport(
        "radial-envelope", float(radii[k]), float(envelope[k]), tol, 0.0, context=ctx
    )


def _weighted_ricci_bound(model: ModelSpec, params: PhiParams, a_bound: float,
                          d_xy: float, r_x: float, r_y: float):
    """The explicit bound on the cutoff-weighted integral of |Rc|^2/f along
    a path from x to y, and f(O), which it divides by."""
    n = model.n
    f_origin = float(potential_f(model, base_point(model)))
    rhs = (
        _deltaf_rf_constant(n) * d_xy / f_origin
        + 4.0 * (math.sqrt(n) + a_bound) ** 2 / params.c
        + 2.0 * a_bound * (r_x + r_y) / params.c
    )
    return rhs, f_origin


def weighted_ricci_integral_audit(model: ModelSpec, params: PhiParams, path: PhiPath,
                                  tol: float = DEFAULT_TOL) -> AuditReport:
    """Cutoff-weighted integral of |Rc|^2/f against its explicit bound."""
    _require_f_origin(model, "weighted curvature integral")
    validate_point(model, path.pos)
    x, y = path.pos[0], path.pos[-1]
    zs, whole, _ = cutoff(path)
    f = potential_f(model, path.pos)
    lhs, qerr = quadrature.integrate_pieces(path.s, zs * zs * model.ricci_norm_sq / f, whole)
    d_xy = float(distance(model, x, y))
    r_x = float(radial_distance(model, x))
    r_y = float(radial_distance(model, y))
    rhs, f_origin = _weighted_ricci_bound(model, params, _speed_bound(path, params),
                                          d_xy, r_x, r_y)
    ctx = _path_context(model, params, path)
    ctx.update({"f_origin": f_origin, "d_xy": d_xy, "r_x": r_x, "r_y": r_y})
    return AuditReport("weighted-ricci-integral", lhs, rhs, tol, qerr, context=ctx)


def _require_f_origin(model: ModelSpec, task: str) -> None:
    if model.degenerate:
        raise DegenerateModelError(f"{model}: {task} needs f(O) > 0 (degenerate: R == 0)")


def check_audit_chain_target(model: ModelSpec, y: np.ndarray) -> None:
    """Refuse an audit-chain target before any solve, with the error the
    chain would raise on its path: r(y) < 2 for the cutoff, then R == 0 for
    the weighted curvature integral. The path from O runs over s_bar = r(y)."""
    quadrature.check_cutoff_length(float(distance(model, base_point(model), y)))
    _require_f_origin(model, "weighted curvature integral")


def run_audit_chain(model: ModelSpec, params: PhiParams, path: PhiPath,
                    tol: float = DEFAULT_TOL,
                    cfg: FDConfig = FDConfig()) -> list:
    """All path audits in the order the estimates build on one another."""
    return [
        second_variation_audit(model, params, path, tol, cfg),
        combined_integral_audit(model, params, path, tol),
        boundary_term_audit(model, params, path, tol),
        weighted_ricci_integral_audit(model, params, path, tol=tol),
        radial_envelope_audit(model, params, path, tol),
    ]


# ---------------------------------------------------------------------------
# Concluding scan: a nearby point of small curvature
# ---------------------------------------------------------------------------


@dataclass
class GoodPointResult:
    z: np.ndarray
    ricci_norm: float
    bound: float
    c_hat: float
    report: AuditReport
    d_zy: float
    r_y: float
    speed_bound: float
    window: tuple
    path: PhiPath


def find_good_point(model: ModelSpec, params: PhiParams, y: np.ndarray,
                    density: int = quadrature.DEFAULT_DENSITY, step: float = MAX_IVP_STEP,
                    tol: float = DEFAULT_TOL) -> GoodPointResult:
    """Scan a base-to-y minimal candidate for a point of controlled curvature.

    Solves the boundary-value problem from the base point O to y, verifies
    the radius precondition r(y) >= max(sqrt(2n), 3A), then scans the grid
    nodes of that path with s in the window [(1 - 1/(2A)) * s_bar, s_bar - 1]
    for the node of least |Rc| (``good_point_on_path`` snaps the window to
    the grid). The returned bound ties the pointwise curvature at that node
    to the explicit constants of the weighted integral estimate; c_hat is
    the smallest constant making the whole chain pass, reported per run.
    ``density`` and ``step`` go to the solve, which keeps its default
    drift tolerance.

    This is the one-cell composition of the scan's three parts:
    ``check_good_point_target`` (the checks that need no path), the shooting
    solve, and ``good_point_on_path`` (the windowed part). The ``scan``
    subcommand runs the same parts with the solves of all its cells in one
    ``solve_bvp_shooting_batch``, which gives each cell bitwise this path.
    No CLI path calls it; perfbench's scan replay and the tests keep it.
    """
    check_good_point_target(model, y)
    path = solve_bvp_shooting(model, params, base_point(model), y, step=step,
                              density=density)
    return good_point_on_path(model, params, y, path, tol=tol)


def check_good_point_target(model: ModelSpec, y: np.ndarray) -> None:
    """Refuse a scan target before any solve: a degenerate model, or r(y) < 2."""
    _require_f_origin(model, "scan")
    quadrature.check_cutoff_length(float(distance(model, base_point(model), y)),
                                   f"{model}: scan needs r(y) >= 2 for the cutoff")


def good_point_on_path(model: ModelSpec, params: PhiParams, y: np.ndarray, path: PhiPath,
                       tol: float = DEFAULT_TOL) -> GoodPointResult:
    """The windowed part of ``find_good_point``, on the shooting path O -> y itself.

    Checks the radius precondition, then snaps the window [w0, s_bar - 1],
    w0 = (1 - 1/(2A)) * s_bar, to the path's audit grid: it starts at the
    first node s[i0] >= w0 whose interval count to s_bar - 1, the first node
    of the last piece, is even, so the window integral is one Simpson piece
    with a coarsened-grid error estimate. A window that is empty, or that
    starts before the uniform piece ending at s_bar - 1, is refused. The
    lower bound and ``bound`` use the snapped length span = s_bar - 1 - s[i0].
    Since s[i0] >= w0, every window node z keeps d(z, y) <= A * (s_bar - s)
    <= r(y)/2; the distance is checked anyway.

    |Rc| is constant on every catalog model, so z is the window's first node.
    """
    origin = base_point(model)
    r_y = float(distance(model, origin, y))
    n = model.n
    a_bound = _speed_bound(path, params)
    required = max(math.sqrt(2.0 * n), 3.0 * a_bound)
    if r_y < required:
        raise PreconditionError(
            f"{model}: scan precondition r(y) >= max(sqrt(2n), 3A) = {required!r} "
            f"fails at r(y) = {r_y!r}"
        )
    s_bar = path.s_bar
    w0 = (1.0 - 1.0 / (2.0 * a_bound)) * s_bar
    i1 = path.pieces[-1][0]  # the cutoff kink s_bar - 1 starts the last piece
    i0 = int(np.searchsorted(path.s, w0))
    i0 += (i1 - i0) % 2
    # the window must lie in the uniform piece that ends at s_bar - 1
    lo = path.pieces[-2][0] if len(path.pieces) > 1 else i1
    if i1 - i0 < 2 or i0 < lo:
        raise PreconditionError(
            f"{model}: scan window [{w0:.4g}, {s_bar - 1.0:.4g}] is empty or starts "
            "before the grid's piece that ends at s_bar - 1"
        )
    validate_point(model, path.pos)
    z = path.pos[i0]
    rc_z = math.sqrt(model.ricci_norm_sq)
    d_zy = float(distance(model, z, y))
    if d_zy > r_y / 2.0 + 1e-9:
        raise PreconditionError(
            f"{model}: scanned point is too far from y (d = {d_zy:.4g} > r(y)/2)"
        )
    window = (float(path.s[i0]), s_bar - 1.0)
    window_integral, window_err = quadrature.integrate_pieces(
        path.s, model.ricci_norm_sq / potential_f(model, path.pos), [(i0, i1, 1.0)]
    )
    span = window[1] - window[0]
    denom = (math.sqrt(n / 2.0) + 1.5 * r_y) ** 2
    lower = span * (rc_z**2) / denom
    # the path starts at the bytes of O: r(x) = 0 and d(x, y) = r(y)
    rhs5, _ = _weighted_ricci_bound(model, params, a_bound, r_y, 0.0, r_y)
    bound = math.sqrt(rhs5 * denom / span)
    c_hat = bound / (r_y + 1.0)
    # report the tighter of the two displayed inequalities
    if window_integral - lower <= rhs5 - window_integral:
        lhs, rhs = lower, window_integral
    else:
        lhs, rhs = window_integral, rhs5
    ctx = _path_context(model, params, path)
    ctx.update(
        {
            "window_integral": window_integral,
            "lower_display": lower,
            "rhs_display": rhs5,
            "c_hat": c_hat,
            "bound": bound,
            "ricci_norm_z": rc_z,
            "d_zy": d_zy,
            "r_y": r_y,
            "window": list(window),
        }
    )
    report = AuditReport("good-point-chain", lhs, rhs, tol, window_err, context=ctx)
    if rc_z > bound + tol:
        raise PreconditionError(
            f"{model}: scanned curvature {rc_z:.4g} exceeds its bound {bound:.4g}"
        )
    return GoodPointResult(
        z=z,
        ricci_norm=rc_z,
        bound=bound,
        c_hat=c_hat,
        report=report,
        d_zy=d_zy,
        r_y=r_y,
        speed_bound=a_bound,
        window=window,
        path=path,
    )
