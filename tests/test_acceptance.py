"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math

import numpy as np

from conftest import random_tangent
from shrinker_audit import models
from shrinker_audit.audit import (
    check_deltaf_Rf,
    find_good_point,
    run_audit_chain,
)
from shrinker_audit.cli import EXIT_CONFIG, EXIT_OK, main
from shrinker_audit.numgeom import (
    Chart,
    FDConfig,
    gradient_fd,
    hessian_fd,
    potential_field,
    ricci_fd,
    scalar_field,
    weighted_laplacian_fd,
)
from shrinker_audit.phigeo import (
    PhiParams,
    certify_minimal_candidate,
    integrate_ivp,
    minimize_action_discrete,
    solve_bvp_shooting,
)

CATALOG = [
    models.gaussian(3),
    models.round_sphere(3),
    models.sphere_cylinder(2, 2),
    models.sphere_product(2, 2),
]

CROSS_SOLVER_CASES = [
    ("cylinder:k=2,m=2", 0.05, 5.0),
    ("cylinder:k=2,m=2", 0.1, 5.0),
    ("cylinder:k=2,m=2", 0.5, 5.0),
    ("cylinder:k=2,m=2", 0.05, 10.0),
    ("cylinder:k=2,m=2", 0.1, 10.0),
    ("cylinder:k=2,m=2", 0.5, 10.0),
    ("cylinder:k=3,m=2", 0.1, 5.0),
    ("cylinder:k=2,m=1", 0.1, 5.0),
    ("sphere:n=2", 0.1, 3.0),
    ("sphere:n=3", 0.1, 3.0),
    ("sphereproduct:k=2,m=2", 0.1, 4.0),
    ("gaussian:n=3", 0.1, 5.0),
]


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def test_criterion_1_identity_suite():
    rng = np.random.default_rng(101)
    cfg = FDConfig()
    worst_closed = 0.0
    worst_fd = 0.0
    for model in CATALOG:
        for _ in range(100):
            p = models.random_point(model, rng)
            geom = models.eval_geometry(model, p)
            # closed forms
            for _ in range(3):
                v = random_tangent(model, p, rng)
                w = random_tangent(model, p, rng)
                resid = geom.ricci(v, w) + geom.hess_f(v, w) - 0.5 * geom.metric(v, w)
                scale = 1.0 + np.linalg.norm(v) * np.linalg.norm(w)
                worst_closed = max(worst_closed, abs(resid) / scale)
            worst_closed = max(
                worst_closed,
                abs(geom.f - geom.grad_f_norm_sq() - geom.scalar_R),
                abs(0.0 - (-2.0 * geom.ricci_norm_sq + geom.scalar_R)),
                abs(geom.laplacian_f - geom.grad_f_norm_sq() - (model.n / 2.0 - geom.f)),
            )
            # finite-difference oracle
            chart = Chart(model, p)
            origin = np.zeros(model.n)
            f_field = potential_field(chart)
            r_field = scalar_field(
                chart, lambda pos, m=model: np.full(np.asarray(pos).shape[:-1], m.scalar_R)
            )
            shrinker_fd = (
                ricci_fd(chart, origin, cfg)
                + hessian_fd(chart, f_field, origin, cfg)
                - 0.5 * chart.metric_at(origin)
            )
            grad_chart = gradient_fd(chart, f_field, origin, cfg)
            g0 = chart.metric_at(origin)
            grad_sq_fd = float(grad_chart @ g0 @ grad_chart)
            lap_r = weighted_laplacian_fd(chart, r_field, f_field, origin, cfg)
            lap_f = weighted_laplacian_fd(chart, f_field, f_field, origin, cfg)
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(shrinker_fd))),
                abs(geom.f - grad_sq_fd - geom.scalar_R),
                abs(lap_r - (-2.0 * geom.ricci_norm_sq + geom.scalar_R)),
                abs(lap_f - (model.n / 2.0 - geom.f)),
            )
    report(
        1,
        "identity suite",
        worst_closed <= 1e-10 and worst_fd <= 1e-4,
        f"closed={worst_closed:.2e} fd={worst_fd:.2e}",
    )


def test_criterion_2_fd_convergence():
    rng = np.random.default_rng(102)
    ok = True
    detail = []
    for model in CATALOG:
        chart = Chart(model, models.random_point(model, rng))
        for _ in range(10):
            coords = rng.uniform(0.15, 0.35, size=model.n) * rng.choice(
                [-1.0, 1.0], size=model.n
            )
            closed = models.chart_ricci(model, chart.metric_at(coords))
            err_h = float(np.max(np.abs(ricci_fd(chart, coords, FDConfig(h=2e-3)) - closed)))
            err_h2 = float(np.max(np.abs(ricci_fd(chart, coords, FDConfig(h=1e-3)) - closed)))
            if err_h < 1e-13:
                ok = ok and err_h2 < 1e-13  # flat: FD exact at both steps
                continue
            factor = err_h / err_h2
            ok = ok and 2.0 <= factor <= 8.0
            detail.append(factor)
    mean = sum(detail) / len(detail)
    report(2, "FD Ricci order-2 convergence", ok, f"mean halving factor {mean:.2f}")


def test_criterion_3_deltaf_ratio_audit():
    rng = np.random.default_rng(103)
    ok = True
    worst_match = 0.0
    worst_margin = math.inf
    for model in CATALOG:
        if model.degenerate:
            continue
        points = [models.random_point(model, rng) for _ in range(50)]
        expansion_report, bound_report = check_deltaf_Rf(model, points)
        assert expansion_report.rhs == 1e-4
        worst_match = max(worst_match, expansion_report.lhs)
        worst_margin = min(worst_margin, bound_report.margin)
        ok = ok and expansion_report.passed and bound_report.margin >= 0.0
    report(
        3,
        "drifted Laplacian of R/f",
        ok,
        f"worst fd-vs-expansion {worst_match:.2e}, min bound margin {worst_margin:.3f}",
    )


def test_criterion_4_conservation():
    m = models.sphere_cylinder(2, 2)
    O = models.base_point(m)
    v_rad = np.zeros(5)
    v_rad[3] = 1.0
    drift_fine = integrate_ivp(m, PhiParams(0.5), O, v_rad, 20.0, step=1e-3).drift
    v_trap = np.zeros(5)
    v_trap[3] = 0.8
    d_h = integrate_ivp(m, PhiParams(0.9), O, v_trap, 20.0, step=1e-2).drift
    d_h2 = integrate_ivp(m, PhiParams(0.9), O, v_trap, 20.0, step=5e-3).drift
    s = models.round_sphere(2)
    vs = np.array([0.0, 1.0, 0.0])
    e_h = integrate_ivp(s, PhiParams(0.1), models.base_point(s), vs, 20.0, step=1e-2).drift
    e_h2 = integrate_ivp(s, PhiParams(0.1), models.base_point(s), vs, 20.0, step=5e-3).drift
    ok = drift_fine <= 1e-6 and d_h / d_h2 >= 8.0 and e_h / e_h2 >= 8.0
    report(
        4,
        "conservation drift",
        ok,
        f"drift(1e-3)={drift_fine:.2e}, halving factors {d_h / d_h2:.1f}, {e_h / e_h2:.1f}",
    )


def _solve_case(case, N=128):
    label, c, ry = case
    model = models.parse_model(label)
    params = PhiParams(c)
    x = models.base_point(model)
    y = models.canonical_target(model, ry)
    shoot = solve_bvp_shooting(model, params, x, y)
    disc = minimize_action_discrete(model, params, x, y, N=N)
    certify_minimal_candidate(model, params, shoot, disc)
    return model, params, shoot, disc


def test_criterion_5_cross_solver():
    ok = True
    worst_j = 0.0
    worst_c = 0.0
    for case in CROSS_SOLVER_CASES:
        _, _, shoot, disc = _solve_case(case)
        dj = abs(shoot.action_J - disc.action_J) / (1.0 + abs(shoot.action_J))
        dc = abs(shoot.C_value - disc.C_value)
        worst_j = max(worst_j, dj)
        worst_c = max(worst_c, dc)
        ok = ok and dj <= 1e-3 and dc <= 1e-3
    report(
        5,
        "cross-solver agreement on 12 cases",
        ok,
        f"worst dJ/(1+J)={worst_j:.2e}, worst dC={worst_c:.2e}",
    )


def test_criterion_6_conserved_bracket():
    ok = True
    details = []
    for c in (0.05, 0.1, 0.5):
        model, params, shoot, disc = _solve_case(("cylinder:k=2,m=2", c, 5.0))
        ok = ok and shoot.is_minimal_candidate
        for path in (shoot, disc):
            ok = ok and (1.0 - c - 1e-3 <= path.C_value <= 1.0 + c + 1e-3)
        sphere = models.round_sphere(3)
        arc = solve_bvp_shooting(
            sphere, PhiParams(c), models.base_point(sphere),
            models.canonical_target(sphere, 3.0),
        )
        err = abs(arc.C_value - (1.0 - c))
        details.append(err)
        ok = ok and err <= 1e-9
    report(
        6,
        "conserved-quantity bracket",
        ok,
        f"sphere C-(1-c) errors {max(details):.1e}",
    )


def test_criterion_7_inequality_chain():
    ok = True
    worst_margin = math.inf
    cells = [("cylinder:k=2,m=2", c, ry) for c in (0.05, 0.1, 0.5) for ry in (5.0, 10.0, 20.0, 40.0)]
    for label, frac in [("sphere:n=2", 0.9), ("sphere:n=3", 0.9), ("sphereproduct:k=2,m=2", 0.9)]:
        model = models.parse_model(label)
        cells.append((label, 0.1, frac * models.diameter(model)))
    for label, c, ry in cells:
        model = models.parse_model(label)
        params = PhiParams(c)
        path = solve_bvp_shooting(
            model, params, models.base_point(model), models.canonical_target(model, ry)
        )
        for rep in run_audit_chain(model, params, path, tol=1e-6):
            good = rep.passed and (rep.conclusive or rep.margin > 0.0)
            ok = ok and good
            worst_margin = min(worst_margin, rep.margin)
    report(
        7,
        "inequality chain over the grid",
        ok,
        f"{len(cells)} cells x 5 audits, min margin {worst_margin:.2e}",
    )


def test_criterion_8_conclusion_scan():
    ok = True
    c_hats = []
    m = models.sphere_cylinder(2, 2)
    for c in (0.05, 0.1, 0.5):
        for ry in (5.0, 10.0, 20.0, 40.0):
            params = PhiParams(c)
            y = models.canonical_target(m, ry)
            result = find_good_point(m, params, y)
            ok = ok and result.d_zy <= ry / 2.0 + 1e-9
            ok = ok and abs(result.ricci_norm - math.sqrt(0.5)) <= 1e-9
            ok = ok and math.isfinite(result.c_hat)
            ok = ok and result.report.passed
            c_hats.append(result.c_hat)
    report(
        8,
        "good-point scan",
        ok,
        f"12 cells, empirical constant sup {max(c_hats):.3f}",
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    args = ["scan", "--model", "cylinder:k=2,m=2", "--c", "0.1", "--ry", "5"]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    identical = (
        (tmp_path / "a" / "scan.json").read_bytes()
        == (tmp_path / "b" / "scan.json").read_bytes()
    )
    bad_model = main(["verify-identities", "--model", "cylinder:k=1,m=2",
                      "--out", str(tmp_path / "c")])
    bad_field = main(["verify-identities", "--model", "sphere:n=3", "--samples", "0",
                      "--out", str(tmp_path / "d")])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample": 3}))
    bad_key = main(["verify-identities", "--config", str(cfg)])
    ok = (
        code_a == EXIT_OK
        and code_b == EXIT_OK
        and identical
        and bad_model == EXIT_CONFIG
        and bad_field == EXIT_CONFIG
        and bad_key == EXIT_CONFIG
    )
    report(9, "CLI reproducibility and diagnostics", ok,
           "byte-identical reports; malformed configs exit 2")
