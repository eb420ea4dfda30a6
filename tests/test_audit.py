import dataclasses
import math

import numpy as np
import pytest

from shrinker_audit import audit, models, quadrature
from shrinker_audit.audit import (
    RICCI_FD_SAMPLES,
    RICCI_FD_TOL,
    AuditReport,
    boundary_term_audit,
    check_deltaf_Rf,
    check_pointwise_identities,
    check_soliton_identities,
    combined_integral_audit,
    find_good_point,
    gradient_f_bound_audit,
    radial_envelope_audit,
    ricci_fd_audit,
    run_audit_chain,
    second_variation_audit,
    weighted_ricci_integral_audit,
)
from shrinker_audit.errors import (
    CutoffUndefinedError,
    DegenerateModelError,
    PreconditionError,
)
from shrinker_audit.phigeo import PhiParams, minimize_action_discrete, solve_bvp_shooting
from shrinker_audit.quadrature import PhiPath, cutoff


def cylinder_path(c=0.1, ry=10.0, model=None):
    m = model or models.sphere_cylinder(2, 2)
    params = PhiParams(c)
    path = solve_bvp_shooting(m, params, models.base_point(m),
                              models.canonical_target(m, ry))
    return m, params, path


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------


def _grid_path(s, pieces=()):
    """A path that only carries a grid: the cutoff reads nothing else."""
    zero = np.zeros((len(s), 1))
    return PhiPath(s, zero, zero, pieces=pieces)


def test_cutoff_shape():
    s, pieces = quadrature.audit_grid(6.0, density=2)
    zeta, whole, ramps = cutoff(_grid_path(s, pieces))
    nodes = np.searchsorted(s, [0.0, 0.5, 1.0, 3.0, 5.0, 5.5, 6.0])
    assert np.allclose(zeta[nodes], [0.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0])
    # slope +1 on [0, 1], 0 on the plateau [1, 5], -1 on [5, 6]: the kink
    # nodes 1 and 5 bound the plateau piece
    i_up, i_down = nodes[2], nodes[4]
    assert whole == [(0, i_up, 1.0), (i_up, i_down, 1.0), (i_down, len(s) - 1, 1.0)]
    assert ramps == [(0, i_up, 1.0), (i_down, len(s) - 1, -1.0)]
    assert zeta[0] == 0.0
    fine, fine_pieces = quadrature.audit_grid(6.0, density=100)
    vals = cutoff(_grid_path(fine, fine_pieces))[0]
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


@pytest.mark.parametrize("pieces", [(), ((0, 4), (4, 7))], ids=["one-piece", "off-kink"])
def test_cutoff_refuses_a_grid_without_kink_nodes(pieces):
    # nodes every 6/7: none at s = 1 or s = 5
    with pytest.raises(ValueError, match="not aligned to the cutoff kinks"):
        cutoff(_grid_path(np.linspace(0.0, 6.0, 8), pieces))


def test_cutoff_requires_long_interval():
    with pytest.raises(CutoffUndefinedError, match=r"\(got 1\.9\)"):
        cutoff(_grid_path(np.linspace(0.0, 1.9, 9)))


def test_cutoff_analytic_integrals_via_quadrature():
    for s_bar in [2.0, 3.0, 10.0, 25.5]:
        s, pieces = quadrature.audit_grid(s_bar, density=8)
        zeta, whole, ramps = cutoff(_grid_path(s, pieces))
        val = quadrature.integrate_pieces(s, zeta**2, whole)[0]
        assert abs(val - (s_bar - 4.0 / 3.0)) <= 1e-10
        slope_sq_total = sum(slope**2 * (s[i1] - s[i0]) for i0, i1, slope in ramps)
        assert abs(slope_sq_total - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# Pointwise audits
# ---------------------------------------------------------------------------


def test_soliton_identities_across_catalog(model, rng):
    points = [models.random_point(model, rng) for _ in range(10)]
    reports = check_soliton_identities(model, points)
    assert all(r.passed for r in reports)
    assert {r.name for r in reports} == {
        "soliton-identity:curvature",
        "soliton-identity:potential",
    }


def _float_bits(value):
    """``value`` with every float replaced by its hex form, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items()}
    return value


def test_one_pass_gives_the_separate_reports(model, rng):
    points = [models.random_point(model, rng) for _ in range(150)]  # two FD blocks
    separate = check_soliton_identities(model, points)
    if not model.degenerate:
        separate += check_deltaf_Rf(model, points)
    one_pass = check_pointwise_identities(model, points)
    assert len(one_pass) == (2 if model.degenerate else 4)
    assert [_float_bits(r.to_dict()) for r in one_pass] == [
        _float_bits(r.to_dict()) for r in separate]


def test_ricci_fd_audit_reads_the_leading_samples(model, rng, monkeypatch):
    points = models.random_points(model, rng, RICCI_FD_SAMPLES + 5)
    report = ricci_fd_audit(model, points)
    assert (report.name, report.rhs) == ("ricci-fd-vs-closed", RICCI_FD_TOL)
    assert report.tolerance == 0.0
    assert report.ok and report.context == {"model": model.label}
    assert report.lhs == ricci_fd_audit(model, points[:RICCI_FD_SAMPLES]).lhs
    # a closed form of Rc = 0 is caught wherever the model is curved
    monkeypatch.setattr(audit, "chart_ricci", lambda m, g: np.zeros_like(g))
    assert ricci_fd_audit(model, points).passed == model.degenerate


def test_deltaf_rf_round_sphere_closed_values(rng):
    m = models.round_sphere(4)
    points = [models.random_point(m, rng) for _ in range(5)]
    expansion_report, bound_report = check_deltaf_Rf(m, points)
    # expansion vanishes (constants cancel); FD must agree with that
    assert expansion_report.lhs <= 1e-6
    assert expansion_report.passed
    # bound right side: -|Rc|^2/f + 4(1+sqrt(n))^2/f = -1/2 + 18 = 17.5
    assert bound_report.rhs == pytest.approx(17.5, abs=1e-12)
    assert bound_report.lhs == pytest.approx(0.0, abs=1e-12)


def test_deltaf_rf_cylinder_expansion_value():
    m = models.sphere_cylinder(2, 2)
    p = models.base_point(m)
    p[3] = 2.0
    expansion_report, bound_report = check_deltaf_Rf(m, [p])
    # hand value at f=2: (1/4)(4-2) - 2(1/2)/2 - 0 + 2*1*1/8 = 1/4, and the
    # FD drifted Laplacian of R/f must reproduce it within 1e-4
    geom = models.eval_geometry(m, p)
    expansion = (
        (geom.scalar_R / geom.f**2) * (2.0 * geom.f - m.n / 2.0)
        - 2.0 * geom.ricci_norm_sq / geom.f
        - 4.0 * geom.ricci(geom.grad_f, geom.grad_f) / geom.f**2
        + 2.0 * geom.scalar_R * geom.grad_f_norm_sq() / geom.f**3
    )
    assert expansion == pytest.approx(0.25, abs=1e-14)
    assert expansion_report.lhs <= 1e-4
    assert expansion_report.passed and bound_report.passed


def test_deltaf_rf_gradient_free_specialization(rng):
    # with grad f = 0 and constant R, f the expansion reduces to
    # 2R/f - nR/(2 f^2) - 2|Rc|^2/f
    m = models.sphere_product(2, 2)
    p = models.random_point(m, rng)
    geom = models.eval_geometry(m, p)
    R, f, n = geom.scalar_R, geom.f, m.n
    expansion = (R / f**2) * (2.0 * f - n / 2.0) - 2.0 * geom.ricci_norm_sq / f
    reduced = 2.0 * R / f - n * R / (2.0 * f**2) - 2.0 * geom.ricci_norm_sq / f
    assert expansion == pytest.approx(reduced, abs=1e-14)


def test_deltaf_rf_refuses_vanishing_potential():
    m = models.gaussian(3)
    with pytest.raises(DegenerateModelError):
        check_deltaf_Rf(m, [np.zeros(3)])


def test_pointwise_audits_refuse_an_empty_sample_set():
    m = models.sphere_cylinder(2, 2)
    for check in (check_soliton_identities, check_deltaf_Rf, gradient_f_bound_audit):
        with pytest.raises(PreconditionError, match="at least one sample point"):
            check(m, [])


def test_gradient_f_bound_examples(rng):
    m = models.sphere_cylinder(2, 2)
    p = models.base_point(m)
    p[3] = 6.0
    reports = gradient_f_bound_audit(m, [p])
    by_name = {r.name: r for r in reports}
    sqrt_f = by_name["gradient-f-bound:sqrt-f"]
    assert sqrt_f.lhs == pytest.approx(3.0, abs=1e-12)
    assert sqrt_f.rhs == pytest.approx(math.sqrt(10.0), rel=1e-12)
    radial = by_name["gradient-f-bound:radial"]
    assert radial.rhs == pytest.approx(math.sqrt(2.0) + 6.0, rel=1e-12)
    assert all(r.passed for r in reports)

    s = models.round_sphere(3)
    for r in gradient_f_bound_audit(s, [models.random_point(s, rng)]):
        assert r.passed
    O = models.base_point(m)
    for r in gradient_f_bound_audit(m, [O]):
        assert r.passed


# ---------------------------------------------------------------------------
# Path audits
# ---------------------------------------------------------------------------


def test_second_variation_round_sphere_closed_form():
    m = models.round_sphere(3)
    params = PhiParams(0.1)
    x = models.base_point(m)
    y = models.canonical_target(m, 3.0)
    path = solve_bvp_shooting(m, params, x, y)
    report = second_variation_audit(m, params, path)
    # phi constant, grad f = 0, |S| = 1: LHS = (s_bar - 4/3)/2, RHS = 2n
    assert report.lhs == pytest.approx(5.0 / 6.0, abs=1e-8)
    assert report.rhs == pytest.approx(6.0, abs=1e-12)
    assert report.margin == pytest.approx(31.0 / 6.0, abs=1e-8)
    assert report.passed and report.conclusive


@pytest.mark.parametrize("s_bar", [2.0, 10.0, 40.0])
def test_second_variation_gaussian_margin_is_2n(s_bar):
    # along a unit-speed radial line from the origin the boundary coupling
    # integrates by parts to exactly half the zeta^2 mass, so margin = 2n
    m = models.gaussian(3)
    params = PhiParams(0.2)
    x = np.zeros(3)
    y = np.zeros(3)
    y[0] = s_bar
    path = solve_bvp_shooting(m, params, x, y)
    report = second_variation_audit(m, params, path)
    assert report.margin == pytest.approx(2.0 * m.n, abs=1e-6)
    assert report.passed


def test_second_variation_cylinder_long_path():
    m, params, path = cylinder_path(c=0.1, ry=10.0)
    report = second_variation_audit(m, params, path)
    assert report.margin >= -1e-6
    assert report.conclusive


def test_second_variation_needs_cutoff_length():
    m = models.round_sphere(3)
    params = PhiParams(0.1)
    path = solve_bvp_shooting(m, params, models.base_point(m),
                              models.canonical_target(m, 1.5))
    with pytest.raises(CutoffUndefinedError):
        second_variation_audit(m, params, path)


def test_ricci_weighted_form_identity_fd_cross_check():
    """Rc_f(S,S) used by the audit equals FD Ricci plus FD Hessian of f."""
    from shrinker_audit.numgeom import Chart, hessian_fd, potential_field, ricci_fd

    m, params, path = cylinder_path(c=0.1, ry=5.0)
    for idx in [1, path.n_nodes // 2, path.n_nodes - 2]:
        p = path.pos[idx]
        s_vec = path.vel[idx]
        chart = Chart(m, p)
        h = 1e-6
        jac = np.empty((m.ambient_dim, m.n))
        for j in range(m.n):
            e = np.zeros(m.n)
            e[j] = h
            jac[:, j] = (chart.to_manifold(e) - chart.to_manifold(-e)) / (2.0 * h)
        v_chart, *_ = np.linalg.lstsq(jac, s_vec, rcond=None)
        coords = np.zeros(m.n)
        rc = ricci_fd(chart, coords)
        hess = hessian_fd(chart, potential_field(chart), coords)
        fd_val = float(v_chart @ (rc + hess) @ v_chart)
        identity_val = 0.5 * float(np.dot(s_vec, s_vec))
        assert fd_val == pytest.approx(identity_val, abs=1e-4)


def test_combined_integral_round_sphere_closed_form():
    m = models.round_sphere(3)
    params = PhiParams(0.1)
    path = solve_bvp_shooting(m, params, models.base_point(m),
                              models.canonical_target(m, 3.0))
    report = combined_integral_audit(m, params, path)
    mass = 3.0 - 4.0 / 3.0
    expected_lhs = 0.05 * mass * (0.75 - 4.0 * (1.0 + math.sqrt(3.0)) ** 2) / 1.5 + 0.5 * mass
    assert report.lhs == pytest.approx(expected_lhs, abs=1e-9)
    assert report.rhs == pytest.approx(6.0, abs=1e-12)
    assert report.passed and report.conclusive


def test_combined_integral_gaussian_still_computed():
    m = models.gaussian(3)
    params = PhiParams(0.1)
    x = np.zeros(3)
    y = np.array([10.0, 0.0, 0.0])
    path = solve_bvp_shooting(m, params, x, y)
    report = combined_integral_audit(m, params, path)
    assert math.isfinite(report.margin)
    assert report.passed


def test_combined_integral_cylinder_long():
    m, params, path = cylinder_path(c=0.1, ry=20.0)
    report = combined_integral_audit(m, params, path)
    assert report.margin >= -1e-6
    assert report.conclusive


def test_boundary_term_audits():
    s = models.round_sphere(3)
    params = PhiParams(0.1)
    path = solve_bvp_shooting(s, params, models.base_point(s),
                              models.canonical_target(s, 3.0))
    report = boundary_term_audit(s, params, path)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs > 0.0

    m, params_c, path_c = cylinder_path(c=0.1, ry=10.0)
    report_c = boundary_term_audit(m, params_c, path_c)
    assert report_c.margin >= -1e-6

    g = models.gaussian(3)
    params_g = PhiParams(0.1)
    path_g = solve_bvp_shooting(g, params_g, np.zeros(3), np.array([10.0, 0.0, 0.0]))
    report_g = boundary_term_audit(g, params_g, path_g)
    assert report_g.margin >= -1e-6


def test_radial_envelope_audits():
    g = models.gaussian(3)
    params = PhiParams(0.1)
    path = solve_bvp_shooting(g, params, np.zeros(3), np.array([8.0, 0.0, 0.0]))
    report = radial_envelope_audit(g, params, path)
    assert report.passed

    m, params_c, path_c = cylinder_path(c=0.1, ry=10.0)
    report_c = radial_envelope_audit(m, params_c, path_c)
    assert report_c.passed
    assert report_c.quadrature_error == 0.0


def test_radial_envelope_margin_is_interior_and_can_fail():
    # the envelope equals r at both endpoints, so only interior slack can fail
    m, params, path = cylinder_path(c=0.1, ry=10.0)
    report = radial_envelope_audit(m, params, path)
    assert 0 < report.context["worst_node"] < path.n_nodes - 1
    assert report.margin > 0.0 and report.passed and report.conclusive
    origin = models.base_point(m)
    pushed = path.pos.copy()
    pushed[1:-1] = models.exp_map(m, origin, 1.001 * models.log_map(m, origin, path.pos[1:-1]))
    report_out = radial_envelope_audit(m, params, dataclasses.replace(path, pos=pushed))
    assert not report_out.passed


def test_weighted_ricci_integral_cylinder_margin():
    m, params, path = cylinder_path(c=0.1, ry=10.0)
    report = weighted_ricci_integral_audit(m, params, path)
    a_bound = report.context["A"]
    expected_rhs = (
        4.0 * 9.0 * 10.0 / 1.0
        + 4.0 * (2.0 + a_bound) ** 2 / 0.1
        + 2.0 * a_bound * 10.0 / 0.1
    )
    assert report.rhs == pytest.approx(expected_rhs, rel=1e-12)
    # integrand bounded by max(|Rc|^2/f) = 1/2 over the cutoff mass
    assert report.lhs <= (path.s_bar - 4.0 / 3.0) * 0.5 + 1e-9
    assert report.margin > 900.0
    assert report.passed and report.conclusive


def test_weighted_ricci_integral_compact_models():
    for m, r in [(models.round_sphere(3), 0.9), (models.sphere_product(2, 2), 0.9)]:
        params = PhiParams(0.1)
        y = models.canonical_target(m, r * models.diameter(m))
        path = solve_bvp_shooting(m, params, models.base_point(m), y)
        report = weighted_ricci_integral_audit(m, params, path)
        assert report.margin >= -1e-6


def test_weighted_ricci_refuses_gaussian():
    g = models.gaussian(3)
    params = PhiParams(0.1)
    path = solve_bvp_shooting(g, params, np.zeros(3), np.array([5.0, 0.0, 0.0]))
    with pytest.raises(DegenerateModelError):
        weighted_ricci_integral_audit(g, params, path)


def test_weighted_ricci_monotone_in_radius():
    margins = []
    for ry in [5.0, 10.0, 20.0, 40.0]:
        m, params, path = cylinder_path(c=0.1, ry=ry)
        report = weighted_ricci_integral_audit(m, params, path)
        assert report.passed
        margins.append(report.margin)
    assert margins == sorted(margins)


def test_audit_chain_runs_in_order():
    m, params, path = cylinder_path(c=0.1, ry=5.0)
    disc = minimize_action_discrete(m, params, path.pos[0], path.pos[-1], N=64)
    from shrinker_audit.phigeo import certify_minimal_candidate

    certify_minimal_candidate(m, params, path, disc)
    reports = run_audit_chain(m, params, path)
    assert [r.name for r in reports] == [
        "second-variation",
        "combined-integral",
        "boundary-term",
        "weighted-ricci-integral",
        "radial-envelope",
    ]
    for r in reports:
        assert r.passed, r.summary_line()
        assert r.conclusive or r.margin > 0.0


def test_audit_requires_aligned_grid():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    disc = minimize_action_discrete(m, params, models.base_point(m),
                                    models.canonical_target(m, 5.0), N=64)
    with pytest.raises(ValueError, match="aligned"):
        boundary_term_audit(m, params, disc)


def test_report_serialization_schema():
    report = AuditReport("demo", 1.0, 2.0, 1e-6, 1e-9, context={"model": "x"})
    data = report.to_dict()
    assert set(data) == {
        "name", "lhs", "rhs", "margin", "pass", "tolerance",
        "quadrature_error", "conclusive", "context",
    }
    assert data["margin"] == 1.0
    assert data["pass"] is True
    assert report.summary_line().startswith("PASS")


@pytest.mark.parametrize(
    "lhs, rhs, quad_err, passed, conclusive, ok",
    [
        (1.0, 2.0, 0.0, True, True, True),  # conclusive pass
        (2.0, 1.0, 0.0, False, True, False),  # conclusive fail
        (1.0, 2.0, 1.0, True, False, True),  # inconclusive, margin > 0
        (1.0, 1.0 - 5e-7, 1e-3, True, False, False),  # inconclusive, -tol <= margin <= 0
        (1.0, 1.0, 1e-3, True, False, False),  # inconclusive, margin exactly 0
    ],
    ids=["conclusive-pass", "conclusive-fail", "inconclusive-positive",
         "inconclusive-within-tol", "inconclusive-zero"],
)
def test_report_ok_truth_table(lhs, rhs, quad_err, passed, conclusive, ok):
    # the verdict: pass, or inconclusive with a strictly positive margin
    report = AuditReport("demo", lhs, rhs, 1e-6, quad_err)
    assert (report.passed, report.conclusive, report.ok) == (passed, conclusive, ok)
    # an inconclusive verdict is marked with "?"
    verdict = {(True, True): "PASS ", (False, True): "FAIL ", (True, False): "PASS?"}
    assert report.summary_line() == (f"{verdict[passed, conclusive]} demo: "
                                     f"margin={report.margin:.6e}")


# ---------------------------------------------------------------------------
# Concluding scan
# ---------------------------------------------------------------------------


def test_find_good_point_cylinder():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    y = models.canonical_target(m, 10.0)
    result = find_good_point(m, params, y)
    assert result.ricci_norm == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert result.d_zy <= 5.0 + 1e-9
    assert result.ricci_norm <= result.c_hat * 11.0 + 1e-9
    assert result.bound == pytest.approx(result.c_hat * 11.0, rel=1e-12)
    assert result.report.passed
    lo, hi = result.window
    assert 1.0 <= lo < hi <= result.path.s_bar - 1.0 + 1e-12


@pytest.fixture(scope="module")
def cylinder_scan():
    m, params, path = cylinder_path(c=0.1, ry=10.0)
    y = models.canonical_target(m, 10.0)
    return m, path, y, find_good_point(m, params, y)


def test_scan_path_is_the_shooting_path(cylinder_scan):
    _, path, _, result = cylinder_scan
    for name in ("s", "pos", "vel"):
        assert getattr(result.path, name).tobytes() == getattr(path, name).tobytes()
    assert result.path.C_value == path.C_value
    assert result.path.drift == path.drift


def test_scan_window_starts_on_an_even_run_of_grid_nodes(cylinder_scan):
    m, path, y, result = cylinder_scan
    w0 = (1.0 - 1.0 / (2.0 * result.speed_bound)) * path.s_bar
    lo, hi = result.window
    assert hi == path.s_bar - 1.0
    (i0,) = np.flatnonzero(path.s == lo)
    (i1,) = np.flatnonzero(path.s == hi)
    assert lo >= w0 > path.s[i0 - 2]  # the first such node
    assert (i1 - i0) % 2 == 0 and i1 - i0 >= 2
    assert result.z.tobytes() == path.pos[i0].tobytes()
    assert result.d_zy == float(models.distance(m, result.z, y)) <= 5.0


def test_scan_bound_uses_the_snapped_window_length(cylinder_scan):
    m, path, _, result = cylinder_scan
    ctx = result.report.context
    lo, hi = result.window
    span = hi - lo
    # snapping only shortens the window
    assert span <= result.r_y / (2.0 * result.speed_bound) - 1.0
    denom = (math.sqrt(m.n / 2.0) + 1.5 * result.r_y) ** 2
    assert result.bound == pytest.approx(math.sqrt(ctx["rhs_display"] * denom / span), rel=1e-12)
    assert result.c_hat == pytest.approx(result.bound / (result.r_y + 1.0), rel=1e-12)
    assert ctx["lower_display"] == pytest.approx(span * result.ricci_norm**2 / denom, rel=1e-12)
    (i0,) = np.flatnonzero(path.s == lo)
    (i1,) = np.flatnonzero(path.s == hi)
    integral, err = quadrature.integrate_pieces(
        path.s, m.ricci_norm_sq / models.potential_f(m, path.pos), [(i0, i1, 1.0)])
    assert (ctx["window_integral"], result.report.quadrature_error) == (integral, err)
    assert err <= 1e-8


def test_scan_window_before_the_piece_ending_at_s_bar_minus_1_is_refused(cylinder_scan,
                                                                       monkeypatch):
    # a speed bound of 0.51 puts w0 = s_bar / 51 before the kink s = 1, so the
    # window would leave the uniform piece that ends at s_bar - 1; no catalog
    # cell gets there
    m, path, y, _ = cylinder_scan
    monkeypatch.setattr(audit, "_speed_bound", lambda path, params: 0.51)
    with pytest.raises(PreconditionError, match="starts before the grid's piece"):
        audit.good_point_on_path(m, PhiParams(0.1), y, path)


def test_find_good_point_round_sphere():
    m = models.round_sphere(2)
    params = PhiParams(0.1)
    y = models.canonical_target(m, 4.0)
    result = find_good_point(m, params, y)
    assert result.report.passed
    assert result.d_zy <= 2.0 + 1e-9
    assert result.ricci_norm == pytest.approx(math.sqrt(m.ricci_norm_sq), abs=1e-12)


def test_find_good_point_sphere_product_reachable():
    m = models.sphere_product(2, 2)
    params = PhiParams(0.1)
    # diameter ~ 6.28 exceeds the required max(sqrt(2n), 3A) ~ 3, so a
    # near-diameter target is scannable
    y = models.canonical_target(m, 4.5)
    result = find_good_point(m, params, y)
    assert result.report.passed
    assert result.d_zy <= 4.5 / 2.0 + 1e-9


def test_find_good_point_precondition_refusals():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    with pytest.raises(PreconditionError, match="precondition"):
        find_good_point(m, params, models.canonical_target(m, 2.5))
    with pytest.raises(DegenerateModelError):
        find_good_point(models.gaussian(3), params,
                        np.array([10.0, 0.0, 0.0]))
    with pytest.raises(PreconditionError, match="diameter"):
        models.canonical_target(models.sphere_product(2, 2), 9.0)


def test_each_fd_block_maps_its_stencil_once(monkeypatch, rng):
    """One stencil mapping and one Christoffel evaluation per FD_BLOCK block
    and call, shared by f and every audited function."""
    from shrinker_audit import numgeom

    model = models.sphere_product(2, 2)
    points = np.array([models.random_point(model, rng) for _ in range(300)])  # 3 blocks
    calls = {"to_manifold": 0, "christoffels": 0}
    to_manifold = numgeom.Chart.to_manifold
    christoffels = numgeom._christoffels

    def counted_to_manifold(self, coords):
        calls["to_manifold"] += 1
        return to_manifold(self, coords)

    def counted_christoffels(*args):
        calls["christoffels"] += 1
        return christoffels(*args)

    monkeypatch.setattr(numgeom.Chart, "to_manifold", counted_to_manifold)
    monkeypatch.setattr(numgeom, "_christoffels", counted_christoffels)
    reports = check_soliton_identities(model, points) + check_deltaf_Rf(model, points)
    assert all(r.passed for r in reports)
    assert calls == {"to_manifold": 6, "christoffels": 6}
    # the one-pass entry point shares each block's stencil among R, f and R/f
    calls.update(to_manifold=0, christoffels=0)
    assert len(check_pointwise_identities(model, points)) == 4
    assert calls == {"to_manifold": 3, "christoffels": 3}
