import numpy as np
import pytest

from conftest import random_tangent
from shrinker_audit import models
from shrinker_audit.numgeom import (
    CHART_RADIUS,
    Chart,
    FDConfig,
    christoffels_fd,
    gradient_fd,
    hessian_fd,
    potential_field,
    ricci_fd,
    scalar_field,
    weighted_laplacian_fd,
)


def laplacian_fd(chart, field, coords):
    """The Laplacian at one chart point: the FD Hessian traced against g^-1."""
    ginv = np.linalg.inv(chart.metric_at(coords))
    return np.einsum("jk,jk->", ginv, hessian_fd(chart, field, coords))


def stereographic_christoffels(coords):
    """Test-only oracle for a single stereographic block:
    Gamma^i_jk = -2 (d_ij y_k + d_ik y_j - d_jk y_i) / (1 + |y|^2)."""
    y = np.asarray(coords, dtype=float)
    k = len(y)
    denom = 1.0 + float(np.dot(y, y))
    gamma = np.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            for l in range(k):
                gamma[i, j, l] = (
                    -2.0
                    * ((i == j) * y[l] + (i == l) * y[j] - (j == l) * y[i])
                    / denom
                )
    return gamma


def test_fd_config_validation():
    FDConfig(h=1e-3)
    with pytest.raises(ValueError):
        FDConfig(h=0.0)
    with pytest.raises(ValueError):
        FDConfig(h=CHART_RADIUS / 5.0)


def test_chart_round_trip(model, rng):
    chart = Chart(model, models.random_point(model, rng))
    coords = 0.3 * rng.uniform(-1.0, 1.0, size=model.n)
    there = chart.to_manifold(coords)
    models.validate_point(model, there)
    assert np.allclose(chart.from_manifold(there), coords, atol=1e-12)


def test_christoffels_euclidean_zero():
    m = models.gaussian(3)
    chart = Chart(m, np.array([0.5, -1.0, 2.0]))
    gamma = christoffels_fd(chart, np.array([0.1, 0.2, -0.1]))
    assert np.max(np.abs(gamma)) <= 1e-10


def test_christoffels_sphere_center_zero(rng):
    m = models.round_sphere(2)
    chart = Chart(m, models.random_point(m, rng))
    gamma = christoffels_fd(chart, np.zeros(2))
    assert np.max(np.abs(gamma)) <= 1e-10


def test_christoffels_sphere_matches_stereographic_formula(rng):
    m = models.round_sphere(2)
    chart = Chart(m, models.random_point(m, rng))
    coords = np.array([0.3, 0.0])
    gamma = christoffels_fd(chart, coords, FDConfig(h=5e-4))
    assert np.max(np.abs(gamma - stereographic_christoffels(coords))) <= 1e-6


def test_christoffels_symmetric_exactly(model, rng):
    chart = Chart(model, models.random_point(model, rng))
    coords = 0.25 * rng.uniform(-1.0, 1.0, size=model.n)
    gamma = christoffels_fd(chart, coords)
    assert np.array_equal(gamma, np.transpose(gamma, (0, 2, 1)))


def test_ricci_gaussian_flat():
    m = models.gaussian(4)
    chart = Chart(m, np.zeros(4))
    rc = ricci_fd(chart, 0.2 * np.ones(4))
    assert np.max(np.abs(rc)) <= 1e-6


def test_ricci_round_sphere_half_metric(rng):
    m = models.round_sphere(2)
    chart = Chart(m, models.random_point(m, rng))
    for _ in range(20):
        coords = 0.35 * rng.uniform(-1.0, 1.0, size=2)
        rc = ricci_fd(chart, coords)
        assert np.max(np.abs(rc - 0.5 * chart.metric_at(coords))) <= 2e-5


def test_ricci_cylinder_block_structure(rng):
    m = models.sphere_cylinder(2, 2)
    chart = Chart(m, models.random_point(m, rng))
    coords = np.array([0.2, -0.15, 0.4, -0.3])
    rc = ricci_fd(chart, coords)
    assert np.max(np.abs(rc - models.chart_ricci(m, chart.metric_at(coords)))) <= 2e-5


def test_ricci_symmetric(model, rng):
    chart = Chart(model, models.random_point(model, rng))
    coords = 0.2 * rng.uniform(-1.0, 1.0, size=model.n)
    rc = ricci_fd(chart, coords)
    assert np.max(np.abs(rc - rc.T)) <= 1e-10


def test_scalar_curvature_from_fd_matches_closed(model, rng):
    chart = Chart(model, models.random_point(model, rng))
    coords = np.zeros(model.n)
    rc = ricci_fd(chart, coords)
    ginv = np.linalg.inv(chart.metric_at(coords))
    scalar = float(np.einsum("ij,ij->", ginv, rc))
    assert scalar == pytest.approx(model.scalar_R, abs=1e-4)
    norm_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, rc, rc))
    assert norm_sq == pytest.approx(model.ricci_norm_sq, abs=1e-4)


def test_gradient_hessian_of_constant_field(model, rng):
    chart = Chart(model, models.random_point(model, rng))
    coords = 0.1 * np.ones(model.n)
    const = scalar_field(chart, lambda pos: np.ones(np.asarray(pos).shape[:-1]))
    assert np.max(np.abs(gradient_fd(chart, const, coords))) <= 1e-10
    assert np.max(np.abs(hessian_fd(chart, const, coords))) <= 1e-8


def test_gaussian_potential_hessian_is_half_identity(rng):
    m = models.gaussian(3)
    chart = Chart(m, rng.normal(size=3))
    coords = np.array([0.3, -0.2, 0.1])
    hess = hessian_fd(chart, potential_field(chart), coords)
    assert np.max(np.abs(hess - 0.5 * np.eye(3))) <= 1e-8
    assert np.max(np.abs(hess - hess.T)) <= 1e-10


def test_round_sphere_constant_potential_laplacian_zero(rng):
    m = models.round_sphere(3)
    chart = Chart(m, models.random_point(m, rng))
    coords = 0.2 * np.ones(3)
    lap = laplacian_fd(chart, potential_field(chart), coords)
    # cross-check: trace identity gives n/2 - R = 0 on this model
    assert lap == pytest.approx(0.0, abs=1e-8)
    assert m.n / 2.0 - m.scalar_R == 0.0


def test_weighted_laplacian_of_f_matches_trace_identity(rng):
    m = models.sphere_cylinder(2, 2)
    p = models.base_point(m)
    p[3] = 2.0
    chart = Chart(m, p)
    f_field = potential_field(chart)
    val = weighted_laplacian_fd(chart, f_field, f_field, np.zeros(4))
    f = float(models.potential_f(m, p))
    assert val == pytest.approx(m.n / 2.0 - f, abs=1e-5)
    assert m.n / 2.0 - f == pytest.approx(0.0, abs=1e-14)


def test_weighted_laplacian_of_constant_curvature(rng):
    m = models.sphere_cylinder(2, 2)
    p = models.random_point(m, rng)
    chart = Chart(m, p)
    r_field = scalar_field(chart, lambda pos: np.full(np.asarray(pos).shape[:-1], m.scalar_R))
    val = weighted_laplacian_fd(chart, r_field, potential_field(chart), np.zeros(4))
    assert val == pytest.approx(0.0, abs=1e-8)
    # identity partner: -2|Rc|^2 + R vanishes on this model
    assert -2.0 * m.ricci_norm_sq + m.scalar_R == 0.0


def test_weighted_laplacian_ratio_field_round_sphere(rng):
    m = models.round_sphere(4)
    chart = Chart(m, models.random_point(m, rng))
    ratio_field = scalar_field(chart, lambda pos: m.scalar_R / models.potential_f(m, pos))
    val = weighted_laplacian_fd(chart, ratio_field, potential_field(chart), np.zeros(4))
    assert val == pytest.approx(0.0, abs=1e-8)
    # four-term expansion specializes to (R/f^2)(2f - n/2) - 2|Rc|^2/f = 0
    R, f, n = m.scalar_R, m.n / 2.0, m.n
    expansion = (R / f**2) * (2.0 * f - n / 2.0) - 2.0 * m.ricci_norm_sq / f
    assert expansion == pytest.approx(0.0, abs=1e-14)


def test_order_two_convergence_of_ricci(model, rng):
    chart = Chart(model, models.random_point(model, rng))
    ratios = []
    for _ in range(10):
        coords = rng.uniform(0.15, 0.35, size=model.n) * rng.choice([-1.0, 1.0], size=model.n)
        closed = models.chart_ricci(model, chart.metric_at(coords))
        err_h = np.max(np.abs(ricci_fd(chart, coords, FDConfig(h=2e-3)) - closed))
        err_h2 = np.max(np.abs(ricci_fd(chart, coords, FDConfig(h=1e-3)) - closed))
        if err_h < 1e-13:  # flat directions: FD is exact, nothing to converge
            assert err_h2 < 1e-13
            continue
        ratios.append(err_h2 / err_h)
    for ratio in ratios:
        assert 1.0 / 8.0 <= ratio <= 1.0 / 2.0


def test_chart_independence_of_ricci(model, rng):
    p = models.random_point(model, rng)
    chart_a = Chart(model, p)
    v = random_tangent(model, p, rng)
    v *= 0.3 / np.linalg.norm(v)
    chart_b = Chart(model, models.exp_map(model, p, v))
    coords_a = np.zeros(model.n)
    coords_b = chart_b.from_manifold(p)
    rc_a = ricci_fd(chart_a, coords_a)
    rc_b = ricci_fd(chart_b, coords_b)
    h = 1e-5
    jac = np.empty((model.n, model.n))
    for j in range(model.n):
        e = np.zeros(model.n)
        e[j] = h
        plus = chart_b.from_manifold(chart_a.to_manifold(coords_a + e))
        minus = chart_b.from_manifold(chart_a.to_manifold(coords_a - e))
        jac[:, j] = (plus - minus) / (2.0 * h)
    pulled = jac.T @ rc_b @ jac
    assert np.max(np.abs(rc_a - pulled)) <= 1e-5


def test_domain_guard(model, rng):
    from shrinker_audit.errors import PreconditionError

    chart = Chart(model, models.random_point(model, rng))
    coords = np.zeros(model.n)
    coords[0] = CHART_RADIUS  # outside radius - 2h
    with pytest.raises(PreconditionError):
        christoffels_fd(chart, coords)


def test_stacked_charts_equal_one_chart_calls_bytewise(model, rng):
    """Drifted Laplacians on a stack of charts, in audit blocks of FD_BLOCK,
    equal one-chart calls bit for bit at every stack size around the block
    edge, for each function of points the audits use."""
    from shrinker_audit.audit import FD_BLOCK, _drifted_laplacians
    from shrinker_audit.phigeo import PhiParams, phi_value

    assert FD_BLOCK == 128
    funcs = {
        "f": lambda pos: models.potential_f(model, pos),
        "R": lambda pos: np.full(pos.shape[:-1], model.scalar_R),
        "R/f": lambda pos: model.scalar_R / models.potential_f(model, pos),
        "phi": lambda pos: phi_value(model, PhiParams(0.3), pos),
    }
    points = np.array([models.random_point(model, rng) for _ in range(300)])
    origin = np.zeros(model.n)
    charts = [Chart(model, p) for p in points]
    reference = np.array([
        [weighted_laplacian_fd(chart, scalar_field(chart, func), potential_field(chart), origin)
         for chart in charts]
        for func in funcs.values()
    ])
    assert isinstance(reference[0, 0].item(), float)
    for count in (1, 127, 128, 129, 300):
        stacked = _drifted_laplacians(model, points[:count], FDConfig(), *funcs.values())
        assert stacked.tobytes() == reference[:, :count].tobytes()
    chart = Chart(model, points[:129])
    for row, func in enumerate(funcs.values()):
        direct = weighted_laplacian_fd(chart, scalar_field(chart, func), potential_field(chart),
                                       origin)
        assert direct.shape == (129,)
        assert direct.tobytes() == reference[row, :129].tobytes()


def test_stacked_ricci_equals_one_chart_calls_bytewise(model, rng):
    points = np.array([models.random_point(model, rng) for _ in range(10)])
    coords = 0.2 * rng.uniform(-1.0, 1.0, size=(10, model.n))
    stacked = ricci_fd(Chart(model, points), coords)
    single = np.array([ricci_fd(Chart(model, p), c) for p, c in zip(points, coords)])
    assert stacked.tobytes() == single.tobytes()
    gamma = christoffels_fd(Chart(model, points), coords)
    assert gamma.tobytes() == np.array(
        [christoffels_fd(Chart(model, p), c) for p, c in zip(points, coords)]).tobytes()


def test_stacked_chart_maps_round_trip(model, rng):
    points = np.array([models.random_point(model, rng) for _ in range(6)])
    chart = Chart(model, points.reshape(2, 3, -1))
    assert chart.shape == (2, 3)
    coords = 0.3 * rng.uniform(-1.0, 1.0, size=(2, 3, 5, model.n))
    there = chart.to_manifold(coords)
    assert there.shape == (2, 3, 5, model.ambient_dim)
    for idx in np.ndindex(2, 3):
        one = Chart(model, points.reshape(2, 3, -1)[idx])
        assert there[idx].tobytes() == one.to_manifold(coords[idx]).tobytes()
    assert np.allclose(chart.from_manifold(there), coords, atol=1e-12)
    # the chart centers sit at the origin of their own charts
    assert np.allclose(chart.to_manifold(np.zeros((2, 3, model.n))), points.reshape(2, 3, -1),
                       atol=1e-14)


def test_non_finite_drifted_laplacian_refused(model, rng):
    from shrinker_audit.errors import PreconditionError

    chart = Chart(model, models.random_point(model, rng))
    # h^2 underflows to zero, so the second differences divide 0 by 0
    with pytest.raises(PreconditionError, match="fd_h"):
        weighted_laplacian_fd(chart, potential_field(chart), potential_field(chart),
                              np.zeros(model.n), FDConfig(h=1e-300))


def test_non_finite_stacked_drifted_laplacian_refused(model, rng):
    from shrinker_audit.audit import _drifted_laplacians
    from shrinker_audit.errors import PreconditionError

    points = np.array([models.random_point(model, rng) for _ in range(3)])
    with pytest.raises(PreconditionError, match="fd_h"):
        _drifted_laplacians(model, points, FDConfig(h=1e-300),
                            lambda pos: models.potential_f(model, pos))
