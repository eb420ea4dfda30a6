import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tangent
from shrinker_audit import models
from shrinker_audit.errors import (
    DegenerateEndpointsError,
    InvalidModelError,
    InvalidPointError,
    PreconditionError,
)


def test_parse_model_round_trip():
    for text in ["gaussian:n=4", "sphere:n=3", "cylinder:k=2,m=2", "sphereproduct:k=2,m=2"]:
        assert models.parse_model(text).label == text


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("cylinder:k=1,m=2", "sphere factor dimension must be >= 2"),
        ("sphere:n=1", "sphere factor dimension must be >= 2"),
        ("cylinder:k=2,m=0", "euclidean factor dimension must be >= 1"),
        ("blob:n=3", "unknown model family"),
        ("cylinder:k=2", "takes parameters"),
        ("cylinder:k=two,m=2", "not an integer"),
        ("gaussian", "not of the form"),
    ],
)
def test_parse_model_rejects(bad, fragment):
    with pytest.raises(InvalidModelError, match=fragment):
        models.parse_model(bad)


def test_sphere_radius_makes_ricci_half_metric():
    # (k-1)/r0^2 == 1/2 is the defining property of the derived radius
    for k in range(2, 7):
        r0 = models.sphere_radius(k)
        assert (k - 1) / r0**2 == pytest.approx(0.5, abs=1e-15)


def test_eval_geometry_round_sphere_values(rng):
    m = models.round_sphere(3)
    p = models.random_point(m, rng)
    geom = models.eval_geometry(m, p)
    assert geom.scalar_R == pytest.approx(1.5, abs=1e-14)
    assert geom.f == pytest.approx(1.5, abs=1e-14)
    assert geom.ricci_norm_sq == pytest.approx(0.75, abs=1e-14)
    assert np.allclose(geom.grad_f, 0.0)


def test_eval_geometry_gaussian_origin():
    m = models.gaussian(4)
    geom = models.eval_geometry(m, np.zeros(4))
    assert geom.scalar_R == 0.0
    assert geom.f == 0.0
    assert np.all(geom.grad_f == 0.0)


def test_eval_geometry_cylinder_at_radius_two():
    m = models.sphere_cylinder(2, 2)
    p = models.base_point(m)
    p[3] = 2.0
    geom = models.eval_geometry(m, p)
    assert geom.f == pytest.approx(2.0, abs=1e-14)
    assert math.sqrt(geom.grad_f_norm_sq()) == pytest.approx(1.0, abs=1e-14)
    assert geom.scalar_R == pytest.approx(1.0, abs=1e-14)
    assert geom.f - geom.grad_f_norm_sq() == pytest.approx(geom.scalar_R, abs=1e-14)


def test_eval_geometry_rejects_off_sphere_point():
    m = models.round_sphere(2)
    p = models.base_point(m)
    p[0] *= 1.0 + 1e-6
    with pytest.raises(InvalidPointError):
        models.eval_geometry(m, p)


def test_stacked_eval_geometry_equals_per_point_calls_bitwise(model, rng):
    # the pointwise audits evaluate one 300-point stack; each row must be
    # the one-point call on that row, bit for bit
    points = models.random_points(model, rng, 300)
    tangents = models.project_tangent(model, points, rng.normal(size=points.shape))

    def values(geom, v):
        g = geom.grad_f
        return (geom.f, g, geom.ricci(g, g), geom.hess_f(v, v), geom.hess_f(g, v),
                geom.grad_f_norm_sq(), geom.metric(v, g))

    stacked = values(models.eval_geometry(model, points), tangents)
    assert stacked[0].shape == (300,) and stacked[1].shape == points.shape
    for i, (p, v) in enumerate(zip(points, tangents)):
        for got, want in zip(stacked, values(models.eval_geometry(model, p), v)):
            row = got[i] if np.ndim(got) else got
            assert np.asarray(row).tobytes() == np.asarray(want).tobytes()


def test_eval_geometry_refuses_an_empty_stack():
    m = models.sphere_cylinder(2, 2)
    with pytest.raises(PreconditionError, match="at least one sample point"):
        models.eval_geometry(m, np.empty((0, m.ambient_dim)))


@pytest.mark.parametrize("shape", [(0, None), (0,), (2, 0, None)], ids=["rows", "flat", "nested"])
def test_validate_point_refuses_an_empty_stack(model, shape):
    # one typed refusal on every family, the flat one and sphere factors alike
    empty = np.empty([model.ambient_dim if k is None else k for k in shape])
    with pytest.raises(PreconditionError, match="at least one sample point") as refused:
        models.validate_point(model, empty)
    assert type(refused.value) is PreconditionError


def test_shrinker_equation_on_random_tangents(model, rng):
    for _ in range(100):
        p = models.random_point(model, rng)
        geom = models.eval_geometry(model, p)
        for _ in range(20):
            v = random_tangent(model, p, rng)
            w = random_tangent(model, p, rng)
            resid = geom.ricci(v, w) + geom.hess_f(v, w) - 0.5 * geom.metric(v, w)
            scale = 1.0 + np.linalg.norm(v) * np.linalg.norm(w)
            assert abs(resid) <= 1e-10 * scale


def test_trace_and_hamiltonian_identities(model, rng):
    for _ in range(100):
        p = models.random_point(model, rng)
        geom = models.eval_geometry(model, p)
        assert abs(geom.laplacian_f - (model.n / 2.0 - geom.scalar_R)) <= 1e-10
        assert abs(geom.f - geom.grad_f_norm_sq() - geom.scalar_R) <= 1e-10


def test_base_point_minimizes_f(model, rng):
    O = models.base_point(model)
    f_O = float(models.potential_f(model, O))
    assert f_O <= model.n / 2.0 + 1e-14
    for _ in range(50):
        assert f_O <= float(models.potential_f(model, models.random_point(model, rng))) + 1e-12


def test_base_point_examples():
    cyl = models.sphere_cylinder(2, 2)
    assert float(models.potential_f(cyl, models.base_point(cyl))) == pytest.approx(1.0)
    m = models.round_sphere(4)
    assert float(models.potential_f(m, models.base_point(m))) == pytest.approx(2.0)
    g = models.gaussian(3)
    assert float(models.potential_f(g, models.base_point(g))) == 0.0


def test_distance_examples():
    s2 = models.round_sphere(2)
    p = models.base_point(s2)
    q = p.copy()
    q[0] = -q[0]
    assert float(models.distance(s2, p, q)) == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)

    cyl = models.sphere_cylinder(2, 2)
    a = models.base_point(cyl)
    b = a.copy()
    b[3] = 3.0
    assert float(models.distance(cyl, a, b)) == pytest.approx(3.0, abs=1e-12)

    c = a.copy()
    c[0] = -c[0]
    c[3] = 3.0
    assert float(models.distance(cyl, a, c)) == pytest.approx(
        math.sqrt(2.0 * math.pi**2 + 9.0), rel=1e-12
    )


def test_cylinder_distance_against_chord_energy_minimization():
    """Independent oracle: minimize the discrete chord energy of a path whose
    sphere nodes are renormalized, so no arccos formula enters. The optimal
    polygon has equal chords, hence length ~ sqrt(energy * segments)."""
    from scipy.optimize import minimize

    cyl = models.sphere_cylinder(2, 2)
    a = models.base_point(cyl)
    b = a.copy()
    b[0] = -b[0]
    b[3] = 3.0
    n_nodes = 65
    r0 = cyl.factors[0].radius

    def energy_and_grad(z):
        mid = z.reshape(n_nodes - 2, 5)
        nodes = np.vstack([a, mid, b])
        norms = np.linalg.norm(nodes[:, :3], axis=-1, keepdims=True)
        nodes[:, :3] *= r0 / norms
        chords = np.diff(nodes, axis=0)
        value = float(np.sum(chords * chords))
        grad_nodes = np.zeros_like(nodes)
        grad_nodes[:-1] -= 2.0 * chords
        grad_nodes[1:] += 2.0 * chords
        grad = grad_nodes[1:-1].copy()
        z_sph = mid[:, :3]
        z_norm = np.linalg.norm(z_sph, axis=-1, keepdims=True)
        z_hat = z_sph / z_norm
        gs = grad[:, :3]
        grad[:, :3] = (r0 / z_norm) * (gs - z_hat * np.sum(z_hat * gs, axis=-1, keepdims=True))
        return value, grad.ravel()

    t = np.linspace(0.0, 1.0, n_nodes)[1:-1, None]
    init = (a + t * (b - a)).copy()
    # keep sphere blocks away from zero before renormalization
    init[:, 1] += 0.3
    res = minimize(energy_and_grad, init.ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-12})
    oracle_length = math.sqrt(res.fun * (n_nodes - 1))
    expected = math.sqrt(2.0 * math.pi**2 + 9.0)
    # chordal discretization underestimates arc length by O(1/n^2)
    assert oracle_length == pytest.approx(expected, abs=5e-3)
    assert float(models.distance(cyl, a, b)) == pytest.approx(expected, rel=1e-12)


def test_distance_symmetry_and_triangle(model, rng):
    for _ in range(250):
        p = models.random_point(model, rng)
        q = models.random_point(model, rng)
        r = models.random_point(model, rng)
        dpq = float(models.distance(model, p, q))
        assert dpq == pytest.approx(float(models.distance(model, q, p)), abs=1e-12)
        slack = float(models.distance(model, p, r)) + float(models.distance(model, r, q)) - dpq
        assert slack >= -1e-9


def test_radial_distance_examples():
    cyl = models.sphere_cylinder(2, 2)
    p = models.base_point(cyl)
    p[3] = 3.0
    assert float(models.radial_distance(cyl, p)) == pytest.approx(3.0, abs=1e-12)
    s3 = models.round_sphere(3)
    q = models.base_point(s3)
    q[0] = -q[0]
    assert float(models.radial_distance(s3, q)) == pytest.approx(2.0 * math.pi, rel=1e-12)
    for m in [cyl, s3]:
        assert float(models.radial_distance(m, models.base_point(m))) == 0.0


def test_background_geodesic_gaussian_straight():
    m = models.gaussian(2)
    p = np.zeros(2)
    q = np.array([4.0, 0.0])
    path = models.background_geodesic(m, p, q, 4)
    assert np.allclose(path.pos[:, 0], [0, 1, 2, 3, 4])
    assert np.allclose(path.speed_sq(), 1.0, atol=1e-14)
    assert path.s_bar == pytest.approx(4.0)


def test_background_geodesic_quarter_circle():
    m = models.round_sphere(2)
    p = models.base_point(m)
    q = np.array([0.0, math.sqrt(2.0), 0.0])
    path = models.background_geodesic(m, p, q, 32)
    assert path.s_bar == pytest.approx(math.pi / 2.0 * math.sqrt(2.0), rel=1e-12)
    assert np.allclose(path.speed_sq(), 1.0, atol=1e-12)
    assert float(models.distance(m, path.pos[-1], q)) < 1e-12


def test_background_geodesic_endpoint_and_length_by_quadrature(rng):
    from shrinker_audit import quadrature

    m = models.sphere_cylinder(2, 1)
    p = models.random_point(m, rng)
    q = models.random_point(m, rng)
    path = models.background_geodesic(m, p, q, 128)
    assert float(models.distance(m, path.pos[-1], q)) < 1e-10
    pieces = [(i0, i1, 1.0) for i0, i1 in path.pieces]
    length = quadrature.integrate_pieces(path.s, np.sqrt(path.speed_sq()), pieces)[0]
    assert length == pytest.approx(path.s_bar, abs=1e-10)


def test_background_geodesic_antipodal_flagged():
    m = models.round_sphere(2)
    p = models.base_point(m)
    q = -p
    path = models.background_geodesic(m, p, q, 16)
    assert any(flag.startswith("antipodal-tiebreak") for flag in path.flags)
    assert float(models.distance(m, path.pos[-1], q)) < 1e-9
    assert path.s_bar == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("d", [1e-3, 1e-5, 1e-7])
def test_background_geodesic_resolves_small_sphere_angles(d):
    # arccos resolves small angles only to ~1e-8: at d = 1e-7 a path built
    # on it misses q by 1.2e-9 and drifts in speed by 0.023
    m = models.round_sphere(3)
    q = models.canonical_target(m, d)
    path = models.background_geodesic(m, models.base_point(m), q, 64)
    assert path.drift <= 1e-12
    assert np.max(np.abs(path.pos[-1] - q)) <= 1e-14


def test_background_geodesic_rejects_equal_endpoints():
    m = models.gaussian(2)
    p = np.array([1.0, 2.0])
    with pytest.raises(DegenerateEndpointsError):
        models.background_geodesic(m, p, p.copy(), 8)


def test_exp_log_inverse(model, rng):
    for _ in range(50):
        p = models.random_point(model, rng)
        v = 0.5 * random_tangent(model, p, rng)
        q = models.exp_map(model, p, v)
        back = models.log_map(model, p, q)
        assert np.allclose(back, v, atol=1e-9)
        assert float(models.distance(model, p, q)) == pytest.approx(
            float(np.linalg.norm(v)), abs=1e-9
        )


def test_tangent_basis_orthonormal(model, rng):
    p = models.random_point(model, rng)
    basis = models.tangent_basis(model, p)
    assert basis.shape == (model.n, model.ambient_dim)
    assert np.allclose(basis @ basis.T, np.eye(model.n), atol=1e-12)
    for row in basis:
        models.validate_tangent(model, p, row)


def test_tangent_basis_stacks_per_point_bases(model, rng):
    points = models.random_points(model, rng, 12)
    stacked = models.tangent_basis(model, points.reshape(3, 4, -1))
    assert stacked.shape == (3, 4, model.n, model.ambient_dim)
    per_point = np.array([models.tangent_basis(model, p) for p in points])
    assert stacked.tobytes() == per_point.tobytes()
    assert models.tangent_basis(model, points[:0]).shape == (0, model.n, model.ambient_dim)


def test_tangent_basis_at_the_base_point_is_the_axes(model):
    # every ambient axis but each sphere factor's first, bit for bit
    firsts = {f.start for f in model.sphere_factors}
    axes = [i for i in range(model.ambient_dim) if i not in firsts]
    basis = models.tangent_basis(model, models.base_point(model))
    assert basis.tobytes() == np.eye(model.ambient_dim)[axes].tobytes()


def test_sphere_frame_orthogonal_when_gram_schmidt_cancels():
    # u_hat within 1e-5 of -e_1, where one Gram-Schmidt pass leaves a frame
    # row 3.5e-12 away from orthogonal to u_hat
    m = models.parse_model("sphereproduct:k=2,m=2")
    p = models.random_point(m, np.random.default_rng(812629830))
    for f in m.sphere_factors:
        frame = models.sphere_frame(f, p)
        assert np.max(np.abs(frame @ (p[f.start : f.stop] / f.radius))) <= 1e-15
        assert np.max(np.abs(frame @ frame.T - np.eye(f.dim))) <= 1e-15


def per_point_frame(f, pos):
    """Test-only reference: the Householder frame of one point, rows 1..k of
    I - 2 w w^T / |w|^2 with |w|^2 from 1-D np.dot, the arithmetic the
    stacked frame builder must reproduce."""
    w = pos[f.start : f.stop] / f.radius
    w[0] += -1.0 if w[0] < 0.0 else 1.0
    scale = 2.0 / np.dot(w, w)
    return np.array([np.eye(f.ambient_dim)[i] - (w[i] * scale) * w
                     for i in range(1, f.ambient_dim)])


@pytest.mark.parametrize("label", ["sphere:n=3", "cylinder:k=2,m=2", "sphereproduct:k=2,m=2"])
def test_stacked_sphere_frame_equals_per_point_gram_schmidt(label, rng):
    model = models.parse_model(label)
    points = [models.random_point(model, rng) for _ in range(2000)]
    # axis-aligned and nearly axis-aligned positions, both signs: u_0 at and
    # near 0 and +-1, where the reflection's sign switches
    for f in model.sphere_factors:
        for i in range(f.ambient_dim):
            for sign in (1.0, -1.0):
                for eps in (0.0, 1e-9, 1e-5):
                    block = np.zeros(f.ambient_dim)
                    block[i] = sign
                    block += eps * rng.normal(size=f.ambient_dim)
                    p = models.random_point(model, rng)
                    p[f.start : f.stop] = f.radius * block / np.linalg.norm(block)
                    points.append(p)
    points = np.array(points)
    for f in model.sphere_factors:
        stacked = models.sphere_frame(f, points)
        assert stacked.shape == (len(points), f.dim, f.ambient_dim)
        for p, frame in zip(points, stacked):
            assert frame.tobytes() == per_point_frame(f, p).tobytes()
        grid = models.sphere_frame(f, points[:6].reshape(2, 3, -1))
        assert grid.tobytes() == stacked[:6].tobytes()


@pytest.mark.parametrize(
    "label",
    ["gaussian:n=3", "sphere:n=3", "cylinder:k=2,m=2", "cylinder:k=3,m=1",
     "sphereproduct:k=2,m=2"],
)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.floats(0.0, 3.5))
def test_sphere_frame_and_maps_properties(label, seed, length):
    model = models.parse_model(label)
    rng = np.random.default_rng(seed)
    p = models.random_point(model, rng)
    for f in model.sphere_factors:
        frame = models.sphere_frame(f, p)
        assert frame.shape == (f.dim, f.ambient_dim)
        assert np.max(np.abs(frame @ frame.T - np.eye(f.dim))) <= 1e-15
        assert np.max(np.abs(frame @ (p[f.start : f.stop] / f.radius))) <= 1e-15
    # |v| <= 3.5 keeps every sphere angle below pi (radius >= sqrt(2))
    v = random_tangent(model, p, rng)
    v *= length / np.linalg.norm(v)
    q = models.exp_map(model, p, v)
    assert np.allclose(models.log_map(model, p, q), v, atol=1e-9)
    assert float(models.distance(model, p, q)) == pytest.approx(length, abs=1e-9)
    r = models.random_point(model, rng)
    for a, b in [(p, q), (p, r), (q, r)]:
        assert float(models.distance(model, a, b)) == pytest.approx(
            float(models.distance(model, b, a)), abs=1e-12
        )


def test_canonical_target_radius(model):
    r = 2.0 if model.is_compact else 10.0
    y = models.canonical_target(model, r)
    assert float(models.radial_distance(model, y)) == pytest.approx(r, rel=1e-12)


def test_canonical_target_beyond_diameter_refused():
    m = models.sphere_product(2, 2)
    with pytest.raises(PreconditionError, match="diameter"):
        models.canonical_target(m, models.diameter(m) + 0.5)


def test_point_validation_tolerances(model, rng):
    p = models.random_point(model, rng)
    for f in model.sphere_factors:
        assert abs(np.linalg.norm(p[f.start : f.stop]) - f.radius) < 1e-12
    v = random_tangent(model, p, rng)
    models.validate_tangent(model, p, v)
    if model.sphere_factors:
        bad = v.copy()
        f = model.sphere_factors[0]
        bad[f.start : f.stop] += 1e-3 * p[f.start : f.stop] / f.radius
        with pytest.raises(InvalidPointError):
            models.validate_tangent(model, p, bad)


def per_factor_draw(model, rng, euclid_scale=2.0):
    """Test-only reference: one point drawn factor by factor, each sphere
    block scaled by its 1-D norm."""
    pos = np.empty(model.ambient_dim)
    for f in model.factors:
        block = rng.normal(size=f.ambient_dim)
        if f.kind == "sphere":
            block *= f.radius / np.linalg.norm(block)
        else:
            block *= euclid_scale
        pos[f.start : f.stop] = block
    return models.project_point(model, pos)


DRAW_MODELS = ["gaussian:n=3", "sphere:n=3", "cylinder:k=2,m=2", "cylinder:k=3,m=1",
               "sphereproduct:k=2,m=2"]


@pytest.mark.parametrize("count", [1, 2000])
@pytest.mark.parametrize("seed", [7, 12345])
@pytest.mark.parametrize("label", DRAW_MODELS)
def test_batched_draw_equals_per_point_draws_bytewise(label, seed, count):
    model = models.parse_model(label)
    batch = models.random_points(model, np.random.default_rng(seed), count)
    assert batch.shape == (count, model.ambient_dim)
    rng = np.random.default_rng(seed)
    loop = np.array([models.random_point(model, rng) for _ in range(count)])
    rng = np.random.default_rng(seed)
    reference = np.array([per_factor_draw(model, rng) for _ in range(count)])
    assert batch.tobytes() == loop.tobytes() == reference.tobytes()
