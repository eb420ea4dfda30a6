import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from conftest import random_tangent
from shrinker_audit import audit, models, phigeo, quadrature
from shrinker_audit.errors import (
    ConfigError,
    DegenerateEndpointsError,
    DriftExceededError,
    IllConditionedShootingError,
    InvalidPointError,
    PreconditionError,
    ShootingConvergenceError,
)
from shrinker_audit.numgeom import Chart, gradient_fd, scalar_field
from shrinker_audit.phigeo import (
    PhiParams,
    action,
    certify_minimal_candidate,
    conserved_quantity,
    integrate_ivp,
    minimize_action_discrete,
    path_csv_lines,
    path_json_dict,
    grad_phi,
    phi_value,
    solve_bvp_shooting,
    solve_bvp_shooting_batch,
)


def test_phi_params_requires_positive_c():
    PhiParams(0.5)
    with pytest.raises(ConfigError):
        PhiParams(0.0)
    with pytest.raises(ConfigError):
        PhiParams(-0.1)


def test_phi_round_sphere_constant(rng):
    m = models.round_sphere(3)
    p = models.random_point(m, rng)
    params = PhiParams(0.1)
    phi, grad = float(phi_value(m, params, p)), grad_phi(m, params, p)
    assert phi == pytest.approx(0.05, abs=1e-14)
    assert np.max(np.abs(grad)) == 0.0


def test_phi_cylinder_value_and_fd_gradient():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    p = models.base_point(m)
    p[3] = 2.0
    phi, grad = float(phi_value(m, params, p)), grad_phi(m, params, p)
    assert phi == pytest.approx(0.025, abs=1e-14)
    # cross-check the closed-form gradient against the FD chart gradient,
    # pushed to the ambient representation through the chart Jacobian
    chart = Chart(m, p)
    field = scalar_field(chart, lambda pos: phi_value(m, params, pos))
    chart_grad = gradient_fd(chart, field, np.zeros(m.n))
    h = 1e-6
    jac = np.empty((m.ambient_dim, m.n))
    for j in range(m.n):
        e = np.zeros(m.n)
        e[j] = h
        jac[:, j] = (chart.to_manifold(e) - chart.to_manifold(-e)) / (2.0 * h)
    ambient = jac @ chart_grad
    assert np.max(np.abs(ambient - grad)) <= 1e-6


def test_phi_gaussian_identically_zero(rng):
    m = models.gaussian(3)
    params = PhiParams(0.3)
    phi, grad = float(phi_value(m, params, np.zeros(3))), grad_phi(m, params, np.zeros(3))
    assert phi == 0.0
    assert np.all(grad == 0.0)


def test_integrate_gaussian_straight_line():
    m = models.gaussian(2)
    path = integrate_ivp(m, PhiParams(0.1), np.zeros(2), np.array([1.0, 0.0]), 5.0, step=1e-2)
    assert np.allclose(path.pos[-1], [5.0, 0.0], atol=1e-12)
    assert path.drift <= 1e-13
    assert path.C_value == pytest.approx(1.0, abs=1e-13)


def test_integrate_round_sphere_reaches_antipode():
    m = models.round_sphere(2)
    p0 = models.base_point(m)
    v0 = np.array([0.0, 1.0, 0.0])
    s_bar = math.pi * math.sqrt(2.0)
    path = integrate_ivp(m, PhiParams(0.1), p0, v0, s_bar, step=1e-2)
    assert float(models.distance(m, path.pos[-1], -p0)) <= 1e-8
    assert path.drift <= 1e-10


def test_integrate_cylinder_matches_scalar_ode_oracle():
    """Radial symmetry reduces the motion to rho'' = -(c/(4 f^2)) rho with
    f = rho^2/4 + 1; a high-accuracy independent integrator is the oracle."""
    from scipy.integrate import solve_ivp

    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    p0 = models.base_point(m)
    v0 = np.zeros(5)
    v0[3] = 1.0
    path = integrate_ivp(m, params, p0, v0, 10.0, step=1e-3)

    def rhs(_, state):
        rho, vel = state
        f = rho * rho / 4.0 + 1.0
        return [vel, -(params.c / (4.0 * f * f)) * rho]

    oracle = solve_ivp(rhs, [0.0, 10.0], [0.0, 1.0], t_eval=path.s,
                       rtol=1e-12, atol=1e-14, method="DOP853")
    assert np.max(np.abs(path.pos[:, 3] - oracle.y[0])) <= 1e-7
    assert np.max(np.abs(path.pos[:, 4])) == 0.0  # transverse direction stays put
    assert np.max(np.abs(path.pos[:, :3] - p0[:3])) == 0.0  # sphere factor fixed


def test_integrate_rejects_large_step():
    m = models.gaussian(2)
    with pytest.raises(ValueError):
        integrate_ivp(m, PhiParams(0.1), np.zeros(2), np.array([1.0, 0.0]), 1.0, step=0.05)


def test_integrate_drift_abort_diagnostic():
    m = models.sphere_cylinder(2, 2)
    p0 = models.base_point(m)
    v0 = np.zeros(5)
    v0[3] = 0.8
    with pytest.raises(DriftExceededError, match="too large"):
        integrate_ivp(m, PhiParams(0.9), p0, v0, 20.0, step=1e-2, drift_tol=1e-15)


def test_overflowing_march_is_refused_without_a_warning():
    # a speed of 1e200 overflows |S|^2 at once; the march stays silent, and
    # a record with a non-finite energy is refused before its median is taken
    m = models.sphere_cylinder(2, 2)
    v0 = np.zeros(5)
    v0[3] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DriftExceededError, match="energy inf is not finite"):
            integrate_ivp(m, PhiParams(0.1), models.base_point(m), v0, 1.0)


@pytest.mark.parametrize("index, error, match", [
    # the sphere block's march turns NaN, which the record refuses
    (1, DriftExceededError, "energy nan is not finite"),
    (2, DriftExceededError, "energy nan is not finite"),
    # normal to the sphere at the base point: not a tangent, however large
    (0, InvalidPointError, "not orthogonal"),
])
def test_huge_sphere_velocity_is_checked_without_a_warning(index, error, match):
    # |v|^2 overflows at 1e200, but the tangent check measures |v| by hypot
    # and scales v before its product with the position
    m = models.sphere_cylinder(2, 2)
    v0 = np.zeros(5)
    v0[index] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=match):
            integrate_ivp(m, PhiParams(0.1), models.base_point(m), v0, 1.0)


def test_conservation_drift_under_tolerance_at_fine_step():
    m = models.sphere_cylinder(2, 2)
    p0 = models.base_point(m)
    v0 = np.zeros(5)
    v0[3] = 1.0
    path = integrate_ivp(m, PhiParams(0.5), p0, v0, 20.0, step=1e-3)
    assert path.drift <= 1e-6


def test_conservation_fourth_order_drift_reduction():
    # truncation-dominated regime: a trapped radial oscillation (strong
    # potential) and a great circle, both integrated at h and h/2
    m = models.sphere_cylinder(2, 2)
    p0 = models.base_point(m)
    v0 = np.zeros(5)
    v0[3] = 0.8
    drift_h = integrate_ivp(m, PhiParams(0.9), p0, v0, 20.0, step=1e-2).drift
    drift_h2 = integrate_ivp(m, PhiParams(0.9), p0, v0, 20.0, step=5e-3).drift
    assert drift_h / drift_h2 >= 8.0

    s = models.round_sphere(2)
    ps = models.base_point(s)
    vs = np.array([0.0, 1.0, 0.0])
    drift_h = integrate_ivp(s, PhiParams(0.1), ps, vs, 20.0, step=1e-2).drift
    drift_h2 = integrate_ivp(s, PhiParams(0.1), ps, vs, 20.0, step=5e-3).drift
    assert drift_h / drift_h2 >= 8.0


def _coordinate_dot(x, y):
    """x[0] * y[0] + x[1] * y[1] + ..., summed in coordinate order."""
    total = x[0] * y[0]
    for x_i, y_i in zip(x[1:], y[1:]):
        total += x_i * y_i
    return total


def _reference_rk4_step(model, params, pos, vel, h):
    """One RK4 step of a single 1-D state, factor by factor, each dot product
    summed in coordinate order: the scalar arithmetic the batched kernel must
    reproduce bit for bit."""
    cR = params.c * model.scalar_R

    def accel(p, v):
        acc = np.zeros_like(p)
        if cR != 0.0:
            f = sum(f.dim / 2.0 for f in model.sphere_factors)
            for fac in model.euclid_factors:
                x = p[fac.start:fac.stop]
                f += _coordinate_dot(x, x) / 4.0
            for fac in model.euclid_factors:
                acc[fac.start:fac.stop] = -cR / (4.0 * f * f) * p[fac.start:fac.stop]
        for fac in model.sphere_factors:
            w = v[fac.start:fac.stop]
            acc[fac.start:fac.stop] = (-(_coordinate_dot(w, w) / fac.radius**2)
                                       * p[fac.start:fac.stop])
        return acc

    a1 = accel(pos, vel)
    p2, v2 = pos + (0.5 * h) * vel, vel + (0.5 * h) * a1
    a2 = accel(p2, v2)
    p3, v3 = pos + (0.5 * h) * v2, vel + (0.5 * h) * a2
    a3 = accel(p3, v3)
    p4, v4 = pos + h * v3, vel + h * a3
    a4 = accel(p4, v4)
    pos = pos + (h / 6.0) * (vel + 2.0 * v2 + 2.0 * v3 + v4)
    vel = vel + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    for fac in model.sphere_factors:
        u = pos[fac.start:fac.stop]
        u *= math.sqrt(fac.radius**2) / math.sqrt(_coordinate_dot(u, u))
        w = vel[fac.start:fac.stop]
        w -= (_coordinate_dot(u, w) / fac.radius**2) * u
    return pos, vel


def _random_states(model, rng, k):
    pos = np.array([models.random_point(model, rng) for _ in range(k)])
    vel = np.array([models.project_tangent(model, p, rng.normal(size=model.ambient_dim))
                    for p in pos])
    return pos, vel


def test_rk4_step_matches_scalar_reference(model, rng):
    params = PhiParams(0.3)
    dyn = phigeo._Dynamics(model)
    pos, vel = _random_states(model, rng, 4)
    ref = [(p.copy(), v.copy()) for p, v in zip(pos, vel)]
    # component-major: one column per state, step size and cR as rows
    state = np.hstack([pos, vel]).T.copy()
    h = np.full((1, 4), 1e-2)
    cR = np.full((1, 4), params.c * model.scalar_R)
    for _ in range(50):
        state = dyn.rk4_step(state, h, cR)
        ref = [_reference_rk4_step(model, params, p, v, 1e-2) for p, v in ref]
    expected = np.array([np.concatenate(pv) for pv in ref])
    assert state.T.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", ["1", "3", "n+1", "blocks", "mixed-steps"])
def test_march_rows_match_single_row_marches(model, rng, rows):
    dyn = phigeo._Dynamics(model)
    nodes = [0.0, 0.4, 0.45, 1.3]
    if rows == "blocks":
        # different c, nodes and row counts, shortest schedule first so that
        # the march has to reorder them
        specs = [(0.9, [0.0, 0.2, 0.35], 2, 1e-2), (0.1, nodes, 3, 1e-2),
                 (0.5, [0.0, 0.5, 0.8], model.n + 1, 1e-2), (0.3, nodes, 1, 1e-2)]
    elif rows == "mixed-steps":
        # a shooting predictor's one gap [0, s_bar] at the coarse step
        # beside fine blocks, one of them on the same s_bar
        coarse = phigeo.PREDICTOR_STEP_FACTOR * 1e-2
        specs = [(0.3, [0.0, 1.3], model.n + 1, coarse), (0.3, nodes, model.n + 1, 1e-2),
                 (0.5, [0.0, 0.5, 0.8], 2, 1e-2), (0.9, [0.0, 0.35], 3, coarse)]
    else:
        specs = [(0.3, nodes, model.n + 1 if rows == "n+1" else int(rows), 1e-2)]
    blocks = []
    for c, s_nodes, k, step in specs:
        pos, vel = _random_states(model, rng, k)
        gaps = np.diff(s_nodes)
        blocks.append((pos, vel, c * model.scalar_R, gaps, phigeo._substep_counts(gaps, step)))

    marched = phigeo._march(dyn, blocks)
    assert len(marched) == len(blocks)
    for (p_end, v_end, record), (pos, vel, cR, gaps, n_sub) in zip(marched, blocks):
        assert record.pos.shape == record.vel.shape == (len(gaps) + 1, model.ambient_dim)
        assert record.energies.shape == (len(gaps) + 1,)
        for i in range(len(pos)):
            ((p_i, v_i, record_i),) = phigeo._march(
                dyn, [(pos[i:i + 1], vel[i:i + 1], cR, gaps, n_sub)])
            assert p_end[i].tobytes() == p_i[0].tobytes()
            assert v_end[i].tobytes() == v_i[0].tobytes()
            if i == 0:  # row 0 is the recorded one, whatever the batch
                assert (record.e_min, record.e_max) == (record_i.e_min, record_i.e_max)
                for name in ("pos", "vel", "energies"):
                    assert getattr(record, name).tobytes() == getattr(record_i, name).tobytes()


def _random_endpoints(label, pair):
    m = models.parse_model(label)
    rng = np.random.default_rng(5)
    points = [models.random_point(m, rng) for _ in range(2 * (pair + 1))]
    return m, points[-2], points[-1]


@pytest.mark.parametrize(
    "label, pair",
    [pytest.param(label, None, id=label)
     for label in ("cylinder:k=2,m=2", "sphereproduct:k=2,m=2")]
    + [pytest.param(label, pair, id=f"{label}-random{pair}")
       for label in ("sphere:n=3", "sphereproduct:k=2,m=2") for pair in range(8)],
)
def test_shooting_path_lands_where_the_converged_trial_landed(label, pair):
    if pair is None:
        m = models.parse_model(label)
        x = models.base_point(m)
        y = models.canonical_target(m, 2.5)
    else:
        m, x, y = _random_endpoints(label, pair)
    path = solve_bvp_shooting(m, PhiParams(0.1), x, y)
    assert path.pos[0].tobytes() == x.tobytes()
    miss = models.tangent_basis(m, y) @ models.log_map(m, y, path.pos[-1])
    assert path.minimal_evidence["shooting"]["final_miss"] == float(np.linalg.norm(miss))


def test_shooting_counts_cylinder():
    m = models.sphere_cylinder(2, 2)
    y = models.canonical_target(m, 10.0)
    path = solve_bvp_shooting(m, PhiParams(0.1), models.base_point(m), y)
    counts = path.minimal_evidence["shooting"]
    assert counts["newton_iterations"] >= 1
    # the initial guess, one accepted trial per iteration, and each rejected trial
    assert counts["marches"] == 1 + counts["newton_iterations"] + counts["backtracks"]
    # the predictor's Jacobian serves every fine trial, so each carries
    # row 0 of each segment only; the path is the trial's row-0 records joined
    assert counts["refreshes"] == 0
    assert counts["segments"] == math.ceil((len(path.s) - 1) / phigeo.SEGMENT_INTERVALS) > 1
    assert counts["rows_marched"] == counts["marches"] * counts["segments"]
    assert counts["rk4_steps"] == counts["marches"] * _steps(path.s, phigeo.MAX_IVP_STEP)
    assert counts["final_miss"] < 1e-10


def _steps(s_nodes, step):
    """RK4 substeps of a march over ``s_nodes`` at ``step``."""
    return phigeo._substep_counts(np.diff(s_nodes), step).sum()


def _rows_per_trial(m, counts):
    """Rows of a trial with forward-difference rows: n in segment 0, 2n in each other."""
    return m.n + 1 + (counts.get("segments", 1) - 1) * (2 * m.n + 1)


def _predictor_nodes(path):
    """The predictor's schedule: 0, the fine run's joint nodes, s_bar."""
    return [0.0, *path.s[phigeo.SEGMENT_INTERVALS:-1:phigeo.SEGMENT_INTERVALS], path.s_bar]


def _starve_predictor(monkeypatch):
    """Give every shooting predictor run a budget of one Newton iteration.

    That stops it short of converging, away from the initial guess. The
    predictor's trial is bound to the phase flag True, which it yields with
    its blocks.
    """
    newton = phigeo._newton

    def starved(trial, a, tol, max_newton, kept=None):
        predictor = trial.args[0]
        return newton(trial, a, tol, 1 if predictor else max_newton, kept)

    monkeypatch.setattr(phigeo, "_newton", starved)


def _assert_phase_counts(counts, s_nodes, step):
    # the initial guess, one accepted trial per iteration, each rejected
    # trial and each refresh; the predictor reuses no Jacobian
    assert counts["marches"] == (1 + counts["newton_iterations"] + counts["backtracks"]
                                 + counts.get("refreshes", 0))
    assert counts["rk4_steps"] == counts["marches"] * _steps(s_nodes, step)
    assert counts["stop_reason"] == "converged"
    assert counts["final_miss"] < 1e-10


def _assert_failed_segmented_predictor(path):
    """From a poor guess the segmented predictor fails, and the fine run is single shooting.

    Each predictor march is counted once: the initial trial, one per
    iteration and one per rejected trial, less the iteration of a stall,
    which accepts none.
    """
    counts = path.minimal_evidence["shooting"]
    predictor = counts["predictor"]
    assert predictor["segments"] == len(_predictor_nodes(path)) - 1 > 1
    assert predictor["stop_reason"] != "converged"
    assert predictor["marches"] == (1 + predictor["newton_iterations"] + predictor["backtracks"]
                                    - (predictor["stop_reason"] == "stalled"))
    assert "segments" not in counts
    _assert_phase_counts(counts, path.s, phigeo.MAX_IVP_STEP)


def _poor_guess(m, x):
    """A random start velocity of 2 to 8 times unit speed on round_sphere(2)."""
    rng = np.random.default_rng(5)
    guess = random_tangent(m, x, rng)
    return guess * rng.uniform(2.0, 8.0) / np.linalg.norm(guess)


@pytest.mark.parametrize("predictor", ["kept", "starved"])
def test_shooting_backtracks_from_a_poor_initial_guess(monkeypatch, predictor):
    # A random initial velocity instead of the background-geodesic one makes
    # the full Newton step overshoot, so the Armijo halving has to act: in
    # the predictor, which starts from that guess, and, once the predictor
    # has failed, in the fine run, which then starts from it too.
    m = models.round_sphere(2)
    x = models.base_point(m)
    guess = _poor_guess(m, x)
    background = phigeo.background_geodesic

    def poor_guess(model, p, q, N):
        path = background(model, p, q, N)
        path.vel = path.vel.copy()
        path.vel[0] = guess
        return path

    monkeypatch.setattr(phigeo, "background_geodesic", poor_guess)
    if predictor == "starved":
        _starve_predictor(monkeypatch)
    path = solve_bvp_shooting(m, PhiParams(0.1), x, models.canonical_target(m, 3.5))
    counts = path.minimal_evidence["shooting"]
    _assert_phase_counts(counts, path.s, phigeo.MAX_IVP_STEP)
    assert counts["rows_marched"] == counts["marches"] * _rows_per_trial(m, counts)
    assert counts["backtracks"] >= 1
    if predictor == "kept":
        assert counts["predictor"]["backtracks"] >= 1
        _assert_failed_segmented_predictor(path)
    else:
        assert counts["predictor"]["stop_reason"] == "budget-exhausted"


def _fail_fine_run(monkeypatch, reason):
    """Drive every shooting Newton run, the fine one included, to ``reason``.

    ``budget-exhausted``: a budget of 0 iterations. ``ill-conditioned``: a
    singular endpoint Jacobian. ``stalled``: the Newton step reversed, so
    that every trial raises the miss.
    """
    if reason == "budget-exhausted":
        monkeypatch.setattr(phigeo, "MAX_NEWTON", 0)
        return
    condense = phigeo._condense

    def broken(*args):
        jac = condense(*args)
        if reason == "ill-conditioned":
            return jac._replace(endpoint=np.zeros_like(jac.endpoint))
        return jac._replace(endpoint=-jac.endpoint, offsets=-jac.offsets)

    monkeypatch.setattr(phigeo, "_condense", broken)


MISS = r"\d\.\d{3}e[+-]\d\d"


@pytest.mark.parametrize("reason, error, message", [
    ("stalled", ShootingConvergenceError,
     rf"cylinder:k=2,m=2: shooting stalled with endpoint miss {MISS}"),
    ("budget-exhausted", ShootingConvergenceError,
     rf"cylinder:k=2,m=2: no convergence in 0 Newton iterations \(best endpoint miss {MISS}\)"),
    ("ill-conditioned", IllConditionedShootingError,
     r"cylinder:k=2,m=2: endpoint-miss Jacobian is ill-conditioned "
     r"\(conjugate-point-like configuration at s_bar = 5\)"),
], ids=["stalled", "budget-exhausted", "ill-conditioned"])
def test_failed_fine_run_raises_its_typed_error(monkeypatch, reason, error, message):
    m = models.sphere_cylinder(2, 2)
    _fail_fine_run(monkeypatch, reason)
    with pytest.raises(error) as failed:
        solve_bvp_shooting(m, PhiParams(0.1), models.base_point(m),
                           models.canonical_target(m, 5.0))
    assert type(failed.value) is error
    assert re.fullmatch(message, str(failed.value))


def _assert_same_path(got, alone):
    for name in ("s", "pos", "vel"):
        assert np.array_equal(getattr(got, name), getattr(alone, name))
        assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()
    for name in ("C_value", "drift", "action_J", "minimal_evidence", "pieces", "flags"):
        assert getattr(got, name) == getattr(alone, name)


@pytest.mark.parametrize(
    "label, cells",
    [
        # r_y = 1.5 has s_bar < 2 (a uniform grid); the others are audit
        # grids of different lengths, so schedules end at different rounds
        ("cylinder:k=2,m=2", [(0.1, 4.0), (0.5, 1.5), (0.9, 7.0), (0.5, 7.0), (0.1, 1.5)]),
        ("sphereproduct:k=2,m=2", [(0.9, 3.0), (0.1, 5.0), (0.5, 1.5), (0.5, 5.0)]),
    ],
)
def test_shooting_batch_matches_solo_solves(label, cells):
    m = models.parse_model(label)
    x = models.base_point(m)
    problems = [(PhiParams(c), x, models.canonical_target(m, ry)) for c, ry in cells]
    paths = solve_bvp_shooting_batch(m, problems)
    assert len(paths) == len(problems)
    for path, (params, x_i, y_i) in zip(paths, problems):
        _assert_same_path(path, solve_bvp_shooting(m, params, x_i, y_i))


def test_shooting_batch_backtracking_beside_a_plain_cell(monkeypatch):
    # the poor guess of test_shooting_backtracks_from_a_poor_initial_guess,
    # for one target only; the other cell starts from the usual guess
    m = models.round_sphere(2)
    x = models.base_point(m)
    poor_target = models.canonical_target(m, 3.5)
    guess = _poor_guess(m, x)
    background = phigeo.background_geodesic

    def poor_guess(model, p, q, N):
        path = background(model, p, q, N)
        if np.array_equal(q, poor_target):
            path.vel = path.vel.copy()
            path.vel[0] = guess
        return path

    monkeypatch.setattr(phigeo, "background_geodesic", poor_guess)
    problems = [(PhiParams(0.1), x, models.canonical_target(m, 2.0)),
                (PhiParams(0.1), x, poor_target)]
    plain, poor = solve_bvp_shooting_batch(m, problems)
    plain_counts = plain.minimal_evidence["shooting"]
    assert plain_counts["backtracks"] == plain_counts["predictor"]["backtracks"] == 0
    assert plain_counts["predictor"]["stop_reason"] == "converged"
    assert poor.minimal_evidence["shooting"]["predictor"]["backtracks"] >= 1
    _assert_failed_segmented_predictor(poor)
    for path, (params, x_i, y_i) in zip((plain, poor), problems):
        _assert_same_path(path, solve_bvp_shooting(m, params, x_i, y_i))


def test_segmented_predictor_starts_on_the_exact_geodesic():
    # R = 0 on gaussian:n=3, so the background geodesic solves the problem:
    # its joint states and the start guess need no Newton step, coarse or fine
    m = models.gaussian(3)
    path = solve_bvp_shooting(m, PhiParams(0.1), models.base_point(m),
                              models.canonical_target(m, 20.0))
    counts = path.minimal_evidence["shooting"]
    predictor = counts["predictor"]
    assert predictor["segments"] == counts["segments"] > 1
    for run in (predictor, counts):
        assert run["stop_reason"] == "converged"
        assert (run["newton_iterations"], run["backtracks"], run["marches"]) == (0, 0, 1)
    _assert_phase_counts(predictor, _predictor_nodes(path),
                         phigeo.PREDICTOR_STEP_FACTOR * phigeo.MAX_IVP_STEP)


@pytest.mark.parametrize("label", ["sphere:n=3", "cylinder:k=2,m=2"])
def test_segmented_predictor_starts_an_antipodal_pair_on_the_tie_break(label):
    # log_x y is undefined here; the predictor's joints follow the background
    # geodesic's tie-broken great circle instead
    m = models.parse_model(label)
    x = models.base_point(m)
    f = m.sphere_factors[0]
    y = x.copy()
    y[f.start : f.stop] *= -1.0
    path = solve_bvp_shooting(m, PhiParams(0.1), x, y)
    counts = path.minimal_evidence["shooting"]
    assert counts["predictor"]["segments"] > 1
    _assert_phase_counts(counts["predictor"], _predictor_nodes(path),
                         phigeo.PREDICTOR_STEP_FACTOR * phigeo.MAX_IVP_STEP)
    _assert_phase_counts(counts, path.s, phigeo.MAX_IVP_STEP)
    # the predictor's last Jacobian fails the conditioning check at its
    # root, so the fine run refreshes once, right after its first march,
    # and then takes one Newton step with forward-difference rows
    assert (counts["refreshes"], counts["newton_iterations"], counts["marches"]) == (1, 1, 3)
    assert counts["rows_marched"] == counts["segments"] + 2 * _rows_per_trial(m, counts)


def test_shooting_batch_keeps_each_failure_in_its_slot(monkeypatch):
    # x == y fails before any march; at drift_tol 5e-12 the c = 0.9 cell
    # fails its drift check after its last fine march. Every fine run starts
    # once the last coarse trial has marched, so a cell is stepped after that
    # failure only if its fine run takes more marches. With every predictor
    # starved, it stops after two marches, each fine run starts from its
    # initial guess, and the c = 0.5 cells, the longer r_y = 20.21 one among
    # them, need one march more.
    _starve_predictor(monkeypatch)
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    problems = [(PhiParams(0.1), x, models.canonical_target(m, 4.0)),
                (PhiParams(0.1), x, x.copy()),
                (PhiParams(0.9), x, models.canonical_target(m, 5.0)),
                (PhiParams(0.5), x, models.canonical_target(m, 7.0)),
                (PhiParams(0.5), x, models.canonical_target(m, 20.21))]
    rounds = _spy_rounds(monkeypatch)
    results = solve_bvp_shooting_batch(m, problems, drift_tol=5e-12)
    batch_rounds = rounds[:]
    assert isinstance(results[1], DegenerateEndpointsError)
    assert isinstance(results[2], DriftExceededError)
    # the failed cell marched as it does at the default drift_tol
    failed = solve_bvp_shooting(m, *problems[2])
    for i in (0, 3, 4):
        _assert_same_path(results[i], solve_bvp_shooting(m, *problems[i], drift_tol=5e-12))

    cells = [results[0], failed, results[3], results[4]]
    counts = [path.minimal_evidence["shooting"] for path in cells]
    assert [k["predictor"]["marches"] for k in counts] == [2, 2, 2, 2]
    assert [k["marches"] for k in counts] == [3, 3, 4, 4]
    # the failure comes after round 2 + 3, and the c = 0.5 cells march on
    assert len(batch_rounds) == 2 + 4
    last_blocks, _ = batch_rounds[-1]
    assert {cR for _, _, cR, _, _ in last_blocks} == {0.5 * m.scalar_R}
    _assert_coarse_rounds_first(batch_rounds)


# cells of the shape perfbench's chain (c in {0.1, 0.5}, r_y near 10 and 20)
# and scan (c = 0.1, r_y near 20 and 40) workloads shoot on cylinder:k=2,m=2
PERFBENCH_CELLS = [(0.1, 10.12), (0.1, 20.21), (0.5, 10.12), (0.5, 20.21),
                   (0.1, 19.87), (0.1, 40.3)]


@pytest.fixture(scope="module")
def perfbench_paths():
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    problems = [(PhiParams(c), x, models.canonical_target(m, ry)) for c, ry in PERFBENCH_CELLS]
    return solve_bvp_shooting_batch(m, problems)


def test_shooting_fine_run_takes_one_newton_step(perfbench_paths):
    for path in perfbench_paths:
        counts = path.minimal_evidence["shooting"]
        assert counts["predictor"]["stop_reason"] == "converged"
        assert counts["marches"] == 2 and counts["newton_iterations"] == 1
        _assert_phase_counts(counts, path.s, phigeo.MAX_IVP_STEP)
        _assert_phase_counts(counts["predictor"], _predictor_nodes(path),
                             phigeo.PREDICTOR_STEP_FACTOR * phigeo.MAX_IVP_STEP)


def test_shooting_matches_the_exact_radial_solution(perfbench_paths):
    # From O the path is radial on the flat factor: r'' = -cR r/(4 f^2) with
    # f = r^2/4 + 1, first integral r'^2 - cR/f = C, and s_bar = r_y fixes C
    # through the integral of dr / sqrt(C + cR/f) over [0, r_y] = r_y.
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")
    m = models.sphere_cylinder(2, 2)
    for (c, ry), path in zip(PERFBENCH_CELLS, perfbench_paths):
        cR = c * m.scalar_R

        def phi2(r):
            return cR / (r * r / 4.0 + 1.0)

        def quad(func):
            return integrate.quad(func, 0.0, ry, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

        def length_gap(C):
            return quad(lambda r: 1.0 / math.sqrt(C + phi2(r))) - ry

        # speed <= 1 everywhere at the lower end, >= 1 at the upper one
        exact_C = optimize.brentq(length_gap, 1.0 - phi2(0.0), 1.0 - phi2(ry), xtol=1e-15)
        exact_J = quad(lambda r: (exact_C + 2.0 * phi2(r)) / math.sqrt(exact_C + phi2(r)))
        assert abs(path.C_value - exact_C) <= 1e-10
        assert abs(path.action_J - exact_J) <= 1e-8


def test_failed_predictor_leaves_the_fine_run_as_it_was(monkeypatch, perfbench_paths):
    # with the predictor out of budget the fine run starts from the initial
    # guess: the counts and bits are those of one Newton run from that guess
    # on the audit grid, recorded for the first cell
    m = models.sphere_cylinder(2, 2)
    c, ry = PERFBENCH_CELLS[0]
    _starve_predictor(monkeypatch)
    path = solve_bvp_shooting(m, PhiParams(c), models.base_point(m),
                              models.canonical_target(m, ry))
    counts = path.minimal_evidence["shooting"]
    predictor = counts.pop("predictor")
    assert predictor["stop_reason"] == "budget-exhausted"
    assert predictor["newton_iterations"] == 1 and predictor["final_miss"] >= 1e-10
    assert counts == {"newton_iterations": 2, "backtracks": 0, "marches": 3, "rk4_steps": 3444,
                      "final_miss": 8.881784197001252e-12, "stop_reason": "converged",
                      "rows_marched": 15, "refreshes": 0}
    assert (path.C_value, path.action_J) == (0.9734003114616471, 10.39312938357688)
    assert abs(path.C_value - perfbench_paths[0].C_value) <= 1e-10
    assert abs(path.action_J - perfbench_paths[0].action_J) <= 1e-10


def _quad(func, lo, hi):
    integrate = pytest.importorskip("scipy.integrate")
    return integrate.quad(func, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def _exact_C(c, ry):
    """C* of the exact radial solution from O to r_y on cylinder:k=2,m=2: the
    C for which the integral of dr / sqrt(C + cR/f) over [0, r_y] is r_y,
    where f = r^2/4 + 1."""
    optimize = pytest.importorskip("scipy.optimize")
    cR = c * models.sphere_cylinder(2, 2).scalar_R

    def phi2(r):
        return cR / (r * r / 4.0 + 1.0)

    def length_gap(C):
        return _quad(lambda r: 1.0 / math.sqrt(C + phi2(r)), 0.0, ry) - ry

    return optimize.brentq(length_gap, 1.0 - phi2(0.0), 1.0 - phi2(ry), xtol=1e-15)


def _exact_speed(c, ry):
    """r'(r) = sqrt(C* + cR/f(r)) of the exact radial solution from O to r_y
    on cylinder:k=2,m=2."""
    cR = c * models.sphere_cylinder(2, 2).scalar_R
    exact_C = _exact_C(c, ry)
    return lambda r: math.sqrt(exact_C + cR / (r * r / 4.0 + 1.0))


def _exact_radius(c, ry, s_nodes):
    """The exact radial solution r(s) at ``s_nodes``, from O to r_y, on cylinder:k=2,m=2.

    s(r) = integral of dr / r'(r) over [0, r] is inverted node by node with
    ``brentq``, adding the integral from the previous node's r.
    """
    optimize = pytest.importorskip("scipy.optimize")
    speed = _exact_speed(c, ry)

    def ds(r):
        return 1.0 / speed(r)

    # r' lies between these speeds
    slow, fast = speed(2.0 * ry), speed(0.0)
    radii, r_prev, s_prev = [0.0], 0.0, 0.0
    for s in s_nodes[1:]:
        gap = s - s_prev
        r_prev = optimize.brentq(lambda r: _quad(ds, r_prev, r) - gap,
                                 r_prev + 0.5 * slow * gap, r_prev + 2.0 * fast * gap,
                                 xtol=1e-15)
        radii.append(r_prev)
        s_prev = s
    return np.array(radii)


def test_shooting_path_is_the_exact_radial_solution_at_every_node(perfbench_paths):
    # every node, the joint nodes among them, within 1e-8 of the exact r(s)
    m = models.sphere_cylinder(2, 2)
    for (c, ry), path in zip(PERFBENCH_CELLS, perfbench_paths):
        exact = _exact_radius(c, ry, path.s)
        assert np.max(np.abs(models.radial_distance(m, path.pos) - exact)) <= 1e-8


@pytest.mark.parametrize("cell", [(0.1, 10.12), (0.5, 20.21), (0.1, 40.3)])
def test_richardson_estimates_bound_the_true_quadrature_error(perfbench_paths, cell):
    # the exact audit integrals, taken in r with ds = dr / r'(r) and split at
    # the kinks r(1) and r(s_bar - 1): zeta = s(r), 1, r_y - s(r) on the three
    # pieces, and <grad f, S> = (r/2) r' on the radial path
    m = models.sphere_cylinder(2, 2)
    c, ry = cell
    path = perfbench_paths[PERFBENCH_CELLS.index(cell)]
    speed = _exact_speed(c, ry)
    _, r_up, r_down = _exact_radius(c, ry, np.array([0.0, 1.0, path.s_bar - 1.0]))

    def zeta(r):
        if r <= r_up:
            return _quad(lambda rho: 1.0 / speed(rho), 0.0, r)
        if r >= r_down:
            return _quad(lambda rho: 1.0 / speed(rho), r, ry)
        return 1.0

    def ricci_density(r):
        return zeta(r) ** 2 * m.ricci_norm_sq / (r * r / 4.0 + 1.0) / speed(r)

    weighted = sum(_quad(ricci_density, lo, hi)
                   for lo, hi in [(0.0, r_up), (r_up, r_down), (r_down, ry)])
    boundary = (_quad(lambda r: zeta(r) * r / 2.0, 0.0, r_up)
                - _quad(lambda r: zeta(r) * r / 2.0, r_down, ry))
    params = PhiParams(c)
    for report, exact in [(audit.weighted_ricci_integral_audit(m, params, path), weighted),
                          (audit.boundary_term_audit(m, params, path), -boundary)]:
        true_err = abs(report.lhs - exact)
        assert true_err <= report.quadrature_error <= 20.0 * true_err, report.name


@pytest.mark.parametrize("cell", [(0.1, 10.12), (0.5, 20.21), (0.1, 40.3)])
def test_radial_envelope_margin_is_the_exact_one(perfbench_paths, cell):
    # r' = sqrt(C* + cR/f) <= A* = sqrt(C* + c), as R = 1 and f >= 1, so
    # s A* - r(s) grows along the path and r_y + (s_bar - s) A* - r(s)
    # shrinks by at least A* per unit s: the least slack is at node 1
    m = models.sphere_cylinder(2, 2)
    c, ry = cell
    path = perfbench_paths[PERFBENCH_CELLS.index(cell)]
    report = audit.radial_envelope_audit(m, PhiParams(c), path)
    assert report.context["worst_node"] == 1
    s_1 = path.s[1]
    a_exact = math.sqrt(_exact_C(c, ry) + c)
    exact = (min(s_1 * a_exact, ry + (path.s_bar - s_1) * a_exact)
             - _exact_radius(c, ry, path.s[:2])[1])
    assert abs(report.margin - exact) <= 1e-10


def _spy_rounds(monkeypatch):
    """Record every ``_march`` call's blocks and what it returned."""
    rounds = []
    march = phigeo._march

    def spy(dyn, blocks):
        out = march(dyn, blocks)
        rounds.append((blocks, out))
        return out

    monkeypatch.setattr(phigeo, "_march", spy)
    return rounds


@pytest.mark.parametrize("label, pair", [("cylinder:k=2,m=2", None),
                                         ("sphereproduct:k=2,m=2", 3)])
def test_segmented_path_joins_the_converged_segment_records(monkeypatch, label, pair):
    if pair is None:
        m = models.parse_model(label)
        x, y = models.base_point(m), models.canonical_target(m, 10.0)
    else:
        m, x, y = _random_endpoints(label, pair)
    rounds = _spy_rounds(monkeypatch)
    path = solve_bvp_shooting(m, PhiParams(0.1), x, y)
    counts = path.minimal_evidence["shooting"]
    # the converged trial is the last march: one block per segment
    blocks, out = rounds[-1]
    assert len(blocks) == counts["segments"] > 1
    assert counts["march_steps"] == max(block[4].sum() for block in blocks)
    node = 0
    for k, ((starts, v0, _, gaps, _), (_, _, record)) in enumerate(zip(blocks, out)):
        stop = len(gaps) + 1 if k == len(blocks) - 1 else len(gaps)
        assert np.diff(path.s[node : node + len(gaps) + 1]).tobytes() == gaps.tobytes()
        # the joint node holds the solved joint state: the segment's row-0 start
        assert record.pos[0].tobytes() == starts[0].tobytes()
        assert record.vel[0].tobytes() == v0[0].tobytes()
        assert path.pos[node : node + stop].tobytes() == record.pos[:stop].tobytes()
        assert path.vel[node : node + stop].tobytes() == record.vel[:stop].tobytes()
        if k:
            # and the previous segment landed on it within the joint defect
            assert np.max(np.abs(previous_end - starts[0])) <= 1e-12
        previous_end = record.pos[-1]
        node += stop
    assert node == path.n_nodes
    assert 0.0 <= counts["max_joint_defect"] < 1e-10
    e_min = min(record.e_min for *_, record in out)
    e_max = max(record.e_max for *_, record in out)
    assert path.drift == max(e_max - path.C_value, path.C_value - e_min)


def test_drift_inside_an_interior_segment_fails_the_solve(monkeypatch):
    m = models.sphere_cylinder(2, 2)
    x, y = models.base_point(m), models.canonical_target(m, 10.0)
    march = phigeo._march

    def drifting(dyn, blocks):
        out = march(dyn, blocks)
        # a fine trial's blocks are its segments in order, each of
        # SEGMENT_INTERVALS gaps; block 2 is the third of 20 segments
        if len(blocks[2][3]) == phigeo.SEGMENT_INTERVALS:
            p_end, v_end, record = out[2]
            out[2] = (p_end, v_end, record._replace(e_max=record.e_max + 1e-5))
        return out

    assert solve_bvp_shooting(m, PhiParams(0.1), x, y).minimal_evidence["shooting"][
        "segments"] == 20
    monkeypatch.setattr(phigeo, "_march", drifting)
    with pytest.raises(DriftExceededError):
        solve_bvp_shooting(m, PhiParams(0.1), x, y)


def _assert_coarse_rounds_first(rounds):
    """No round marches a fine block while any problem has a coarse trial pending.

    Every round is of one phase, and the coarse (predictor) rounds all come
    before the fine ones. A coarse block's substeps are longer than the
    default step, a fine block's are not.
    """
    phases = [{bool((block[3] / block[4] > phigeo.MAX_IVP_STEP).all()) for block in blocks}
              for blocks, _ in rounds]
    assert all(len(phase) == 1 for phase in phases)
    in_order = [phase.pop() for phase in phases]
    assert in_order == sorted(in_order, reverse=True)


def test_shooting_batch_mixing_predictor_and_segment_trials_matches_solo_solves(monkeypatch):
    # different s_bar and c, so the cells' predictors take different numbers
    # of rounds, and the fine trials of the cells that finish first wait
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    problems = [(PhiParams(c), x, models.canonical_target(m, ry))
                for c, ry in [(0.9, 2.0), (0.1, 5.0), (0.9, 12.0), (0.5, 30.0), (0.1, 30.0)]]
    rounds = _spy_rounds(monkeypatch)
    paths = solve_bvp_shooting_batch(m, problems)
    _assert_coarse_rounds_first(rounds)
    counts = [p.minimal_evidence["shooting"] for p in paths]
    assert [k["predictor"]["marches"] for k in counts] == [4, 3, 4, 4, 3]
    assert [k["segments"] for k in counts] == [4, 10, 24, 60, 60]
    monkeypatch.undo()
    for path, (params, x_i, y_i) in zip(paths, problems):
        _assert_same_path(path, solve_bvp_shooting(m, params, x_i, y_i))


def test_shooting_rounds_of_the_chain_cells(monkeypatch):
    # perfbench's chain workload shoots these four cells in one batch: the
    # c = 0.5 predictors take four marches and the c = 0.1 ones three, and
    # every fine run two, so the batch marches 4 coarse rounds of 7 steps,
    # then 2 fine ones of 56
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    problems = [(PhiParams(c), x, models.canonical_target(m, ry))
                for c in (0.1, 0.5) for ry in (10.12, 20.21)]
    steps = []
    rk4_step = phigeo._Dynamics.rk4_step

    def counted(self, state, h, cR):
        steps.append(state.shape[1])
        return rk4_step(self, state, h, cR)

    monkeypatch.setattr(phigeo._Dynamics, "rk4_step", counted)
    rounds = _spy_rounds(monkeypatch)
    paths = solve_bvp_shooting_batch(m, problems)
    _assert_coarse_rounds_first(rounds)
    counts = [p.minimal_evidence["shooting"] for p in paths]
    assert [k["predictor"]["marches"] for k in counts] == [3, 3, 4, 4]
    assert [k["marches"] for k in counts] == [2, 2, 2, 2]
    assert len(rounds) == 4 + 2
    # a round costs the substeps of its longest block
    assert len(steps) == sum(
        max(block[4].sum() for block in blocks)
        for blocks, _ in rounds) == 140


@pytest.mark.parametrize("label, ry", [("cylinder:k=2,m=2", 40.3), ("sphere:n=3", 5.5)])
def test_condensed_endpoint_map_is_the_single_shooting_jacobian(monkeypatch, label, ry):
    # the conditioning check sees the map a single-shooting trial would give
    # at the converged a: one march of the whole grid with n difference rows
    m = models.parse_model(label)
    x, y = models.base_point(m), models.canonical_target(m, ry)
    condensed = []
    condense = phigeo._condense

    def spy(*args):
        condensed.append(condense(*args))
        return condensed[-1]

    monkeypatch.setattr(phigeo, "_condense", spy)
    path = solve_bvp_shooting(m, PhiParams(0.5), x, y)
    assert path.minimal_evidence["shooting"]["segments"] > 2
    basis_x, basis_y = models.tangent_basis(m, x), models.tangent_basis(m, y)
    a = basis_x @ path.vel[0]
    delta = 1e-7 * (1.0 + np.linalg.norm(a))
    rows = np.vstack([a, a + delta * np.eye(m.n)])
    gaps = np.diff(path.s)
    block = (np.tile(x, (m.n + 1, 1)), rows @ basis_x, 0.5 * m.scalar_R, gaps,
             phigeo._substep_counts(gaps, phigeo.MAX_IVP_STEP))
    ((p_end, _, _),) = phigeo._march(phigeo._Dynamics(m), [block])
    misses = np.array([basis_y @ models.log_map(m, y, p) for p in p_end])
    single = (misses[1:] - misses[0]).T / delta
    endpoint = condensed[-1].endpoint
    assert np.linalg.norm(endpoint - single) <= 1e-5 * np.linalg.norm(single)
    assert np.linalg.cond(endpoint) == pytest.approx(np.linalg.cond(single), rel=1e-5)


def _digest(path):
    digest = hashlib.sha256()
    for array in (path.s, path.pos, path.vel):
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", ["one-segment", "starved-predictor"])
def test_single_shooting_cases_keep_their_bits(monkeypatch, case):
    # the counts, C, J and path bytes of single shooting: at density 4,
    # s_bar = 2 spans 8 intervals, one segment (every grid of the default
    # density has at least 32), and the fine run reuses the predictor's
    # Jacobian; with the predictor starved, the fine run is single shooting
    # from the guess
    m = models.sphere_cylinder(2, 2)
    c, ry, density = (0.1, 2.0, 4) if case == "one-segment" else (0.5, 20.21, 16)
    if case == "starved-predictor":
        _starve_predictor(monkeypatch)
    path = solve_bvp_shooting(m, PhiParams(c), models.base_point(m),
                              models.canonical_target(m, ry), density=density)
    counts = path.minimal_evidence["shooting"]
    predictor = counts.pop("predictor")
    expected = {
        "one-segment": ({"newton_iterations": 1, "backtracks": 0, "marches": 2, "rk4_steps": 400,
                         "final_miss": 1.7763568394002505e-15, "stop_reason": "converged",
                         "rows_marched": 2, "refreshes": 0},
                        0.9216545781977804, 2.1569501351383495, "701a30ddadba299f"),
        "starved-predictor": ({"newton_iterations": 3, "backtracks": 0, "marches": 4,
                               "rk4_steps": 9072, "final_miss": 3.170796958329447e-11,
                               "stop_reason": "converged", "rows_marched": 20, "refreshes": 0},
                              0.935833586593772, 21.61903500346927, "29f4a816838fb3b3"),
    }[case]
    assert (counts, path.C_value, path.action_J, _digest(path)) == expected
    assert predictor["stop_reason"] == ("converged" if case == "one-segment"
                                        else "budget-exhausted")


@pytest.mark.parametrize("label", ["sphere:n=3", "cylinder:k=2,m=2", "sphereproduct:k=2,m=2"])
def test_trial_row_products_are_bitwise_the_per_row_loops(label):
    # shooting's trial forms its start velocities and endpoint misses as
    # stacked products over all rows; each row must keep the bits of its
    # own product, as the per-row loops they replace had them
    rng = np.random.default_rng(19)
    m = models.parse_model(label)
    for _ in range(200):
        x, y = models.random_points(m, rng, 2)
        basis_x, basis_y = models.tangent_basis(m, x), models.tangent_basis(m, y)
        head = rng.normal(size=(m.n + 1, m.n))
        assert ((head[:, None] @ basis_x)[:, 0].tobytes()
                == np.array([row @ basis_x for row in head]).tobytes())
        p_ends = models.exp_map(m, y, rng.normal(size=(2 * m.n + 1, m.n)) @ basis_y)
        assert ((basis_y @ models.log_map(m, y, p_ends)[..., None])[..., 0].tobytes()
                == np.array([basis_y @ models.log_map(m, y, p) for p in p_ends]).tobytes())


def _linear_trial(miss, jacobian):
    """A ``_newton`` trial that marches nothing: the miss of ``a`` is ``miss(a)``.

    Its Jacobian is the one-segment ``_Condensed`` of a trial with no
    joints: ``jacobian``, or the end map of ``kept`` when it reuses one.
    """
    def trial(a, kept):
        m = miss(a)
        end_jac = jacobian if kept is None else kept.end_jac
        return m, phigeo._condense([], end_jac, np.empty((0, 2 * len(m))), m), None
        yield  # a generator, like the real trials

    return trial


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_condensing_no_joints_is_single_shooting_bitwise(seed):
    # a shooting trial with no joints is single shooting, bit for bit, because of this
    rng = np.random.default_rng(seed)
    n = 2 + seed
    end_jac = rng.normal(size=(n, n)) + n * np.eye(n)  # well conditioned
    miss = rng.normal(size=n)
    no_defects = np.empty((0, 2 * n))
    condensed = phigeo._condense([], end_jac, no_defects, miss)
    assert condensed.endpoint.tobytes() == end_jac.tobytes()
    assert condensed.miss.tobytes() == miss.tobytes()
    assert condensed.step().tobytes() == np.linalg.solve(end_jac, -miss).tobytes()
    end_jac[0, -1] = np.nan
    assert not np.isfinite(phigeo._condense([], end_jac, no_defects, miss).endpoint).all()


@pytest.mark.parametrize("case, reason, iterations, backtracks", [
    ("linear", "converged", 1, 0),
    ("singular", "ill-conditioned", 0, 0),
    ("not-finite", "ill-conditioned", 0, 0),
    # a Jacobian of the wrong sign: every step raises the miss
    ("wrong-sign", "stalled", 1, 9),
    # a Jacobian 1000x too large: each step takes 1/1000 of the miss
    ("too-large", "budget-exhausted", 3, 0),
])
def test_newton_stop_reasons(case, reason, iterations, backtracks):
    trial = {
        "linear": _linear_trial(lambda a: a - 1.0, np.eye(2)),
        "singular": _linear_trial(lambda a: a - 1.0, np.array([[1.0, 0.0], [0.0, 0.0]])),
        "not-finite": _linear_trial(lambda a: a * np.nan, np.full((2, 2), np.nan)),
        "wrong-sign": _linear_trial(lambda a: a - 1.0, -np.eye(2)),
        "too-large": _linear_trial(lambda a: a - 1.0, 1000.0 * np.eye(2)),
    }[case]
    run = phigeo._newton(trial, np.zeros(2), 1e-10, 3)
    with pytest.raises(StopIteration) as done:
        next(run)
    result = done.value.value
    assert (result.stop_reason, result.iterations, result.backtracks) == (
        reason, iterations, backtracks)
    counts = result.counts(np.array([100]))  # one gap of 100 substeps
    assert counts["stop_reason"] == reason
    assert counts["marches"] == 1 + iterations + backtracks - (reason == "stalled")
    assert counts["rk4_steps"] == 100 * counts["marches"]
    # no NaN reaches a report
    assert (counts["final_miss"] is None) == (case == "not-finite")


@pytest.mark.parametrize("case, reason, iterations, backtracks, refreshes", [
    # the right Jacobian: chord steps only
    ("right", "converged", 1, 0, 0),
    # of the wrong sign: its full step raises the miss, so the run refreshes
    # and takes that iteration's step with the miss's own Jacobian
    ("wrong-sign", "converged", 1, 1, 1),
    # singular: the run refreshes before its first step
    ("singular", "converged", 1, 0, 1),
    # 1000x too large: its full step cuts the miss by 1/1000 only, short of
    # half, so the run refreshes and converges with the miss's own Jacobian
    ("too-large", "converged", 1, 1, 1),
])
def test_newton_refreshes_a_kept_jacobian_that_fails(case, reason, iterations, backtracks,
                                                    refreshes):
    kept_jac = {"right": np.eye(2), "wrong-sign": -np.eye(2),
                "singular": np.array([[1.0, 0.0], [0.0, 0.0]]),
                "too-large": 1000.0 * np.eye(2)}[case]
    kept = phigeo._condense([], kept_jac, np.empty((0, 4)), np.zeros(2))
    trial = _linear_trial(lambda a: a - 1.0, np.eye(2))
    run = phigeo._newton(trial, np.zeros(2), 1e-10, 3, kept)
    with pytest.raises(StopIteration) as done:
        next(run)
    result = done.value.value
    assert (result.stop_reason, result.iterations, result.backtracks, result.refreshes) == (
        reason, iterations, backtracks, refreshes)
    assert result.marches == 1 + iterations + backtracks + refreshes
    # every march before the refresh reused the kept Jacobian, and none after it
    assert result.reuses == (1 + backtracks if refreshes else result.marches)


def test_chord_fine_run_matches_a_fine_run_that_refreshes_every_trial(monkeypatch,
                                                                      perfbench_paths):
    # the chord run lands on the root of its own residual, as a fine run
    # with forward-difference rows in every trial does
    newton = phigeo._newton

    def refreshing(trial, a, tol, max_newton, kept=None):
        return newton(trial, a, tol, max_newton)

    monkeypatch.setattr(phigeo, "_newton", refreshing)
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    problems = [(PhiParams(c), x, models.canonical_target(m, ry)) for c, ry in PERFBENCH_CELLS]
    for chord, fresh in zip(perfbench_paths, solve_bvp_shooting_batch(m, problems)):
        chord_counts = chord.minimal_evidence["shooting"]
        fresh_counts = fresh.minimal_evidence["shooting"]
        assert chord_counts["rows_marched"] == chord_counts["marches"] * chord_counts["segments"]
        assert fresh_counts["rows_marched"] == (fresh_counts["marches"]
                                                * _rows_per_trial(m, fresh_counts))
        assert abs(chord.action_J - fresh.action_J) <= 1e-10 * abs(fresh.action_J)
        assert abs(chord.C_value - fresh.C_value) <= 1e-10 * abs(fresh.C_value)
        assert np.max(np.abs(chord.pos - fresh.pos)) <= 1e-10 * np.max(np.abs(fresh.pos))


def test_shooting_gaussian_straight_segment(rng):
    m = models.gaussian(3)
    x = rng.normal(size=3)
    y = rng.normal(size=3) + 4.0
    path = solve_bvp_shooting(m, PhiParams(0.2), x, y)
    assert path.C_value == pytest.approx(1.0, abs=1e-10)
    assert path.action_J == pytest.approx(path.s_bar, rel=1e-9)
    assert float(models.distance(m, path.pos[-1], y)) <= 1e-9
    # straight: all nodes on the segment
    direction = (y - x) / np.linalg.norm(y - x)
    offsets = path.pos - x
    residual = offsets - np.outer(offsets @ direction, direction)
    assert np.max(np.abs(residual)) <= 1e-8


def test_shooting_round_sphere_unit_speed():
    m = models.round_sphere(3)
    c = 0.1
    x = models.base_point(m)
    y = models.canonical_target(m, 2.0)
    path = solve_bvp_shooting(m, PhiParams(c), x, y)
    assert path.C_value == pytest.approx(1.0 - c, abs=1e-9)
    assert np.max(np.abs(path.speed_sq() - 1.0)) <= 1e-9


def test_shooting_rejects_equal_endpoints():
    m = models.gaussian(2)
    p = np.array([1.0, 0.0])
    with pytest.raises(DegenerateEndpointsError):
        solve_bvp_shooting(m, PhiParams(0.1), p, p.copy())


def test_cross_solver_oracle_cylinder():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    x = models.base_point(m)
    y = models.canonical_target(m, 10.0)
    shoot = solve_bvp_shooting(m, params, x, y)
    disc = minimize_action_discrete(m, params, x, y, N=256)
    assert abs(shoot.action_J - disc.action_J) <= 1e-3 * (1.0 + abs(shoot.action_J))
    assert abs(shoot.C_value - disc.C_value) <= 1e-3
    evidence = certify_minimal_candidate(m, params, shoot, disc)
    assert evidence["J_agree"] and evidence["C_agree"] and evidence["below_background"]
    assert shoot.is_minimal_candidate and disc.is_minimal_candidate


def test_minimize_gaussian_recovers_straight_segment():
    m = models.gaussian(2)
    params = PhiParams(0.2)  # phi is identically zero regardless of c
    x = np.zeros(2)
    y = np.array([5.0, 0.0])
    path = minimize_action_discrete(m, params, x, y, N=32)
    assert path.action_J == pytest.approx(5.0, abs=1e-9)
    assert np.max(np.abs(path.pos[:, 1])) <= 1e-9
    assert "stalled" not in path.flags


def test_minimize_round_sphere_constant_potential():
    m = models.round_sphere(2)
    c = 0.1
    x = models.base_point(m)
    y = models.canonical_target(m, 3.0)
    path = minimize_action_discrete(m, PhiParams(c), x, y, N=64)
    assert path.action_J == pytest.approx(3.0 * (1.0 + c), abs=1e-9)
    assert path.C_value == pytest.approx(1.0 - c, abs=1e-6)


def test_minimize_cylinder_beats_background():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    x = models.base_point(m)
    y = models.canonical_target(m, 10.0)
    path = minimize_action_discrete(m, params, x, y, N=128)
    bg = models.background_geodesic(m, x, y, 128)
    j_bg = action(m, params, bg)
    gap = j_bg - path.action_J
    assert gap > 1e-4  # strict improvement, reported
    assert "stalled" not in path.flags


def test_minimize_euler_lagrange_consistency():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.5)
    x = models.base_point(m)
    y = models.canonical_target(m, 5.0)
    path = minimize_action_discrete(m, params, x, y, N=64)
    descent = path.minimal_evidence["descent"]
    assert descent["grad_norm"] <= 1e-6 * (1.0 + abs(descent["discrete_action"]))


@pytest.mark.parametrize("m", [1, 2, 15, 255])
def test_dirichlet_laplacian_solve_matches_dense(rng, m):
    lap = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    rhs = rng.standard_normal((m, 3))
    expected = np.linalg.solve(lap, rhs)
    got = phigeo._solve_dirichlet_laplacian(rhs)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_minimize_iterations_independent_of_mesh():
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.5)
    x = models.base_point(m)
    y = models.canonical_target(m, 10.0)
    shoot = solve_bvp_shooting(m, params, x, y)
    for n_grid in (128, 256, 512):
        disc = minimize_action_discrete(m, params, x, y, N=n_grid)
        descent = disc.minimal_evidence["descent"]
        assert disc.flags == []
        assert descent["stop_reason"] == "converged"
        assert descent["iterations"] <= 20
        evidence = certify_minimal_candidate(m, params, shoot, disc)
        assert evidence["J_agree"] and evidence["C_agree"] and evidence["below_background"]


@pytest.mark.parametrize("c", [0.1, 0.5])
def test_minimize_random_endpoints_moving_sphere_block(rng, c):
    m = models.sphere_cylinder(3, 1)
    for _ in range(4):
        x = models.random_point(m, rng)
        y = models.random_point(m, rng)
        disc = minimize_action_discrete(m, PhiParams(c), x, y, N=128)
        descent = disc.minimal_evidence["descent"]
        assert disc.flags == []
        assert descent["grad_norm"] <= descent["grad_tol"]


def test_minimize_budget_exhausted_stop_reason():
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    y = models.canonical_target(m, 5.0)
    path = minimize_action_discrete(m, PhiParams(0.5), x, y, N=64, max_iters=1)
    descent = path.minimal_evidence["descent"]
    assert path.flags == ["budget-exhausted"]
    assert descent["stop_reason"] == "budget-exhausted"
    assert descent["iterations"] == 1
    assert descent["backtracks"] >= 0


def test_minimize_refuses_a_grid_below_float_resolution():
    # one ulp apart at 1e8 on the flat axis: s_bar / N cannot move the
    # coordinate, so neighbouring nodes of the start path coincide
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    x[m.euclid_factors[0].start] = 1e8
    y = x.copy()
    y[m.euclid_factors[0].start] = np.nextafter(1e8, np.inf)
    with pytest.raises(PreconditionError, match="below the float resolution"):
        minimize_action_discrete(m, PhiParams(0.1), x, y, N=64)


def test_minimize_requires_enough_nodes():
    m = models.gaussian(2)
    with pytest.raises(ValueError):
        minimize_action_discrete(m, PhiParams(0.1), np.zeros(2), np.ones(2), N=8)


def test_action_and_conserved_examples():
    g = models.gaussian(2)
    straight = integrate_ivp(g, PhiParams(0.1), np.zeros(2), np.array([1.0, 0.0]), 5.0)
    assert action(g, PhiParams(0.1), straight) == pytest.approx(5.0, abs=1e-12)
    c_val, drift = conserved_quantity(g, PhiParams(0.1), straight)
    assert c_val == pytest.approx(1.0, abs=1e-13)
    assert drift <= 1e-13

    s = models.round_sphere(2)
    x = models.base_point(s)
    y = models.canonical_target(s, 3.0)
    arc = solve_bvp_shooting(s, PhiParams(0.1), x, y)
    assert arc.action_J == pytest.approx(3.3, abs=1e-9)
    assert arc.C_value == pytest.approx(0.9, abs=1e-9)

    m = models.sphere_cylinder(2, 2)
    shoot = solve_bvp_shooting(m, PhiParams(0.1), models.base_point(m),
                               models.canonical_target(m, 10.0))
    assert shoot.drift <= 1e-6


@pytest.mark.parametrize("c", [0.05, 0.1, 0.5])
def test_conserved_bracket_for_minimal_candidates(c):
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(c)
    x = models.base_point(m)
    y = models.canonical_target(m, 5.0)
    shoot = solve_bvp_shooting(m, params, x, y)
    disc = minimize_action_discrete(m, params, x, y, N=128)
    certify_minimal_candidate(m, params, shoot, disc)
    assert shoot.is_minimal_candidate
    for path in (shoot, disc):
        assert 1.0 - c - 1e-3 <= path.C_value <= 1.0 + c + 1e-3


def test_speed_envelope(model):
    if model.degenerate:
        c = 0.1
    else:
        c = 0.3
    params = PhiParams(c)
    x = models.base_point(model)
    r = 2.0 if model.is_compact else 8.0
    y = models.canonical_target(model, r)
    path = solve_bvp_shooting(model, params, x, y)
    max_speed = float(np.max(np.sqrt(path.speed_sq())))
    assert max_speed <= math.sqrt(path.C_value + c) + 1e-6


def test_endpoint_consistency(model):
    params = PhiParams(0.1)
    x = models.base_point(model)
    r = 2.0 if model.is_compact else 6.0
    y = models.canonical_target(model, r)
    path = solve_bvp_shooting(model, params, x, y, tol=1e-10)
    assert float(models.distance(model, path.pos[0], x)) <= 1e-12
    assert float(models.distance(model, path.pos[-1], y)) <= 1e-9


def test_path_serialization(tmp_path):
    m = models.sphere_cylinder(2, 2)
    params = PhiParams(0.1)
    path = solve_bvp_shooting(m, params, models.base_point(m),
                              models.canonical_target(m, 5.0))
    lines = list(path_csv_lines(m, params, path))
    header = lines[0].split(",")
    assert header == (
        ["s"] + [f"p{i}" for i in range(5)] + [f"v{i}" for i in range(5)]
        + ["speed_sq", "phi", "r"]
    )
    assert len(lines) == path.n_nodes + 1
    dest = tmp_path / "path.csv"
    phigeo.write_path_csv(dest, m, params, path)
    assert dest.read_text().count("\n") == path.n_nodes + 1
    meta = path_json_dict(m, params, path)
    assert meta["model"] == m.label
    assert meta["C_value"] == path.C_value
    assert meta["n_nodes"] == path.n_nodes
