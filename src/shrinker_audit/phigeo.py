"""Potential-geodesic machinery.

Paths here are critical points of the action

    J(gamma) = integral of |gamma'|^2 + 2*phi(gamma) ds,

with the potential phi = c*R/(2f) built from the model's scalar curvature
and soliton potential. Critical points satisfy the Newton-type equation
(covariant acceleration equals grad phi) and carry the first integral
|S|^2 - 2*phi = C, which every solver monitors as its drift diagnostic.

On the catalog models R is constant and f depends only on the Euclidean
coordinates, so grad phi = -(c*R/(2 f^2)) grad f lives entirely in the
Euclidean blocks; sphere components feel only the constraint curvature.

Two independent boundary-value solvers are provided so each can serve as the
other's oracle: damped-Newton shooting on the endpoint-miss map, and direct
minimization of the discretized action over interior nodes (H¹-preconditioned
Barzilai-Borwein descent -- the Sobolev gradient of Neuberger, *Sobolev
Gradients and Differential Equations*, LNM 1670 (1997) -- with a nonmonotone
Armijo backtracking line search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import quadrature
from .errors import (
    ConfigError,
    DegenerateEndpointsError,
    DriftExceededError,
    IllConditionedShootingError,
    PreconditionError,
    ShootingConvergenceError,
)
from .models import (
    ModelSpec,
    background_geodesic,
    distance,
    exp_map,
    grad_potential,
    log_map,
    potential_f,
    project_point,
    project_tangent,
    radial_distance,
    tangent_basis,
    validate_point,
    validate_tangent,
)
from .paths import PhiPath

MAX_IVP_STEP = 1e-2
DEFAULT_DRIFT_TOL = 1e-6
# shooting's endpoint tolerance; a path shorter than 1 scales it by s_bar
DEFAULT_SHOOT_TOL = 1e-10
# Most RK4 substeps shooting's fine schedule may take: 7 per interval of the
# largest grid quadrature.audit_grid admits, as an interval of at most 1/16
# (the default density) takes at the default step. More are refused.
MAX_SCHEDULE_SUBSTEPS = 7 * quadrature.MAX_GRID_INTERVALS
# shooting's predictor marches in substeps this many times the audit step
PREDICTOR_STEP_FACTOR = 8
# shooting's fine run marches the audit grid in segments of this many intervals
SEGMENT_INTERVALS = 16
# each Newton run of shooting takes at most this many iterations
MAX_NEWTON = 100
DEFAULT_DESCENT_N = 256  # the discrete minimizer's grid intervals
DEFAULT_DESCENT_ITERS = 10000  # and its iteration budget
# the discrete minimizer stops once |grad| <= DESCENT_GRAD_TOL * (1 + |J|)
DESCENT_GRAD_TOL = 1e-6
# certify_minimal_candidate: |J_s - J_d| <= CERTIFY_J_RTOL * (1 + |J_s|),
# |C_s - C_d| <= CERTIFY_C_ATOL and J_s <= J_background + CERTIFY_ACTION_SLACK
CERTIFY_J_RTOL = 1e-3
CERTIFY_C_ATOL = 1e-3
CERTIFY_ACTION_SLACK = 1e-6


@dataclass(frozen=True)
class PhiParams:
    """Potential strength: 2*phi = c * R/f. Audits additionally need c < 1."""

    c: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise ConfigError(f"potential constant c must be positive (got {self.c})")


def phi_value(model: ModelSpec, params: PhiParams, pos: np.ndarray) -> np.ndarray:
    """phi at one point or a batch; the flat model returns 0 by the R = 0 limit."""
    cR = params.c * model.scalar_R
    if cR == 0.0:
        pos = np.asarray(pos, dtype=float)
        return np.zeros(pos.shape[:-1])
    return cR / (2.0 * potential_f(model, pos))


def grad_phi(model: ModelSpec, params: PhiParams, pos: np.ndarray) -> np.ndarray:
    cR = params.c * model.scalar_R
    pos = np.asarray(pos, dtype=float)
    if cR == 0.0:
        return np.zeros_like(pos)
    f = potential_f(model, pos)
    coef = -cR / (2.0 * f * f)
    return coef[..., None] * grad_potential(model, pos)


# ---------------------------------------------------------------------------
# Initial-value integration (classical RK4 with sphere renormalization)
# ---------------------------------------------------------------------------


class _Dynamics:
    """Equations of motion of one model on a batch of phase states, component-major.

    A state is a ``(2 * ambient, batch)`` array: row i holds coordinate i of
    every column, positions first, then velocities, and each column is one
    phase state. Only the geometry lives here: the potential strength
    cR = c * R and the step size come in as ``(1, batch)`` rows, so columns
    of different c and of different schedules share one step. Every
    operation is elementwise along the batch, and a factor's dot product is
    x[0] * y[0] + x[1] * y[1] + ... over its contiguous coordinate rows,
    summed in coordinate order (``_dot``). So a column's trajectory is
    bitwise the same in any batch and at any position, and no BLAS kernel
    decides its bits. Further trailing axes broadcast the same way, so
    ``energy`` takes a march's whole trace of states at once.
    """

    def __init__(self, model: ModelSpec):
        a = model.ambient_dim
        self.ambient = a
        # c > 0, so cR vanishes on every column exactly when R does
        self.forced = model.scalar_R != 0.0
        self.f_offset = sum(f.dim / 2.0 for f in model.sphere_factors)
        # (position rows, velocity rows) of each factor
        self.euclid = [(slice(f.start, f.stop), slice(a + f.start, a + f.stop))
                       for f in model.euclid_factors]
        self.sphere = [(slice(f.start, f.stop), slice(a + f.start, a + f.stop), f.radius**2)
                       for f in model.sphere_factors]

    def potential_f(self, state: np.ndarray):
        f = self.f_offset
        for p, _ in self.euclid:
            x = state[p]
            f = f + _dot(x, x) / 4.0
        return f

    def energy(self, state: np.ndarray, cR) -> np.ndarray:
        """|S|^2 - 2*phi of each column, with cR broadcast along the batch."""
        vel = state[self.ambient:]
        e = _dot(vel, vel)
        if self.forced:
            e = e - cR / self.potential_f(state)
        return e

    def deriv(self, state: np.ndarray, cR: np.ndarray) -> np.ndarray:
        """Phase velocity ``[velocity | acceleration]`` of each column."""
        out = np.zeros(state.shape)
        out[: self.ambient] = state[self.ambient :]
        if self.forced and self.euclid:
            f = self.potential_f(state)
            coef = -cR / (4.0 * f * f)
            for p, v in self.euclid:
                np.multiply(coef, state[p], out=out[v])
        for p, v, r_sq in self.sphere:
            w = state[v]
            # dividing by -r_sq equals negating the quotient, bit for bit
            np.multiply(_dot(w, w) / -r_sq, state[p], out=out[v])
        return out

    def renormalize(self, state: np.ndarray) -> None:
        """Put sphere blocks back on their sphere and tangent to it, in place."""
        for p, v, r_sq in self.sphere:
            u = state[p]
            u *= math.sqrt(r_sq) / np.sqrt(_dot(u, u))
            w = state[v]
            w -= (_dot(u, w) / r_sq) * u

    def rk4_step(self, state: np.ndarray, h: np.ndarray, cR: np.ndarray) -> np.ndarray:
        """One RK4 step of every column, with ``(1, batch)`` step sizes and cR."""
        k1 = self.deriv(state, cR)
        k2 = self.deriv(state + (0.5 * h) * k1, cR)
        k3 = self.deriv(state + (0.5 * h) * k2, cR)
        k4 = self.deriv(state + h * k3, cR)
        new = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        self.renormalize(new)
        return new


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0] * y[0] + x[1] * y[1] + ... over the leading axis, summed in that order."""
    total = x[0] * y[0]
    for i in range(1, len(x)):
        total += x[i] * y[i]
    return total


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each run starts when runs of ``counts`` items are laid end to end."""
    return np.cumsum(counts) - counts


def _substep_counts(gaps, step):
    """How many equal substeps no larger than ``step`` split each gap."""
    return np.maximum(1, np.ceil(gaps / step - 1e-12)).astype(int)


class _Record(NamedTuple):
    """Row 0 of a march: node states and energies, and energy bounds over every substep."""

    pos: np.ndarray
    vel: np.ndarray
    energies: np.ndarray
    e_min: float
    e_max: float


def _march(dyn: _Dynamics, blocks) -> list:
    """March blocks of ``(batch, ambient)`` states in lockstep, each landing on its own nodes.

    A block is ``(starts, v0, cR, s_nodes, step)``. Each gap of a block's
    ``s_nodes`` is split into equal substeps no larger than the block's own
    ``step``, and one batched RK4 step advances every row of every block
    that still has substeps left, so blocks of different step sizes and
    lengths share the rounds. The rows are stacked once into the columns
    of one component-major ``_Dynamics`` state, with their step sizes and
    cR as ``(1, batch)`` rows. Blocks run longest schedule first, so the
    live columns are a prefix that shrinks as schedules end; a finished
    column is never stepped again. Every row comes out bitwise as if
    marched alone.

    Returns, per block in the given order, its rows' final positions and
    velocities and the ``_Record`` of its row 0, whose state is kept after
    every substep. The schedules of all blocks are formed together, and the
    energies of every kept state are evaluated in one call at the end,
    bitwise the per-substep values. The one-row integrator and the shooting
    trials of every cell of a grid (each trial, or each segment of one, a
    block with its forward-difference rows) share this routine.
    """
    # every gap of every block, block after block, and its substeps
    n_gaps = np.array([len(s_nodes) - 1 for *_, s_nodes, _ in blocks])
    gaps = np.concatenate([np.diff(s_nodes) for *_, s_nodes, _ in blocks])
    n_sub = _substep_counts(gaps, np.repeat([step for *_, step in blocks], n_gaps))
    lengths = np.add.reduceat(n_sub, _starts(n_gaps))  # each block's substeps
    # blocks take slots longest schedule first; slot k marches the columns
    # heads[k]:ends[k], and takes its substep j at size h[j, k]
    order = np.argsort(-lengths, kind="stable")
    slot = np.argsort(order)
    counts = np.array([len(blocks[b][0]) for b in order])
    heads = _starts(counts)
    ends = heads + counts
    h = np.zeros((lengths.max(), len(blocks)))
    h[np.arange(lengths.sum()) - np.repeat(_starts(lengths), lengths),
      np.repeat(slot, lengths)] = np.repeat(gaps / n_sub, n_sub)
    columns = np.repeat(np.arange(len(blocks)), counts)  # the slot of each column
    cR = np.array([blocks[b][2] for b in order], dtype=float)
    state = np.concatenate([np.concatenate(blocks[b][:2], axis=1, dtype=float)
                            for b in order]).T.copy()
    # each slot's row 0 after every substep; an ended slot's states stay 0
    trace = np.zeros((len(state), len(h) + 1, len(blocks)))
    trace[:, 0] = state[:, heads]
    live = len(blocks)
    # a row that overflows turns inf or NaN quietly; the caller rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(h)):
            while lengths[order[live - 1]] == k:
                live -= 1
            n = ends[live - 1]
            state[:, :n] = dyn.rk4_step(state[:, :n], h[k, columns[:n]][None],
                                        cR[columns[:n]][None])
            trace[:, k + 1, :live] = state[:, heads[:live]]
        energies = dyn.energy(trace, cR)
        kept = np.arange(len(h) + 1)[:, None] <= lengths[order]
        e_min = np.where(kept, energies, np.inf).min(axis=0)
        e_max = np.where(kept, energies, -np.inf).max(axis=0)
    # each block's nodes: substep 0, then the last substep of each gap
    nodes = np.insert(np.cumsum(n_sub) - np.repeat(_starts(lengths), n_gaps), _starts(n_gaps), 0)
    node_slots = np.repeat(slot, n_gaps + 1)
    a = dyn.ambient
    pos = trace[:a, nodes, node_slots].T
    vel = trace[a:, nodes, node_slots].T
    node_energies = energies[nodes, node_slots]
    final = state.T.copy()
    out = []
    for k, lo, hi in zip(slot, _starts(n_gaps + 1), np.cumsum(n_gaps + 1)):
        record = _Record(pos[lo:hi].copy(), vel[lo:hi].copy(), node_energies[lo:hi],
                         e_min[k], e_max[k])
        out.append((final[heads[k] : ends[k], :a], final[heads[k] : ends[k], a:], record))
    return out


def _recorded_path(model, params, record: _Record, s_nodes, pieces, step: float,
                   drift_tol: float) -> PhiPath:
    """``PhiPath`` of a march record; its first integral must hold within ``drift_tol``.

    C is the median node energy, and the drift bounds the deviation from it
    over every substep. A march that overflowed has a non-finite energy
    and is refused before its median is taken.
    """
    for energy in (record.e_min, record.e_max):
        if not math.isfinite(energy):
            raise DriftExceededError(
                f"conserved-quantity energy {energy} is not finite; the march overflowed"
            )
    c_value = float(np.median(record.energies))
    drift = max(record.e_max - c_value, c_value - record.e_min)
    if drift > drift_tol:
        raise DriftExceededError(
            f"conserved-quantity drift {drift:.3e} exceeds {drift_tol:.1e}; "
            f"step {step} is too large"
        )
    path = PhiPath(s=s_nodes, pos=record.pos, vel=record.vel, C_value=c_value,
                   drift=float(drift), pieces=pieces)
    path.action_J = action(model, params, path)
    return path


def integrate_ivp(
    model: ModelSpec,
    params: PhiParams,
    p0: np.ndarray,
    v0: np.ndarray,
    s_end: float,
    step: float = MAX_IVP_STEP,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> PhiPath:
    """Integrate the equations of motion from (p0, v0) over [0, s_end].

    The nodes are uniform, ceil(s_end / step) intervals, one RK4 step each.
    Sphere components are renormalized after every step. The first integral
    |S|^2 - 2*phi is monitored at every internal step; exceeding
    ``drift_tol`` aborts (the step is too large for the requested drift).

    No subcommand calls it: it is the test reference for the integrator
    that shooting marches with (scipy's ``solve_ivp`` and the drift-order
    tests check it).
    """
    if step > MAX_IVP_STEP * (1.0 + 1e-12):
        raise ValueError(f"integration step {step} exceeds the maximum {MAX_IVP_STEP}")
    if s_end <= 0.0:
        raise ValueError("s_end must be positive")
    validate_point(model, p0)
    validate_tangent(model, p0, v0)
    s_nodes = np.linspace(0.0, s_end, max(1, math.ceil(s_end / step)) + 1)
    pos = project_point(model, p0)
    vel = project_tangent(model, pos, v0)
    block = (pos[None], vel[None], params.c * model.scalar_R, s_nodes, step)
    ((_, _, record),) = _march(_Dynamics(model), [block])
    return _recorded_path(model, params, record, s_nodes, (), step, drift_tol)


# ---------------------------------------------------------------------------
# Action and conserved quantity on sampled paths
# ---------------------------------------------------------------------------


def action(model: ModelSpec, params: PhiParams, path: PhiPath) -> float:
    """Composite Simpson quadrature of |S|^2 + 2*phi over the path grid."""
    integrand = path.speed_sq() + 2.0 * phi_value(model, params, path.pos)
    pieces = [(i0, i1, 1.0) for i0, i1 in path.pieces]
    return quadrature.integrate_pieces(path.s, integrand, pieces)[0]


def conserved_quantity(model: ModelSpec, params: PhiParams, path: PhiPath):
    """(C, drift): median of |S|^2 - 2*phi over nodes and its max deviation."""
    e = path.speed_sq() - 2.0 * phi_value(model, params, path.pos)
    c_value = float(np.median(e))
    return c_value, float(np.max(np.abs(e - c_value)))


# ---------------------------------------------------------------------------
# Boundary-value solver 1: damped-Newton shooting
# ---------------------------------------------------------------------------


def solve_bvp_shooting(
    model: ModelSpec,
    params: PhiParams,
    x: np.ndarray,
    y: np.ndarray,
    tol: float = DEFAULT_SHOOT_TOL,
    step: float = MAX_IVP_STEP,
    density: int = quadrature.DEFAULT_DENSITY,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> PhiPath:
    """Find the initial velocity whose trajectory lands on y at s = d(x, y).

    The parameter interval is [0, d(x, y)]; the speed is whatever the solver
    finds. Initial guess: the background-geodesic velocity scaled to speed
    sqrt(1 + c * mean(R/f)). Newton iterations act on velocity coefficients
    ``a`` in an orthonormal tangent basis and on the phase state at each of
    zero or more joints, with forward-difference Jacobians (step 1e-7 * (1 +
    |unknowns|)) and Armijo damping. This is multiple shooting (Stoer &
    Bulirsch, *Introduction to Numerical Analysis*, §7.3.5): the residual is
    the joint defects and the endpoint miss, and every segment of a trial
    marches in the same round, so a round costs one segment's RK4 steps
    instead of the whole grid's. The Jacobian is condensed to the n x n
    endpoint map, which takes the conditioning check. With no joints the
    trial is single shooting, bit for bit.

    The path keeps the pieces of ``quadrature.audit_grid(s_bar, density)``;
    more than ``MAX_SCHEDULE_SUBSTEPS`` RK4 substeps on it are refused
    before any march. Newton runs twice (``_newton``), each with up to
    ``MAX_NEWTON`` iterations, until the residual norm is below
    ``tol * min(1, s_bar)``, so that a tiny distance still corrects its
    start. The audit grid is cut into segments of ``SEGMENT_INTERVALS``
    intervals. The predictor marches the coarse nodes [0, cuts, s_bar] in
    substeps of ``PREDICTOR_STEP_FACTOR * step``, with a joint at every
    inner one, started at the background geodesic's state there: position
    exp_x((s / s_bar) log_x y), velocity log_p(y) / (s_bar - s) scaled like
    the initial guess. Newton takes the same number of iterations on a
    coarse discretization as on a fine one and lands within the
    discretization gap of the fine root (Allgower, Böhmer, Potra &
    Rheinboldt, SIAM J. Numer. Anal. 23, 1986), and a segmented round costs
    one gap's steps, so its rounds are cheap. The fine run marches the audit
    grid at ``step`` with a joint at every cut, from the converged
    predictor's ``a`` and states there, and usually needs one Newton step.
    When the predictor did not converge, the fine run is single shooting
    from the initial guess with no joints, so a failed predictor costs its
    marches and nothing else. Only the fine run can fail the solve.

    A trial marches segment 0 from x with ``a`` and its n perturbations
    ``a + delta e_j``, and every other segment from its joint's state with
    its 2n perturbations, all in one batched ``_march``: row 0 gives the
    residual, the other rows the Jacobian columns. Rows are independent, so
    both are bitwise those of separate marches, and an accepted line-search
    trial brings the next iteration's Jacobian with it, and its row-0
    records. The returned path is the converged fine trial's segment
    records joined end to end on the audit grid, each joint node holding
    the solved joint state. It must keep the first integral within
    ``drift_tol`` over every substep of every segment.

    ``minimal_evidence["shooting"]`` records the fine run's deterministic
    counts: Newton iterations, rejected line-search trials (backtracks),
    marches and the rows they carried, RK4 steps, the final endpoint miss
    and the stop reason; ``predictor`` holds the same counts (rows aside)
    for the segmented predictor, whose stop reason is ``converged``,
    ``stalled``, ``budget-exhausted`` or ``ill-conditioned``, and its
    ``segments``. The counts are the problem's own: a march counts its own
    rows, and its own substeps over every segment as RK4 steps, whatever
    else shared the batch, and every march is counted once. A fine run with
    joints adds ``segments``, ``max_joint_defect`` (the largest joint
    defect's norm) and ``march_steps`` (the longest segment's substeps: the
    RK4 step calls one of its marches costs in lockstep).

    This is the one-problem case of ``solve_bvp_shooting_batch``; a batch
    returns bitwise the same path for each problem.
    """
    (path,) = solve_bvp_shooting_batch(
        model, [(params, x, y)], tol=tol, step=step, density=density, drift_tol=drift_tol,
    )
    if isinstance(path, Exception):
        raise path
    return path


def solve_bvp_shooting_batch(
    model: ModelSpec,
    problems,
    tol: float = DEFAULT_SHOOT_TOL,
    step: float = MAX_IVP_STEP,
    density: int = quadrature.DEFAULT_DENSITY,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> list:
    """Shoot every ``(params, x, y)`` problem on one model in lockstep.

    Each problem runs its own Newton/Armijo iterations (``_shooting``). A
    round collects the march blocks of the pending trials (one block per
    segment) and marches them all in one ``_march``, whatever their c and
    their grids; it costs the RK4 steps of its longest block. Rounds are
    phase-aligned: while any problem still has a predictor trial pending
    (marched at ``PREDICTOR_STEP_FACTOR * step``), only those trials march,
    and the fine trials wait. So a problem whose predictor converged early
    does not turn a round that the others spend on their predictors into one
    that costs a fine segment's steps. Rows never mix, so every path, and
    every count in its ``minimal_evidence``, is bitwise that of a
    ``solve_bvp_shooting`` call on the problem alone. Returns, in the given
    order, each problem's ``PhiPath``, or the exception it raised; a failed
    problem stops marching and the others carry on.
    """
    dyn = _Dynamics(model)
    results = [None] * len(problems)
    pending = []

    def advance(i, solver, reply):
        try:
            pending.append((i, solver, solver.send(reply)))
        except StopIteration as done:
            results[i] = done.value
        except Exception as exc:  # the problem's own failure, for the caller to raise
            results[i] = exc

    for i, (params, x, y) in enumerate(problems):
        advance(i, _shooting(model, params, x, y, tol, step, density, drift_tol), None)
    while pending:
        # a predictor's trial marches at more than ``step``;
        # while any such coarse trial is pending, the fine ones wait
        coarse = [entry for entry in pending if entry[2][0][4] > step]
        fine = [entry for entry in pending if entry[2][0][4] <= step]
        batch, pending = (coarse, fine) if coarse else (fine, [])
        ends = iter(_march(dyn, [block for *_, blocks in batch for block in blocks]))
        for i, solver, blocks in batch:
            advance(i, solver, [next(ends) for _ in blocks])
    return results


class _Newton(NamedTuple):
    """Where one Newton run stopped, and what it took to get there."""

    a: np.ndarray
    miss: float
    residual: np.ndarray
    record: _Record
    iterations: int
    backtracks: int
    marches: int
    stop_reason: str

    def counts(self, s_nodes, step) -> dict:
        """The run's report counts; a miss that is not finite reads None."""
        return {
            "newton_iterations": self.iterations,
            "backtracks": self.backtracks,
            "marches": self.marches,
            "rk4_steps": self.marches * int(_substep_counts(np.diff(s_nodes), step).sum()),
            "final_miss": self.miss if math.isfinite(self.miss) else None,
            "stop_reason": self.stop_reason,
        }


class _Condensed(NamedTuple):
    """A multiple-shooting Jacobian, condensed onto the start coefficients ``a``.

    The unknowns are ``a`` and the coordinates z_k of each joint; the
    residual is the joint defects D_k = F_k(z_{k-1}) - z_k, then the
    endpoint miss M. The Jacobian is block-bidiagonal: [G_{k-1}, -I] in the
    rows of D_k and H in those of M. So the Newton step moves z_k by
    w_k + P_k d_a, with w_k = D_k + G_{k-1} w_{k-1} and P_k = G_{k-1} P_{k-1}
    (Stoer & Bulirsch, *Introduction to Numerical Analysis*, §7.3.5), and
    d_a solves ``endpoint @ d_a = -miss``: ``endpoint`` = H P is the n x n
    Jacobian of the endpoint miss in ``a`` through the linearized segments,
    the matrix single shooting would see, and ``miss`` = M + H w.
    """

    endpoint: np.ndarray
    miss: np.ndarray
    offsets: np.ndarray  # w, with zeros for a
    sweep: np.ndarray  # P, stacked under the identity for a

    def step(self) -> np.ndarray:
        return self.offsets + self.sweep @ np.linalg.solve(self.endpoint, -self.miss)


def _condense(flows, end_jac, defects, miss) -> _Condensed:
    """Condense the Jacobian whose blocks are ``flows`` G_0.. and ``end_jac`` H.

    ``defects`` are D_1.. and ``miss`` is M, as in ``_Condensed``. With no
    flows (no joints) the endpoint map is H I, the miss M + H 0 and the step
    0 + I solve(H, -M): for finite H, bitwise H, M and single shooting's
    step, and a non-finite H stays non-finite.
    """
    offset, sweep = np.zeros(len(miss)), np.eye(len(miss))
    offsets, sweeps = [offset], [sweep]
    for flow, defect in zip(flows, defects):
        offset, sweep = defect + flow @ offset, flow @ sweep
        offsets.append(offset)
        sweeps.append(sweep)
    return _Condensed(end_jac @ sweep, miss + end_jac @ offset, np.concatenate(offsets),
                      np.vstack(sweeps))


def _newton(trial, a, schedule, tol, max_newton):
    """Armijo-damped Newton on a shooting residual from unknowns ``a``, as a generator.

    ``trial(a, *schedule)`` is a generator that yields the list of
    ``_march`` blocks of ``a`` on the schedule ``(s_nodes, step)`` and
    returns the residual, its ``_Condensed`` Jacobian and the row-0 record
    of the trial's path; the condensed endpoint map is what the
    conditioning check sees. A Newton step is halved until the residual
    norm falls by the Armijo factor, down to 1/256 of it. The run stops
    ``converged`` (norm < ``tol``), ``ill-conditioned`` (an endpoint map
    that is not finite or has condition > 1e10), ``stalled`` (no step
    accepted) or ``budget-exhausted`` (``max_newton`` iterations); it
    returns a ``_Newton`` and raises nothing.
    """
    m, jac, record = yield from trial(a, *schedule)
    m_norm = float(np.linalg.norm(m))
    iterations = backtracks = 0
    marches = 1
    stop = None
    while stop is None:
        if m_norm < tol:
            stop = "converged"
        elif iterations >= max_newton:
            stop = "budget-exhausted"
        elif not np.isfinite(jac.endpoint).all() or np.linalg.cond(jac.endpoint) > 1e10:
            stop = "ill-conditioned"
        else:
            iterations += 1
            step_dir = jac.step()
            t = 1.0
            while t >= 1.0 / 256.0:
                a_try = a + t * step_dir
                m_try, jac_try, record_try = yield from trial(a_try, *schedule)
                marches += 1
                m_try_norm = float(np.linalg.norm(m_try))
                if m_try_norm < (1.0 - 1e-4 * t) * m_norm:
                    a, m, jac, m_norm, record = a_try, m_try, jac_try, m_try_norm, record_try
                    break
                t *= 0.5
                backtracks += 1
            else:
                stop = "stalled"
    return _Newton(a, m_norm, m, record, iterations, backtracks, marches, stop)


# the typed error and message of each way a fine shooting run can fail;
# accepted trials only lower the miss, so a run's last miss is its best
_FINE_FAILURES = {
    "ill-conditioned": (IllConditionedShootingError,
                        "endpoint-miss Jacobian is ill-conditioned "
                        "(conjugate-point-like configuration at s_bar = {s_bar:.4g})"),
    "stalled": (ShootingConvergenceError, "shooting stalled with endpoint miss {miss:.3e}"),
    "budget-exhausted": (ShootingConvergenceError,
                         "no convergence in {max_newton} Newton iterations "
                         "(best endpoint miss {miss:.3e})"),
}


class _Joints:
    """Tangent coordinates of the phase states at the joints of a shooting trial.

    Joint j is charted around a reference state (p_j, v_j) with the
    orthonormal basis B_j, entry j of one stacked ``tangent_basis`` call on
    every p_j: a state (p, v) has the
    2n coordinates (B_j log_{p_j}(p), B_j v), measured as the endpoint miss
    is. Back, p = exp_{p_j}(xi B_j), and v is eta B_j plus, on each sphere
    factor, the multiple of p_j's block that makes it tangent at p; its
    B_j-components are then eta. So coordinates give back their state, up
    to rounding. ``at`` arguments are joint indices, one per state. There
    may be no joints; every array then keeps its shape with a leading 0.
    """

    def __init__(self, model, pos, vel):
        self.model = model
        self.pos = pos
        self.basis = tangent_basis(model, pos)
        self.start = self.coords(pos, vel, np.arange(len(pos)))

    def coords(self, pos, vel, at):
        basis = self.basis[at]
        log = log_map(self.model, self.pos[at], pos)
        return np.concatenate([np.einsum("...na,...a->...n", basis, log),
                               np.einsum("...na,...a->...n", basis, vel)], axis=-1)

    def states(self, coords, at):
        n = self.model.n
        ref, basis = self.pos[at], self.basis[at]
        pos = exp_map(self.model, ref, np.einsum("...n,...na->...a", coords[..., :n], basis))
        vel = np.einsum("...n,...na->...a", coords[..., n:], basis)
        for f in self.model.sphere_factors:
            u_ref, u, w = (arr[..., f.start : f.stop] for arr in (ref, pos, vel))
            w -= (np.vecdot(w, u) / np.vecdot(u_ref, u))[..., None] * u_ref
        return pos, vel


def _joined(records) -> _Record:
    """Segment records end to end; each joint node takes the next segment's start."""

    def join(name):
        return np.concatenate([getattr(r, name)[:-1] for r in records[:-1]]
                              + [getattr(records[-1], name)])

    return _Record(join("pos"), join("vel"), join("energies"),
                   min(r.e_min for r in records), max(r.e_max for r in records))


def _shooting(model, params, x, y, tol, step, density, drift_tol):
    """The predictor and fine Newton runs of one shooting problem, as a generator.

    It yields each trial's list of ``_march`` blocks ``(starts, v0, cR,
    s_nodes, step)`` and receives their ``(p_end, v_end, record)`` triples;
    it returns the ``PhiPath`` of the converged fine trial.

    Every run uses the one trial below: segments between the node indices
    ``cuts`` with a ``_Joints`` at every inner cut, unknowns z = [a, each
    joint's coordinates], and the joint defects, then the endpoint miss, as
    residual. The predictor takes every coarse node as a cut, with joints at
    the background geodesic's states; the fine run takes the audit grid's
    cuts, or none when the predictor failed. A run with joints reports its
    residual norm, joint defects included, as its miss. A trial that
    overflowed has a non-finite residual, which the Armijo test rejects.
    """
    validate_point(model, x)
    validate_point(model, y)
    s_bar = float(distance(model, x, y))
    if s_bar <= 0.0:
        raise DegenerateEndpointsError(f"{model}: shooting needs x != y")
    s_out, pieces = quadrature.audit_grid(s_bar, density)
    n_sub = _substep_counts(np.diff(s_out), step)
    if n_sub.sum() > MAX_SCHEDULE_SUBSTEPS:
        raise PreconditionError(
            f"{model}: step {step} takes {n_sub.sum()} RK4 substeps over s_bar = {s_bar:.6g}, "
            f"more than MAX_SCHEDULE_SUBSTEPS = {MAX_SCHEDULE_SUBSTEPS}"
        )
    tol = tol * min(1.0, s_bar)
    bg = background_geodesic(model, x, y, 64)
    if model.scalar_R == 0.0:
        mean_rof = 0.0
    else:
        mean_rof = float(np.mean(model.scalar_R / potential_f(model, bg.pos)))
    speed = math.sqrt(1.0 + params.c * mean_rof)
    v_guess = bg.vel[0] * speed
    basis_x = tangent_basis(model, x)
    basis_y = tangent_basis(model, y)
    dim = basis_x.shape[0]
    starts = np.tile(x, (dim + 1, 1))
    cR = params.c * model.scalar_R

    def trial(cuts, joints, z: np.ndarray, s_nodes, h: float):
        coords = z[dim:].reshape(-1, 2 * dim)
        # the forward-difference steps of segment 0, then of each joint
        deltas = 1e-7 * (1.0 + np.array([np.linalg.norm(z[:dim]),
                                         *np.linalg.norm(coords, axis=1)]))
        head = np.vstack([z[:dim], z[:dim] + deltas[0] * np.eye(dim)])
        rows = np.concatenate(
            [coords[:, None], coords[:, None] + deltas[1:, None, None] * np.eye(2 * dim)], axis=1)
        # a (1, dim) @ (dim, ambient) product per row: bitwise ``row @ basis_x``
        segment_starts = [(starts, (head[:, None] @ basis_x)[:, 0]),
                          *zip(*joints.states(rows, np.arange(len(coords))[:, None]))]
        ends = yield [(p, v, cR, s_nodes[lo : hi + 1], h)
                      for (p, v), lo, hi in zip(segment_starts, cuts, cuts[1:])]
        p_ends, v_ends, records = zip(*ends)
        # every segment but the last lands at the next joint; segment k's
        # rows start at row firsts[k] of the ends joined end to end
        firsts = np.cumsum([0, *(len(p) for p in p_ends)])[:-1]
        landed = joints.coords(np.concatenate(p_ends)[: firsts[-1]],
                               np.concatenate(v_ends)[: firsts[-1]],
                               np.repeat(np.arange(len(coords)), np.diff(firsts)))
        defects = landed[firsts[:-1]] - coords
        flows = [(landed[lo + 1 : hi] - landed[lo]).T / d
                 for lo, hi, d in zip(firsts, firsts[1:], deltas)]
        misses = (basis_y @ log_map(model, y, p_ends[-1])[..., None])[..., 0]
        miss, end_jac = misses[0], (misses[1:] - misses[0]).T / deltas[-1]
        return (np.concatenate([defects.ravel(), miss]),
                _condense(flows, end_jac, defects, miss), _joined(records))

    # the node where each segment of the fine run starts, then the last node
    cuts = [*range(0, len(s_out) - 1, SEGMENT_INTERVALS), len(s_out) - 1]
    a_guess = basis_x @ v_guess
    coarse = (np.array([0.0, *s_out[cuts[1:-1]], s_bar]), PREDICTOR_STEP_FACTOR * step)
    # the predictor's joints start at the background geodesic's states
    # there, exp_x((s / s_bar) log_x y); log_x y is undefined for an antipodal
    # pair, but log_x of the background geodesic's midpoint never is
    s_joint = coarse[0][1:-1, None]
    mid = len(bg.s) // 2
    bg_pos = exp_map(model, x, (s_joint / bg.s[mid]) * log_map(model, x, bg.pos[mid]))
    bg_joints = _Joints(model, bg_pos, log_map(model, bg_pos, y) / (s_bar - s_joint) * speed)
    predictor = yield from _newton(partial(trial, range(len(coarse[0])), bg_joints),
                                   np.concatenate([a_guess, bg_joints.start.ravel()]),
                                   coarse, tol, MAX_NEWTON)
    if predictor.stop_reason == "converged":
        joints = _Joints(model, predictor.record.pos[1:-1], predictor.record.vel[1:-1])
        z = np.concatenate([predictor.a[:dim], joints.start.ravel()])
    else:
        # single shooting from the initial guess: no joints
        cuts, z = [0, len(s_out) - 1], a_guess
        joints = _Joints(model, np.empty((0, x.size)), np.empty((0, x.size)))
    fine = yield from _newton(partial(trial, cuts, joints), z, (s_out, step), tol, MAX_NEWTON)
    if fine.stop_reason in _FINE_FAILURES:
        error, message = _FINE_FAILURES[fine.stop_reason]
        raise error(f"{model}: " + message.format(s_bar=s_bar, miss=fine.miss,
                                                   max_newton=MAX_NEWTON))
    path = _recorded_path(model, params, fine.record, s_out, pieces, step, drift_tol)
    path.flags.append("shooting")
    counts = fine.counts(s_out, step)
    segments = len(cuts) - 1
    counts["rows_marched"] = fine.marches * (dim + 1 + (segments - 1) * (2 * dim + 1))
    if segments > 1:
        defects = fine.residual[:-dim].reshape(-1, 2 * dim)
        counts.update(
            final_miss=float(np.linalg.norm(fine.residual[-dim:])),
            segments=segments,
            max_joint_defect=float(np.linalg.norm(defects, axis=1).max()),
            march_steps=int(max(n_sub[lo:hi].sum() for lo, hi in zip(cuts, cuts[1:]))),
        )
    counts["predictor"] = predictor.counts(*coarse)
    counts["predictor"]["segments"] = len(coarse[0]) - 1
    path.minimal_evidence["shooting"] = counts
    return path


# ---------------------------------------------------------------------------
# Boundary-value solver 2: discrete action minimization
# ---------------------------------------------------------------------------


def _discrete_action(model, params, pos, ds, weights):
    segs = distance(model, pos[:-1], pos[1:])
    kinetic = float(np.sum(segs * segs)) / ds
    potential = 2.0 * ds * float(np.dot(weights, phi_value(model, params, pos)))
    return kinetic + potential


def _discrete_gradient(model, params, pos, ds):
    """Riemannian gradient of the discrete action at the interior nodes."""
    mid = pos[1:-1]
    log_prev = log_map(model, mid, pos[:-2])
    log_next = log_map(model, mid, pos[2:])
    grad = (-2.0 / ds) * (log_prev + log_next)
    grad += (2.0 * ds) * grad_phi(model, params, mid)
    return grad


def _solve_dirichlet_laplacian(rhs: np.ndarray) -> np.ndarray:
    """Solve tridiag(-1, 2, -1) u = rhs along axis 0, with zero Dirichlet ends.

    On interior nodes i, j = 1..n-1 the inverse is the Green's function
    min(i, j) * (n - max(i, j)) / n, evaluated in O(n) per column with a
    forward and a reverse prefix sum.
    """
    n = rhs.shape[0] + 1
    i = np.arange(1, n, dtype=float).reshape((n - 1,) + (1,) * (rhs.ndim - 1))
    head = np.cumsum(i * rhs, axis=0)
    tail = np.zeros_like(head)
    tail[:-1] = np.cumsum(((n - i) * rhs)[:0:-1], axis=0)[::-1]
    return ((n - i) * head + i * tail) / n


def minimize_action_discrete(
    model: ModelSpec,
    params: PhiParams,
    x: np.ndarray,
    y: np.ndarray,
    N: int = DEFAULT_DESCENT_N,
    max_iters: int = DEFAULT_DESCENT_ITERS,
) -> PhiPath:
    """Minimize the discretized action over interior nodes.

    Initialization is the background geodesic; endpoints stay fixed and the
    interval length is pinned to d(x, y). Descent is H¹-preconditioned
    Barzilai-Borwein (BB): steps follow the Sobolev gradient of Neuberger
    (*Sobolev Gradients and Differential Equations*, LNM 1670, 1997), the
    Riemannian gradient mapped through the inverse of the kinetic Hessian
    M = (2/ds) tridiag(-1, 2, -1) and projected onto the tangent spaces, so
    the iteration count does not grow with N. BB step lengths are measured
    in M, under a nonmonotone (10-step memory) Armijo safeguard (Raydan,
    SIAM J. Optim. 7, 1997); if backtracking hits its floor without progress
    the last iterate is returned with a ``stalled`` flag. Convergence is
    judged on the Euclidean norm of the Riemannian gradient. Velocities are
    reconstructed by central differences of log maps (second-order one-sided
    at endpoints). A grid whose spacing s_bar / N leaves two neighbouring
    nodes of the start path equal is below float resolution and refused.
    """
    if N < 16:
        raise ValueError("N must be >= 16")
    bg = background_geodesic(model, x, y, N)
    s = bg.s
    s_bar = bg.s_bar
    ds = s_bar / N
    if np.any(np.all(bg.pos[1:] == bg.pos[:-1], axis=-1)):  # the descent would collapse
        raise PreconditionError(f"{model}: the discrete grid's spacing s_bar / N = {ds:.3g} "
                                "is below the float resolution of the coordinates")
    weights = np.ones(N + 1)
    weights[0] = weights[-1] = 0.5
    pos = bg.pos.copy()
    flags = []
    j_val = _discrete_action(model, params, pos, ds, weights)
    grad = _discrete_gradient(model, params, pos, ds)
    g_norm = float(np.linalg.norm(grad))
    recent = [j_val]
    eta = 1.0
    prev_mid = None
    prev_grad = None
    iters = 0
    backtracks = 0
    while iters < max_iters and g_norm > DESCENT_GRAD_TOL * (1.0 + abs(j_val)):
        iters += 1
        mid = pos[1:-1]
        if prev_mid is not None:
            dz = mid - prev_mid
            dg = grad - prev_grad
            denom = float(np.sum(dz * dg))
            if denom > 1e-300:
                lap_dz = 2.0 * dz
                lap_dz[1:] -= dz[:-1]
                lap_dz[:-1] -= dz[1:]
                eta = (2.0 / ds) * float(np.sum(dz * lap_dz)) / denom
            eta = min(max(eta, 1e-10), 1e3)
        direction = project_tangent(
            model, mid, _solve_dirichlet_laplacian(grad) * (0.5 * ds)
        )
        slope = float(np.sum(grad * direction))
        j_ref = max(recent)
        accepted = False
        trial = eta
        for _ in range(40):
            cand = pos.copy()
            cand[1:-1] = exp_map(model, mid, -trial * direction)
            j_new = _discrete_action(model, params, cand, ds, weights)
            if j_new <= j_ref - 1e-4 * trial * slope:
                accepted = True
                break
            trial *= 0.5
            backtracks += 1
        if not accepted:
            flags.append("stalled")
            break
        prev_mid = mid
        prev_grad = grad
        pos = cand
        j_val = j_new
        recent.append(j_val)
        if len(recent) > 10:
            recent.pop(0)
        grad = _discrete_gradient(model, params, pos, ds)
        g_norm = float(np.linalg.norm(grad))
    if g_norm > DESCENT_GRAD_TOL * (1.0 + abs(j_val)) and "stalled" not in flags:
        flags.append("budget-exhausted")
    vel = np.empty_like(pos)
    log_next = log_map(model, pos[1:-1], pos[2:])
    log_prev = log_map(model, pos[1:-1], pos[:-2])
    vel[1:-1] = (log_next - log_prev) / (2.0 * ds)
    vel[0] = (4.0 * log_map(model, pos[0], pos[1]) - log_map(model, pos[0], pos[2])) / (2.0 * ds)
    vel[-1] = -(4.0 * log_map(model, pos[-1], pos[-2]) - log_map(model, pos[-1], pos[-3])) / (
        2.0 * ds
    )
    path = PhiPath(s=s, pos=pos, vel=vel, flags=flags)
    path.C_value, path.drift = conserved_quantity(model, params, path)
    path.action_J = action(model, params, path)
    path.minimal_evidence["descent"] = {
        "iterations": iters,
        "backtracks": backtracks,
        "stop_reason": flags[-1] if flags else "converged",
        "grad_norm": g_norm,
        "grad_tol": DESCENT_GRAD_TOL * (1.0 + abs(j_val)),
        "discrete_action": j_val,
    }
    return path


def certify_minimal_candidate(
    model: ModelSpec,
    params: PhiParams,
    shooting_path: PhiPath,
    discrete_path: PhiPath,
) -> dict:
    """Mark both paths as minimal candidates if the evidence supports it.

    Evidence: (a) the two independent solvers agree on J and C, and (b) the
    action does not exceed the action of the background geodesic under the
    same potential (the comparison path for the upper bound).
    """
    j_s, j_d = shooting_path.action_J, discrete_path.action_J
    c_s, c_d = shooting_path.C_value, discrete_path.C_value
    x = shooting_path.pos[0]
    y = shooting_path.pos[-1]
    bg = background_geodesic(model, x, y, 256)
    j_bg = action(model, params, bg)
    evidence = {
        "J_shooting": j_s,
        "J_discrete": j_d,
        "J_background": j_bg,
        "C_shooting": c_s,
        "C_discrete": c_d,
        "J_agree": bool(abs(j_s - j_d) <= CERTIFY_J_RTOL * (1.0 + abs(j_s))),
        "C_agree": bool(abs(c_s - c_d) <= CERTIFY_C_ATOL),
        "below_background": bool(j_s <= j_bg + CERTIFY_ACTION_SLACK),
    }
    ok = evidence["J_agree"] and evidence["C_agree"] and evidence["below_background"]
    for path in (shooting_path, discrete_path):
        path.is_minimal_candidate = ok
        path.minimal_evidence.update(evidence)
    return evidence


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


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
