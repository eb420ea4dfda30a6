"""Finite-difference differential geometry on coordinate charts.

This is the independent oracle: it sees the model only through metric
components on a chart, never through the closed-form curvature, so it can
cross-validate everything in ``models`` and compute weighted Laplacians of
arbitrary scalar fields.

Charts combine one stereographic block per sphere factor, re-centered at the
chart center, with offset coordinates on Euclidean factors. A stereographic
block of a radius-r0 sphere carries the conformal metric

    g_ij(y) = 4 r0^2 delta_ij / (1 + |y|^2)^2,

whose conformal factor stays within [r0^2, 4 r0^2] on the chart domain
|y| < 1, so the distortion is bounded and the chart center is a critical
point of the metric.

Charts stack: ``Chart(model, centers)`` takes one center or an array of
them, and every operator below evaluates all charts of the stack in one
pass. Rows are independent. Each step is elementwise, a reduction over one
chart's own axes, or one matmul per chart, so a stacked result is bitwise
the result of one-chart calls, and a single center is simply the
unstacked case.

Derivatives of scalars come from their values on one central-difference
stencil per chart (``_stencil``, then ``_differences``).
``weighted_laplacians_at_centers`` maps a stack's stencil to the manifold
once and computes its Christoffels once; f and every function of points it
is given are evaluated on those points, bitwise as ``weighted_laplacian_fd``
evaluates each lifted field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError, MetricConditionError, PreconditionError
from .models import ModelSpec, potential_f, sphere_frame, validate_point

CHART_RADIUS = 1.0
MAX_METRIC_CONDITION = 1e12


@dataclass(frozen=True)
class FDConfig:
    """Step of the second-order central differences used throughout."""

    h: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.h < CHART_RADIUS / 10.0:
            raise ValueError(f"FD step h={self.h} must lie in (0, {CHART_RADIUS / 10.0})")


class Chart:
    """Coordinate charts centered at a stack of manifold points.

    ``centers`` has shape (*shape, ambient); ``shape`` is () for a single
    chart. Chart coordinates are the concatenation, in factor order, of k
    stereographic coordinates per sphere factor and m offsets per Euclidean
    factor; each center maps to the origin of its chart. Coordinates carry
    the chart axes first: ``to_manifold`` takes (*shape, ..., n) and
    ``from_manifold`` (*shape, ..., ambient). ``metric_at`` is the same in
    every chart and broadcasts over any leading axes.
    """

    def __init__(self, model: ModelSpec, centers: np.ndarray):
        centers = np.asarray(centers, dtype=float)
        validate_point(model, centers)
        self.model = model
        self.center = centers
        self.shape = centers.shape[:-1]
        self.radius = CHART_RADIUS
        # per factor: the chart's unit center u_hat (*shape, 1, k+1) and its
        # tangent frame (*shape, k, k+1), shaped to act on a matrix of rows
        self._frames = {
            f.start: (centers[..., None, f.start : f.stop] / f.radius, sphere_frame(f, centers))
            for f in model.sphere_factors
        }

    @property
    def dim(self) -> int:
        return self.model.n

    def _coord_slices(self):
        offset = 0
        for f in self.model.factors:
            yield f, slice(offset, offset + f.dim)
            offset += f.dim

    def _rows(self, arr: np.ndarray, width: int) -> np.ndarray:
        """``arr`` as one matrix of rows per chart, (*shape, rows, width).

        Products with a chart's frame then run as one matmul per chart, whose
        arithmetic does not depend on how many charts are stacked."""
        return np.asarray(arr, dtype=float).reshape(self.shape + (-1, width))

    def to_manifold(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        rows = self._rows(coords, self.dim)
        out = np.empty(rows.shape[:-1] + (self.model.ambient_dim,))
        for f, sl in self._coord_slices():
            block = rows[..., sl]
            if f.kind == "euclidean":
                out[..., f.start : f.stop] = self.center[..., None, f.start : f.stop] + block
                continue
            u_hat, frame = self._frames[f.start]
            rho_sq = np.sum(block * block, axis=-1, keepdims=True)
            denom = 1.0 + rho_sq
            tangential = np.matmul(block, frame)  # (..., k+1)
            tangential *= 2.0 / denom
            # radius * ((1 - rho^2)/denom * u_hat + tangential), built in place
            # so that a stack of charts holds few stencil-sized temporaries
            point = np.multiply((1.0 - rho_sq) / denom, u_hat, out=out[..., f.start : f.stop])
            point += tangential
            point *= f.radius
        return out.reshape(coords.shape[:-1] + (self.model.ambient_dim,))

    def from_manifold(self, pos: np.ndarray) -> np.ndarray:
        """Inverse of ``to_manifold``; no audit calls it: a test reference."""
        pos = np.asarray(pos, dtype=float)
        rows = self._rows(pos, self.model.ambient_dim)
        out = np.empty(rows.shape[:-1] + (self.dim,))
        for f, sl in self._coord_slices():
            block = rows[..., f.start : f.stop]
            if f.kind == "euclidean":
                out[..., sl] = block - self.center[..., None, f.start : f.stop]
                continue
            u_hat, frame = self._frames[f.start]
            p_hat = block / f.radius
            a = np.sum(p_hat * u_hat, axis=-1, keepdims=True)
            if np.any(a <= -1.0 + 1e-12):
                raise InvalidPointError("point is antipodal to the chart center")
            b = np.matmul(p_hat, np.swapaxes(frame, -1, -2))
            out[..., sl] = b / (1.0 + a)
        return out.reshape(pos.shape[:-1] + (self.dim,))

    def metric_at(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        n = self.dim
        out = np.zeros(coords.shape[:-1] + (n, n))
        for f, sl in self._coord_slices():
            if f.kind == "euclidean":
                for i in range(sl.start, sl.stop):
                    out[..., i, i] = 1.0
                continue
            block = coords[..., sl]
            rho_sq = np.sum(block * block, axis=-1)
            lam = 4.0 * f.radius**2 / (1.0 + rho_sq) ** 2
            for i in range(sl.start, sl.stop):
                out[..., i, i] = lam
        return out

    def require_in_domain(self, coords: np.ndarray, cfg: FDConfig) -> None:
        norm = np.linalg.norm(np.asarray(coords, dtype=float), axis=-1)
        limit = self.radius - 2.0 * cfg.h
        if np.any(norm > limit):
            raise PreconditionError(
                f"chart coordinates with |y| = {float(np.max(norm)):.4f} exceed the "
                f"FD-safe radius {limit:.4f}"
            )


def scalar_field(chart: Chart, func_on_points):
    """Lift a (batched) function of manifold points to chart coordinates.
    No CLI path calls it; perfbench's probes and the FD tests keep it."""

    def field(coords):
        return func_on_points(chart.to_manifold(coords))

    return field


def potential_field(chart: Chart):
    """f in chart coordinates; only perfbench's probes and the FD tests call it."""
    return scalar_field(chart, lambda pos: potential_f(chart.model, pos))


# ---------------------------------------------------------------------------
# Finite-difference operators
# ---------------------------------------------------------------------------


def _metric_and_inverse(chart: Chart, coords: np.ndarray):
    g = chart.metric_at(coords)
    if np.any(np.linalg.cond(g) > MAX_METRIC_CONDITION):
        raise MetricConditionError("chart metric is numerically singular")
    return g, np.linalg.inv(g)


def _per_chart(chart: Chart, coords: np.ndarray, cfg: FDConfig) -> np.ndarray:
    """One n-vector of coordinates per chart, checked against the FD-safe radius."""
    coords = np.broadcast_to(np.asarray(coords, dtype=float), chart.shape + (chart.dim,))
    chart.require_in_domain(coords, cfg)
    return coords


def _axis_steps(n: int, h: float) -> np.ndarray:
    """Rows +h e_0, -h e_0, +h e_1, -h e_1, ..."""
    steps = np.zeros((2 * n, n))
    for d in range(n):
        steps[2 * d, d] = h
        steps[2 * d + 1, d] = -h
    return steps


def _christoffels(chart: Chart, coords: np.ndarray, h: float):
    """(Gamma^i_jk, g^-1) at coords of shape (..., n), each from its own metric."""
    n = chart.dim
    _, ginv = _metric_and_inverse(chart, coords)
    g_shift = chart.metric_at(coords[..., None, :] + _axis_steps(n, h))
    # dg[..., d, a, b] = d_d g_ab
    dg = (g_shift[..., 0::2, :, :] - g_shift[..., 1::2, :, :]) / (2.0 * h)
    term = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, term), ginv


def christoffels_fd(chart: Chart, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Gamma^i_jk from central differences of the metric components.

    No audit calls it: it is the test reference for the Christoffels that
    ``ricci_fd`` and the drifted Laplacians compute internally.
    """
    coords = _per_chart(chart, coords, cfg)
    return _christoffels(chart, coords, cfg.h)[0]


def ricci_fd(chart: Chart, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Ricci tensor in chart coordinates via central differences of Gamma."""
    coords = _per_chart(chart, coords, cfg)
    n = chart.dim
    h = cfg.h
    shifted = coords[..., None, :] + _axis_steps(n, h)
    chart.require_in_domain(shifted, cfg)
    gamma_shift, _ = _christoffels(chart, shifted, h)
    # dgamma[..., d, i, j, k] = d_d Gamma^i_jk
    dgamma = (gamma_shift[..., 0::2, :, :, :] - gamma_shift[..., 1::2, :, :, :]) / (2.0 * h)
    gamma, _ = _christoffels(chart, coords, h)
    term1 = np.einsum("...iijk->...jk", dgamma)
    term2 = np.einsum("...jiik->...jk", dgamma)
    term3 = np.einsum("...iip,...pjk->...jk", gamma, gamma)
    term4 = np.einsum("...ijp,...pik->...jk", gamma, gamma)
    rc = term1 - term2 + term3 - term4
    # Analytically symmetric; symmetrize to strip the O(h^2) stencil asymmetry.
    return 0.5 * (rc + np.swapaxes(rc, -1, -2))


def _stencil(n: int, h: float) -> np.ndarray:
    """Offsets of the central-difference stencil, shape (1 + 2n + 2n(n-1), n):
    the center, the 2n axis points of ``_axis_steps``, and 4 corner points
    per coordinate pair."""
    j, k = np.triu_indices(n, 1)
    corners = np.zeros((len(j), 4, n))
    corners[np.arange(len(j)), :, j] = (h, h, -h, -h)
    corners[np.arange(len(j)), :, k] = (h, -h, h, -h)
    return np.concatenate([np.zeros((1, n)), _axis_steps(n, h), corners.reshape(-1, n)])


def _gradient(values: np.ndarray, h: float, n: int) -> np.ndarray:
    """First central differences from values on (at least) the center and
    axis points of the stencil."""
    return (values[..., 1 : 1 + 2 * n : 2] - values[..., 2 : 2 + 2 * n : 2]) / (2.0 * h)


def _differences(values: np.ndarray, h: float, n: int):
    """First and second central differences from values on the whole stencil."""
    base = 1 + 2 * n
    phi0 = values[..., :1]
    phi_p = values[..., 1:base:2]
    phi_m = values[..., 2 : base + 1 : 2]
    hess = np.empty(values.shape[:-1] + (n, n))
    diag = np.arange(n)
    hess[..., diag, diag] = (phi_p - 2.0 * phi0 + phi_m) / (h * h)
    j, k = np.triu_indices(n, 1)
    c = values[..., base:].reshape(values.shape[:-1] + (len(j), 4))
    mixed = (c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]) / (4.0 * h * h)
    hess[..., j, k] = hess[..., k, j] = mixed
    return _gradient(values, h, n), hess


def _field_derivatives(field, coords: np.ndarray, h: float, n: int):
    """First and second central differences of a chart scalar field.

    One batched field evaluation covers the whole stencil of every chart;
    ``_differences`` turns the values into derivatives.
    """
    values = np.asarray(field(coords[..., None, :] + _stencil(n, h)), dtype=float)
    return _differences(values, h, n)


def gradient_fd(chart: Chart, field, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Raised gradient g^{ij} d_j(field) in chart coordinates; a test reference."""
    coords = _per_chart(chart, coords, cfg)
    dphi, _ = _field_derivatives(field, coords, cfg.h, chart.dim)
    _, ginv = _metric_and_inverse(chart, coords)
    return np.einsum("...ij,...j->...i", ginv, dphi)


def hessian_fd(chart: Chart, field, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Covariant Hessian (d_j d_k - Gamma^i_jk d_i) of a chart field; a test reference."""
    coords = _per_chart(chart, coords, cfg)
    dphi, ddphi = _field_derivatives(field, coords, cfg.h, chart.dim)
    gamma, _ = _christoffels(chart, coords, cfg.h)
    return ddphi - np.einsum("...ijk,...i->...jk", gamma, dphi)


def _weighted_laplacians(chart: Chart, coords: np.ndarray, cfg: FDConfig, evaluate):
    """Drifted Laplacians from stencil values, one row per field.

    ``evaluate(stencil)`` maps the stencil's chart coordinates, shape
    (*shape, points, n), to the values of f on (at least) its center and axis
    points and a list of each field's values on all of it.
    """
    coords = _per_chart(chart, coords, cfg)
    h, n = cfg.h, chart.dim
    with np.errstate(all="ignore"):
        f_values, fields = evaluate(coords[..., None, :] + _stencil(n, h))
        df = _gradient(np.asarray(f_values, dtype=float), h, n)
        gamma, ginv = _christoffels(chart, coords, h)
        rows = []
        for values in fields:
            dphi, ddphi = _differences(np.asarray(values, dtype=float), h, n)
            hess = ddphi - np.einsum("...ijk,...i->...jk", gamma, dphi)
            lap = np.einsum("...jk,...jk->...", ginv, hess)
            rows.append(lap - np.einsum("...jk,...j,...k->...", ginv, df, dphi))
        value = np.array(rows)
    if not np.all(np.isfinite(value)):
        raise PreconditionError(
            f"drifted Laplacian is not finite at the FD step fd_h = {cfg.h!r}; "
            "choose a larger fd_h"
        )
    return value


def weighted_laplacian_fd(chart: Chart, field, f_field, coords: np.ndarray,
                          cfg: FDConfig = FDConfig()):
    """Drifted Laplacian (Laplacian minus grad f dot grad) of a scalar field.

    A float for a single chart, one value per chart for a stack. A value that
    is not finite (an fd_h whose square underflows) raises PreconditionError.
    No CLI path calls it (the audits use ``weighted_laplacians_at_centers``);
    perfbench's probes and the FD tests keep it.
    """
    return _weighted_laplacians(
        chart, coords, cfg, lambda stencil: (f_field(stencil), [field(stencil)])
    )[0]


def weighted_laplacians_at_centers(chart: Chart, funcs, cfg: FDConfig = FDConfig()):
    """Drifted Laplacian of each function of manifold points at every chart
    center: an array of shape (len(funcs), *chart.shape).

    The stencil is mapped to the manifold once and the Christoffels are
    computed once; f and every function are evaluated on those points. Each
    row is bitwise ``weighted_laplacian_fd`` of the lifted function with
    ``potential_field`` as f.
    """

    def evaluate(stencil):
        pos = chart.to_manifold(stencil)
        f_values = potential_f(chart.model, pos[..., : 1 + 2 * chart.dim, :])
        return f_values, [func(pos) for func in funcs]

    return _weighted_laplacians(chart, np.zeros(chart.dim), cfg, evaluate)
