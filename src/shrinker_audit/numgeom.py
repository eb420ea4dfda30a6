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
    """Coordinate chart centered at a manifold point.

    Chart coordinates are the concatenation, in factor order, of k
    stereographic coordinates per sphere factor and m offsets per Euclidean
    factor; the center maps to the origin. ``to_manifold`` and ``metric_at``
    accept batched input (leading axes broadcast).
    """

    def __init__(self, model: ModelSpec, center: np.ndarray):
        validate_point(model, center)
        self.model = model
        self.center = np.asarray(center, dtype=float)
        self.radius = CHART_RADIUS
        self._frames = {
            f.start: (self.center[f.start : f.stop] / f.radius, sphere_frame(f, self.center))
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

    def to_manifold(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        out = np.empty(coords.shape[:-1] + (self.model.ambient_dim,))
        for f, sl in self._coord_slices():
            block = coords[..., sl]
            if f.kind == "euclidean":
                out[..., f.start : f.stop] = self.center[f.start : f.stop] + block
                continue
            u_hat, frame = self._frames[f.start]
            rho_sq = np.sum(block * block, axis=-1, keepdims=True)
            denom = 1.0 + rho_sq
            tangential = np.matmul(block, frame)  # (..., k+1)
            out[..., f.start : f.stop] = f.radius * (
                (1.0 - rho_sq) / denom * u_hat + (2.0 / denom) * tangential
            )
        return out

    def from_manifold(self, pos: np.ndarray) -> np.ndarray:
        pos = np.asarray(pos, dtype=float)
        out = np.empty(pos.shape[:-1] + (self.dim,))
        for f, sl in self._coord_slices():
            block = pos[..., f.start : f.stop]
            if f.kind == "euclidean":
                out[..., sl] = block - self.center[f.start : f.stop]
                continue
            u_hat, frame = self._frames[f.start]
            p_hat = block / f.radius
            a = np.sum(p_hat * u_hat, axis=-1, keepdims=True)
            if np.any(a <= -1.0 + 1e-12):
                raise InvalidPointError("point is antipodal to the chart center")
            b = np.matmul(p_hat, frame.T)
            out[..., sl] = b / (1.0 + a)
        return out

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
    """Lift a (batched) function of manifold points to chart coordinates."""

    def field(coords):
        return func_on_points(chart.to_manifold(coords))

    return field


def potential_field(chart: Chart):
    return scalar_field(chart, lambda pos: potential_f(chart.model, pos))


# ---------------------------------------------------------------------------
# Finite-difference operators
# ---------------------------------------------------------------------------


def _metric_and_inverse(chart: Chart, coords: np.ndarray):
    g = chart.metric_at(coords)
    if np.linalg.cond(g) > MAX_METRIC_CONDITION:
        raise MetricConditionError("chart metric is numerically singular")
    return g, np.linalg.inv(g)


def christoffels_fd(chart: Chart, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Gamma^i_jk from central differences of the metric components."""
    coords = np.asarray(coords, dtype=float)
    chart.require_in_domain(coords, cfg)
    n = chart.dim
    h = cfg.h
    _, ginv = _metric_and_inverse(chart, coords)
    shifts = np.zeros((2 * n, n))
    for d in range(n):
        shifts[2 * d, d] = h
        shifts[2 * d + 1, d] = -h
    g_shift = chart.metric_at(coords + shifts)
    dg = (g_shift[0::2] - g_shift[1::2]) / (2.0 * h)  # dg[d, a, b] = d_d g_ab
    term = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.einsum("il,ljk->ijk", ginv, term)


def ricci_fd(chart: Chart, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Ricci tensor in chart coordinates via central differences of Gamma."""
    coords = np.asarray(coords, dtype=float)
    chart.require_in_domain(coords, cfg)
    n = chart.dim
    h = cfg.h
    dgamma = np.empty((n, n, n, n))  # dgamma[d, i, j, k] = d_d Gamma^i_jk
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        gp = christoffels_fd(chart, coords + e, cfg)
        gm = christoffels_fd(chart, coords - e, cfg)
        dgamma[d] = (gp - gm) / (2.0 * h)
    gamma = christoffels_fd(chart, coords, cfg)
    term1 = np.einsum("iijk->jk", dgamma)
    term2 = np.einsum("jiik->jk", dgamma)
    term3 = np.einsum("iip,pjk->jk", gamma, gamma)
    term4 = np.einsum("ijp,pik->jk", gamma, gamma)
    rc = term1 - term2 + term3 - term4
    # Analytically symmetric; symmetrize to strip the O(h^2) stencil asymmetry.
    return 0.5 * (rc + rc.T)


def _field_derivatives(field, coords: np.ndarray, h: float, n: int):
    """First and second central differences of a chart scalar field.

    One batched field evaluation covers the whole stencil: center, 2n axis
    points, and 4 corner points per coordinate pair.
    """
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    stencil = np.zeros((1 + 2 * n + 4 * len(pairs), n))
    for d in range(n):
        stencil[1 + 2 * d, d] = h
        stencil[2 + 2 * d, d] = -h
    base = 1 + 2 * n
    for idx, (j, k) in enumerate(pairs):
        for corner, (sj, sk) in enumerate([(h, h), (h, -h), (-h, h), (-h, -h)]):
            stencil[base + 4 * idx + corner, j] = sj
            stencil[base + 4 * idx + corner, k] = sk
    values = np.asarray(field(coords + stencil), dtype=float)
    phi0 = values[0]
    phi_p = values[1 : base : 2]
    phi_m = values[2 : base + 1 : 2]
    grad = (phi_p - phi_m) / (2.0 * h)
    hess = np.zeros((n, n))
    for d in range(n):
        hess[d, d] = (phi_p[d] - 2.0 * phi0 + phi_m[d]) / (h * h)
    for idx, (j, k) in enumerate(pairs):
        c = values[base + 4 * idx : base + 4 * idx + 4]
        hess[j, k] = hess[k, j] = (c[0] - c[1] - c[2] + c[3]) / (4.0 * h * h)
    return grad, hess


def gradient_fd(chart: Chart, field, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Raised gradient g^{ij} d_j(field) in chart coordinates."""
    coords = np.asarray(coords, dtype=float)
    chart.require_in_domain(coords, cfg)
    dphi, _ = _field_derivatives(field, coords, cfg.h, chart.dim)
    _, ginv = _metric_and_inverse(chart, coords)
    return ginv @ dphi


def hessian_fd(chart: Chart, field, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Covariant Hessian (d_j d_k - Gamma^i_jk d_i) of a chart scalar field."""
    coords = np.asarray(coords, dtype=float)
    chart.require_in_domain(coords, cfg)
    dphi, ddphi = _field_derivatives(field, coords, cfg.h, chart.dim)
    gamma = christoffels_fd(chart, coords, cfg)
    return ddphi - np.einsum("ijk,i->jk", gamma, dphi)


def laplacian_fd(chart: Chart, field, coords: np.ndarray, cfg: FDConfig = FDConfig()) -> float:
    coords = np.asarray(coords, dtype=float)
    _, ginv = _metric_and_inverse(chart, coords)
    return float(np.einsum("jk,jk->", ginv, hessian_fd(chart, field, coords, cfg)))


def weighted_laplacian_fd(
    chart: Chart,
    field,
    f_field,
    coords: np.ndarray,
    cfg: FDConfig = FDConfig(),
) -> float:
    """Drifted Laplacian (Laplacian minus grad f dot grad) of a scalar field."""
    coords = np.asarray(coords, dtype=float)
    chart.require_in_domain(coords, cfg)
    dphi, ddphi = _field_derivatives(field, coords, cfg.h, chart.dim)
    df, _ = _field_derivatives(f_field, coords, cfg.h, chart.dim)
    gamma = christoffels_fd(chart, coords, cfg)
    _, ginv = _metric_and_inverse(chart, coords)
    hess = ddphi - np.einsum("ijk,i->jk", gamma, dphi)
    lap = np.einsum("jk,jk->", ginv, hess)
    cross = np.einsum("jk,j,k->", ginv, df, dphi)
    return float(lap - cross)
