"""Catalog of explicit gradient Ricci shrinkers with closed-form geometry.

Every model is a Riemannian product of round spheres and Euclidean factors
carrying a potential f with Rc + Hess f = g/2. The closed forms below are
hand-derived:

* A round k-sphere of radius r embedded in R^(k+1) has Rc = ((k-1)/r^2) g,
  so the radius r0 = sqrt(2(k-1)) makes Rc = g/2 exactly. A 1-sphere has
  Rc = 0 and can never satisfy the equation, hence every sphere factor needs
  dimension >= 2.
* gaussian(n): flat R^n with f = |x|^2/4. Hess f = I/2 = g/2, Rc = 0,
  R = 0, and f - |grad f|^2 = |x|^2/4 - |x/2|^2 = 0 = R.
* sphere(n): S^n(r0). f is constant (Hess f = 0 forced by Rc = g/2), and
  the normalization f - |grad f|^2 = R pins f = R = n(n-1)/r0^2 = n/2.
* cylinder(k, m): S^k(r0) x R^m with f = |x|^2/4 + k/2. grad f = x/2 lives
  in the Euclidean block, R = k/2 comes from the sphere block, and
  f - |grad f|^2 = k/2 = R.
* sphereproduct(k, m): S^k x S^m, f constant = R = (k+m)/2.

Consequences used throughout: Hess f = I/2 on Euclidean blocks and 0 on
sphere blocks in every family; R is constant per model; |Rc|^2 equals
(sum of sphere factor dimensions)/4; Laplacian of f equals
(sum of Euclidean dimensions)/2 = n/2 - R.

Representation: a point is one ambient vector, the concatenation of a
(k+1)-vector of norm r0 per sphere factor and an m-vector per Euclidean
factor. Tangent vectors share the layout, with sphere components orthogonal
to the sphere position. The embedding is isometric, so the metric is the
ambient dot product on tangent vectors. Charts are only used by the
finite-difference oracle in ``numgeom``; this global representation has no
coordinate singularities to manage during long integrations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEndpointsError,
    InvalidModelError,
    InvalidPointError,
    PreconditionError,
)
from .quadrature import PhiPath

# Validation tolerances: stored points are kept machine-normalized, these are
# the thresholds at which inputs are rejected as off-manifold.
POINT_NORM_TOL = 1e-9
TANGENT_ORTHO_TOL = 1e-10
ANTIPODAL_TOL = 1e-9
# random points scale the standard normal draw of each Euclidean block by this
RANDOM_EUCLID_SCALE = 2.0


def sphere_radius(k: int) -> float:
    """Radius making Rc = g/2 on a k-sphere."""
    return math.sqrt(2.0 * (k - 1))


@dataclass(frozen=True)
class Factor:
    kind: str  # "sphere" | "euclidean"
    dim: int  # intrinsic dimension
    radius: float  # sphere radius, 0.0 for euclidean factors
    start: int  # ambient offset
    stop: int

    @property
    def ambient_dim(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ModelSpec:
    factors: tuple
    label: str

    @property
    def n(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def ambient_dim(self) -> int:
        return self.factors[-1].stop

    @property
    def sphere_factors(self) -> tuple:
        return tuple(f for f in self.factors if f.kind == "sphere")

    @property
    def euclid_factors(self) -> tuple:
        return tuple(f for f in self.factors if f.kind == "euclidean")

    @property
    def is_compact(self) -> bool:
        return not self.euclid_factors

    @property
    def degenerate(self) -> bool:
        """True when R == 0 (flat Gaussian); audits needing R > 0 refuse it."""
        return not self.sphere_factors

    @property
    def scalar_R(self) -> float:
        return sum(f.dim / 2.0 for f in self.sphere_factors)

    @property
    def ricci_norm_sq(self) -> float:
        return sum(f.dim / 4.0 for f in self.sphere_factors)

    @property
    def laplacian_f(self) -> float:
        return sum(f.dim / 2.0 for f in self.euclid_factors)

    def __str__(self) -> str:
        return self.label


def _build(blocks, label: str) -> ModelSpec:
    factors = []
    offset = 0
    for kind, dim in blocks:
        if kind == "sphere":
            if dim < 2:
                raise InvalidModelError(
                    f"{label}: sphere factor dimension must be >= 2 (got {dim})"
                )
            amb = dim + 1
            radius = sphere_radius(dim)
        else:
            if dim < 1:
                raise InvalidModelError(
                    f"{label}: euclidean factor dimension must be >= 1 (got {dim})"
                )
            amb = dim
            radius = 0.0
        factors.append(Factor(kind, dim, radius, offset, offset + amb))
        offset += amb
    model = ModelSpec(tuple(factors), label)
    if model.n < 2:
        raise InvalidModelError(f"{label}: total dimension must be >= 2 (got {model.n})")
    return model


def gaussian(n: int) -> ModelSpec:
    return _build([("euclidean", n)], f"gaussian:n={n}")


def round_sphere(n: int) -> ModelSpec:
    return _build([("sphere", n)], f"sphere:n={n}")


def sphere_cylinder(k: int, m: int) -> ModelSpec:
    return _build([("sphere", k), ("euclidean", m)], f"cylinder:k={k},m={m}")


def sphere_product(k: int, m: int) -> ModelSpec:
    return _build([("sphere", k), ("sphere", m)], f"sphereproduct:k={k},m={m}")


_MODEL_RE = re.compile(r"^\s*([a-z]+)\s*:\s*(.*)$")
# each family's parameter names, in the order its constructor takes them
_FAMILIES = {
    "gaussian": (("n",), gaussian),
    "sphere": (("n",), round_sphere),
    "cylinder": (("k", "m"), sphere_cylinder),
    "sphereproduct": (("k", "m"), sphere_product),
}


def parse_model(text: str) -> ModelSpec:
    """Parse a model string like ``cylinder:k=2,m=2`` or ``sphere:n=3``."""
    match = _MODEL_RE.match(text)
    if not match:
        raise InvalidModelError(f"model string {text!r} is not of the form family:params")
    family, body = match.group(1), match.group(2)
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InvalidModelError(f"unknown model family {family!r} (known: {known})")
    params = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InvalidModelError(f"model parameter {item!r} must be name=value")
        name, _, value = item.partition("=")
        name = name.strip()
        try:
            params[name] = int(value)
        except ValueError as exc:
            raise InvalidModelError(f"model parameter {name}={value!r} is not an integer") from exc
    expected, build = _FAMILIES[family]
    if set(params) != set(expected):
        raise InvalidModelError(
            f"model family {family!r} takes parameters {expected}, got {tuple(sorted(params))}"
        )
    return build(*(params[name] for name in expected))


# ---------------------------------------------------------------------------
# Points and tangent vectors (ambient representation, batched on last axis)
# ---------------------------------------------------------------------------


def project_point(model: ModelSpec, pos: np.ndarray) -> np.ndarray:
    """Renormalize sphere components to their exact radius."""
    out = np.array(pos, dtype=float, copy=True)
    for f in model.sphere_factors:
        block = out[..., f.start : f.stop]
        norms = np.linalg.norm(block, axis=-1, keepdims=True)
        if np.any(norms == 0.0):
            raise InvalidPointError(f"{model}: zero sphere component cannot be normalized")
        out[..., f.start : f.stop] = block * (f.radius / norms)
    return out


def validate_point(model: ModelSpec, pos: np.ndarray) -> None:
    """Check one point or a (..., ambient) stack of them; an empty stack is refused."""
    pos = np.asarray(pos, dtype=float)
    if not pos.size:
        raise PreconditionError(f"{model}: an empty point stack; need at least one sample point")
    if pos.shape[-1] != model.ambient_dim:
        raise InvalidPointError(
            f"{model}: point has ambient dimension {pos.shape[-1]}, expected {model.ambient_dim}"
        )
    for f in model.sphere_factors:
        norms = np.linalg.norm(pos[..., f.start : f.stop], axis=-1)
        err = np.max(np.abs(norms - f.radius))
        if err > POINT_NORM_TOL * (1.0 + f.radius):
            raise InvalidPointError(
                f"{model}: sphere component norm off by {err:.3e} (radius {f.radius:.6f})"
            )


def project_tangent(model: ModelSpec, pos: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Remove components normal to the sphere factors."""
    out = np.array(vec, dtype=float, copy=True)
    for f in model.sphere_factors:
        u = pos[..., f.start : f.stop]
        v = out[..., f.start : f.stop]
        coef = np.sum(u * v, axis=-1, keepdims=True) / (f.radius**2)
        out[..., f.start : f.stop] = v - coef * u
    return out


def validate_tangent(model: ModelSpec, pos: np.ndarray, vec: np.ndarray) -> None:
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != model.ambient_dim:
        raise InvalidPointError(
            f"{model}: tangent has ambient dimension {vec.shape[-1]}, expected {model.ambient_dim}"
        )
    for f in model.sphere_factors:
        u = pos[..., f.start : f.stop]
        v = vec[..., f.start : f.stop]
        # |u.v| / (r (1 + |v|)), with |v| from hypot and v scaled before the
        # product, so that a huge but finite v overflows neither
        scale = 1.0 + np.hypot.reduce(v, axis=-1)
        residual = np.abs(np.sum(u * (v / scale[..., None]), axis=-1)) / f.radius
        if np.max(residual) > TANGENT_ORTHO_TOL:
            raise InvalidPointError(
                f"{model}: tangent not orthogonal to sphere position "
                f"(residual {np.max(residual):.3e})"
            )


def random_points(model: ModelSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random points, shape (count, ambient), from one normal draw.

    Sphere blocks are scaled onto their sphere and Euclidean blocks by
    ``RANDOM_EUCLID_SCALE``. The draw fills the rows in order, so the points
    are bitwise those of ``count`` successive ``random_point`` calls on the
    same generator.
    """
    pos = rng.normal(size=(count, model.ambient_dim))
    for f in model.factors:
        block = pos[:, f.start : f.stop]
        if f.kind == "sphere":
            # sqrt of a dot per row: bitwise the 1-D np.linalg.norm
            block *= f.radius / np.sqrt(np.vecdot(block, block))[:, None]
        else:
            block *= RANDOM_EUCLID_SCALE
    return project_point(model, pos)


def random_point(model: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """One random point. No CLI path calls it; perfbench's identities replay
    and the tests draw with it."""
    return random_points(model, rng, 1)[0]


# ---------------------------------------------------------------------------
# Closed-form geometry
# ---------------------------------------------------------------------------


def potential_f(model: ModelSpec, pos: np.ndarray) -> np.ndarray:
    """f at one point or a batch of points (batched on the last axis)."""
    pos = np.asarray(pos, dtype=float)
    val = np.zeros(pos.shape[:-1])
    for f in model.sphere_factors:
        val = val + f.dim / 2.0
    for f in model.euclid_factors:
        x = pos[..., f.start : f.stop]
        val = val + np.sum(x * x, axis=-1) / 4.0
    return val


def grad_potential(model: ModelSpec, pos: np.ndarray) -> np.ndarray:
    """grad f in the ambient representation (zero on sphere blocks)."""
    pos = np.asarray(pos, dtype=float)
    out = np.zeros_like(pos)
    for f in model.euclid_factors:
        out[..., f.start : f.stop] = pos[..., f.start : f.stop] / 2.0
    return out


@dataclass(frozen=True)
class GeometryEval:
    """All pointwise closed-form quantities on a (..., ambient) stack of points.

    The bilinear forms take ambient tangent vectors of the stack's shape and
    sum a dot product per factor block, so each row is bitwise the one-point
    call. Each form comes from its own derivation (see the module docstring)
    so that the shrinker equation Rc + Hess f = g/2 is a genuine cross-check
    rather than being true by construction.
    """

    model: ModelSpec
    point: np.ndarray
    f: np.ndarray
    grad_f: np.ndarray
    scalar_R: float
    ricci_norm_sq: float
    laplacian_f: float

    def metric(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.vecdot(v, w)

    def _half_metric(self, factors, v: np.ndarray, w: np.ndarray):
        """Half the metric on each of ``factors``' blocks, summed in factor order."""
        total = 0.0
        for f in factors:
            total = total + 0.5 * np.vecdot(v[..., f.start : f.stop], w[..., f.start : f.stop])
        return total

    def ricci(self, v: np.ndarray, w: np.ndarray):
        return self._half_metric(self.model.sphere_factors, v, w)

    def hess_f(self, v: np.ndarray, w: np.ndarray):
        return self._half_metric(self.model.euclid_factors, v, w)

    def grad_f_norm_sq(self) -> np.ndarray:
        return np.vecdot(self.grad_f, self.grad_f)


def eval_geometry(model: ModelSpec, points) -> GeometryEval:
    """``GeometryEval`` at one point or a (..., ambient) stack: validated, not empty."""
    points = np.asarray(points, dtype=float)
    validate_point(model, points)
    return GeometryEval(
        model=model,
        point=points,
        f=potential_f(model, points),
        grad_f=grad_potential(model, points),
        scalar_R=model.scalar_R,
        ricci_norm_sq=model.ricci_norm_sq,
        laplacian_f=model.laplacian_f,
    )


def chart_ricci(model: ModelSpec, g: np.ndarray) -> np.ndarray:
    """Closed-form Ricci in factor-ordered intrinsic coordinates (the layout of
    ``numgeom.Chart``) with metric ``g`` (..., n, n): g/2 on sphere blocks, 0 on flat ones."""
    out = np.zeros_like(g)
    offset = 0
    for f in model.factors:
        if f.kind == "sphere":
            block = slice(offset, offset + f.dim)
            out[..., block, block] = 0.5 * g[..., block, block]
        offset += f.dim
    return out


# ---------------------------------------------------------------------------
# Distances, exponential and logarithm maps
# ---------------------------------------------------------------------------


def _sphere_angle(f: Factor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between sphere blocks ``a`` and ``b`` of factor ``f``; batched.

    arccos loses ~1e-8 of resolution near 1, so small separations use the
    half-chord arcsine formula instead.
    """
    cosang = np.clip(np.sum(a * b, axis=-1) / (f.radius**2), -1.0, 1.0)
    half_chord = np.clip(np.linalg.norm(a - b, axis=-1) / (2.0 * f.radius), 0.0, 1.0)
    return np.where(cosang > 0.5, 2.0 * np.arcsin(half_chord), np.arccos(cosang))


def distance(model: ModelSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product distance sqrt(sum of factor distances squared); batched; inf on overflow."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1]))
    with np.errstate(over="ignore"):
        for f in model.factors:
            a = p[..., f.start : f.stop]
            b = q[..., f.start : f.stop]
            if f.kind == "sphere":
                d = f.radius * _sphere_angle(f, a, b)
            else:
                d = np.linalg.norm(a - b, axis=-1)
            total = total + d * d
    out = np.sqrt(total)
    return out if out.shape else float(out)


def base_point(model: ModelSpec) -> np.ndarray:
    """Minimum point of f; sphere factors pinned to the first basis direction."""
    pos = np.zeros(model.ambient_dim)
    for f in model.sphere_factors:
        pos[f.start] = f.radius
    return pos


def radial_distance(model: ModelSpec, p: np.ndarray) -> np.ndarray:
    return distance(model, p, base_point(model))


def diameter(model: ModelSpec) -> float:
    if not model.is_compact:
        return math.inf
    return math.sqrt(sum((math.pi * f.radius) ** 2 for f in model.sphere_factors))


def exp_map(model: ModelSpec, pos: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Riemannian exponential, batched on the last axis."""
    pos = np.asarray(pos, dtype=float)
    vec = np.asarray(vec, dtype=float)
    out = np.empty(np.broadcast_shapes(pos.shape, vec.shape))
    for f in model.factors:
        u = np.broadcast_to(pos[..., f.start : f.stop], out[..., f.start : f.stop].shape)
        v = np.broadcast_to(vec[..., f.start : f.stop], out[..., f.start : f.stop].shape)
        if f.kind == "sphere":
            vnorm = np.linalg.norm(v, axis=-1, keepdims=True)
            ang = vnorm / f.radius
            small = vnorm < 1e-300
            direction = np.where(small, 0.0, v / np.where(small, 1.0, vnorm))
            out[..., f.start : f.stop] = np.cos(ang) * u + np.sin(ang) * f.radius * direction
        else:
            out[..., f.start : f.stop] = u + v
    return project_point(model, out)


def log_map(model: ModelSpec, pos: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Inverse exponential; raises on (numerically) antipodal sphere pairs."""
    pos = np.asarray(pos, dtype=float)
    target = np.asarray(target, dtype=float)
    out = np.zeros(np.broadcast_shapes(pos.shape, target.shape))
    for f in model.factors:
        u = pos[..., f.start : f.stop]
        q = target[..., f.start : f.stop]
        if f.kind == "sphere":
            t = np.clip(np.sum(u * q, axis=-1, keepdims=True) / (f.radius**2), -1.0, 1.0)
            theta = np.arccos(t)
            if np.any(theta > math.pi - ANTIPODAL_TOL):
                raise InvalidPointError(
                    f"{model}: log map undefined for antipodal sphere configuration"
                )
            w = q - t * u  # length r0*sin(theta), direction of the geodesic
            small = theta < 1e-6
            sin_safe = np.where(small, 1.0, np.sin(theta))
            ratio = np.where(small, 1.0 + theta**2 / 6.0, theta / sin_safe)
            out[..., f.start : f.stop] = ratio * w
        else:
            out[..., f.start : f.stop] = q - u
    return out


def sphere_frame(f: Factor, pos: np.ndarray) -> np.ndarray:
    """Orthonormal frames of sphere factor ``f``: (..., ambient) -> (..., dim, k+1).

    Rows 1..k of the Householder reflection H = I - 2 w w^T / |w|^2 with
    w = u_hat + s e_0, u_hat the unit position and s the sign of its first
    entry (+1 at 0). H maps e_0 to -s u_hat, so its other rows are
    orthonormal and tangent at u_hat; |w|^2 = 2(1 + |u_0|) >= 2, so nothing
    cancels. At the base point u_hat = e_0 the frame is e_1..e_k exactly.
    Every entry is elementwise arithmetic on its own point.
    """
    w = np.asarray(pos, dtype=float)[..., None, f.start : f.stop] / f.radius
    w[..., 0] += np.where(w[..., 0] < 0.0, -1.0, 1.0)
    scale = 2.0 / np.vecdot(w, w)[..., None]
    return np.eye(f.ambient_dim)[1:] - (np.swapaxes(w[..., 1:], -1, -2) * scale) * w


def tangent_basis(model: ModelSpec, pos: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent bases: (..., ambient) -> (..., n, ambient).

    Rows are the Euclidean axes and each sphere factor's ``sphere_frame``,
    in factor order.
    """
    pos = np.asarray(pos, dtype=float)
    basis = np.zeros(pos.shape[:-1] + (model.n, model.ambient_dim))
    row = 0
    for f in model.factors:
        block = np.eye(f.dim) if f.kind == "euclidean" else sphere_frame(f, pos)
        basis[..., row : row + f.dim, f.start : f.stop] = block
        row += f.dim
    return basis


# ---------------------------------------------------------------------------
# Background (phi = 0) minimal geodesics and canonical targets
# ---------------------------------------------------------------------------


def background_geodesic(model: ModelSpec, p: np.ndarray, q: np.ndarray, N: int) -> PhiPath:
    """Ordinary minimal geodesic from p to q on N+1 uniform nodes, unit speed.

    Product geodesic: each factor runs its own minimal geodesic with speed
    proportional to the factor distance. Antipodal sphere pairs are resolved
    by a deterministic tie-break and flagged on the returned path.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    validate_point(model, p)
    validate_point(model, q)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    s_bar = float(distance(model, p, q))
    if s_bar <= 0.0:
        raise DegenerateEndpointsError(f"{model}: background geodesic needs p != q")
    t = np.linspace(0.0, 1.0, N + 1)
    pos = np.empty((N + 1, model.ambient_dim))
    vel = np.empty((N + 1, model.ambient_dim))
    flags = []
    for f in model.factors:
        a = p[f.start : f.stop]
        b = q[f.start : f.stop]
        if f.kind == "euclidean":
            pos[:, f.start : f.stop] = a + np.outer(t, b - a)
            vel[:, f.start : f.stop] = (b - a) / s_bar
            continue
        cosang = float(np.clip(np.dot(a, b) / f.radius**2, -1.0, 1.0))
        theta = float(_sphere_angle(f, a, b))
        if theta == 0.0:
            pos[:, f.start : f.stop] = a
            vel[:, f.start : f.stop] = 0.0
            continue
        if theta > math.pi - ANTIPODAL_TOL:
            # deterministic great circle: rotate toward the first frame direction
            axis = sphere_frame(f, p)[0]
            flags.append(f"antipodal-tiebreak:factor@{f.start}")
        else:
            w = b - cosang * a
            axis = w / np.linalg.norm(w)
        ang = theta * t
        pos[:, f.start : f.stop] = np.outer(np.cos(ang), a) + np.outer(
            np.sin(ang) * f.radius, axis
        )
        # d/ds with s = t*s_bar: factor speed is radius*theta/s_bar
        dang = theta / s_bar
        vel[:, f.start : f.stop] = (
            np.outer(-np.sin(ang) * dang, a) + np.outer(np.cos(ang) * f.radius * dang, axis)
        )
    pos = project_point(model, pos)
    speed_sq = np.einsum("ij,ij->i", vel, vel)
    path = PhiPath(
        s=t * s_bar,
        pos=pos,
        vel=vel,
        C_value=1.0,
        drift=float(np.max(np.abs(speed_sq - 1.0))),
        action_J=s_bar,
        flags=flags,
    )
    return path


def canonical_target(model: ModelSpec, r: float) -> np.ndarray:
    """Deterministic point at radial distance r from the base point.

    Noncompact models move along the first Euclidean axis. Compact models
    rotate each sphere factor toward its second basis direction, splitting r
    across factors in proportion to the factor diameters so that any r up to
    the model diameter is reachable.
    """
    if r <= 0.0:
        raise PreconditionError(f"{model}: target radius must be positive (got {r})")
    pos = base_point(model)
    if not model.is_compact:
        f = model.euclid_factors[0]
        pos[f.start] = r
        return pos
    diam = diameter(model)
    if r > diam + 1e-12:
        raise PreconditionError(
            f"{model}: target radius {r:.6g} exceeds the model diameter {diam:.6g}"
        )
    for f in model.sphere_factors:
        share = r * (math.pi * f.radius) / diam
        ang = min(share / f.radius, math.pi)
        block = np.zeros(f.ambient_dim)
        block[0] = math.cos(ang) * f.radius
        block[1] = math.sin(ang) * f.radius
        pos[f.start : f.stop] = block
    return project_point(model, pos)
