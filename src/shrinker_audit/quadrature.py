"""The path grid: sampled paths, their kink-aligned pieces, the trapezoid
cutoff and piecewise composite Simpson quadrature.

The trapezoid cutoff zeta used by the path audits ramps up on [0, 1], is 1
on the plateau and ramps down on [s_bar - 1, s_bar]. It is piecewise
polynomial with kinks at s = 1 and s = s_bar - 1, and a quadrature whose
nodes straddle a kink would degrade the order. So ``audit_grid``, the one
path-grid builder, puts a node at every kink and is uniform between them.
It hands back those uniform pieces as node index ranges, which a
``PhiPath`` carries and checks as its ``pieces``, and ``cutoff`` reads the
kinks back off them. Simpson's rule is exact for cubics, which makes the
cutoff factors integrate exactly piece by piece.

``integrate_pieces`` is the package's one quadrature-with-error routine:
the path audits, the scan window and the action all integrate through it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffUndefinedError, PreconditionError

# Intervals per unit length of a path grid, at the least.
DEFAULT_DENSITY = 16
# Most intervals a path grid may have. At the default density this admits
# s_bar up to 4 096; larger grids are refused before anything is allocated.
MAX_GRID_INTERVALS = 2**16
# Most intervals per unit length a path grid may ask for. MAX_GRID_INTERVALS
# over the shortest positive s_bar, the least subnormal 2**-1074, is 2**1090,
# beyond every float; audit_grid takes the density as a float, so the bound
# is the largest float. Above it a density never gives a grid.
MAX_DENSITY = int(sys.float_info.max)


def _simpson_uniform(s: np.ndarray, y: np.ndarray) -> float:
    """Composite Simpson on a uniform grid; 3/8 tail for odd counts."""
    n = len(s) - 1
    if n < 1:
        return 0.0
    h = (s[-1] - s[0]) / n
    if n == 1:
        return float(0.5 * h * (y[0] + y[1]))
    if n % 2 == 0:
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(h / 3.0 * np.dot(w, y))
    if n == 3:
        return float(3.0 * h / 8.0 * (y[0] + 3.0 * y[1] + 3.0 * y[2] + y[3]))
    head = _simpson_uniform(s[: n - 2], y[: n - 2])
    tail = float(3.0 * h / 8.0 * (y[n - 3] + 3.0 * y[n - 2] + 3.0 * y[n - 1] + y[n]))
    return head + tail


def integrate_pieces(s: np.ndarray, y: np.ndarray, pieces):
    """Weighted sum of per-piece Simpson integrals, with an error estimate.

    ``pieces`` holds ``(i0, i1, weight)`` node ranges, such as a path's pieces;
    the result is ``(sum of weight * integral, sum of piece errors)``, summed
    in piece order. A piece's error compares its Simpson value against the
    rule on the 2x-coarsened piece when the interval count is even, else
    against the (much cruder) trapezoid rule. Each piece must be uniform.
    """
    total = 0.0
    err = 0.0
    for i0, i1, weight in pieces:
        fine = _simpson_uniform(s[i0 : i1 + 1], y[i0 : i1 + 1])
        if (i1 - i0) % 2 == 0:
            coarse = _simpson_uniform(s[i0 : i1 + 1 : 2], y[i0 : i1 + 1 : 2])
        else:
            coarse = float(np.trapezoid(y[i0 : i1 + 1], s[i0 : i1 + 1]))
        total += weight * fine
        err += abs(fine - coarse)
    return total, err


def audit_grid(s_bar: float, density: int = DEFAULT_DENSITY):
    """The one path grid over [0, s_bar]: ``(s, pieces)``.

    ``pieces`` holds the ``(i0, i1)`` node ranges of the uniform pieces, in
    order. When s_bar >= 2 the pieces end at the cutoff kinks 1 and
    s_bar - 1, each with an interval count that is a multiple of 4, so the
    grid can be coarsened once for Richardson error estimates; so can any
    run of nodes inside a piece with an even interval count (the scan's
    window). A shorter path has no cutoff and gets one uniform piece of
    max(64, 4 * ceil(s_bar * density / 4)) intervals. A grid of more than
    ``MAX_GRID_INTERVALS`` intervals is refused.
    """
    if not math.isfinite(s_bar):
        raise CutoffUndefinedError(f"trapezoid cutoff needs a finite s_bar (got {s_bar!r})")
    if s_bar < 2.0:
        spans, least = [(0.0, s_bar)], 64.0
    else:
        ends = sorted({0.0, 1.0, s_bar - 1.0, s_bar})
        spans, least = [(a, b) for a, b in zip(ends[:-1], ends[1:]) if b - a >= 1e-12], 4.0
    # float counts, so that an overflowing s_bar * density is refused too
    counts = [max(least, 4.0 * np.ceil((b - a) * density / 4.0)) for a, b in spans]
    if not sum(counts) <= MAX_GRID_INTERVALS:
        raise PreconditionError(f"a path grid of {sum(counts):.6g} intervals exceeds "
                                f"MAX_GRID_INTERVALS = {MAX_GRID_INTERVALS}")
    nodes = [np.linspace(a, b, int(count) + 1) for (a, b), count in zip(spans, counts)]
    s = np.concatenate([p if i == 0 else p[1:] for i, p in enumerate(nodes)])
    edges = np.cumsum([0, *counts]).astype(int).tolist()
    return s, tuple(zip(edges[:-1], edges[1:]))


@dataclass
class PhiPath:
    """Sampled path ``gamma: [0, s_bar] -> M`` with velocities ``S = gamma'``.

    ``pos`` and ``vel`` have one row per grid node, in the model's ambient
    representation. ``C_value`` is the conserved ``|S|^2 - 2*phi`` extracted
    from the node data and ``drift`` its maximal deviation across nodes.
    ``pieces`` are the ``(i0, i1)`` node ranges the grid is uniform on, as
    ``audit_grid`` returns them; ``()`` means one piece over the whole grid.
    They must cover the grid with consecutive ranges, and each must be
    uniform: its gaps all equal its mean gap h within a relative 1e-8 and
    an absolute 1e-12 * (1 + |h|). A path checks this once, when it is
    made, so that every quadrature on its pieces can rely on it. Solvers
    fill a path in; audits only read it.
    """

    s: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    C_value: float = float("nan")
    drift: float = float("nan")
    action_J: float = float("nan")
    pieces: tuple = ()
    is_minimal_candidate: bool = False
    minimal_evidence: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        self.vel = np.asarray(self.vel, dtype=float)
        if self.pos.shape != self.vel.shape or self.pos.shape[0] != self.s.shape[0]:
            raise ValueError("grid, positions and velocities must have matching shapes")
        gaps = np.diff(self.s)
        if np.any(gaps <= 0):
            raise ValueError("parameter grid must be strictly increasing")
        last = self.s.shape[0] - 1
        self.pieces = tuple((int(i0), int(i1)) for i0, i1 in self.pieces) or ((0, last),)
        # consecutive ranges from node 0, strictly increasing to the last node
        edges = [0, *(i1 for _, i1 in self.pieces)]
        if self.pieces != tuple(zip(edges, edges[1:])) or edges != sorted({*edges, last}):
            raise ValueError(f"pieces {self.pieces} do not cover the grid's nodes 0..{last} "
                             "with consecutive ranges")
        for i0, i1 in self.pieces:
            h = (self.s[i1] - self.s[i0]) / (i1 - i0)
            if not np.allclose(gaps[i0:i1], h, rtol=1e-8, atol=1e-12 * (1.0 + abs(h))):
                raise ValueError(f"piece ({i0}, {i1}) is not a uniform grid")

    @property
    def s_bar(self) -> float:
        return float(self.s[-1])

    @property
    def n_nodes(self) -> int:
        return int(self.s.shape[0])

    def speed_sq(self) -> np.ndarray:
        """Squared node speeds |S|^2 (ambient dot; the embedding is isometric)."""
        return np.einsum("ij,ij->i", self.vel, self.vel)


def check_cutoff_length(s_bar: float,
                        need: str = "trapezoid cutoff needs s_bar >= 2") -> None:
    """Refuse a path too short to carry the trapezoid cutoff: s_bar < 2.
    ``need`` opens the message; ``(got s_bar)`` closes it."""
    if s_bar < 2.0:
        raise CutoffUndefinedError(f"{need} (got {s_bar!r})")


def cutoff(path: PhiPath):
    """The trapezoid cutoff on a path with pieces starting at s = 1 and at
    s = s_bar - 1, ready for ``integrate_pieces``: ``(zeta, whole, ramps)``.
    ``zeta`` is the cutoff at the nodes, ``whole`` the path's pieces
    ``(i0, i1, 1.0)``, and ``ramps`` the two ramp pieces weighted by their
    slope zeta' = +1 / -1, read off each piece's end nodes (so s_bar = 2,
    which has no plateau piece, needs no special case).
    """
    s, s_bar = path.s, path.s_bar
    check_cutoff_length(s_bar)
    starts = s[[i0 for i0, _ in path.pieces]]
    for kink in (1.0, s_bar - 1.0):
        if not np.any(np.abs(starts - kink) <= 1e-9 * (1.0 + kink)):
            raise ValueError("path grid is not aligned to the cutoff kinks; sample it "
                             "on quadrature.audit_grid (solve_bvp_shooting does so)")
    zeta = np.minimum(np.minimum(s, 1.0), s_bar - s)
    whole = [(i0, i1, 1.0) for i0, i1 in path.pieces]
    slopes = [round((zeta[i1] - zeta[i0]) / (s[i1] - s[i0])) for i0, i1 in path.pieces]
    ramps = [(i0, i1, float(k)) for (i0, i1), k in zip(path.pieces, slopes) if k]
    return zeta, whole, ramps
