"""Piecewise composite Simpson quadrature on kink-aligned path grids.

The trapezoid cutoff used by the audits is piecewise polynomial with kinks
at s = 1 and s = s_bar - 1. Integrating it with a quadrature whose nodes
straddle a kink would degrade the order, so ``audit_grid``, the one
path-grid builder, puts a node at every kink and is uniform between them.
It hands back those uniform pieces as node index ranges, which a
``PhiPath`` carries as its ``pieces``. Simpson's rule is exact for cubics,
which makes the cutoff factors integrate exactly piece by piece.

``integrate_pieces`` is the package's one quadrature-with-error routine:
the path audits, the scan window and the action all integrate through it.
"""

from __future__ import annotations

import math
import sys

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
    against the (much cruder) trapezoid rule. Each piece must be uniform;
    nothing here checks it. A ``PhiPath`` checks its pieces once, when it
    is made, and the scan's window lies inside one of them.
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
