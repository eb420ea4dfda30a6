"""Piecewise composite Simpson quadrature on break-aligned grids.

The trapezoid cutoff used by the audits is piecewise polynomial with kinks
at s = 1 and s = s_bar - 1. Integrating it with a quadrature whose nodes
straddle a kink would degrade the order, so paths meant for auditing are
sampled on grids that contain every kink as a node and are uniform between
consecutive breakpoints. Simpson's rule is exact for cubics, which makes the
cutoff factors integrate exactly piece by piece.

``integrate_pieces`` is the package's one quadrature-with-error routine:
the path audits, the scan window and the action all integrate through it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CutoffUndefinedError, PreconditionError

# Most intervals a path grid may have. At the default density of 16 this
# admits s_bar up to 4 096; larger grids are refused before anything
# is allocated.
MAX_GRID_INTERVALS = 2**16


def _refuse_oversized(intervals) -> None:
    if not intervals <= MAX_GRID_INTERVALS:
        raise PreconditionError(
            f"a path grid of {intervals:.6g} intervals exceeds "
            f"MAX_GRID_INTERVALS = {MAX_GRID_INTERVALS}"
        )


def simpson_uniform(s: np.ndarray, y: np.ndarray) -> float:
    """Composite Simpson on a uniform grid; 3/8 tail for odd interval counts."""
    n = len(s) - 1
    if n < 1:
        return 0.0
    h = (s[-1] - s[0]) / n
    steps = np.diff(s)
    if not np.allclose(steps, h, rtol=1e-8, atol=1e-12 * (1.0 + abs(h))):
        raise ValueError("simpson_uniform requires a uniform grid")
    if n == 1:
        return float(0.5 * h * (y[0] + y[1]))
    if n % 2 == 0:
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(h / 3.0 * np.dot(w, y))
    if n == 3:
        return float(3.0 * h / 8.0 * (y[0] + 3.0 * y[1] + 3.0 * y[2] + y[3]))
    head = simpson_uniform(s[: n - 2], y[: n - 2])
    tail = float(3.0 * h / 8.0 * (y[n - 3] + 3.0 * y[n - 2] + 3.0 * y[n - 1] + y[n]))
    return head + tail


def piece_slices(s: np.ndarray, breaks) -> list:
    """Index ranges [(i0, i1), ...] of the grid pieces between breakpoints.

    Every breakpoint must coincide with a grid node. An empty ``breaks``
    means the whole grid is one piece.
    """
    s = np.asarray(s, dtype=float)
    if breaks is None or len(breaks) == 0:
        return [(0, len(s) - 1)]
    idx = []
    for b in breaks:
        j = int(np.argmin(np.abs(s - b)))
        if abs(s[j] - b) > 1e-9 * (1.0 + abs(b)):
            raise ValueError(f"breakpoint {b} is not a grid node")
        idx.append(j)
    idx = sorted(set(idx) | {0, len(s) - 1})
    return [(idx[i], idx[i + 1]) for i in range(len(idx) - 1)]


def integrate_pieces(s: np.ndarray, y: np.ndarray, pieces):
    """Weighted sum of per-piece Simpson integrals, with an error estimate.

    ``pieces`` holds ``(i0, i1, weight)`` index ranges from ``piece_slices``;
    the result is ``(sum of weight * integral, sum of piece errors)``, summed
    in piece order. A piece's error compares its Simpson value against the
    rule on the 2x-coarsened piece when the interval count is even, else
    against the (much cruder) trapezoid rule.
    """
    total = 0.0
    err = 0.0
    for i0, i1, weight in pieces:
        fine = simpson_uniform(s[i0 : i1 + 1], y[i0 : i1 + 1])
        if (i1 - i0) % 2 == 0:
            coarse = simpson_uniform(s[i0 : i1 + 1 : 2], y[i0 : i1 + 1 : 2])
        else:
            coarse = float(np.trapezoid(y[i0 : i1 + 1], s[i0 : i1 + 1]))
        total += weight * fine
        err += abs(fine - coarse)
    return total, err


def uniform_grid(s_bar: float, n_intervals: int) -> np.ndarray:
    if n_intervals < 2:
        raise ValueError("need at least 2 intervals")
    _refuse_oversized(n_intervals)
    return np.linspace(0.0, s_bar, n_intervals + 1)


def audit_grid(s_bar: float, density: int = 16):
    """Grid over [0, s_bar] aligned to the cutoff kinks at 1 and s_bar - 1.

    Returns ``(s, breaks)``. Each piece between consecutive breakpoints is
    uniform with an interval count that is a multiple of 4, so the grid can
    be coarsened once for Richardson error estimates; so can any run of
    nodes inside a piece with an even interval count (the scan's window).
    A grid of more than ``MAX_GRID_INTERVALS`` intervals is refused.
    """
    if not math.isfinite(s_bar):
        raise CutoffUndefinedError(f"trapezoid cutoff needs a finite s_bar (got {s_bar!r})")
    if s_bar < 2.0:
        raise CutoffUndefinedError(f"trapezoid cutoff needs s_bar >= 2 (got {s_bar!r})")
    breaks = sorted({0.0, 1.0, s_bar - 1.0, s_bar})
    spans = [(a, b) for a, b in zip(breaks[:-1], breaks[1:]) if b - a >= 1e-12]
    # float counts, so that an overflowing s_bar * density is refused too
    counts = [max(4.0, 4.0 * np.ceil((b - a) * density / 4.0)) for a, b in spans]
    _refuse_oversized(sum(counts))
    pieces = [np.linspace(a, b, int(count) + 1) for (a, b), count in zip(spans, counts)]
    s = np.concatenate([p if i == 0 else p[1:] for i, p in enumerate(pieces)])
    return s, tuple(breaks)
