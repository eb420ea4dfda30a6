"""Discretized path container shared by the geodesic machinery.

A ``PhiPath`` is a value object: an increasing parameter grid, one ambient
position and velocity row per node, the grid's quadrature pieces, and the
scalars extracted from them (conserved quantity, drift, action). Solvers
fill it in; audits only read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PhiPath:
    """Sampled path ``gamma: [0, s_bar] -> M`` with velocities ``S = gamma'``.

    ``pos`` and ``vel`` have one row per grid node, in the model's ambient
    representation. ``C_value`` is the conserved ``|S|^2 - 2*phi`` extracted
    from the node data and ``drift`` its maximal deviation across nodes.
    ``pieces`` are the ``(i0, i1)`` node ranges the grid is uniform on, as
    ``quadrature.audit_grid`` returns them; ``()`` means one piece over the
    whole grid. They must cover the grid with consecutive ranges, and each
    must be uniform: its gaps all equal its mean gap h within a relative
    1e-8 and an absolute 1e-12 * (1 + |h|). A path checks this once, when
    it is made, so that every quadrature on its pieces can rely on it.
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
