"""Discretized path container shared by the geodesic machinery.

A ``PhiPath`` is a value object: an increasing parameter grid, one ambient
position and velocity row per node, and the scalars extracted from them
(conserved quantity, drift, action). Solvers fill it in; audits only read it.
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
    """

    s: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    C_value: float = float("nan")
    drift: float = float("nan")
    action_J: float = float("nan")
    breaks: tuple = ()  # quadrature breakpoints the grid is aligned to
    is_minimal_candidate: bool = False
    minimal_evidence: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        self.vel = np.asarray(self.vel, dtype=float)
        if self.pos.shape != self.vel.shape or self.pos.shape[0] != self.s.shape[0]:
            raise ValueError("grid, positions and velocities must have matching shapes")
        if np.any(np.diff(self.s) <= 0):
            raise ValueError("parameter grid must be strictly increasing")

    @property
    def s_bar(self) -> float:
        return float(self.s[-1])

    @property
    def n_nodes(self) -> int:
        return int(self.s.shape[0])

    def speed_sq(self) -> np.ndarray:
        """Squared node speeds |S|^2 (ambient dot; the embedding is isometric)."""
        return np.einsum("ij,ij->i", self.vel, self.vel)
