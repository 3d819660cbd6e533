"""Numerical parallel transport around torus loops.

This is the only floating-point module: it certifies the holonomy-based
notion of flatness, which is analytic and cannot be decided in the
coefficient ring.  Exact modules never ingest its outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connections import Connection
from .functions import BaseSpace

DEFAULT_TOL = 1e-8
DEFAULT_STEPS = 256
MAX_STEPS = 2 ** 14


@dataclass(frozen=True)
class Loop:
    """The coordinate circle in one torus angle through a basepoint.

    basepoint lists values for all a+b coordinates; the swept angle's
    entry is ignored.
    """

    base: BaseSpace
    torus_coord: int
    basepoint: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0 <= self.torus_coord < self.base.torus_dim):
            raise ValueError("torus coordinate out of range")
        if self.basepoint and len(self.basepoint) != self.base.dim:
            raise ValueError("basepoint must list every coordinate")

    def point(self, u: float):
        """Coordinates (xs, thetas) at loop parameter u in [0, 2pi]."""
        a = self.base.chart_dim
        coords = list(self.basepoint) if self.basepoint else [0.0] * self.base.dim
        coords[a + self.torus_coord] = u
        return coords[:a], coords[a:]


def _transport_matrix(conn: Connection, loop: Loop, u: float) -> np.ndarray:
    """-A(gamma(u))[gamma'(u)] as a numeric matrix."""
    a = conn.base.chart_dim
    coord = a + loop.torus_coord
    xs, thetas = loop.point(u)
    n = conn.rank
    M = np.zeros((n, n), dtype=complex)
    for (r, c, mono), f in conn.A.entries.items():
        if mono != (coord,):
            continue
        M[r, c] = f.eval_numeric(xs, thetas)
    return -M


def parallel_transport(conn: Connection, loop: Loop,
                       steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Solve S' = -A(gamma(u))[gamma'(u)] S, S(0) = I, by classical RK4."""
    if steps < 16:
        raise ValueError("need at least 16 steps")
    n = conn.rank
    S = np.eye(n, dtype=complex)
    h = 2 * math.pi / steps
    for m in range(steps):
        u = m * h
        k1 = _transport_matrix(conn, loop, u) @ S
        mid = _transport_matrix(conn, loop, u + h / 2)
        k2 = mid @ (S + h / 2 * k1)
        k3 = mid @ (S + h / 2 * k2)
        k4 = _transport_matrix(conn, loop, u + h) @ (S + h * k3)
        S = S + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return S


def _transport_refined(conn: Connection, loop: Loop, tol: float) -> np.ndarray:
    """Step-double until two resolutions agree within tol/10."""
    steps = DEFAULT_STEPS
    prev = parallel_transport(conn, loop, steps)
    while steps < MAX_STEPS:
        steps *= 2
        cur = parallel_transport(conn, loop, steps)
        if np.max(np.abs(cur - prev)) <= tol / 10:
            return cur
        prev = cur
    return prev


def _basepoints(base: BaseSpace):
    """Fixed small grid of basepoints: all coordinates moved together."""
    for v in (0.0, 0.9, 2.1):
        yield tuple(v for _ in range(base.dim))


def _loop_defects(conn: Connection, tol: float):
    """Max-norm distance from the identity of the transport around each
    coordinate torus loop, over the basepoint grid."""
    ident = np.eye(conn.rank)
    for j in range(conn.base.torus_dim):
        for bp in _basepoints(conn.base):
            S = _transport_refined(conn, Loop(conn.base, j, bp), tol)
            yield float(np.max(np.abs(S - ident)))


def is_trivial_holonomy(conn: Connection, tol: float = DEFAULT_TOL) -> bool:
    """True iff transport around every coordinate torus loop (over the
    basepoint grid) is within tol of the identity in max-norm."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return not any(defect > tol for defect in _loop_defects(conn, tol))


def holonomy_defect(conn: Connection, tol: float = DEFAULT_TOL) -> float:
    """Max distance from the identity over all coordinate loops."""
    return max([0.0, *_loop_defects(conn, tol)])
