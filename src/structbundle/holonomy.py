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
from .forms import MatrixForm, Mono
from .functions import BaseSpace

DEFAULT_TOL = 1e-8
DEFAULT_STEPS = 256
MAX_STEPS = 2 ** 14
# basepoints of the holonomy loops: every coordinate set to one of these
_BASEPOINT_GRID = (0.0, 0.9, 2.1)


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


def _numeric_field(form: MatrixForm, mono: Mono, loop: Loop):
    """The coefficients of d(mono) in form along the loop, as a function
    of the loop parameter u returning a numeric matrix.

    The chart coordinates are fixed on a loop, so each entry is
    converted to floats once, here, and only its Fourier phases are
    evaluated per call.
    """
    xs, thetas = loop.point(0.0)
    j = loop.torus_coord
    table = [(r, c, f.numeric(xs))
             for (r, c, m), f in form.entries.items() if m == mono]

    def at(u: float) -> np.ndarray:
        thetas[j] = u
        M = np.zeros((form.rows, form.cols), dtype=complex)
        for r, c, fn in table:
            M[r, c] = fn(thetas)
        return M

    return at


def parallel_transport(conn: Connection, loop: Loop,
                       steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Solve S' = -A(gamma(u))[gamma'(u)] S, S(0) = I, by classical RK4."""
    if steps < 16:
        raise ValueError("need at least 16 steps")
    A = _numeric_field(conn.A, (conn.base.chart_dim + loop.torus_coord,), loop)
    S = np.eye(conn.rank, dtype=complex)
    h = 2 * math.pi / steps
    for m in range(steps):
        u = m * h
        k1 = -A(u) @ S
        mid = -A(u + h / 2)
        k2 = mid @ (S + h / 2 * k1)
        k3 = mid @ (S + h / 2 * k2)
        k4 = -A(u + h) @ (S + h * k3)
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


def _loop_defects(conn: Connection, tol: float):
    """Max-norm distance from the identity of the transport around each
    coordinate torus loop, over the basepoint grid."""
    ident = np.eye(conn.rank)
    for j in range(conn.base.torus_dim):
        for v in _BASEPOINT_GRID:
            bp = (v,) * conn.base.dim
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
