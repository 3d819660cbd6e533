"""Winding forms of gauge transforms and the Lambda_GL membership test.

For a gauge g, the pullback of the universal transgression form is

    g*Theta = sum_j b_j tr((g^-1 dg)^(2j-1))

with b_j = 1/(j-1)! tau^-j int_0^1 (t^2-t)^(j-1) dt.  Lambda_GL is the
group generated by these pullbacks plus exact odd forms.  Membership is
only semi-decidable here: we either exhibit a certificate combination,
refute via a non-integral period over a sub-torus cycle, or answer
unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .connections import GaugeTransform
from .forms import MatrixForm, all_cycles, Cycle
from .scalars import TauScalar


def b_coefficient(j: int) -> TauScalar:
    """Exact value of the j-th transgression coefficient."""
    if j < 1:
        raise ValueError("coefficient index must be >= 1")
    # int_0^1 (t^2 - t)^(j-1) dt, expanded binomially
    integral = Fraction(0)
    for m in range(j):
        integral += (math.comb(j - 1, m) * (-1) ** (j - 1 - m)
                     * Fraction(1, j + m))
    return TauScalar.tau_power(-j).scale(integral / math.factorial(j - 1))


def b_coefficient_closed_form(j: int) -> TauScalar:
    """Independent closed form: (-1)^(j-1) (j-1)! / (2j-1)! times tau^-j."""
    if j < 1:
        raise ValueError("coefficient index must be >= 1")
    val = Fraction((-1) ** (j - 1) * math.factorial(j - 1) ** 2,
                   math.factorial(2 * j - 1)) / math.factorial(j - 1)
    return TauScalar.tau_power(-j).scale(val)


def theta_pullback(g: GaugeTransform) -> MatrixForm:
    """g*Theta truncated at the base dimension."""
    base = g.base
    M = g.g_inv.wedge(g.g.d())
    total = MatrixForm.zero(base, 1, 1)
    power = M  # M^(2j-1)
    for j in range(1, (base.dim + 1) // 2 + 1):
        if j > 1:
            power = power.wedge(M).wedge(M)
        if not power:
            break
        total = total + power.trace().scale(b_coefficient(j))
    return total


@dataclass
class LambdaVerdict:
    """Outcome of the Lambda_GL membership test.

    status is 'member', 'nonmember' or 'unknown'.  For a member the
    certificate combination (coefficients per supplied gauge) is given;
    for a nonmember a witness (cycle, period) or a non-closedness flag.
    """

    status: str
    combination: tuple[int, ...] | None = None
    witness: tuple[Cycle | None, TauScalar | None] | None = None


def lambda_gl_test(omega: MatrixForm, certificates: list[GaugeTransform],
                   depth: int = 2) -> LambdaVerdict:
    """Three-valued Lambda_GL membership.

    member:     omega minus an integer combination of the certificate
                pullbacks (coefficients in [-depth, depth]) is exact.
    nonmember:  omega is not closed, or some period over a sub-torus
                cycle is not an integer (every certificate pullback has
                integral periods in this normalization).
    unknown:    neither verdict reached within the search bound.
    """
    if omega.rows != 1 or omega.cols != 1:
        raise ValueError("membership test needs a scalar form")
    if omega.d():
        return LambdaVerdict("nonmember", witness=(None, None))
    pulls = [theta_pullback(g) for g in certificates]
    for combo in product(range(-depth, depth + 1), repeat=len(pulls)):
        cand = omega
        for c, p in zip(combo, pulls):
            if c:
                cand = cand - p.scale_rational(c)
        if cand.is_exact():
            return LambdaVerdict("member", combination=combo)
    for cycle in all_cycles(omega.base, parity=1):
        per = omega.period(cycle)
        if not per.is_integer():
            return LambdaVerdict("nonmember", witness=(cycle, per))
    return LambdaVerdict("unknown")
