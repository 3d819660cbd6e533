"""Exact Chern-Weil and Chern-Simons calculus for structured vector
bundles on product bases R^a x T^b.

All algebra is exact over Q(i)[tau, 1/tau] with tau the symbolic
normalization constant 2*pi*i; only the holonomy module evaluates
numerically.
"""

from .scalars import GaussRational, TauScalar
from .functions import BaseSpace, ChartFunction, cos_theta, sin_theta
from .forms import Cycle, MatrixForm, OddClass, all_cycles
from .connections import (Connection, GaugeTransform, Idempotent,
                          direct_sum, gauge_apply, grassmann_sum,
                          hermitian_check, tensor)
from .chern_simons import (ConnectionPath, cs_class, cs_path, cs_via_cylinder,
                           equivalent)
from .gauge_theta import b_coefficient, lambda_gl_test, theta_pullback
from .struct_khat import (KHatElement, ch_khat, cs_hat, delta, i_map,
                          khat_add, khat_sub, khat_tensor, realize_even_form,
                          realize_odd_form)
from .holonomy import (Loop, holonomy_defect, is_trivial_holonomy,
                       parallel_transport)
from .randgen import Bounds, RandomGen
from .checks import CheckResult, run_battery
from .dsl import (DslError, LexError, ParseError, Scenario, SemanticError,
                  evaluate_defs, parse_scenario, render_form)

__version__ = "0.1.0"

__all__ = [
    "GaussRational", "TauScalar",
    "BaseSpace", "ChartFunction", "cos_theta", "sin_theta",
    "Cycle", "MatrixForm", "OddClass", "all_cycles",
    "Connection", "GaugeTransform", "Idempotent", "direct_sum",
    "gauge_apply", "grassmann_sum", "hermitian_check", "tensor",
    "ConnectionPath", "cs_class", "cs_path", "cs_via_cylinder", "equivalent",
    "b_coefficient", "lambda_gl_test", "theta_pullback",
    "KHatElement", "ch_khat", "cs_hat", "delta", "i_map",
    "khat_add", "khat_sub", "khat_tensor", "realize_even_form",
    "realize_odd_form",
    "Loop", "holonomy_defect", "is_trivial_holonomy", "parallel_transport",
    "Bounds", "RandomGen",
    "CheckResult", "run_battery",
    "DslError", "LexError", "ParseError", "Scenario", "SemanticError",
    "evaluate_defs", "parse_scenario", "render_form",
]
