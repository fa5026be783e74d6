"""Hyperboloid surface measures, extension operators, and sharp-constant checks.

The top level exports the entry points README.md lists and the types they
take, return and raise; every other public name is imported from its own
module (`hyperex.geometry.boost`, `hyperex.specfun.bessel_j0`, ...).
"""

from .extension import (
    ExpProfile,
    conv_power_l2_sq,
    extension_closed,
    extension_quadrature,
    lp_norm_extension_direct,
    lp_norm_extension_via_conv,
)
from .functionals import (
    best_constant,
    mass_fraction,
    monotonicity_scan,
    q_ratio,
    q_ratio_closed,
    q_ratio_quadrature,
    sup_norm_bound,
    two_sheeted_combiner_check,
)
from .geometry import HyperboloidParams, lift, normal_form
from .measures import (
    ConvClosedForm,
    MeasureSpec,
    conv_closed,
    conv_pairing_oracle,
    conv_point_oracle,
    surface_integral,
)
from .quadrature import BudgetError, QuadResult, QuadSpec
from .specfun import exp_integral_ei
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConvClosedForm",
    "ExpProfile",
    "HyperboloidParams",
    "MeasureSpec",
    "QuadResult",
    "QuadSpec",
    "best_constant",
    "conv_closed",
    "conv_pairing_oracle",
    "conv_point_oracle",
    "conv_power_l2_sq",
    "exp_integral_ei",
    "extension_closed",
    "extension_quadrature",
    "lift",
    "lp_norm_extension_direct",
    "lp_norm_extension_via_conv",
    "mass_fraction",
    "monotonicity_scan",
    "normal_form",
    "q_ratio",
    "q_ratio_closed",
    "q_ratio_quadrature",
    "run_checks",
    "sup_norm_bound",
    "surface_integral",
    "two_sheeted_combiner_check",
]
