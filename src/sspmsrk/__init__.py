"""Strong-stability-preserving multistep Runge-Kutta methods.

Analysis (SSP coefficients, order, threshold factors), closed-form
optimal second-order methods, numerical optimization of higher-order
methods, and hyperbolic-PDE experiments with monotonicity monitors.
"""

from .methods import (
    CanonicalForm,
    MSRKMethod,
    SpijkerForm,
    canonical,
    forward_euler,
    ssp_coefficient,
    ssprk33,
    to_spijker,
    validate,
)
from .orderlab import convergence_order, oracle_order, stage_order
from .theory import gen_second_order, r_sk2, threshold_factor

__all__ = [
    "CanonicalForm",
    "MSRKMethod",
    "SpijkerForm",
    "canonical",
    "convergence_order",
    "forward_euler",
    "gen_second_order",
    "oracle_order",
    "r_sk2",
    "ssp_coefficient",
    "ssprk33",
    "stage_order",
    "threshold_factor",
    "to_spijker",
    "validate",
]

__version__ = "0.1.0"
