"""Hybrid Erdős-Turán-Koksma discrepancy bounds for digital sequences.

Exact base-b digit arithmetic, Walsh and b-adic function systems, elint
Fourier analysis, the weighted discrepancy inequality, and an exact
brute-force oracle to validate it on small point sets.
"""

from .badic import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DigitColumn,
    DigitVector,
    delta_size,
    enumerate_delta,
    monna,
    monna_pseudoinverse,
    radical_inverse,
    vb,
)
from .bounds import (
    EXTREME,
    STAR,
    BoundReport,
    cb_constant,
    corollary_bound,
    epsilon_fraction,
    epsilon_term,
    etk_bound,
    exp_sum,
    rho,
    rho_star,
    weight_sum,
)
from .fourier import (
    BadicInterval,
    Elint,
    anchored_fourier_coeff,
    elint_fourier_coeff,
    elint_partition,
    fc_upper_bound,
    interval_fourier_coeff,
    reconstruct_indicator,
)
from .oracle import (
    CapExceededError,
    DiscrepancyResult,
    DominationReport,
    domination_check,
    extreme_discrepancy_exact,
    star_discrepancy_exact,
)
from .pointfile import read_point_set, write_point_set
from .sequences import (
    DigitalConfig,
    GeneratorMatrix,
    HaltonConfig,
    PointSet,
    VdcConfig,
    config_from_string,
    generate_points,
    halton,
    hybrid_points,
    van_der_corput,
)
from .systems import BADIC, WALSH, HybridSystemSpec, PhaseFraction, xi_eval, xi_phase
from .verify import SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "BADIC",
    "DEFAULT_BUDGET",
    "EXTREME",
    "STAR",
    "WALSH",
    "BadicInterval",
    "BoundReport",
    "BudgetExceededError",
    "CapExceededError",
    "DigitalConfig",
    "DigitColumn",
    "DigitVector",
    "DiscrepancyResult",
    "DominationReport",
    "Elint",
    "GeneratorMatrix",
    "HaltonConfig",
    "HybridSystemSpec",
    "PhaseFraction",
    "PointSet",
    "SuiteResult",
    "VdcConfig",
    "anchored_fourier_coeff",
    "cb_constant",
    "config_from_string",
    "corollary_bound",
    "delta_size",
    "domination_check",
    "elint_fourier_coeff",
    "elint_partition",
    "enumerate_delta",
    "epsilon_fraction",
    "epsilon_term",
    "etk_bound",
    "exp_sum",
    "extreme_discrepancy_exact",
    "fc_upper_bound",
    "generate_points",
    "halton",
    "hybrid_points",
    "interval_fourier_coeff",
    "monna",
    "monna_pseudoinverse",
    "radical_inverse",
    "read_point_set",
    "reconstruct_indicator",
    "rho",
    "rho_star",
    "run_suites",
    "star_discrepancy_exact",
    "van_der_corput",
    "vb",
    "weight_sum",
    "write_point_set",
    "xi_eval",
    "xi_phase",
]
