"""Hybrid Erdős-Turán-Koksma discrepancy bounds for digital sequences.

Exact base-b digit arithmetic, Walsh and b-adic function systems, elint
Fourier analysis, the weighted discrepancy inequality, and an exact
brute-force oracle to validate it on small point sets.  The package exports
the names of the README's quick tour and the types and errors they return or
raise; everything else is imported from its module.
"""

from .badic import BudgetExceededError
from .bounds import BoundReport, etk_bound
from .oracle import CapExceededError, DiscrepancyResult, star_discrepancy_exact
from .sequences import (
    DigitalConfig,
    HaltonConfig,
    PointSet,
    VdcConfig,
    config_from_string,
    hybrid_points,
)
from .systems import HybridSystemSpec

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "CapExceededError",
    "DigitalConfig",
    "DiscrepancyResult",
    "HaltonConfig",
    "HybridSystemSpec",
    "PointSet",
    "VdcConfig",
    "config_from_string",
    "etk_bound",
    "hybrid_points",
    "star_discrepancy_exact",
]
