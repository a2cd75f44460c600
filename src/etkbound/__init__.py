"""Hybrid Erdős-Turán-Koksma discrepancy bounds for digital sequences.

Exact base-b digit arithmetic, Walsh and b-adic function systems, elint
Fourier analysis, the weighted discrepancy inequality, and an exact
brute-force oracle to validate it on small point sets.  The package exports
the names of the README's quick tour and the types and errors they return or
raise; everything else is imported from its module.  Each export is imported
from its module on first access (PEP 562), so importing the package, or one
of its modules, imports no other module of it.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module it is read from
_SOURCES = {
    "BoundReport": "bounds",
    "BudgetExceededError": "badic",
    "CapExceededError": "badic",
    "DigitalConfig": "sequences",
    "DiscrepancyResult": "oracle",
    "HaltonConfig": "sequences",
    "HybridSystemSpec": "systems",
    "PointSet": "sequences",
    "VdcConfig": "sequences",
    "config_from_string": "sequences",
    "etk_bound": "bounds",
    "hybrid_points": "sequences",
    "star_discrepancy_exact": "oracle",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
