"""Spectra, eigenfunctions and SUSY partner hierarchies of the PT-symmetric square well.

Every public name resolves from its submodule on first access (PEP 562), so
`import ptwell` loads no submodule and a CLI process compiles only the
modules its subcommand runs.
"""
import importlib

_EXPORTS = {
    "spectral_core": (
        "Branch", "ConvergenceError", "CriticalCoupling", "IllegalPlanError",
        "SpectralLevel", "Spectrum", "WaveNumber", "classify_spectrum",
        "find_critical_coupling", "kappa_from_energy", "matching_residual",
        "solve_complex_pair", "solve_real_spectrum"),
    "wavefunctions": (
        "PiecewiseEigenfunction", "chebyshev_grid", "gegenbauer_eval",
        "limit_form", "pt_defect"),
    "susy_hierarchy": (
        "EliminationPlan", "HierarchyMember", "LevelAnnihilated",
        "PiecewisePotential", "PlanChoice", "Superpotential", "build_hierarchy",
        "hierarchy_relations_check", "intertwine", "square_well_eigenfunction",
        "square_well_potential"),
    "oracle_verifier": (
        "MismatchValue", "ShootingConfig", "Side", "find_spectrum_numeric",
        "integrate_side", "mismatch"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
