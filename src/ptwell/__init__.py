"""Spectra, eigenfunctions and SUSY partner hierarchies of the PT-symmetric square well."""
from .spectral_core import (Branch, ConvergenceError, CouplingStrength,
                            CriticalCoupling, CurvePoint, MomentumPair,
                            SpectralLevel, Spectrum, WaveNumber,
                            classify_spectrum, curve_X, curve_Y, curve_point,
                            find_critical_coupling, kappa_from_energy,
                            matching_residual, solve_complex_pair,
                            solve_real_spectrum)
from .wavefunctions import (GegenbauerPoly, OriginData, PiecewiseEigenfunction,
                            chebyshev_grid, eval_sw_eigenfunction,
                            gegenbauer_eval, limit_form, pt_defect,
                            pt_transform, schrodinger_residual,
                            square_well_eigenfunction)
from .susy_hierarchy import (EliminationPlan, HierarchyMember,
                             IllegalPlanError, LevelAnnihilated,
                             PiecewisePotential, PlanChoice, Superpotential,
                             build_hierarchy, hierarchy_relations_check,
                             intertwine, partner_potential,
                             square_well_potential, superpotential_W1,
                             superpotential_next)
from .oracle_verifier import (MismatchValue, ShootingConfig, Side,
                              find_spectrum_numeric, integrate_side, mismatch,
                              rk4_order_estimate)

__version__ = "0.1.0"
