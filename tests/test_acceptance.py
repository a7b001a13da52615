"""Acceptance checks, one test per criterion, at the agreed tolerances.

Run with -v to get one pass/fail line per criterion.  Criterion 8's last
clause is asserted exactly as agreed and is expected to fail; the analysis
is in docs/decisions.md.
"""
import math
import time

import pytest

from ptwell import (
    EliminationPlan,
    LevelAnnihilated,
    ShootingConfig,
    build_hierarchy,
    chebyshev_grid,
    classify_spectrum,
    find_critical_coupling,
    find_spectrum_numeric,
    hierarchy_relations_check,
    intertwine,
    kappa_from_energy,
    matching_residual,
    mismatch,
    pt_defect,
    solve_real_spectrum,
    square_well_eigenfunction,
    square_well_potential,
)
from ptwell.spectral_core import kappa_condition_residual
from ptwell.wavefunctions import limit_form

from oracle_reference import rk4_order_estimate
from well_reference import curve_X, curve_Y, curve_point, pt_transform

_T0 = time.perf_counter()


def test_criterion_1_zero_coupling_spectrum():
    """First ten zero-coupling levels: closed form to 1e-10, oracle to 1e-8, < 1 s."""
    start = time.perf_counter()
    closed = solve_real_spectrum(0.0, 10)
    for n, level in enumerate(closed):
        assert abs(level.energy - (n + 1) ** 2 * math.pi**2 / 4) < 1e-10
    V = square_well_potential(0.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    oracle = find_spectrum_numeric(V, 10, (complex(0.5, -1.0), complex(260.0, 1.0)), cfg)
    for n, E in enumerate(oracle):
        assert abs(E - (n + 1) ** 2 * math.pi**2 / 4) < 1e-8
    assert time.perf_counter() - start < 1.0


def test_criterion_2_critical_couplings():
    """First two pair-merge couplings inside the agreed brackets, < 5 s each."""
    find_critical_coupling.cache_clear()
    start = time.perf_counter()
    c0 = find_critical_coupling(0)
    mid = time.perf_counter()
    c1 = find_critical_coupling(1)
    end = time.perf_counter()
    assert 4.47 <= c0.z_crit <= 4.49
    assert 12.79 <= c1.z_crit <= 12.81
    assert mid - start < 5.0
    assert end - mid < 5.0


def test_criterion_3_matching_identities():
    """Every computed real level satisfies all four matching identities."""
    for Z in (0.5, 1.0, 2.0, 4.0):
        for level in solve_real_spectrum(Z, 8):
            kappa = kappa_from_energy(level.energy.real, Z)
            s, t = kappa.value.real, -kappa.value.imag
            assert abs(matching_residual(t, Z)) < 1e-12
            assert abs(kappa_condition_residual(level.energy, Z)) < 1e-10
            T, _ = curve_point(kappa)
            assert abs(curve_X(T) - curve_Y(Z, T)) < 1e-10
            assert abs(2 * s * t - Z) < 1e-12


def test_criterion_4_oracle_cross_validation():
    """Closed-form and shooting spectra agree at Z=2; integrator is 4th order."""
    closed = solve_real_spectrum(2.0, 8)
    V = square_well_potential(2.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    oracle = find_spectrum_numeric(V, 8, (complex(1.0, -1.0), complex(165.0, 1.0)), cfg)
    for E, level in zip(oracle, closed):
        assert abs(E - level.energy) < 1e-6
    order = rk4_order_estimate(V, closed[0].energy * 1.0001, cfg)
    assert 3.7 <= order <= 4.3


def test_criterion_5_susy_pairing():
    """Partner spectrum drops exactly the ground level; the lowering operator kills it."""
    chain = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=8)
    bare = chain[0].spectrum.levels
    V2 = chain[1].potential
    cfg = ShootingConfig(p=V2.endpoint_exponent)
    oracle = find_spectrum_numeric(V2, 6, (complex(1.0, -1.0), complex(165.0, 1.0)), cfg)
    for E, level in zip(oracle, bare[1:7]):
        assert abs(E - level.energy) < 1e-6
    W = chain[0].superpotential
    psi0 = chain[0].eigenfunctions(0)
    points = chebyshev_grid(50)
    sup = max(abs(psi0.derivative(x) + W(x) * psi0(x)) for x in points)
    scale = max(abs(psi0.derivative(x)) + abs(W(x) * psi0(x)) for x in points)
    assert sup < 1e-10 * scale
    with pytest.raises(LevelAnnihilated):
        intertwine(W, psi0)


def test_criterion_6_hierarchy_limits():
    """Zero-coupling hierarchy collapses to the secant family and Gegenbauer shapes."""
    chain = build_hierarchy(0.0, EliminationPlan.from_text("real,real"), 3, levels=8)
    grid = chebyshev_grid(101)
    for x in grid:
        sec2 = 1.0 / math.cos(math.pi * x / 2) ** 2
        v2 = chain[1].potential(x)
        v3 = chain[2].potential(x)
        assert abs(v2 - (math.pi**2 / 2) * sec2) <= 1e-10 * abs(v2)
        assert abs(v3 - 1.5 * math.pi**2 * sec2) <= 1e-10 * abs(v3)
    sample = [x / 10 for x in range(-9, 10) if x != 0]
    for m in (1, 2, 3):
        for n in range(5):
            f = chain[m - 1].eigenfunctions(n)
            shapes = [limit_form(m, n, x) for x in sample]
            cut = 1e-2 * max(abs(s) for s in shapes)
            ratios = [f(x) / s for x, s in zip(sample, shapes) if abs(s) > cut]
            mean = sum(ratios) / len(ratios)
            variance = sum(abs(r - mean) ** 2 for r in ratios) / len(ratios)
            assert variance / abs(mean) ** 2 < 1e-8
    h = 1e-5
    for m in (2, 3):
        for n in range(3):
            for x in (-0.75, -0.3, 0.25, 0.6):
                d = (limit_form(m - 1, n + 1, x + h) - limit_form(m - 1, n + 1, x - h)) / (2 * h)
                lhs = d + (m - 1) * (math.pi / 2) * math.tan(math.pi * x / 2) * limit_form(m - 1, n + 1, x)
                rhs = math.pi * (m - 1) * limit_form(m, n, x)
                assert abs(lhs - rhs) < 1e-6 * (1 + abs(rhs))


def test_criterion_7_broken_phase():
    """The Z=8 pair is genuinely complex, oracle-confirmed, and PT maps its members
    onto each other while every real level stays PT-symmetric."""
    spec = classify_spectrum(8.0, 8)
    lower, upper = spec.levels[0], spec.levels[1]
    assert upper.energy.imag > 0
    assert abs(kappa_condition_residual(lower.energy, 8.0)) < 1e-10
    assert abs(kappa_condition_residual(upper.energy, 8.0)) < 1e-10
    V = square_well_potential(8.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    assert abs(mismatch(V, lower.energy, cfg).normalized) < 1e-7
    assert abs(mismatch(V, upper.energy, cfg).normalized) < 1e-7
    grid = chebyshev_grid(101)
    f0 = square_well_eigenfunction(lower)
    f1 = square_well_eigenfunction(upper)
    assert pt_defect(f0, grid) > 0.01
    assert pt_defect(f1, grid) > 0.01
    g = pt_transform(f0)
    ratios = [g(x) / f1(x) for x in grid]
    mean = sum(ratios) / len(ratios)
    assert sum(abs(r - mean) ** 2 for r in ratios) / len(ratios) < 1e-10
    assert max(abs(r.imag) for r in ratios) < 1e-10 * abs(mean)
    for level in spec.levels[2:]:
        assert pt_defect(square_well_eigenfunction(level), grid) < 1e-12


def test_criterion_8_hierarchy_relations_broken_phase():
    """Pair-elimination orders mirror each other at Z=8; their common third member
    is PT-symmetric with a real spectrum and non-PT-proportional eigenfunctions."""
    relations = hierarchy_relations_check(8.0, levels=3)
    assert relations["member2_mirror_dev"] < 1e-10
    assert relations["member3_same_dev"] < 1e-10
    assert relations["member3_pt_symmetric"] is True
    chain = build_hierarchy(8.0, EliminationPlan.from_text("cupper,clower"), 3, levels=8)
    V3 = chain[2].potential
    assert V3.pt_symmetric
    closed = [level.energy for level in chain[2].spectrum.levels[:5]]
    cfg = ShootingConfig(p=V3.endpoint_exponent)
    hi = max(E.real for E in closed)
    oracle = find_spectrum_numeric(V3, 5, (complex(5.0, -1.0), complex(hi + 10.0, 1.0)), cfg)
    for E, want in zip(oracle, closed):
        assert abs(E.imag) < 1e-7
        assert abs(E - want) < 1e-6
    worst = max(stats["pt_ratio_variance"]
                for stats in relations["member3_eigenfunction_pt"].values())
    assert worst > 1e-4, (
        "third-member eigenfunctions are exactly PT-proportional "
        f"(largest ratio variance {worst:.3e}); this clause cannot hold -- "
        "see docs/decisions.md"
    )


def test_criterion_9_suite_runtime():
    """The acceptance module itself stays far inside the 60 s budget."""
    assert time.perf_counter() - _T0 < 60.0
