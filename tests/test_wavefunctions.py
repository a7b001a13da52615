import math

import pytest
from scipy.special import eval_gegenbauer

from ptwell import (
    EliminationPlan,
    build_hierarchy,
    chebyshev_grid,
    classify_spectrum,
    eval_sw_eigenfunction,
    gegenbauer_eval,
    limit_form,
    pt_defect,
    pt_transform,
    schrodinger_residual,
    solve_real_spectrum,
    square_well_eigenfunction,
    square_well_potential,
)
from ptwell.wavefunctions import normalize_sides


def test_eigenfunction_vanishes_at_walls():
    for Z in (0.0, 2.0, 8.0):
        level = solve_real_spectrum(Z, 3)[2] if Z != 8.0 else classify_spectrum(Z, 3).levels[2]
        f = square_well_eigenfunction(level)
        assert abs(f(1.0)) < 1e-12
        assert abs(f(-1.0)) < 1e-12


def test_eigenfunction_continuous_at_origin():
    for Z in (0.0, 0.7, 2.0, 5.5):
        for level in solve_real_spectrum(Z, 4):
            f = square_well_eigenfunction(level)
            jump = abs(f(1e-13) - f(-1e-13))
            djump = abs(f.derivative(1e-13) - f.derivative(-1e-13))
            assert jump < 1e-10
            assert djump < 1e-8


def test_origin_normalization():
    # psi(0) = 1, except on the Z = 0 odd levels, where psi(0) = 0 and psi'(0) = i
    for Z in (0.0, 2.0, 8.0):
        for member in build_hierarchy(Z, EliminationPlan.from_text("real,real"), 3, levels=7):
            for n in range(len(member.spectrum.levels)):
                f = member.eigenfunctions(n)
                if Z == 0 and n % 2:
                    assert abs(f(0.0)) < 1e-12
                    assert f.derivative(0.0) == pytest.approx(1j, rel=1e-14)
                else:
                    assert f(0.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("Z,n", [(2.0, 0), (0.0, 1)])
def test_normalize_sides_calls_each_side_once_at_origin(Z, n):
    f = square_well_eigenfunction(solve_real_spectrum(Z, n + 1)[n])
    origin_calls = {"right": 0, "left": 0}

    def counted(name, side):
        def ev(x):
            origin_calls[name] += x == 0.0
            return side(x)
        return ev

    normalize_sides(f.level, 1, counted("right", f.right), counted("left", f.left))
    assert origin_calls == {"right": 1, "left": 1}


def test_zero_coupling_ground_state_shape():
    level = solve_real_spectrum(0.0, 1)[0]
    f = square_well_eigenfunction(level)
    # proportional to cos(pi x / 2), purely imaginary in this convention
    ratio = f(0.4) / math.cos(math.pi * 0.2)
    for x in (-0.8, -0.3, 0.2, 0.7):
        assert f(x) == pytest.approx(ratio * math.cos(math.pi * x / 2), rel=1e-10)


def test_zero_coupling_odd_levels_fallback():
    # antisymmetric members have a node at the origin; the sin form takes over
    level = solve_real_spectrum(0.0, 2)[1]
    f = square_well_eigenfunction(level)
    t = math.pi
    for x in (-0.6, -0.25, 0.3, 0.85):
        assert f(x) == pytest.approx(1j * math.sin(t * x) / t, rel=1e-10)
    assert f(0.0) == 0


def test_eval_sw_eigenfunction_domain():
    level = solve_real_spectrum(1.0, 1)[0]
    assert eval_sw_eigenfunction(level, 1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        eval_sw_eigenfunction(level, 1.2)


def test_schrodinger_residual_small_on_eigenfunctions():
    Z = 2.0
    V = square_well_potential(Z)
    for level in solve_real_spectrum(Z, 3):
        f = square_well_eigenfunction(level)
        for x in (-0.7, -0.2, 0.35, 0.8):
            r = schrodinger_residual(f, V, level.energy, x, 1e-5)
            assert abs(r) < 1e-5 * (1 + abs(level.energy))


def test_schrodinger_residual_stencil_guards():
    level = solve_real_spectrum(1.0, 1)[0]
    f = square_well_eigenfunction(level)
    V = square_well_potential(1.0)
    with pytest.raises(ValueError):
        schrodinger_residual(f, V, level.energy, 0.0, 1e-5)
    with pytest.raises(ValueError):
        schrodinger_residual(f, V, level.energy, 0.9999999, 1e-5)
    with pytest.raises(ValueError):
        schrodinger_residual(f, V, level.energy, 0.5, 0.0)


def test_pt_transform_fixed_point():
    f = lambda x: 1j * math.sin(math.pi * x)
    g = pt_transform(f)
    for x in (-0.5, 0.1, 0.8):
        assert g(x) == pytest.approx(f(x))


def test_pt_defect_trivial_cases():
    grid = chebyshev_grid(31)
    # e^{ix} is invariant under x -> -x with conjugation; i cos(x) flips sign
    assert pt_defect(lambda x: math.cos(x) + 1j * math.sin(x), grid) < 1e-15
    assert pt_defect(lambda x: 1j * math.cos(x), grid) == pytest.approx(2.0)
    assert pt_defect(lambda x: 0.0, grid) == 0.0
    with pytest.raises(ValueError):
        pt_defect(lambda x: x, [])


def test_unbroken_levels_are_pt_symmetric():
    grid = chebyshev_grid(51)
    for level in solve_real_spectrum(3.0, 4):
        f = square_well_eigenfunction(level)
        assert pt_defect(f, grid) < 1e-12


def test_broken_pair_swaps_under_pt():
    spec = classify_spectrum(8.0, 4)
    f0 = square_well_eigenfunction(spec.levels[0])
    f1 = square_well_eigenfunction(spec.levels[1])
    grid = chebyshev_grid(101)
    assert pt_defect(f0, grid) == pytest.approx(0.8525791147061164, rel=1e-10)
    g = pt_transform(f0)
    ratios = [g(x) / f1(x) for x in grid]
    mean = sum(ratios) / len(ratios)
    assert sum(abs(r - mean) ** 2 for r in ratios) / len(ratios) < 1e-20
    assert max(abs(r.imag) for r in ratios) < 1e-12 * max(abs(r) for r in ratios)


def test_gegenbauer_eval_known_values():
    assert gegenbauer_eval(0, 1, 0.77) == 1.0
    assert gegenbauer_eval(1, 2, 0.3) == pytest.approx(1.2)
    assert gegenbauer_eval(2, 1, 0.3) == pytest.approx(-0.64)
    assert gegenbauer_eval(3, 2, -0.4) == pytest.approx(2.752)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_gegenbauer_eval_against_scipy(m, n):
    for x in (-0.9, -0.4, 0.0, 0.3, 0.8):
        assert gegenbauer_eval(n, m, x) == pytest.approx(
            float(eval_gegenbauer(n, m, x)), rel=1e-12, abs=1e-12
        )


def test_gegenbauer_validation():
    with pytest.raises(ValueError):
        gegenbauer_eval(-1, 1, 0.0)
    with pytest.raises(ValueError):
        gegenbauer_eval(2, 0, 0.0)


def test_limit_form_ground_shapes():
    # depth 1 level 0 is the cosine; odd levels pick up the sine factor
    for x in (-0.6, 0.1, 0.5):
        assert limit_form(1, 0, x) == pytest.approx(math.cos(math.pi * x / 2), rel=1e-13)
        assert limit_form(1, 1, x) == pytest.approx(
            2 * math.cos(math.pi * x / 2) * math.sin(math.pi * x / 2), rel=1e-12
        )


def test_limit_form_validation():
    with pytest.raises(ValueError):
        limit_form(0, 0, 0.0)
    with pytest.raises(ValueError):
        limit_form(2, -1, 0.0)
    with pytest.raises(ValueError):
        limit_form(2, 0, 1.0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_ladder_recurrence(m, n):
    # [d/dx + (m-1)(pi/2) tan(pi x/2)] applied to the (m-1, n+1) shape
    # reproduces pi (m-1) times the (m, n) shape
    h = 1e-5
    for k in range(1, 20):
        x = -0.9 + 1.8 * k / 20
        d = (limit_form(m - 1, n + 1, x + h) - limit_form(m - 1, n + 1, x - h)) / (2 * h)
        lhs = d + (m - 1) * (math.pi / 2) * math.tan(math.pi * x / 2) * limit_form(m - 1, n + 1, x)
        rhs = math.pi * (m - 1) * limit_form(m, n, x)
        assert lhs == pytest.approx(rhs, abs=1e-6 * (1 + abs(rhs)))


def test_chebyshev_grid_properties():
    g = chebyshev_grid(101)
    assert len(g) == 101
    assert all(-1 < x < 1 for x in g)
    assert all(x != 0.0 for x in g)
    assert all(a > b for a, b in zip(g, g[1:]))
