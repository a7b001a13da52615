import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwell import (
    Branch,
    ConvergenceError,
    classify_spectrum,
    curve_X,
    curve_Y,
    curve_point,
    find_critical_coupling,
    solve_complex_pair,
    solve_real_spectrum,
    spectral_core,
)
from ptwell.spectral_core import (
    _band_roots,
    _kappa_condition_dE,
    _kappa_condition_dZ,
    band_bounds,
    cosech,
    coth,
    halfplane_sqrt,
    kappa_condition_residual,
    kappa_from_energy,
    matching_residual,
    matching_residual_dt,
)


def test_coth_matches_direct_ratio():
    for z in (0.3 + 1.1j, 2.0 - 0.7j, -1.4 + 0.2j, 25.0 + 0.3j):
        assert coth(z) == pytest.approx(cmath.cosh(z) / cmath.sinh(z), rel=1e-14)


def test_coth_large_argument_tail():
    # direct cosh/sinh overflows here; the tail must still be finite and odd
    assert coth(800.0 + 1.0j) == pytest.approx(1.0)
    assert coth(-800.0 - 1.0j) == pytest.approx(-1.0)


def test_cosech_matches_direct_and_is_odd():
    for z in (0.4 + 0.9j, 3.0 - 2.0j, 30.0 + 2.0j):
        assert cosech(z) == pytest.approx(1.0 / cmath.sinh(z), rel=1e-13)
        assert cosech(-z) == pytest.approx(-cosech(z), rel=1e-13)
    assert abs(cosech(800.0 + 1.0j)) == pytest.approx(0.0, abs=1e-300)


def test_halfplane_sqrt_branch():
    for w in (4.0 + 0j, -4.0 + 0j, -1.0 + 0j, 2.0 - 3.0j, -2.5 + 1.5j):
        r = halfplane_sqrt(w)
        assert r * r == pytest.approx(w, rel=1e-15)
        assert r.real > 0 or (r.real == 0 and r.imag <= 0)
    assert halfplane_sqrt(-4.0 + 0j) == pytest.approx(-2.0j)


def test_kappa_from_energy_fourth_quadrant():
    kappa = kappa_from_energy(9.54, 2.0).value
    s, t = kappa.real, -kappa.imag
    assert s > 0 and t > 0
    assert 2 * s * t == pytest.approx(2.0, abs=1e-12)
    assert t**2 - s**2 == pytest.approx(9.54, abs=1e-12)


def test_kappa_from_energy_rejects_nonpositive_zero_coupling():
    with pytest.raises(ValueError):
        kappa_from_energy(-1.0, 0.0)


def test_negative_coupling_raises():
    with pytest.raises(ValueError):
        classify_spectrum(-0.5, 3)
    with pytest.raises(ValueError):
        solve_real_spectrum(-0.5, 3)


def test_matching_residual_frozen_value():
    assert matching_residual(2.0, 1.0) == pytest.approx(-1.3833311642424195, rel=1e-15)


def test_matching_residual_dt_against_difference_quotient():
    for t, Z in ((2.3, 1.0), (4.9, 3.0), (7.8, 0.5)):
        h = 1e-6
        fd = (matching_residual(t + h, Z) - matching_residual(t - h, Z)) / (2 * h)
        assert matching_residual_dt(t, Z) == pytest.approx(fd, rel=1e-7)


def test_pair_derivative_against_difference_quotient():
    # along the real and the imaginary direction alike: the residual is holomorphic in E
    for E, Z in ((6.45 - 1.89j, 5.0), (31.1 - 4.4j, 14.0), (3.0 + 0.5j, 2.0)):
        h = 1e-6
        for dz in (h, 1j * h):
            fd = (kappa_condition_residual(E + dz, Z) - kappa_condition_residual(E - dz, Z)) / (2 * dz)
            assert _kappa_condition_dE(E, Z) == pytest.approx(fd, rel=1e-7)
        fd = (kappa_condition_residual(E, Z + h) - kappa_condition_residual(E, Z - h)) / (2 * h)
        assert _kappa_condition_dZ(E, Z) == pytest.approx(fd, rel=1e-7)


def test_curve_x_frozen_and_band_domain():
    assert curve_X(1.5) == pytest.approx(0.9404913963875541, rel=1e-15)
    assert curve_X(1.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        curve_X(0.5)
    with pytest.raises(ValueError):
        curve_X(2.5)


def test_curve_y_frozen_and_domain():
    assert curve_Y(2.0, math.pi) == pytest.approx(0.2040020311734531, rel=1e-15)
    with pytest.raises(ValueError):
        curve_Y(1.0, 0.0)
    with pytest.raises(ValueError):
        curve_Y(-1.0, 2.0)


def test_curve_point_lands_on_both_curves():
    # at an eigenvalue the two curve forms intersect
    level = solve_real_spectrum(2.0, 3)[1]
    T, S = curve_point(kappa_from_energy(level.energy.real, 2.0))
    assert curve_X(T) == pytest.approx(S, abs=1e-12)
    assert curve_Y(2.0, T) == pytest.approx(S, abs=1e-12)


def test_band_bounds():
    lo, hi = band_bounds(0)
    assert lo == pytest.approx(math.pi / 2)
    assert hi == pytest.approx(math.pi)


def test_zero_coupling_spectrum_is_exact():
    for n, level in enumerate(solve_real_spectrum(0.0, 10)):
        assert level.energy.real == pytest.approx((n + 1) ** 2 * math.pi**2 / 4, abs=1e-12)
        assert level.energy.imag == 0.0


@pytest.mark.parametrize("Z", [1e-8, 1e-6])
def test_near_zero_coupling_keeps_every_level(Z):
    # G sits at its rounding floor near the band edges here; no level may go missing
    for n, level in enumerate(solve_real_spectrum(Z, 14)):
        assert level.energy.real == pytest.approx((n + 1) ** 2 * math.pi**2 / 4, rel=1e-12)


def test_real_spectrum_frozen_z2():
    expected = [
        2.8941620684721343,
        9.542502199514528,
        22.25407091698082,
        39.40144769314512,
        61.701577218035226,
        88.79248632518842,
        120.91101466829969,
        157.894617361724,
    ]
    got = [level.energy.real for level in solve_real_spectrum(2.0, 8)]
    assert got == pytest.approx(expected, rel=1e-12)


def test_real_levels_satisfy_matching_identities():
    for Z in (0.5, 1.0, 2.0, 4.0):
        for level in solve_real_spectrum(Z, 8):
            kappa = kappa_from_energy(level.energy.real, Z).value
            s, t = kappa.real, -kappa.imag
            assert abs(matching_residual(t, Z)) < 1e-12
            assert abs(kappa_condition_residual(level.energy, Z)) < 1e-10
            assert 2 * s * t == pytest.approx(Z, abs=1e-12)


def test_critical_couplings_frozen():
    c0 = find_critical_coupling(0)
    assert c0.z_crit == pytest.approx(4.4753086021932615, rel=1e-10)
    assert c0.t_merge == pytest.approx(2.665799065087291, rel=1e-10)
    assert c0.e_merge == pytest.approx(6.401903274610956, rel=1e-10)
    c1 = find_critical_coupling(1)
    assert c1.z_crit == pytest.approx(12.801544262555986, rel=1e-10)
    c2 = find_critical_coupling(2)
    assert c2.z_crit == pytest.approx(22.633436438001297, rel=1e-10)


@pytest.mark.parametrize("nu", [0, 1, 2, 5, 10, 20, 40])
def test_critical_point_sits_on_tangency(nu):
    c = find_critical_coupling(nu)
    assert abs(matching_residual(c.t_merge, c.z_crit)) < 1e-10
    assert abs(matching_residual_dt(c.t_merge, c.z_crit)) < 1e-8
    lo, hi = band_bounds(nu)
    assert lo < c.t_merge < hi


@pytest.mark.parametrize("nu", [0, 3, 10])
def test_band_roots_straddle_merge_just_below_critical(nu):
    c = find_critical_coupling(nu)
    Z = c.z_crit * (1 - 1e-8)
    roots = _band_roots(Z, nu)
    assert len(roots) == 2
    assert roots[0] < c.t_merge < roots[1]
    assert all(abs(matching_residual(t, Z)) < 1e-12 for t in roots)


@pytest.mark.parametrize("nu", [0, 3, 10])
def test_pair_appears_just_above_critical(nu):
    c = find_critical_coupling(nu)
    Z = c.z_crit * (1 + 1e-8)
    assert _band_roots(Z, nu) == []
    lower, upper = solve_complex_pair(Z, nu)
    assert lower.energy.imag < 0 < upper.energy.imag
    assert lower.energy.real == pytest.approx(c.e_merge, rel=1e-6)
    assert abs(kappa_condition_residual(lower.energy, Z)) < 1e-10


def test_critical_coupling_rejects_negative_band():
    with pytest.raises(ValueError):
        find_critical_coupling(-1)


def test_complex_pair_by_continuation():
    lower, upper = solve_complex_pair(5.0, 0)
    assert lower.energy == pytest.approx(6.4538703814825835 - 1.8869346309480295j, rel=1e-10)
    assert upper.energy == pytest.approx(lower.energy.conjugate())
    # wavenumbers square back to the defining combinations
    assert lower.kappa_right.value**2 == pytest.approx(-lower.energy - 5.0j, rel=1e-12)
    assert lower.kappa_left.value**2 == pytest.approx(5.0j - lower.energy, rel=1e-12)
    # conjugating the energy swaps the two sides
    assert upper.kappa_right.value == pytest.approx(lower.kappa_left.value.conjugate(), rel=1e-12)


def test_complex_pair_frozen_energy():
    lower, _ = solve_complex_pair(5.0, 0)
    assert lower.energy == pytest.approx(6.4538703814825835 - 1.8869346309480295j, rel=1e-10)


def test_complex_pair_below_critical_raises():
    with pytest.raises(ConvergenceError):
        solve_complex_pair(3.0, 0)


def test_pair_energies_satisfy_kappa_condition():
    lower, upper = solve_complex_pair(8.0, 0)
    assert abs(kappa_condition_residual(lower.energy, 8.0)) < 1e-10
    assert abs(kappa_condition_residual(upper.energy, 8.0)) < 1e-10


def test_classify_spectrum_broken_phase():
    spec = classify_spectrum(8.0, 8)
    assert spec.broken_pairs == ((0, 1),)
    assert spec.levels[0].branch is Branch.COMPLEX_PAIR_LOWER
    assert spec.levels[1].branch is Branch.COMPLEX_PAIR_UPPER
    assert spec.levels[0].energy == pytest.approx(6.79173469157569 - 5.770054142209853j, rel=1e-10)
    assert spec.levels[2].energy.real == pytest.approx(23.547184734957455, rel=1e-10)
    assert all(level.branch is Branch.REAL for level in spec.levels[2:])
    assert [level.index for level in spec.levels] == list(range(8))
    energies = [(level.energy.real, level.energy.imag) for level in spec.levels]
    assert energies == sorted(energies)


def test_classify_spectrum_unbroken_has_no_pairs():
    spec = classify_spectrum(2.0, 6)
    assert spec.broken_pairs == ()
    assert all(level.branch is Branch.REAL for level in spec.levels)


def test_classify_second_pair_appears_past_second_critical():
    spec = classify_spectrum(14.0, 8)
    assert spec.broken_pairs == ((0, 1), (2, 3))
    assert spec.levels[2].energy.imag < 0 < spec.levels[3].energy.imag


@pytest.mark.parametrize("good_calls", [0, 1])
def test_pair_continuation_stall_names_band(monkeypatch, good_calls):
    # a corrector that never converges (from the first point, or after it) must end
    # in a typed error naming the band and the target, after a bounded number of tries
    real_newton = spectral_core._pair_newton
    calls = []

    def failing(E, Z):
        calls.append(Z)
        if len(calls) <= good_calls:
            return real_newton(E, Z)
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(spectral_core, "_pair_newton", failing)
    with pytest.raises(ConvergenceError, match=r"pair 0 continuation stalled at Z=.* to Z=8\.0"):
        solve_complex_pair(8.0, 0)
    assert len(calls) < 40


@pytest.mark.parametrize("Z, budget", [(100.0, 2000), (300.0, 5000)])
def test_pair_continuation_residual_count(monkeypatch, Z, budget):
    # fixed 0.05 steps took 47,086 and 330,113 residual calls here
    spectral_core.find_critical_coupling.cache_clear()
    real_residual = spectral_core.kappa_condition_residual
    calls = [0]

    def counting(E, Z):
        calls[0] += 1
        return real_residual(E, Z)

    monkeypatch.setattr(spectral_core, "kappa_condition_residual", counting)
    classify_spectrum(Z, 8)
    assert calls[0] <= budget


@pytest.mark.parametrize("Z", ["near_critical", 100.0, 300.0])
def test_pair_energies_against_mpmath(Z):
    mp = pytest.importorskip("mpmath")
    if Z == "near_critical":
        Z = find_critical_coupling(0).z_crit * (1 + 1e-8)

    def residual(E):
        rho, sigma = mp.sqrt(-E - 1j * Z), mp.sqrt(1j * Z - E)
        return rho * mp.coth(rho) + sigma * mp.coth(sigma)

    nu = 0
    with mp.workdps(40):
        while find_critical_coupling(nu).z_crit < Z:
            E = solve_complex_pair(Z, nu)[0].energy
            ref = complex(mp.findroot(residual, mp.mpc(E)))
            assert abs(E - ref) <= 1e-12 * abs(ref), (nu, E, ref)
            nu += 1
    assert nu >= 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=find_critical_coupling(0).z_crit * (1 + 1e-6), max_value=300.0))
def test_broken_pairs_property(Z):
    n = 0
    while find_critical_coupling(n).z_crit < Z:
        n += 1
    spec = classify_spectrum(Z, 2 * n)
    assert spec.broken_pairs == tuple((2 * k, 2 * k + 1) for k in range(n))
    lowers = [solve_complex_pair(Z, nu)[0].energy for nu in range(n)]
    # distinct bands give distinct pairs, in band order
    assert all(a.real < b.real for a, b in zip(lowers, lowers[1:]))
    for k, (i, j) in enumerate(spec.broken_pairs):
        lower, upper = spec.levels[i].energy, spec.levels[j].energy
        assert lower == lowers[k]
        assert lower.imag < 0 and upper == lower.conjugate()
        assert abs(kappa_condition_residual(lower, Z)) < 1e-10
