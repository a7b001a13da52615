import cmath
import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwell import (
    Branch,
    ConvergenceError,
    EliminationPlan,
    ShootingConfig,
    build_hierarchy,
    classify_spectrum,
    find_critical_coupling,
    find_spectrum_numeric,
    solve_complex_pair,
    solve_real_spectrum,
    spectral_core,
    square_well_potential,
)
from ptwell.spectral_core import (
    _band_roots,
    _bracketed_newton,
    _far_above_critical,
    _kappa_condition_dZ,
    _matching_terms,
    _newton,
    _pair_terms,
    band_bounds,
    cosech,
    coth,
    halfplane_sqrt,
    kappa_condition_residual,
    kappa_from_energy,
    matching_residual,
    matching_residual_dt,
)

from conftest import counted
from well_reference import curve_X, curve_Y, curve_point


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


@pytest.mark.parametrize("Z", [-1.0, -1e-300, math.nan, math.inf])
def test_kappa_from_energy_refuses_an_invalid_coupling(Z):
    # at Z = -1 it returned s < 0, -0.455 - 1.099i, outside its quadrant
    with pytest.raises(ValueError, match="coupling must be finite and >= 0"):
        kappa_from_energy(1.0, Z)


@pytest.mark.parametrize("count", [-1, 2.5, "3", None])
@pytest.mark.parametrize("solve", [classify_spectrum, solve_real_spectrum])
def test_invalid_level_count_is_refused(solve, count):
    # a negative count returned no levels, 2.5 raised a slice TypeError
    with pytest.raises(ValueError, match="level count must be a nonnegative integer"):
        solve(2.0, count)
    assert len(solve(2.0, 0) if solve is solve_real_spectrum else solve(2.0, 0).levels) == 0


@pytest.mark.parametrize("nu", [-1, -2])
def test_complex_pair_refuses_a_negative_band(nu):
    # band_bounds(-1) puts the band's top at t = 0: a ZeroDivisionError before
    with pytest.raises(ValueError, match="band index must be nonnegative"):
        solve_complex_pair(8.0, nu)


@pytest.mark.parametrize("Z", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("solve", [
    lambda Z: classify_spectrum(Z, 4),
    lambda Z: solve_real_spectrum(Z, 4),
    lambda Z: solve_complex_pair(Z, 0),
], ids=["classify_spectrum", "solve_real_spectrum", "solve_complex_pair"])
def test_invalid_coupling_is_refused(solve, Z):
    # the CLI's own rule at every entry point: a NaN or infinite Z would
    # otherwise stall a Newton, and a negative one read as a "still real" pair
    with pytest.raises(ValueError, match=r"^coupling must be finite and >= 0$"):
        solve(Z)


def test_matching_residual_frozen_value():
    assert matching_residual(2.0, 1.0) == pytest.approx(-1.3833311642424195, rel=1e-15)


def test_newton_evaluators_match_the_public_residuals():
    # one evaluation per Newton iterate gives the same bits as the separate calls
    for t, Z in ((2.3, 1.0), (4.9, 3.0), (7.8, 0.5), (91.1, 100.0)):
        assert _matching_terms(t, Z) == (matching_residual(t, Z), matching_residual_dt(t, Z))
    for E, Z in ((6.45 - 1.89j, 5.0), (31.1 - 4.4j, 14.0), (3.0 + 0.5j, 2.0)):
        F, _, scale = _pair_terms(E, Z)
        rho, sigma = halfplane_sqrt(-E - 1j * Z), halfplane_sqrt(1j * Z - E)
        assert F == kappa_condition_residual(E, Z)
        assert scale == abs(rho * coth(rho)) + abs(sigma * coth(sigma))


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
            assert _pair_terms(E, Z)[1] == pytest.approx(fd, rel=1e-7)
        fd = (kappa_condition_residual(E, Z + h) - kappa_condition_residual(E, Z - h)) / (2 * h)
        assert _kappa_condition_dZ(E, Z) == pytest.approx(fd, rel=1e-7)


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


# sha256 (first 16 hex digits) of float.hex of each level's energy and both
# wavenumbers, real and imaginary parts in order, and the critical couplings of
# bands 0-3 as (z_crit, t_merge, e_merge) in float.hex.  Captured before the
# root loops took f and f' from one evaluation per iterate
_SPECTRUM_DIGESTS = {
    "0": (8, "4ce92e1c88f777c0"),
    "1e-4": (21, "61fafa37b8da4c24"),
    "2": (21, "f88c48d0bcf416bd"),
    "below_crit0": (8, "012d5f9465801d3d"),
    "above_crit0": (8, "b615e79dda7f8902"),
    "8": (12, "b30621defaef4b61"),
    "14": (12, "820891c24dff103f"),
    "300": (8, "27f70a9796ec38a3"),
}
_CRITICAL_HEX = [
    ("0x1.1e6b74c57b5c4p+2", "0x1.5538e75d20eeep+1", "0x1.99b8c88326fffp+2"),
    ("0x1.99a640273f2e3p+3", "0x1.6b735ef039267p+2", "0x1.eface8f913c9dp+4"),
    ("0x1.6a228e3f14f6fp+4", "0x1.18930328e66cdp+3", "0x1.2cd80d4eca09dp+6"),
    ("0x1.0b31251bc2043p+5", "0x1.7c33568c16085p+3", "0x1.1660c24f269d3p+7"),
]


def test_critical_couplings_bit_for_bit():
    for nu, expected in enumerate(_CRITICAL_HEX):
        c = find_critical_coupling(nu)
        assert (c.z_crit.hex(), c.t_merge.hex(), c.e_merge.hex()) == expected, nu


@pytest.mark.parametrize("at", list(_SPECTRUM_DIGESTS))
def test_spectrum_bit_for_bit(at):
    z0 = find_critical_coupling(0).z_crit
    Z = {"below_crit0": z0 * (1 - 1e-9), "above_crit0": z0 + 1e-3}.get(at) or float(at)
    count, digest = _SPECTRUM_DIGESTS[at]
    spec = classify_spectrum(Z, count)
    words = [v.hex() for lv in spec.levels
             for z in (lv.energy, lv.kappa_right.value, lv.kappa_left.value)
             for v in (z.real, z.imag)]
    assert len(spec.levels) == count
    assert hashlib.sha256(" ".join(words).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("nu", [0, 1, 2, 5, 10, 20, 40])
def test_critical_point_sits_on_tangency(nu):
    c = find_critical_coupling(nu)
    assert abs(matching_residual(c.t_merge, c.z_crit)) < 1e-10
    assert abs(matching_residual_dt(c.t_merge, c.z_crit)) < 1e-8
    lo, hi = band_bounds(nu)
    assert lo < c.t_merge < hi


@pytest.mark.parametrize("nu", [0, 3, 10])
def test_band_roots_straddle_merge_just_below_critical(nu):
    # at Z_crit (1 - 10^-k) the two roots lie about 10^(-k/2) apart around
    # t_merge; each bracketed Newton must keep to its own side of the split
    c = find_critical_coupling(nu)
    hi = band_bounds(nu)[1]
    tol = max(1e-12, 8 * 2.0 ** -52 * hi * hi)
    for k in range(4, 13):
        Z = c.z_crit * (1 - 10.0 ** -k)
        roots = _band_roots(Z, nu)
        assert len(roots) == 2, k
        assert roots[0] < c.t_merge < roots[1], k
        assert all(abs(matching_residual(t, Z)) < tol for t in roots), k


def test_bracketed_newton_stall_is_typed():
    # a sign change without a root: the bracket closes on the jump, then stalls
    calls = []

    def step(x):
        calls.append(x)
        return (-1.0 if x < 1.3 else 1.0), 0.0

    with pytest.raises(ConvergenceError, match=r"jump Newton stalled at ") as err:
        _bracketed_newton(step, 1.0, 2.0, 1e-12, "jump", start=1.5)
    assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(1.3, abs=1e-15)
    assert len(calls) < 100
    # the fields say the same as the message, and the bracket still holds the jump
    assert str(err.value) == f"jump Newton stalled at {err.value.iterate}"
    assert err.value.stage == "jump"
    low, high = err.value.bracket
    assert low < 1.3 <= high
    assert low <= err.value.iterate <= high
    assert high - low <= 4 * math.ulp(1.3)


@pytest.mark.parametrize("nu", range(41))
def test_far_above_critical_is_sound(nu):
    # the certificate may hold only where Z - 0.05 > Z_crit; it is tested on
    # both sides of that edge, and it must hold a little further up
    z_crit = find_critical_coupling(nu).z_crit
    edge = z_crit + 0.05
    for Z in [0.0, 0.5 * edge, edge] + [edge + d for k in range(1, 13)
                                        for d in (10.0 ** -k, -(10.0 ** -k))]:
        assert not _far_above_critical(Z, nu) or Z - 0.05 > z_crit, (nu, Z)
    assert _far_above_critical(edge + 5.0, nu)


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
    energies = [(level.energy.real, level.energy.imag) for level in spec.levels]
    assert energies == sorted(energies)


def test_broken_pairs_are_read_off_the_levels():
    # a spectrum stores no pair list of its own, so one rebuilt from other
    # levels reports their pairs, not the ones it was copied from
    spec = classify_spectrum(8.0, 8)
    assert dataclasses.replace(spec, levels=spec.levels[2:]).broken_pairs == ()
    assert dataclasses.replace(spec, levels=spec.levels[1:]).broken_pairs == ()
    assert dataclasses.replace(spec, levels=spec.levels[:2] * 2).broken_pairs == ((0, 1), (2, 3))


def test_classify_spectrum_unbroken_has_no_pairs():
    spec = classify_spectrum(2.0, 6)
    assert spec.broken_pairs == ()
    assert all(level.branch is Branch.REAL for level in spec.levels)


def test_classify_second_pair_appears_past_second_critical():
    spec = classify_spectrum(14.0, 8)
    assert spec.broken_pairs == ((0, 1), (2, 3))
    assert spec.levels[2].energy.imag < 0 < spec.levels[3].energy.imag


def _rootless(monkeypatch):
    # the pair evaluator with F = 1 everywhere and its true slope and scale
    real_terms = spectral_core._pair_terms
    monkeypatch.setattr(spectral_core, "_pair_terms",
                        lambda E, Z: (1.0 + 0j,) + real_terms(E, Z)[1:])


@pytest.mark.parametrize("offset", [0.01, 3.5])
def test_pair_solve_failure_names_band(monkeypatch, offset):
    # a residual without a root, reached from the square-root seed (offset 0.01)
    # or the one-sided seed (3.5), must end in a typed error naming the band and
    # the coupling, after a bounded number of calls
    Z = find_critical_coupling(0).z_crit + offset
    _rootless(monkeypatch)
    calls = counted(monkeypatch, spectral_core, "_pair_terms")
    with pytest.raises(ConvergenceError, match=rf"pair 0 \(Z={Z!r}\) Newton stalled"):
        solve_complex_pair(Z, 0)
    assert len(calls) < 100


def test_classify_certifies_band_order(monkeypatch):
    # a pair solve that lands on another band's pair is a typed error naming the
    # band, not a duplicated level
    real_solve = spectral_core.solve_complex_pair
    monkeypatch.setattr(spectral_core, "solve_complex_pair", lambda Z, nu: real_solve(Z, 0))
    with pytest.raises(ConvergenceError, match=r"pair 1 at Z=14\.0 does not lie above pair 0"):
        classify_spectrum(14.0, 8)


def _pair_stall(monkeypatch):
    Z = find_critical_coupling(0).z_crit + 3.5
    _rootless(monkeypatch)
    return lambda: solve_complex_pair(Z, 0), f"pair 0 (Z={Z!r})", complex, None


def _band_order(monkeypatch):
    real_solve = spectral_core.solve_complex_pair
    monkeypatch.setattr(spectral_core, "solve_complex_pair", lambda Z, nu: real_solve(Z, 0))
    return (lambda: classify_spectrum(14.0, 8), "pair 1 (Z=14.0)",
            real_solve(14.0, 0)[0].energy, None)


def _search_box(_):
    V = square_well_potential(2.0)
    box = (complex(1.0, -0.5), complex(5.0, 0.5))
    found = tuple(find_spectrum_numeric(V, 1, box, ShootingConfig(p=V.endpoint_exponent)))
    return (lambda: find_spectrum_numeric(V, 3, box, ShootingConfig(p=V.endpoint_exponent)),
            "search box", found, box)


def _crum_table(_):
    # V and W stay finite past the float range; an eigenfunction, sinh(kappa u)
    # itself, does not, and its origin normalization raises at x = 0
    member = build_hierarchy(1e8, EliminationPlan.from_text("clower,cupper"), 3)[2]
    return lambda: member.eigenfunctions(0), "Crum table", 0.0, None


def _well_overflow(_):
    # the well's own eigenfunction, sinh(sigma) at the origin past the float
    # range: the zero-seed member's column raises as every member's does
    member = build_hierarchy(1e6, EliminationPlan.from_text("clower,cupper"), 3, 5)[0]
    return lambda: member.eigenfunctions(0), "Crum table", 0.0, None


@pytest.mark.parametrize("case", [
    _pair_stall,
    lambda _: (lambda: classify_spectrum(0.484, 22), "wavenumber condition (Z=0.484)",
                float, None),
    lambda _: (lambda: solve_real_spectrum(1e6, 1), "real levels (Z=1000000.0)", 65, None),
    lambda _: (lambda: solve_complex_pair(2.0, 0), "pair 0 (Z=2.0)",
                find_critical_coupling(0).z_crit, None),
    _band_order,
    _search_box,
    _crum_table,
    _well_overflow,
], ids=["pair-stall", "wavenumber-guard", "band-exhaustion", "pair-still-real",
        "band-order", "search-box", "crum-overflow", "well-overflow"])
def test_convergence_errors_carry_their_fields(monkeypatch, case):
    # every raise names its stage and last point, and its bracket where the
    # search has one; iterate is a type where the value is not known ahead
    call, stage, iterate, bracket = case(monkeypatch)
    with pytest.raises(ConvergenceError) as err:
        call()
    assert err.value.stage == stage
    if isinstance(iterate, type):
        assert isinstance(err.value.iterate, iterate)
        assert str(err.value.iterate) in str(err.value)
    else:
        assert err.value.iterate == iterate
    assert err.value.bracket == bracket


@pytest.mark.parametrize("Z, budget", [(100.0, 18), (300.0, 13)])
def test_pair_residual_count(monkeypatch, Z, budget):
    # eight levels are the four lowest pairs.  A walk from the merge point in
    # fixed 0.05 steps took 47,086 and 330,113 residual calls here, and steps in
    # sqrt(Z - Z_crit) sized from the last correction took 956 and 2,590 (for
    # every broken pair).  The direct solve at Z of the four pairs took 25 and
    # 24 with one last step after the stop and a separate polish that
    # re-evaluated the residual; with one shared polish it took 21 and 17, and
    # with a polish that does not re-evaluate an iterate that its step leaves
    # in place 18 and 13.  Each call gives the residual, its slope and its
    # scale at one iterate
    spectral_core.find_critical_coupling.cache_clear()
    calls = counted(monkeypatch, spectral_core, "_pair_terms")
    classify_spectrum(Z, 8)
    assert len(calls) <= budget


@pytest.mark.parametrize("Z, count, budget", [(2.0, 21, 1), (98.0, 8, 0), (17.0, 8, 0)])
def test_critical_solves_per_request(Z, count, budget):
    # a band whose midpoint has G < 0 is plainly unbroken, and one that
    # _far_above_critical certifies is plainly broken: neither needs its
    # critical coupling.  Asking every band took 11 and 10 solves at (2, 21)
    # and (98, 8); the midpoint test alone took 4 at (98, 8) and 2 at (17, 8)
    find_critical_coupling.cache_clear()
    classify_spectrum(Z, count)
    assert find_critical_coupling.cache_info().misses <= budget


@pytest.mark.parametrize("nu", [0, 1, 5, 10, 20])
def test_critical_coupling_solves_the_curve_once_per_point(monkeypatch, nu):
    # Newton's residual and derivative at an iterate share one s(t); solving it
    # for each took 12-14 solves per band, and bisecting to 0.1 before Newton 8
    spectral_core.find_critical_coupling.cache_clear()
    calls = counted(monkeypatch, spectral_core, "_curve_s")
    find_critical_coupling(nu)
    spectral_core.find_critical_coupling.cache_clear()
    assert len(calls) <= 6


@pytest.mark.parametrize("Z", [2.0, 0.1, 1e-4, 4.4])
def test_real_level_residual_count(monkeypatch, Z):
    # one bracketed Newton per root, started at the root of G's linearization
    # about its band end; bisecting each root to 1e-8 before Newton took 672
    # calls at Z = 2, and Newton from the bracket's midpoint 193, 233, 338
    # and 182 at these couplings.  Each call gives G and dG/dt at one iterate:
    # 77, 62, 50 and 86 with a polish that re-evaluated the iterate its last
    # step left in place and the 22nd root, of band 10, which the request
    # drops; 53, 38, 26 and 62 without both.  The critical couplings are
    # solved first, so only the roots' calls are counted
    spectral_core.find_critical_coupling.cache_clear()
    classify_spectrum(Z, 21)
    calls = counted(monkeypatch, spectral_core, "_matching_terms")
    classify_spectrum(Z, 21)
    assert len(calls) <= {2.0: 53, 0.1: 38, 1e-4: 26, 4.4: 62}[Z]


def test_only_kept_roots_are_solved(monkeypatch):
    # five levels are both roots of bands 0 and 1 and the lower root of band
    # 2: a band's lower root never reads its upper one, which took a sixth
    # bracketed Newton
    classify_spectrum(2.0, 5)
    calls = counted(monkeypatch, spectral_core, "_bracketed_newton")
    levels = classify_spectrum(2.0, 5).levels
    assert len(calls) == 5
    six = classify_spectrum(2.0, 6).levels
    assert [lv.energy for lv in levels] == [lv.energy for lv in six[:5]]


def test_polish_never_evaluates_its_own_iterate(monkeypatch):
    # a step x - f/d that rounds to x gives f = fx again, which cannot fall, so
    # the polish stops before it; over the spectrum rounds of benchmark seeds
    # 1-8 such repeats were 2,489 of its 3,347 evaluations
    real_polish = spectral_core._polish
    evaluated, repeats = [], []

    def polish(evaluate, x, fx, d):
        current = [x, fx]

        def watched(y):
            out = evaluate(y)
            evaluated.append(y)
            if y == current[0]:
                repeats.append(y)
            elif abs(out[0]) < abs(current[1]):
                current[:] = y, out[0]
            return out

        return real_polish(watched, x, fx, d)

    monkeypatch.setattr(spectral_core, "_polish", polish)
    for Z, count in ((1e-4, 21), (2.0, 21), (4.4, 21), (8.0, 9), (100.0, 8), (300.0, 8)):
        find_critical_coupling.cache_clear()
        classify_spectrum(Z, count)
    assert evaluated and not repeats


def test_damped_newton_stops_halving_where_the_step_leaves_x():
    # on a flat f every halved step fails; once x - step rounds to x every
    # later one lands on x too, so the stall is raised there: 1 + 54 moved
    # evaluations, where the 60 halvings took 61 with 6 at x itself
    evaluated = []

    def flat(x):
        evaluated.append(x)
        return 1 + 0j, 1 + 0j, 0.0

    with pytest.raises(ConvergenceError) as err:
        _newton(flat, 1 + 0j, lambda *_: 0.0, "flat")
    assert err.value.iterate == 1
    assert len(evaluated) == 55 and 1 not in evaluated[1:]


def test_wavenumber_guard_is_one_coth():
    # at a real E, -E - iZ and iZ - E are exact conjugates and cmath's sqrt,
    # cosh, sinh and exp and complex division commute with conjugation, so
    # sigma coth sigma is conj(rho coth rho) to the bit; the guard computes
    # one h = rho coth rho.  Both coth branches: |Re rho| <= 20 and > 20
    rng = random.Random(41)
    branches = set()
    for _ in range(4000):
        E, Z = complex(rng.uniform(-1500.0, 3000.0)), 10.0 ** rng.uniform(-8.0, 4.0)
        rho = halfplane_sqrt(-E - 1j * Z)
        h = rho * coth(rho)
        res, one_coth = kappa_condition_residual(E, Z), h + h.conjugate()
        assert (res.real.hex(), res.imag.hex()) == (one_coth.real.hex(),
                                                    one_coth.imag.hex()), (E, Z)
        branches.add(abs(rho.real) > 20)
    assert branches == {False, True}


@pytest.mark.parametrize("Z, count, message, iterate", [
    (0.484, 22, "root t=34.55751777037364 fails the wavenumber condition (2.17e-08)",
     "0x1.1475cbe0758c9p+5"),
    (0.88, 30, "root t=47.12388795369558 fails the wavenumber condition (1.73e-08)",
     "0x1.78fdb8f7abed5p+5"),
    (4.0, 40, "root t=62.83183693512145 fails the wavenumber condition (2.08e-09)",
     "0x1.f6a79a1f7f9cbp+5"),
])
def test_wavenumber_guard_refuses_the_named_slice(Z, count, message, iterate):
    # the benchmark's failing slice, as the guard raised it with two coths
    with pytest.raises(ConvergenceError) as err:
        classify_spectrum(Z, count)
    assert str(err.value) == message
    assert err.value.stage == f"wavenumber condition (Z={Z})"
    assert err.value.iterate.hex() == iterate


def _continued_round(E, centre, radius, steps):
    """E continued by Newton on the pair condition F(E, Z) = 0 once round the
    circle |Z - centre| = radius in complex Z, from and back to centre + radius."""
    for k in range(1, steps + 1):
        Z = centre + radius * cmath.exp(2j * math.pi * k / steps)
        for _ in range(20):
            F, F_E, _ = _pair_terms(E, Z)
            E -= F / F_E
            if abs(F / F_E) <= 1e-15 * abs(E):
                break
    return E


@pytest.mark.parametrize("nu", range(21))
def test_critical_coupling_is_a_branch_point(nu):
    # Z_crit is a square-root branch point where band nu's two pair members
    # are one analytic function of Z (Kato 1966; Heiss 2012): continued once
    # round it in complex Z they swap, and round a circle that leaves it
    # outside each comes back to itself
    z_crit = find_critical_coupling(nu).z_crit
    radius = 0.05 * z_crit
    for centre, swaps in ((z_crit, True), (1.15 * z_crit, False)):
        lower, upper = (lv.energy for lv in solve_complex_pair(centre + radius, nu))
        end = _continued_round(lower, centre, radius, 64)
        assert abs(end - (upper if swaps else lower)) <= 1e-9 * abs(lower), (centre, end)


@pytest.mark.parametrize("Z, bands", [
    (1e-8, range(11)),
    (1e-4, range(22, 26)),
    ("crit0", [0]),
    ("crit1", [1]),
])
def test_roots_where_the_linearized_start_is_refused_against_mpmath(monkeypatch, Z, bands):
    # at tiny Z the linearized start rounds onto the band end, and near Z_crit
    # it can fall beyond the split point; Newton then starts at the midpoint.
    # The error bound is G's rounding floor 8 eps hi^2 over |dG/dt| at the root
    mp = pytest.importorskip("mpmath")
    if Z == "crit0":
        Z = find_critical_coupling(0).z_crit * (1 - 1e-9)
    elif Z == "crit1":
        Z = find_critical_coupling(1).z_crit * (1 - 1e-6)
    real_newton = spectral_core._bracketed_newton
    calls = []

    def recording(evaluate, neg, pos, tol, what, start):
        root = real_newton(evaluate, neg, pos, tol, what, start)
        if what.startswith("matching-residual"):
            calls.append((neg, pos, start, root))
        return root

    monkeypatch.setattr(spectral_core, "_bracketed_newton", recording)
    refused = 0
    with mp.workdps(40):
        def G(t):
            return (Z / (2 * t)) * mp.sinh(Z / t) + t * mp.sin(2 * t)

        for nu in bands:
            calls.clear()
            hi = band_bounds(nu)[1]
            assert len(_band_roots(Z, nu)) == 2
            for neg, pos, start, root in calls:
                if min(neg, pos) < start < max(neg, pos):
                    continue
                refused += 1
                ref = mp.findroot(G, (mp.mpf(neg), mp.mpf(pos)), solver="illinois")
                floor = 8 * 2.0 ** -52 * hi * hi / abs(mp.diff(G, ref))
                assert abs(root - ref) <= floor, (nu, root, ref, floor)
    assert refused


@pytest.mark.parametrize("Z, count", [(100.0, 60), (300.0, 56), (300.0, 200), (1000.0, 300)])
def test_many_real_levels_against_mpmath(Z, count):
    # a fixed stop |G| < 1e-12 lies below G's rounding floor eps hi^2 from
    # hi ~ 24 on, and Newton stalled at t = 91.1 (Z = 100) and 87.8 (Z = 300)
    mp = pytest.importorskip("mpmath")
    levels = [lv for lv in classify_spectrum(Z, count).levels if lv.branch is Branch.REAL]
    assert levels
    with mp.workdps(40):
        for level in levels[::7]:
            t0 = -level.kappa_right.value.imag
            t = mp.findroot(lambda t: (Z / (2 * t)) * mp.sinh(Z / t) + t * mp.sin(2 * t), t0)
            ref = float(t * t - (Z / (2 * t)) ** 2)
            assert abs(level.energy.real - ref) <= 1e-12 * abs(ref), (level.energy, ref)


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


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_levels_at_the_rounded_critical_coupling_against_mpmath(nu):
    # at the rounded Z_crit the two roots of band nu sit within the square-root
    # conditioning floor of the exceptional point: G's rounding floor eps hi^2
    # moves them by sqrt(2 eps hi^2 / |G_tt|) in t, times dE/dt in E (1.0e-7,
    # 3.1e-7 and 5.8e-7 here).  The truth may be a narrow pair (Im 2.7e-8 for
    # nu = 0).  One plain step after the stop left 8.4e-7, 1.6e-6 and 1.6e-6
    mp = pytest.importorskip("mpmath")
    c = find_critical_coupling(nu)
    Z, hi = c.z_crit, band_bounds(nu)[1]
    levels = [lv.energy for lv in classify_spectrum(Z, 2 * nu + 2).levels
              if lv.branch is Branch.REAL][:2]
    with mp.workdps(40):
        def residual(E):
            rho, sigma = mp.sqrt(-E - 1j * Z), mp.sqrt(1j * Z - E)
            return rho * mp.coth(rho) + sigma * mp.coth(sigma)

        # both roots of the residual's quadratic model about e_merge, refined
        e0 = mp.mpf(c.e_merge)
        f0, f1, f2 = residual(e0), mp.diff(residual, e0, 1), mp.diff(residual, e0, 2)
        disc = mp.sqrt(f1 * f1 - 2 * f2 * f0)
        refs = [mp.findroot(residual, e0 + (sign * disc - f1) / f2) for sign in (1, -1)]

        def G(t):
            return (Z / (2 * t)) * mp.sinh(Z / t) + t * mp.sin(2 * t)

        t = mp.mpf(c.t_merge)
        dE_dt = 2 * t + Z ** 2 / (2 * t ** 3)
        floor = float(dE_dt * mp.sqrt(2 * 2.0 ** -52 * hi * hi / abs(mp.diff(G, t, 2))))
        for E in levels:
            assert min(float(abs(E - ref)) for ref in refs) <= floor, (E, refs, floor)


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


def _pair_floor(E, Z):
    # 16 eps (|E| |F_E| + |rho coth rho| + |sigma coth sigma|): the rounding floor
    # of the pair residual, at large Z and next to an exceptional point
    rho, sigma = cmath.sqrt(-E - 1j * Z), cmath.sqrt(1j * Z - E)
    terms = abs(rho * coth(rho)) + abs(sigma * coth(sigma))
    return 16 * 2.0 ** -52 * (abs(E) * abs(_pair_terms(E, Z)[1]) + terms)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=300.0, max_value=1e6, exclude_min=True))
def test_large_coupling_pairs_property(Z):
    spec = classify_spectrum(Z, 12)
    assert spec.broken_pairs == tuple((2 * k, 2 * k + 1) for k in range(6))
    lowers = [spec.levels[i].energy for i, _ in spec.broken_pairs]
    # distinct bands give distinct pairs, in band order
    assert all(a.real < b.real for a, b in zip(lowers, lowers[1:]))
    for i, j in spec.broken_pairs:
        lower, upper = spec.levels[i].energy, spec.levels[j].energy
        assert lower.imag < 0 and upper == lower.conjugate()
        assert abs(kappa_condition_residual(lower, Z)) <= _pair_floor(lower, Z)


def test_large_coupling_pairs_keep_their_bands():
    # above Z = 2,150 a continuation walk let band 0 land on band 1's pair
    # (38.7586 - 2999.30i at Z = 3000); band 0's pair has Re E = 9.6895
    mp = pytest.importorskip("mpmath")
    Z = 3000.0
    spec = classify_spectrum(Z, 12)
    energies = [level.energy for level in spec.levels]
    assert len(set(energies)) == 12

    def residual(E):
        rho, sigma = mp.sqrt(-E - 1j * Z), mp.sqrt(1j * Z - E)
        return rho * mp.coth(rho) + sigma * mp.coth(sigma)

    with mp.workdps(40):
        # seeded from the one-sided limit y = pi / (1 + 1/sqrt(2iZ)), E = y^2 - iZ
        y = mp.pi / (1 + 1 / mp.sqrt(2j * Z))
        ref = complex(mp.findroot(residual, y * y - 1j * Z))
    assert ref.real == pytest.approx(9.6895, abs=1e-4)
    assert abs(energies[0] - ref) <= 1e-12 * abs(ref), (energies[0], ref)


@pytest.mark.parametrize("offset", [1e-12, 1e-10])
def test_pair_energy_just_above_exceptional_point(offset):
    # F_E vanishes with Im E at the exceptional point, so the root is only as
    # good as the residual's last digits allow: bound the error by the
    # conditioning, 64 eps |E| / |Im E| (about 1.7e-8 at 1 + 1e-12)
    mp = pytest.importorskip("mpmath")
    Z = find_critical_coupling(0).z_crit * (1 + offset)

    def residual(E):
        rho, sigma = mp.sqrt(-E - 1j * Z), mp.sqrt(1j * Z - E)
        return rho * mp.coth(rho) + sigma * mp.coth(sigma)

    E = solve_complex_pair(Z, 0)[0].energy
    with mp.workdps(40):
        ref = complex(mp.findroot(residual, mp.mpc(E)))
    assert ref.imag < 0
    assert abs(E - ref) <= 64 * 2.0 ** -52 * abs(ref) / abs(ref.imag), (E, ref)
