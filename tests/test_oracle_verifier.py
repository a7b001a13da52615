import math

import pytest

from ptwell import (
    ConvergenceError,
    EliminationPlan,
    MismatchValue,
    ShootingConfig,
    Side,
    build_hierarchy,
    classify_spectrum,
    find_spectrum_numeric,
    integrate_side,
    mismatch,
    rk4_order_estimate,
    solve_real_spectrum,
    square_well_potential,
)
from ptwell.oracle_verifier import _ordered_levels, _sampled_side


def test_config_validation():
    with pytest.raises(AssertionError):
        ShootingConfig(h=0.0)
    with pytest.raises(AssertionError):
        ShootingConfig(delta=1e-2)
    with pytest.raises(AssertionError):
        ShootingConfig(p=0)


def test_config_for_potential_reads_exponent():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real"), 3, levels=6)
    cfg = ShootingConfig.for_potential(h[2].potential)
    assert cfg.p == 3


def test_mismatch_sentinel_on_breakdown():
    assert MismatchValue(1.0 + 0j, 0.5 + 0j, 0.0).normalized == complex(1.0)
    assert MismatchValue(1.0 + 0j, complex("inf"), 2.0).normalized == complex(1.0)


def test_mismatch_vanishes_only_at_eigenvalues():
    V = square_well_potential(2.0)
    cfg = ShootingConfig.for_potential(V)
    E0 = solve_real_spectrum(2.0, 1)[0].energy
    assert abs(mismatch(V, E0, cfg).normalized) < 1e-10
    assert abs(mismatch(V, E0 + 1.0, cfg).normalized) > 0.1


def test_side_solutions_share_parity_at_zero_coupling():
    V = square_well_potential(0.0)
    cfg = ShootingConfig.for_potential(V)
    pR, dR = integrate_side(V, 3.0 + 0j, Side.RIGHT, cfg)
    pL, dL = integrate_side(V, 3.0 + 0j, Side.LEFT, cfg)
    assert pR == pL
    assert dR == -dL


def _step_loop(vnodes, vmids, E, hh, psi, dpsi):
    """Reference RK4, one step at a time, renormalized past 1e100 like the integrators."""
    logscale = 0.0
    half = hh / 2.0
    sixth = hh / 6.0
    for k in range(vmids.shape[0]):
        q1 = vnodes[k] - E
        qm = vmids[k] - E
        q2 = vnodes[k + 1] - E
        k1p = dpsi
        k1d = q1 * psi
        k2p = dpsi + half * k1d
        k2d = qm * (psi + half * k1p)
        k3p = dpsi + half * k2d
        k3d = qm * (psi + half * k2p)
        k4p = dpsi + hh * k3d
        k4d = q2 * (psi + hh * k3p)
        psi = psi + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        dpsi = dpsi + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        m = abs(psi) + abs(dpsi)
        if m > 1e100:
            psi /= m
            dpsi /= m
            logscale += math.log(m)
    return psi, dpsi, logscale


def _restored(psi, dpsi, logscale):
    f = math.exp(logscale) if logscale < 700.0 else 1.0
    return psi * f, dpsi * f


# members 2-4 of a real-phase chain, and of a broken-phase one at Z = 8
_PLANS = {0.0: "real,real,real", 2.0: "real,real,real", 8.0: "clower,cupper,real"}


@pytest.mark.parametrize("Z", [0.0, 2.0, 8.0])
@pytest.mark.parametrize("E", [3.0, 3.0 + 0.5j, 150.0 - 3.0j, -50.0 + 2.0j, -1e5])
def test_constant_side_power_matches_step_loop(Z, E):
    # the bare well takes the constant power, members 2-4 the step-matrix
    # product; E = -1e5 grows past 1e100 and exercises the renormalization
    members = build_hierarchy(Z, EliminationPlan.from_text(_PLANS[Z]), 4, levels=8)
    for mem in members:
        V = mem.potential
        cfg = ShootingConfig.for_potential(V)
        for side, sgn in ((Side.RIGHT, -1.0), (Side.LEFT, 1.0)):
            nodes, mids, hh, constant = _sampled_side(V, side, cfg.h, cfg.delta)
            assert (constant is not None) == (mem.depth == 1)
            psi0 = complex(cfg.delta ** cfg.p)
            dpsi0 = complex(sgn * cfg.p * cfg.delta ** (cfg.p - 1))
            loop = _step_loop(nodes, mids, complex(E), hh, psi0, dpsi0)
            if E == -1e5:
                assert loop[2] > 0.0
            p0, d0 = _restored(*loop)
            p1, d1 = integrate_side(V, E, side, cfg)
            assert math.hypot(abs(p1 - p0), abs(d1 - d0)) <= 1e-12 * math.hypot(abs(p0), abs(d0))


def test_partner_sides_are_not_constant():
    V2 = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=4)[1].potential
    for side in Side:
        assert _sampled_side(V2, side, 2e-4, 1e-6)[3] is None


@pytest.mark.parametrize("Z", [1.0, 4.0])
def test_oracle_reproduces_real_spectra(Z):
    V = square_well_potential(Z)
    cfg = ShootingConfig.for_potential(V)
    closed = solve_real_spectrum(Z, 8)
    found = find_spectrum_numeric(V, 8, (complex(1.0, -1.0), complex(165.0, 1.0)), cfg)
    for E, level in zip(found, closed):
        assert abs(E - level.energy) < 1e-6


def test_oracle_insensitive_to_startup_offset():
    V = square_well_potential(2.0)
    box = (complex(1.0, -1.0), complex(5.0, 1.0))
    values = []
    for delta in (1e-7, 1e-6, 1e-5):
        cfg = ShootingConfig(delta=delta, p=1)
        values.append(find_spectrum_numeric(V, 1, box, cfg)[0])
    assert max(abs(a - b) for a in values for b in values) < 1e-7


def test_rk4_order():
    V = square_well_potential(2.0)
    cfg = ShootingConfig.for_potential(V)
    E = solve_real_spectrum(2.0, 1)[0].energy * 1.0001
    assert 3.7 < rk4_order_estimate(V, E, cfg) < 4.3


def test_complex_pair_found_from_seeds():
    spec = classify_spectrum(8.0, 3)
    V = square_well_potential(8.0)
    cfg = ShootingConfig.for_potential(V)
    seeds = [spec.levels[0].energy * 1.05, spec.levels[1].energy * 1.05]
    found = find_spectrum_numeric(V, 3, (complex(2.0, -7.0), complex(30.0, 7.0)), cfg, seeds=seeds)
    for E, level in zip(found, spec.levels):
        assert abs(E - level.energy) < 1e-7


def test_conjugate_pair_ordered_lower_first_despite_rounding():
    # the upper member's real part sits a few rounding steps below the lower's
    lower, upper = complex(6.791734691575692, -5.77), complex(6.791734691575685, 5.77)
    assert _ordered_levels([23.5 + 0j, upper, lower]) == [lower, upper, 23.5 + 0j]


def test_complex_pair_found_by_box_scan():
    # off-axis box exercises the minima-seeded route, no closed-form hints
    spec = classify_spectrum(8.0, 1)
    V = square_well_potential(8.0)
    cfg = ShootingConfig.for_potential(V)
    found = find_spectrum_numeric(V, 1, (complex(3.0, -9.0), complex(11.0, -2.0)), cfg)
    assert abs(found[0] - spec.levels[0].energy) < 1e-7


def test_fourth_member_isospectral_with_bare_well():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real"), 4, levels=8)
    V4 = h[3].potential
    assert V4.endpoint_exponent == 4
    closed = [level.energy for level in h[3].spectrum.levels[:4]]
    cfg = ShootingConfig.for_potential(V4)
    found = find_spectrum_numeric(V4, 4, (complex(30.0, -1.0), complex(165.0, 1.0)), cfg)
    for E, want in zip(found, closed):
        assert abs(E - want) < 1e-6


def test_overfull_request_raises():
    V = square_well_potential(2.0)
    cfg = ShootingConfig.for_potential(V)
    with pytest.raises(ConvergenceError):
        find_spectrum_numeric(V, 3, (complex(1.0, -0.5), complex(5.0, 0.5)), cfg)
