import cmath
import itertools
import math

import pytest

from ptwell import (
    EliminationPlan,
    IllegalPlanError,
    LevelAnnihilated,
    PlanChoice,
    build_hierarchy,
    hierarchy_relations_check,
    intertwine,
    partner_potential,
    square_well_potential,
)
from ptwell.susy_hierarchy import _darboux, _sides
from ptwell.wavefunctions import chebyshev_grid, limit_form, schrodinger_residual

INTERIOR = (-0.85, -0.4, -0.15, 0.2, 0.55, 0.9)
# at the crossover each basis is 1e-14 to 2e-13 from a 40-digit referee,
# the worst for seven columns (docs/decisions.md), so they agree to this
CROSSOVER_RTOL = 3e-13
CHAINS = ((0.0, "real"), (0.5, "real"), (2.0, "real"), (4.0, "real"), (8.0, "clower,cupper,real"),
          (8.0, "real,real,clower,cupper"), (18.0, "clower,cupper,cupper,clower,real"))


def _w1(Z: float):
    """The well's superpotential built on its lowest real level."""
    return build_hierarchy(Z, EliminationPlan.from_text("real"), 1)[0].superpotential


def _padded(plan: str, steps: int) -> str:
    """The plan continued with real eliminations to `steps` steps."""
    tokens = plan.split(",") if plan else []
    return ",".join((tokens + ["real"] * steps)[:steps]) or "real"


def test_plan_parsing():
    plan = EliminationPlan.from_text("real, clower ,cupper")
    assert plan.choices == (PlanChoice.LOWEST_REAL, PlanChoice.COMPLEX_LOWER, PlanChoice.COMPLEX_UPPER)


@pytest.mark.parametrize("text", ["", "  ", "real,bogus", "ground"])
def test_plan_parsing_rejects(text):
    with pytest.raises(IllegalPlanError):
        EliminationPlan.from_text(text)


def test_square_well_potential_values():
    V = square_well_potential(2.0)
    assert V(0.5) == -2.0j
    assert V(-0.5) == 2.0j
    assert V.endpoint_exponent == 1
    assert V.pt_symmetric


def test_superpotential_w1_zero_coupling_is_tangent():
    W = _w1(0.0)
    for x in INTERIOR:
        assert W(x) == pytest.approx((math.pi / 2) * math.tan(math.pi * x / 2), abs=1e-12)


def test_superpotential_w1_continuous_and_singular_at_walls():
    W = _w1(2.0)
    assert abs(W(1e-12) - W(-1e-12)) < 1e-9
    assert abs(W(1.0 - 1e-9)) > 1e5


def test_factorization_recovers_source_potential():
    # V = W^2 - W' + E_f must reproduce the well the level was taken from
    V1 = square_well_potential(2.0)
    W = _w1(2.0)
    for x in INTERIOR:
        back = W(x) ** 2 - W.derivative(x) + W.factorization_energy
        assert back == pytest.approx(V1(x), abs=1e-12)


def test_partner_potential_identity_against_difference_quotient():
    W = _w1(2.0)
    V2 = partner_potential(W, 2, True)
    h = 1e-6
    for x in INTERIOR:
        dW = (W(x + h) - W(x - h)) / (2 * h)
        assert V2(x) == pytest.approx(W(x) ** 2 + dW + W.factorization_energy, abs=1e-7)


def test_v3_symmetric_in_elimination_order():
    Vab = build_hierarchy(8.0, EliminationPlan.from_text("clower,cupper"), 3)[2].potential
    Vba = build_hierarchy(8.0, EliminationPlan.from_text("cupper,clower"), 3)[2].potential
    for x in INTERIOR:
        assert Vab(x) == pytest.approx(Vba(x), rel=1e-12)


def test_series_basis_matches_far_basis_at_crossover():
    # for k = 1..6, member k + 1's potential (k seeds) and levels 0 and 1
    # (k + 1 columns), both bases evaluated just inside the crossover, where
    # the series carries the most terms and the far table cancels the most
    for (Z, plan), k in itertools.product(CHAINS, range(1, 7)):
        member = build_hierarchy(Z, EliminationPlan.from_text(_padded(plan, 6)), 7, levels=9)[k]
        for level in (None,) + member.spectrum.levels[:2]:
            for side in _sides(Z, member.eliminated, level):
                if side.buckets == 0:
                    continue  # one column: no series
                u = side.buckets / side.per_u * (1 - 1e-9)
                near = side._columns(u, int(u * side.per_u), cmath)
                far = side._columns(u, -1, cmath)
                (_, w_near, U_near), (_, w_far, U_far) = (
                    _darboux(*near, side.steps, True), _darboux(*far, side.steps, False))
                if level is None:
                    assert abs(U_near - U_far) <= CROSSOVER_RTOL * abs(side.c + U_far)
                    assert abs(w_near - w_far) <= CROSSOVER_RTOL * abs(w_far)
                    continue
                f_near, d_near = near[0][-1] * side.scale, near[1][-1] * side.scale
                f_far, d_far = far[0][-1], far[1][-1]
                kmax = max(abs(kappa) for kappa in side.kappas)
                assert abs(f_near - f_far) <= CROSSOVER_RTOL * abs(f_far)
                assert abs(d_near - d_far) <= CROSSOVER_RTOL * (abs(d_far) + kmax * abs(f_far))


def test_wall_asymptote():
    # V_m ~ m(m-1)/u^2 at the walls, the centrifugal term of psi ~ u^m
    for Z, plan in ((2.0, "real"), (8.0, "clower,cupper,real")):
        h = build_hierarchy(Z, EliminationPlan.from_text(_padded(plan, 6)), 7, levels=8)
        for x in (1.0 - 1e-6, -(1.0 - 1e-6)):
            u = 1.0 - abs(x)
            for m, member in enumerate(h[1:], start=2):
                assert member.potential(x).real == pytest.approx(m * (m - 1) / u**2, rel=1e-8)


def test_hierarchy_chain_shape():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real"), 4, levels=8)
    assert [m.depth for m in h] == [1, 2, 3, 4]
    assert [m.potential.endpoint_exponent for m in h] == [1, 2, 3, 4]
    assert all(m.potential.pt_symmetric for m in h)
    # each elimination removes exactly the lowest level
    for prev, nxt in zip(h, h[1:]):
        assert len(nxt.spectrum.levels) == len(prev.spectrum.levels) - 1
        assert nxt.spectrum.levels[0].energy == pytest.approx(prev.spectrum.levels[1].energy)


def test_hierarchy_eigenfunctions_satisfy_their_equations():
    for depth in (3, 5):
        plan = EliminationPlan.from_text(",".join(["real"] * (depth - 1)))
        h = build_hierarchy(2.0, plan, depth, levels=8)
        for member in h[1:]:
            for n in range(3):
                f = member.eigenfunctions(n)
                E = member.spectrum.levels[n].energy
                jump = f(1e-13) - f(-1e-13)
                peak = 1.0
                if member.depth >= 4:
                    # member 5's level-1 slope at 0 is about 1e4, so net it out of the jump;
                    # the residual is linear in psi, and psi(0) = 1 leaves level 1 of
                    # members 4 and 5 peaking near 1.7e3 and 95 inside the well
                    jump -= 2e-13 * f.derivative(0.0)
                    peak = max(1.0, max(abs(f(x)) for x in INTERIOR))
                assert abs(jump) < 1e-9
                for x in INTERIOR:
                    r = schrodinger_residual(f, member.potential, E, x, 1e-4)
                    assert abs(r) < 1e-4 * (1 + abs(E)) * peak


@pytest.mark.parametrize("Z, plan", [(0.0, "real,real,real,real"), (2.0, "real,real,real,real"),
                                     (8.0, "clower,cupper,real,real")])
def test_eigenfunction_slopes_match_difference_quotients(Z, plan):
    # Z = 0, member 1, level 1 is the slope-pinned sin(t x)/t branch of the well
    # at member 5 the quotient's rounding noise reaches about 5e-8 of the scale
    h = build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=8)
    step = 1e-5
    for member in h:
        for n in range(3):
            f = member.eigenfunctions(n)
            scale = max(abs(f(x)) + abs(f.derivative(x)) for x in INTERIOR)
            for x in INTERIOR:
                dq = (f(x + step) - f(x - step)) / (2 * step)
                assert abs(f.derivative(x) - dq) < 1e-6 * scale


def test_deep_member_hyperbolic_call_counts(monkeypatch):
    # at x = 0.3 the member-5 evaluator is in its far basis: one sinh and one
    # cosh per column, the four seeds and, for psi, the level itself
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real,real"), 5, levels=8)
    psi, V = h[4].eigenfunctions(0), h[4].potential
    calls = [0]

    def counted(fn):
        def wrapper(z):
            calls[0] += 1
            return fn(z)
        return wrapper

    monkeypatch.setattr(cmath, "sinh", counted(cmath.sinh))
    monkeypatch.setattr(cmath, "cosh", counted(cmath.cosh))
    psi(0.3)
    assert calls[0] <= 10
    calls[0] = 0
    V(0.3)
    assert calls[0] <= 8


def test_intertwine_drops_index_and_matches_closed_form():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=8)
    W = h[0].superpotential
    phi = intertwine(W, h[0].eigenfunctions(1))
    assert phi.level.index == 0
    assert phi.level.energy == pytest.approx(h[1].spectrum.levels[0].energy)
    psi = h[1].eigenfunctions(0)
    ref_phi, ref_psi = phi(0.32), psi(0.32)
    for x in chebyshev_grid(50):
        assert phi(x) / ref_phi == pytest.approx(psi(x) / ref_psi, abs=1e-9)


def test_intertwine_annihilates_eliminated_level():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=6)
    with pytest.raises(LevelAnnihilated):
        intertwine(h[0].superpotential, h[0].eigenfunctions(0))


def test_superpotential_routes_agree_at_every_depth():
    # W of each step against -psi'/psi of the eliminated level, W' against
    # its difference quotient, and W^2 + W' + E_f against the next member
    step = 1e-6
    for Z, plan in ((2.0, "real"), (8.0, "clower,cupper,real"), (8.0, "real,real,clower,cupper")):
        h = build_hierarchy(Z, EliminationPlan.from_text(_padded(plan, 5)), 6, levels=8)
        for member, child in zip(h, h[1:]):
            W = member.superpotential
            psi = member.eigenfunctions(member.spectrum.levels.index(child.eliminated[-1]))
            for x in INTERIOR:
                assert W(x) == pytest.approx(-psi.derivative(x) / psi(x), rel=1e-9, abs=1e-9)
                dq = (W(x + step) - W(x - step)) / (2 * step)
                assert W.derivative(x) == pytest.approx(dq, rel=1e-6, abs=1e-6)
                partner = W(x) ** 2 + W.derivative(x) + W.factorization_energy
                assert partner == pytest.approx(child.potential(x), rel=1e-10, abs=1e-10)


def test_second_step_superpotential_mirror():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real"), 3, levels=8)
    W2 = h[1].superpotential
    for x in (0.2, 0.5, 0.8):
        assert W2(-x) == pytest.approx(-W2(x).conjugate(), abs=1e-12)


def test_superpotential_next_requires_pending_choice():
    # the last member has no plan step left, so no superpotential to a next one
    h = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=6)
    assert h[0].superpotential is not None
    assert h[1].superpotential is None


def test_build_hierarchy_validation():
    plan = EliminationPlan.from_text("real")
    with pytest.raises(ValueError):
        build_hierarchy(2.0, plan, 0)
    with pytest.raises(IllegalPlanError):
        build_hierarchy(2.0, plan, 3)
    with pytest.raises(ValueError):
        build_hierarchy(2.0, plan, 3, levels=2)


def test_pair_elimination_bookkeeping():
    h = build_hierarchy(8.0, EliminationPlan.from_text("clower"), 2, levels=8)
    m2 = h[1]
    assert m2.spectrum.levels[0].energy.imag > 0
    assert m2.spectrum.broken_pairs == ()
    assert not m2.potential.pt_symmetric
    assert len(m2.eliminated) == 1
    assert m2.eliminated[0].energy.imag < 0


def test_pair_elimination_requires_a_pair():
    with pytest.raises(IllegalPlanError):
        build_hierarchy(8.0, EliminationPlan.from_text("clower,clower"), 3)
    with pytest.raises(IllegalPlanError):
        build_hierarchy(2.0, EliminationPlan.from_text("cupper"), 2)


def test_zero_coupling_family_law():
    # V_m - V_1 collapses to (pi^2/4) m(m-1) sec^2(pi x/2) as the coupling vanishes
    h = build_hierarchy(0.0, EliminationPlan.from_text(_padded("real", 6)), 7, levels=8)
    for m, member in enumerate(h, start=1):
        for x in INTERIOR:
            expected = (math.pi**2 / 4) * m * (m - 1) / math.cos(math.pi * x / 2) ** 2
            assert member.potential(x) == pytest.approx(expected, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("m", range(1, 8))
def test_zero_coupling_eigenfunctions_proportional_to_limit_forms(m):
    h = build_hierarchy(0.0, EliminationPlan.from_text(_padded("real", m - 1)), m, levels=m + 4)
    grid = [x / 10 for x in range(-9, 10) if x != 0]
    for n in range(5):
        f = h[m - 1].eigenfunctions(n)
        fv = [f(x) for x in grid]
        gv = [limit_form(m, n, x) for x in grid]
        c = sum(a * b for a, b in zip(fv, gv)) / sum(b * b for b in gv)
        dev = max(abs(a - c * b) for a, b in zip(fv, gv)) / max(abs(a) for a in fv)
        assert dev < 1e-10


def test_relations_check_window_guard():
    with pytest.raises(ValueError):
        hierarchy_relations_check(2.0)
    with pytest.raises(ValueError):
        hierarchy_relations_check(14.0)


def test_relations_check_structure():
    rel = hierarchy_relations_check(8.0, levels=2)
    assert rel["coupling"] == 8.0
    assert rel["member2_mirror_dev"] < 1e-10
    assert rel["member3_same_dev"] < 1e-10
    assert rel["member3_pt_symmetric"] is True
    assert rel["member2_pt_symmetric"] is False
    assert rel["member2_eigenfunction_pt_defect"] > 0.01
    assert set(rel["eigenfunction_mirror"]) == {
        "member2_level0", "member2_level1", "member3_level0", "member3_level1",
    }
    for stats in rel["eigenfunction_mirror"].values():
        assert stats["ratio_variance"] < 1e-10
        assert stats["ratio_imag_frac"] < 1e-10
