import cmath
import hashlib
import itertools
import math
import random
import sys

import numpy as np
import pytest

from ptwell import (
    ConvergenceError,
    EliminationPlan,
    IllegalPlanError,
    LevelAnnihilated,
    PlanChoice,
    build_hierarchy,
    find_critical_coupling,
    hierarchy_relations_check,
    intertwine,
    square_well_potential,
)
from ptwell import susy_hierarchy
from ptwell.susy_hierarchy import _CrumColumn, _mirror_value, _seed_table, _sides
from ptwell.wavefunctions import chebyshev_grid, limit_form
from conftest import counted
from well_reference import schrodinger_residual

INTERIOR = (-0.85, -0.4, -0.15, 0.2, 0.55, 0.9)
# at the crossover each basis is 1e-14 to 2e-13 from a 40-digit referee,
# the worst for seven columns (docs/decisions.md), so they agree to this
CROSSOVER_RTOL = 3e-13
CHAINS = ((0.0, "real"), (0.5, "real"), (2.0, "real"), (4.0, "real"), (8.0, "clower,cupper,real"),
          (8.0, "real,real,clower,cupper"), (18.0, "clower,cupper,cupper,clower,real"))


def _w1(Z: float):
    """The well's superpotential built on its lowest real level."""
    return build_hierarchy(Z, EliminationPlan.from_text("real"), 1)[0].superpotential


def partner_potential(W):
    """V = W^2 + W' + E_f, composed from the superpotential's parts: a referee
    for the next member's own potential."""
    def V(x):
        w, dw = W.value_and_slope(x)
        return w ** 2 + dw + W.factorization_energy
    return V


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
    V2 = partner_potential(W)
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
        for side in _sides(Z, member.eliminated):
            if side.v_buckets:  # one column: no series
                x = side.sign * (1.0 - side.v_buckets / side.per_u * (1 - 1e-9))
                (U_near, w_near, _, _), (U_far, w_far, _, _) = (
                    _seed_table(side, x, True), _seed_table(side, x, False))
                assert abs(U_near - U_far) <= CROSSOVER_RTOL * abs(side.c + U_far)
                assert abs(w_near[-1] - w_far[-1]) <= CROSSOVER_RTOL * abs(w_far[-1])
            for level in member.spectrum.levels[:2]:
                column = _CrumColumn(side, level)
                x = side.sign * (1.0 - side.buckets / column.per_u * (1 - 1e-9))
                assert int((1.0 - side.sign * x) * column.per_u) == side.buckets - 1
                f_near, d_near, _ = column._column(x, False)
                kmax = column.per_u / 2
                column.per_u *= 2  # which puts x past the column's crossover, in the far basis
                assert int((1.0 - side.sign * x) * column.per_u) >= side.buckets
                f_far, d_far, _ = column._column(x, False)
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
    # at x = 0.3 member 5 is in its far basis: one sinh and one cosh per
    # column, the four seeds and, for psi, the level itself; V then reads
    # psi's seed table and calls none
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real,real"), 5, levels=8)
    psi, V = h[4].eigenfunctions(0), h[4].potential
    sinh, cosh = counted(monkeypatch, cmath, "sinh"), counted(monkeypatch, cmath, "cosh")
    _seed_table.cache_clear()
    psi(0.3)
    assert len(sinh) + len(cosh) <= 10
    sinh.clear()
    cosh.clear()
    V(0.3)
    assert len(sinh) + len(cosh) == 0
    _seed_table.cache_clear()
    V(0.3)
    assert len(sinh) + len(cosh) <= 8


@pytest.mark.parametrize("x, psi_calls", [(0.3, 1), (-0.3, 2), (0.995, 1)])
def test_warm_sample_call_counts(x, psi_calls):
    # Python calls of one warm sample, as sys.setprofile counts them: psi is
    # PiecewisePair.__call__, and on the left the side that conjugates the
    # right side's kept value; V is PiecewisePotential.__call__ and the
    # side's potential.  The kept value and the seed table are hits in C
    # caches that hash the column and the side by identity.  With a column
    # evaluator per sample psi was 3 on both sides, and with a wrapper per
    # layer and a Python __hash__ they were 7 and 3
    member = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real"), 4, levels=6)[3]
    counts = {}
    for name, f in (("psi", member.eigenfunctions(0)), ("V", member.potential)):
        f(x)
        calls = [0]

        def count(frame, event, arg):
            calls[0] += event == "call"

        sys.setprofile(count)
        try:
            f(x)
        finally:
            sys.setprofile(None)
        counts[name] = calls[0]
    assert counts == {"psi": psi_calls, "V": 2}


@pytest.mark.parametrize("Z", [5e5, 1e6, 1e8])
def test_eigenfunctions_past_the_float_range_refuse(Z):
    # every member's every level, the well's too, raises the typed error at its
    # origin normalization.  At 1e6 and 1e8 the well's sinh(sigma) once raised
    # a bare OverflowError; at 5e5 sinh(sigma) was finite, sigma cosh(sigma)
    # was not, and psi' read nan near the origin, with no error
    for member in build_hierarchy(Z, EliminationPlan.from_text("clower,cupper"), 3, 5):
        for n in range(len(member.spectrum.levels)):
            with pytest.raises(ConvergenceError) as err:
                member.eigenfunctions(n)
            assert (err.value.stage, err.value.iterate) == ("Crum table", 0.0)


def test_deep_members_refuse_past_the_factorial_table():
    # column j of the near-wall series reads 1/(2d + 2j + 1)!, and 170! is the
    # last float, so from j = 62 on the table raises the typed error: member
    # 64's V (seed columns up to 62), on points and on arrays, and member
    # 63's levels (column 62).  At x = 0.5 the far basis runs and no series
    # is built
    members = build_hierarchy(0.0, EliminationPlan.from_text(",".join(["real"] * 63)), 64, 64)
    V64 = members[63].potential
    for evaluate in (V64, lambda x: V64.arrays[0](np.array([x])), members[62].eigenfunctions(0)):
        with pytest.raises(ConvergenceError) as err:
            evaluate(0.999)
        assert err.value.stage == "Crum table"
    assert cmath.isfinite(members[62].potential(0.999))
    assert cmath.isfinite(V64(0.5))


def test_intertwine_drops_index_and_matches_closed_form():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=8)
    W = h[0].superpotential
    phi = intertwine(W, h[0].eigenfunctions(1))
    # the image keeps its level, which member 2 holds one place lower
    assert phi.level is h[0].spectrum.levels[1] is h[1].spectrum.levels[0]
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


def _count_tables(monkeypatch):
    """The seed tables built from here on, as (side, u, near) per build, from an empty cache."""
    built = []
    columns = susy_hierarchy._CrumSide._columns

    def counting(side, u, bucket, lib):
        built.append((side, u, bucket >= 0))
        return columns(side, u, bucket, lib)

    _seed_table.cache_clear()
    monkeypatch.setattr(susy_hierarchy._CrumSide, "_columns", counting)
    return built


@pytest.mark.parametrize("x", [0.3, -0.3])
def test_superpotential_slope_builds_one_table(x, monkeypatch):
    # W and W' come from one seed table at x, and partner_potential reads W
    # there again; member 4 has other seeds, so its potential builds its own
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real"), 4, levels=6)
    W = h[2].superpotential
    built = _count_tables(monkeypatch)
    W(x)
    assert len(built) == 1
    W.derivative(x)
    partner_potential(W)(x)
    assert len(built) == 1
    h[3].potential(x)
    assert len(built) == 2


@pytest.mark.parametrize("Z, plan", [(2.0, "real"), (8.0, "clower")])
def test_the_well_builds_no_seed_table(Z, plan, monkeypatch):
    # the well has no seeds, so its table is one constant at every x: its
    # eigenfunctions and W read no cache.  Member 2 still builds its own.
    # The well is PT-symmetric, so a real level's eigenfunction evaluates
    # one column per mirror pair of points and one at the origin (202 per
    # level before), and a complex level's both sides
    grid = [j * 0.0099 for j in range(-100, 101)]
    well, partner = build_hierarchy(Z, EliminationPlan.from_text(plan), 2, levels=4)
    built = _count_tables(monkeypatch)
    columns = counted(monkeypatch, _CrumColumn, "_column")
    per_level = []
    for n in range(4):
        before = len(columns)
        psi = well.eigenfunctions(n)
        for x in grid:
            psi.value_and_slope(x)
        per_level.append(len(columns) - before)
    assert per_level == [102 if not lv.energy.imag else 203 for lv in well.spectrum.levels]
    for x in grid:
        well.superpotential.value_and_slope(x)
    assert built == [] and _seed_table.cache_info().currsize == 0
    partner.eigenfunctions(0)(0.3)
    assert len(built) == _seed_table.cache_info().currsize > 0


@pytest.mark.parametrize("Z, plan", [(0.0, "real,real,real,real"), (2.0, "real,real,real,real"),
                                     (8.0, "clower,cupper,real,real"),
                                     (18.0, "clower,cupper,clower,cupper")])
def test_potential_and_eigenfunctions_share_seed_tables(Z, plan, monkeypatch):
    # V, then psi_0, then psi_1 over the benchmark's grid: at most one seed
    # elimination per (x, basis).  An eigenfunction builds at the origin
    # (u = 1), where it is normalized, and at grid points only in the near
    # basis where no earlier read used it.  In a real plan psi_1 has the
    # larger kappa, so its near points are psi_0's and it builds none.
    # On a PT-symmetric member every table is the right side's, built once
    # for both points of a mirror pair.
    grid = [j * 0.0099 for j in range(-100, 101) if j]
    for member in build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=8)[1:]:
        built = _count_tables(monkeypatch)
        for x in grid:
            member.potential(x)
        mirrored = member.potential.pt_symmetric
        assert len(built) == len(grid) // (2 if mirrored else 1)
        for n in range(2):
            before = len(built)
            psi = member.eigenfunctions(n)
            for x in grid:
                psi(x)
            assert all(near for _, u, near in built[before:] if u != 1.0)
            if n == 1 and "c" not in plan:
                assert len(built) == before
        assert len(set(built)) == len(built)
        if mirrored:
            right = _sides(Z, member.eliminated)[0]
            assert all(side is right for side, _, _ in built)
        monkeypatch.undo()


def test_both_pair_orders_share_member_3_tables(monkeypatch):
    # the two orders that eliminate a pair reach one member 3: equal sides,
    # so the second order's potential reads the first one's seed tables.
    # Member 3 is PT-symmetric, so both of its sides read the right side's
    # tables, one per distinct |x|: 83 of the 101 points (101 before)
    a, b = (build_hierarchy(8.0, EliminationPlan.from_text(plan), 3)[2]
            for plan in ("clower,cupper", "cupper,clower"))
    grid = chebyshev_grid(101)
    built = _count_tables(monkeypatch)
    first = [a.potential(x) for x in grid]
    assert len(built) == len({abs(x) for x in grid}) == 83
    assert [b.potential(x) for x in grid] == first
    assert len(built) == 83


def _bits(value):
    """The bits of a complex number, or of each in a tuple: -0.0 is not 0.0 here."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value.real.hex(), value.imag.hex()


def test_samples_do_not_depend_on_cache_order():
    # V first or psi first, each from a cleared cache and again warm, bit for bit
    grid = [j * 0.0099 for j in range(-100, 101, 7) if j] + [0.0, 1.0 - 1e-6, -(1.0 - 1e-6)]

    def sample(order):
        values = {}
        for member in build_hierarchy(8.0, EliminationPlan.from_text("clower,cupper,real,real"),
                                      5, levels=8)[1:]:
            reads = {"V": member.potential,
                     "psi0": member.eigenfunctions(0).value_and_slope,
                     "psi1": member.eigenfunctions(1).value_and_slope}
            if member.superpotential is not None:
                reads["W"] = member.superpotential.value_and_slope
            for name in order:
                if name in reads:
                    values[member.depth, name] = [_bits(reads[name](x)) for x in grid]
        return values

    runs = []
    for order in (("V", "W", "psi0", "psi1"), ("psi1", "psi0", "W", "V")):
        _seed_table.cache_clear()
        runs += [sample(order), sample(order)]
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("Z, plan", [(0.0, "real,real,real,real"), (2.0, "real,real,real,real"),
                                     (8.0, "clower,cupper,real,real")])
def test_origin_normalization_is_exact(Z, plan):
    # each column divides in place by its origin constant: psi(0) = 1 on both
    # sides, the real part to the last bit; the imaginary part is what the
    # complex division f/f leaves, 0 or below 2^-52 (nonzero for 5 of these
    # 90 levels).  A slope-pinned level, each odd one at Z = 0, has psi'(0) = i
    pinned = []
    for member in build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=8):
        for n in range(len(member.spectrum.levels)):
            f = member.eigenfunctions(n)
            (pR, dR), (pL, dL) = f.right(0.0), f.left(0.0)
            if abs(pR) < 0.5:
                assert (dR, dL) == (1j, 1j)
                pinned.append((member.depth, n))
            else:
                assert pR.real == pL.real == 1.0
                assert abs(pR.imag) < 2 ** -52 and abs(pL.imag) < 2 ** -52
    assert pinned == ([(m, n) for m in range(1, 6) for n in range(1, 9 - m, 2)] if Z == 0 else [])


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


@pytest.mark.parametrize("Z, plan", [(2.0, "real,real,real"), (8.0, "clower,real,cupper")])
def test_partner_keeps_its_parents_level_objects(Z, plan):
    # each step removes one level and hands on the others themselves, so a
    # level's index is its position and falls by one past the eliminated one
    h = build_hierarchy(Z, EliminationPlan.from_text(plan), 4, levels=8)
    for parent, child in zip(h, h[1:]):
        gone = child.eliminated[-1]
        assert any(lv is gone for lv in parent.spectrum.levels)
        kept = [lv for lv in parent.spectrum.levels if lv is not gone]
        assert len(child.spectrum.levels) == len(kept)
        assert all(a is b for a, b in zip(child.spectrum.levels, kept))


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
    with pytest.raises(ValueError, match="levels must be at least 1"):
        hierarchy_relations_check(8.0, levels=0)


def test_relations_deviations_are_zero_by_construction():
    # both orders' member 3 read one interned pair of sides (the seeds are
    # sorted), and the upper-first member 2 is built from exactly conjugate
    # seeds, so both deviations are exactly 0.0 across the window
    lo, hi = find_critical_coupling(0).z_crit, find_critical_coupling(1).z_crit
    rng = random.Random(31)
    for Z in [lo + 1e-3, 4.48, 12.8] + [rng.uniform(lo, hi) for _ in range(12)]:
        rel = hierarchy_relations_check(Z, levels=1)
        assert (rel["member2_mirror_dev"], rel["member3_same_dev"]) == (0.0, 0.0), Z


def _leaves(report, prefix=""):
    """(dotted key, value) of every entry of a relations report, in its order."""
    for key, value in report.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


# hierarchy_relations_check(Z, levels=3) as float.hex, in the report's order,
# at Z_crit(0) + 1e-3, 8.0 and 12.8: which points are sampled how often may
# change, the arithmetic and its order may not.  Member 3 mirrors its right
# side exactly, so its PT defects are 0 and its ratio variances what the
# division psi/psi leaves
_RELATIONS_HEX = {
    "above_crit0": (
        '0x0.0p+0', '0x0.0p+0', '0x1.0c3f2af1ba0e0p-112', '0x1.610d4a0945065p-61',
        '0x1.5f665d53f06bap-115', '0x1.778e263ae1fd4p-61', '0x1.498e9a7a59819p-120',
        '0x1.ea058769b0b9ep-64', '0x1.c374d31a0cc3ep-119', '0x1.9079a9d260512p-110',
        '0x1.fb1b7f53f13aep-120', '0x1.7e88fc697bc00p-63', '0x1.c3fca9b3a73abp-115',
        '0x1.00dd191a33144p-60', '0x1.c374d31a0cc3ep-119', '0x0.0p+0',
        '0x1.fb1b7f53f13aep-120', '0x0.0p+0', '0x1.c3fca9b3a73abp-115',
        '0x0.0p+0', '0x1.ea09709da944fp-7'),
    8.0: (
        '0x0.0p+0', '0x0.0p+0', '0x1.bc30e2a2c8b4bp-115', '0x1.754ce248bf321p-61',
        '0x1.b6875e5d60e5fp-114', '0x1.63d6b68152000p-64', '0x1.2165e267ce11dp-115',
        '0x1.1eab80771ce2cp-62', '0x1.5fd1b3f4e172ap-113', '0x1.a430788b171d5p-61',
        '0x1.1cf011bae5ecfp-114', '0x1.8c8741ce27ef3p-60', '0x1.5cb14eadf2f72p-117',
        '0x1.a6d31110889a5p-62', '0x1.5fd1b3f4e172ap-113', '0x0.0p+0',
        '0x1.1cf011bae5ecfp-114', '0x0.0p+0', '0x1.5cb14eadf2f72p-117',
        '0x0.0p+0', '0x1.6714459de2ac8p-1'),
    12.8: (
        '0x0.0p+0', '0x0.0p+0', '0x1.24c7011cf4a96p-113', '0x1.0746251f745ebp-60',
        '0x1.0e4f7d398502dp-113', '0x1.9038b99cdc11bp-62', '0x1.c45042c9d47b1p-113',
        '0x1.67b9d2646c877p-60', '0x1.c1fc3b07adbfdp-111', '0x1.535d39d9911ffp-60',
        '0x1.7a3842c00415dp-111', '0x1.1d5cb0b3d2925p-58', '0x1.a2da8af307396p-114',
        '0x1.e3ac9f8116654p-60', '0x1.c1fc3b07adbfdp-111', '0x0.0p+0',
        '0x1.7a3842c00415dp-111', '0x0.0p+0', '0x1.a2da8af307396p-114',
        '0x0.0p+0', '0x1.c3c2c81cdb652p-1'),
}


@pytest.mark.parametrize("at", list(_RELATIONS_HEX))
def test_relations_report_bit_for_bit(at):
    Z = find_critical_coupling(0).z_crit + 1e-3 if at == "above_crit0" else at
    leaves = list(_leaves(hierarchy_relations_check(Z, levels=3)))
    assert [key for key, _ in leaves] == (
        ["coupling", "member2_mirror_dev", "member3_same_dev", "member2_pt_symmetric",
         "member3_pt_symmetric"]
        + [f"eigenfunction_mirror.member{m}_level{n}.{stat}" for m in (2, 3) for n in range(3)
           for stat in ("ratio_variance", "ratio_imag_frac")]
        + [f"member3_eigenfunction_pt.level{n}.{stat}" for n in range(3)
           for stat in ("pt_ratio_variance", "pt_defect")]
        + ["member2_eigenfunction_pt_defect"])
    assert [leaves[i][1] for i in (0, 3, 4)] == [Z, False, True]
    assert tuple(value.hex() for _, value in leaves[1:3] + leaves[5:]) == _RELATIONS_HEX[at]


def test_relations_check_work_counts(monkeypatch):
    # one check at Z = 8 from empty caches: both orders' chains come from
    # one spectrum, and each eigenfunction is built once and sampled once at
    # each point it needs; member 3 is PT-symmetric, so its real levels take
    # one column per mirror pair of points and its V one table.  (1,331
    # columns and 529 tables when member 3 evaluated x and -x apart, 1,496
    # columns when member 2 was read at x and -x through per-point caches
    # and member 3 once per order)
    columns = counted(monkeypatch, _CrumColumn, "_column")
    spectra = counted(monkeypatch, susy_hierarchy, "classify_spectrum")
    _seed_table.cache_clear()
    _mirror_value.cache_clear()
    hierarchy_relations_check(8.0)
    assert (len(columns), len(spectra)) == (971, 1)
    assert _seed_table.cache_info().misses <= 436


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


# the benchmark's grid, symmetric under x -> -x, and the chains of
# test_potential_and_eigenfunctions_share_seed_tables
BENCH_GRID = [-(j * 0.0099) for j in range(100, 0, -1)] + [j * 0.0099 for j in range(1, 101)]
MIRROR_CHAINS = ((0.0, "real,real,real,real"), (2.0, "real,real,real,real"),
                 (8.0, "clower,cupper,real,real"), (18.0, "clower,cupper,clower,cupper"))


def _oracle_positions(h):
    """The right side's node positions of the oracle at step h, the origin node included."""
    n = max(1, round((1.0 - 1e-6) / h))
    return [(1.0 - 1e-6) * (n - k) / n for k in range(n + 1)]


def test_pt_members_are_exact_mirrors():
    # V(-x) = conj V(x) on every PT member, and psi(-x) = conj psi(x),
    # psi'(-x) = -conj psi'(x) for its real levels, bit for bit, by each
    # side's evaluator (the origin node sits on the right), and for V by
    # the oracle's array evaluators too.  At Z = 0 V is real, and its left
    # side c + conj U keeps the signs of zero imaginary parts it had before
    # the mirror, which conj V(x) flips: there V is compared by value
    for h in (1e-3, 2e-4):
        positions = _oracle_positions(h)
        xs = [x for x in BENCH_GRID if x > 0] + positions
        for Z, plan in MIRROR_CHAINS:
            for member in build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=8):
                V = member.potential
                if not V.pt_symmetric:
                    continue
                key = _bits if Z else complex
                assert [key(V.left_eval(-x)) for x in xs] == [
                    key(V.right_eval(x).conjugate()) for x in xs], (Z, plan, member.depth)
                if V.arrays:
                    right, left = (ev(np.array(positions) * sign) for ev, sign in zip(V.arrays, (1, -1)))
                    if Z:
                        assert left.tobytes() == np.conj(right).tobytes()
                    else:
                        assert np.array_equal(left, np.conj(right))
                for n, level in enumerate(member.spectrum.levels[:2]):
                    if level.energy.imag:
                        continue
                    f = member.eigenfunctions(n)
                    for x in xs[::1 if h == 1e-3 else 7]:
                        p, d = f.right(x)
                        assert _bits(f.left(-x)) == _bits((p.conjugate(), -d.conjugate())), (
                            Z, plan, member.depth, n, x)


# sha256 of the float.hex of V, (psi, psi') of levels 0 and 1 and (W, W') on
# the benchmark's grid, and of V's array samples at the oracle's positions
# at h = 1e-3 (both sides), for every member of MIRROR_CHAINS that is not
# PT-symmetric or eliminated real levels only: these read no mirror, or one
# that conjugation leaves bit for bit, and were taken before the mirror.
# At Z = 0 every level is real or imaginary, and the mirror sets the signs
# of the left side's zero parts by conjugation; there psi is pinned with
# -0.0 read as 0.0
_KEPT_BITS = {
    (0.0, 'real,real,real,real', 1): {'V': 'ca15620075e5c2ad', 'psi0': '9b7531c791c8ec07', 'psi1': '27f973d66d175939', 'W': 'dfc9597321d7b952'},
    (0.0, 'real,real,real,real', 2): {'V': 'b20c76d40be69cad', 'Varr': '37fcf7b4d231139a', 'psi0': 'c073456229ce2e26', 'psi1': '43cc68904b2f9059', 'W': '9a8681a0f6818db0'},
    (0.0, 'real,real,real,real', 3): {'V': '25a9bd8f6deeb2c6', 'Varr': '15e03beb0f12386f', 'psi0': 'f6ba5566cf4ef666', 'psi1': 'fe95e4f49fe9e350', 'W': 'f6ec885e89a2fe71'},
    (0.0, 'real,real,real,real', 4): {'V': '25872c0927690c77', 'Varr': '240a0223dd042a1f', 'psi0': 'a4506a117484ad65', 'psi1': '89b9e045c8cfd7f5', 'W': '4355f61315e3ab1b'},
    (0.0, 'real,real,real,real', 5): {'V': 'e007b23624f22af7', 'Varr': '6d4c0aa633775d44', 'psi0': 'ad7f52cafa4064e4', 'psi1': 'b9cce200ccedb5d8'},
    (2.0, 'real,real,real,real', 1): {'V': '079f9f0c03ffdea4', 'psi0': '2e1b83e1a48fa6ed', 'psi1': 'df2f55db31782770', 'W': '5ce29dbb86948b15'},
    (2.0, 'real,real,real,real', 2): {'V': '068654fffead6d50', 'Varr': 'c431e482172cca82', 'psi0': '2540bfa108dc07ab', 'psi1': '7125871f7745242d', 'W': 'a7d22a76a0b955a1'},
    (2.0, 'real,real,real,real', 3): {'V': '8570105ff6b675c2', 'Varr': '63646b6cec503568', 'psi0': '7d3b5638e11cc9d5', 'psi1': '15ddc460ed495917', 'W': '1940105b8c013066'},
    (2.0, 'real,real,real,real', 4): {'V': '339b72ef1c58a394', 'Varr': '98710adc269407bd', 'psi0': '415bc37b97434302', 'psi1': '751b19e4efa3350d', 'W': '8504dba2135e7fcc'},
    (2.0, 'real,real,real,real', 5): {'V': '718460f115e246d8', 'Varr': '4a7e2a24381011ac', 'psi0': 'c82ee139b30236be', 'psi1': '7c0747a792e7a1cf'},
    (8.0, 'clower,cupper,real,real', 1): {'V': 'be94347faaab27c4', 'psi0': '87e608a2d9f3c50e', 'psi1': '1e75d179e9db0c64', 'W': 'ecc5aa4456ec5d59'},
    (8.0, 'clower,cupper,real,real', 2): {'V': '938dcce78ec7ff6d', 'Varr': '2e2324de991dce4d', 'psi0': '693c0f6ed5a88afa', 'psi1': '39228587d3be45fd', 'W': 'fd6f187240f39b2f'},
    (18.0, 'clower,cupper,clower,cupper', 1): {'V': '2e955ab157a1d6c3', 'psi0': '50e8f0bf568bc315', 'psi1': 'a223b20178403901', 'W': 'a69ad4144b3c0e5f'},
    (18.0, 'clower,cupper,clower,cupper', 2): {'V': 'a1f5d0d7de55cd75', 'Varr': 'bd3a42b55d2dc169', 'psi0': 'cd1894e44c263238', 'psi1': 'c104039170112563', 'W': 'c8ebbb487d1085c3'},
    (18.0, 'clower,cupper,clower,cupper', 4): {'V': '64bfe90b672dbeca', 'Varr': '670d0ed36b9b35b3', 'psi0': '1a2f0b38bed5950d', 'psi1': '9c0b89a225ea16c4', 'W': '60a214b4db3cf624'},
}


def _digest(values, zero_signs=True):
    values = [complex(v) for v in values]
    if not zero_signs:
        values = [complex(v.real + 0.0, v.imag + 0.0) for v in values]
    return hashlib.sha256("".join(v.real.hex() + v.imag.hex() for v in values).encode()).hexdigest()[:16]


def test_unmirrored_and_real_seed_members_keep_their_bits():
    n = round((1.0 - 1e-6) / 1e-3)
    positions = np.array([(1.0 - 1e-6) * (n - j / 2) / n for j in range(2 * n + 1)])
    got = {}
    for Z, plan in MIRROR_CHAINS:
        for member in build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=8):
            if member.potential.pt_symmetric and any(lv.energy.imag for lv in member.eliminated):
                continue
            V = member.potential
            d = {"V": _digest(V(x) for x in BENCH_GRID)}
            if V.arrays:
                d["Varr"] = _digest(np.concatenate([V.arrays[0](positions), V.arrays[1](-positions)]))
            for k in range(2):
                f = member.eigenfunctions(k)
                d[f"psi{k}"] = _digest((v for x in BENCH_GRID for v in f.value_and_slope(x)), Z != 0)
            if member.superpotential is not None:
                d["W"] = _digest(v for x in BENCH_GRID for v in member.superpotential.value_and_slope(x))
            got[Z, plan, member.depth] = d
    assert got == _KEPT_BITS


def test_mirror_sweep_work_counts(monkeypatch):
    # seed eliminations (`_darboux` calls) and level columns of one fixed
    # sweep from empty caches: V, then psi_0, then psi_1 over the
    # benchmark's grid for every member of MIRROR_CHAINS, then
    # hierarchy_relations_check(8).  Each side of a mirror pair of points
    # evaluated apart, they were 3,738 and 8,080, and 4,267 and 9,411
    eliminations = counted(monkeypatch, susy_hierarchy, "_darboux")
    columns = counted(monkeypatch, _CrumColumn, "_column")
    _seed_table.cache_clear()
    _mirror_value.cache_clear()
    for Z, plan in MIRROR_CHAINS:
        for member in build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=8):
            for x in BENCH_GRID:
                member.potential(x)
            for n in range(2):
                psi = member.eigenfunctions(n)
                for x in BENCH_GRID:
                    psi(x)
    assert (len(eliminations), len(columns)) == (2214, 5252)
    hierarchy_relations_check(8.0)
    assert (len(eliminations), len(columns)) == (2650, 6223)


def test_eigenfunction_index_out_of_range():
    # n < 0 once returned level len + n, the highest level for -1
    member = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=4)[1]
    assert member.eigenfunctions(2).level is member.spectrum.levels[2]
    for n in (-1, -3, 3):
        with pytest.raises(IndexError, match="of a member with 3 levels"):
            member.eigenfunctions(n)
