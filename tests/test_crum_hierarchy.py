"""Hierarchy members against the 40-digit Crum referee, PT symmetry by the
conjugation rule, and the oracle's array sampling against the scalar path."""
import itertools
import json

import pytest

from ptwell import (ConvergenceError, EliminationPlan, IllegalPlanError, build_hierarchy,
                    classify_spectrum)
from ptwell.cli import main
from ptwell.oracle_verifier import Side, _sampled_sides, linspace
from ptwell.spectral_core import Branch

pytest.importorskip("mpmath")
from crum_reference import crum_chain  # noqa: E402  (needs mpmath)

RTOL = 1e-12
# numpy's complex products against plain ones, through the far table
ARRAY_RTOL = 1e-13
DEPTH = 7
# members 2-7: the plan of member 7, one side or both; for a real plan the
# left side is the exact conjugate of the right
CASES = [(0.0, "real,real,real,real,real,real", "R"),
         (0.5, "real,real,real,real,real,real", "R"),
         (2.0, "real,real,real,real,real,real", "R"),
         (4.0, "real,real,real,real,real,real", "R"),
         (8.0, "clower,cupper,real,real,real,real", "RL"),
         (8.0, "cupper,clower,real,real,real,real", "RL"),
         (8.0, "real,real,clower,cupper,real,real", "RL"),
         (18.0, "clower,cupper,cupper,clower,real,real", "RL")]
# nodes k of the oracle grid at the CLI step h = 2e-4 and DELTA = 1e-6,
# placed as the oracle places them: u = 1e-6, 2.0e-4, 2.0e-3, 2.0e-2
ORACLE_STEPS, ORACLE_NODES = 5000, (0, 1, 10, 100)


def _points(side: str):
    x0 = 1.0 - 1e-6 if side == "R" else -(1.0 - 1e-6)
    cli = [x for x in linspace(-0.999, 0.999, 101) if (x >= 0) == (side == "R")]
    return cli + [x0 * (ORACLE_STEPS - k) / ORACLE_STEPS for k in ORACLE_NODES]


def _side(side: str, Z: float):
    """(kappa attribute, sign, well value) of the right ("R") or left side."""
    return ("kappa_right", 1.0, -1j * Z) if side == "R" else ("kappa_left", -1.0, 1j * Z)


def _check_members(members, side, Z, xs):
    """Potentials pointwise, and psi, psi' of levels 0 and 1 up to each side's
    normalization wherever |psi| is above 1e-3 of its side's maximum or u <= 0.01."""
    last = members[-1]
    extra = last.spectrum.levels[:2]
    columns = [lv.energy for lv in last.eliminated + extra]
    attr, sign, c = _side(side, Z)
    refs = [crum_chain(c, [getattr(lv, attr).value for lv in last.eliminated],
                       [getattr(lv, attr).value for lv in extra], 1.0 - sign * x)
            for x in xs]
    kmax = max(abs(getattr(lv, attr).value) for lv in last.eliminated + extra)
    for member in members[1:]:
        k = member.depth - 1
        for x, ref in zip(xs, refs):
            V = complex(ref[k][0])
            assert abs(member.potential(x) - V) <= RTOL * abs(V), (member.depth, x)
        for n in range(2):
            j = columns.index(member.spectrum.levels[n].energy)
            psi = member.eigenfunctions(n)
            evaluate = psi.right if side == "R" else psi.left
            # (psi, psi') of the referee in x: d/dx = -sign d/du
            want = [(complex(ref[k][1][j][0]), -sign * complex(ref[k][1][j][1])) for ref in refs]
            peak = max(range(len(xs)), key=lambda i: abs(want[i][0]))
            norm = evaluate(xs[peak])[0] / want[peak][0]
            for x, (p, d) in zip(xs, want):
                p, d = p * norm, d * norm
                if abs(p) <= 1e-3 * abs(want[peak][0] * norm) and 1.0 - abs(x) > 0.01:
                    continue
                got, slope = evaluate(x)
                assert abs(got - p) <= RTOL * abs(p), (member.depth, n, x)
                assert abs(slope - d) <= RTOL * (abs(d) + kmax * abs(p)), (member.depth, n, x)


@pytest.mark.parametrize("Z, plan, sides", CASES)
def test_members_match_crum_referee(Z, plan, sides):
    members = build_hierarchy(Z, EliminationPlan.from_text(plan), DEPTH, levels=DEPTH + 1)
    for side in sides:
        _check_members(members, side, Z, _points(side))


def _between_crossovers(member, n, side, Z):
    """Three x between V's crossover and that of level n's column, X = |kappa|_max u
    = min(c (c - 1)/4, 9) for c columns: k seeds for V, k + 1 for the level.
    V is in its far basis there and the level in its near-wall one."""
    attr, sign, _ = _side(side, Z)
    k = len(member.eliminated)
    seeds = max(abs(getattr(lv, attr).value) for lv in member.eliminated)
    level = max(seeds, abs(getattr(member.spectrum.levels[n], attr).value))
    lo, hi = min(k * (k - 1) / 4, 9) / seeds, min((k + 1) * k / 4, 9) / level
    return [sign * (1.0 - (lo + (hi - lo) * (i + 0.5) / 3)) for i in range(3)] if lo < hi else []


@pytest.mark.parametrize("Z, plan", [(2.0, "real,real,real,real"),
                                     (8.0, "clower,cupper,real,real"),
                                     (18.0, "clower,cupper,cupper,clower")])
def test_points_between_the_crossovers_match_referee(Z, plan):
    """A level's column takes the near-wall basis at points where V takes the
    far one, so its seed table there is one V never reads."""
    members = build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=8)
    for side in "RL":
        between = {m.depth: [x for n in range(2) for x in _between_crossovers(m, n, side, Z)]
                   for m in members[2:]}
        assert all(between.values()), between
        _check_members(members, side, Z, _points(side) + sorted(sum(between.values(), [])))


def test_cli_wall_samples_match_referee(capsys):
    assert main(["hierarchy", "--coupling", "2", "--depth", "5", "--samples", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    samples = doc["members"][4]["samples"]
    levels = classify_spectrum(2.0, 4).levels
    for row in (samples[0], samples[-1]):
        x = row["x"]
        right = x >= 0
        c = -2j if right else 2j
        seeds = [(lv.kappa_right if right else lv.kappa_left).value for lv in levels]
        want = complex(crum_chain(c, seeds, [], 1.0 - x if right else 1.0 + x)[4][0])
        assert abs(complex(row["re_v"], row["im_v"]) - want) <= RTOL * abs(want)
        assert want.real == pytest.approx(2.0e7, rel=1e-5)


def _plan_is_legal(Z, tokens, levels):
    """Replays a plan on the level branches alone."""
    branches = [lv.branch for lv in classify_spectrum(Z, levels).levels]
    want = {"real": Branch.REAL, "clower": Branch.COMPLEX_PAIR_LOWER,
            "cupper": Branch.COMPLEX_PAIR_UPPER}
    for tok in tokens:
        if want[tok] not in branches:
            return False
        branches.remove(want[tok])
    return True


def _numerically_pt_symmetric(V):
    xs = (0.15, 0.35, 0.55, 0.75, 0.9)
    values = [V(x) for x in xs]
    scale = max(abs(v) for v in values)
    return all(abs(v - V(-x).conjugate()) <= 1e-12 * scale for v, x in zip(values, xs))


@pytest.mark.parametrize("Z", [2.0, 8.0, 18.0])
def test_pt_flag_follows_the_conjugation_rule(Z):
    """Every plan to depth 5: the exact rule agrees with a numerical check, and
    an illegal plan raises instead of returning a member."""
    for steps in range(1, 5):
        for tokens in itertools.product(("real", "clower", "cupper"), repeat=steps):
            plan = EliminationPlan.from_text(",".join(tokens))
            if not _plan_is_legal(Z, tokens, 8):
                with pytest.raises(IllegalPlanError):
                    build_hierarchy(Z, plan, steps + 1, levels=8)
                continue
            for member in build_hierarchy(Z, plan, steps + 1, levels=8):
                energies = [lv.energy for lv in member.eliminated]
                assert member.potential.pt_symmetric == all(E.conjugate() in energies
                                                            for E in energies)
                assert member.potential.pt_symmetric == _numerically_pt_symmetric(
                    member.potential), (tokens, member.depth)


@pytest.mark.parametrize("Z, plan", [(2.0, "real,real,real,real,real,real"),
                                     (8.0, "clower,cupper,real,real,real,real"),
                                     (18.0, "clower,cupper,cupper,clower,real,real")])
def test_array_sampling_matches_scalar_evaluator(Z, plan):
    """The oracle samples a member in numpy arrays from the scalar path's
    coefficients.  numpy rounds complex products differently from plain
    Python, and the far table amplifies that up to a hundredfold near its
    crossover."""
    for member in build_hierarchy(Z, EliminationPlan.from_text(plan), DEPTH, levels=DEPTH + 1)[1:]:
        V = member.potential
        sides = _sampled_sides(V, 2e-3)[0]
        for side, ev in ((Side.RIGHT, V.right_eval), (Side.LEFT, V.left_eval)):
            nodes, mids, _, _ = sides[side]
            n = len(mids)
            x0 = 1.0 - 1e-6 if side is Side.RIGHT else -(1.0 - 1e-6)
            for k in range(n + 1):
                want = ev(x0 * (n - k) / n)
                assert abs(complex(nodes[k]) - want) <= ARRAY_RTOL * abs(want)
                if k < n:
                    want = ev(x0 * (n - k - 0.5) / n)
                    assert abs(complex(mids[k]) - want) <= ARRAY_RTOL * abs(want)


def test_large_coupling_members_match_referee():
    """Past the float range of sinh(kappa u), Z = 1e6: V and W of every member
    are finite and match the referee on the CLI grid and the oracle's nodes,
    and an eigenfunction, sinh(kappa u) itself, raises the typed error."""
    Z = 1e6
    members = build_hierarchy(Z, EliminationPlan.from_text("clower,cupper"), 3, levels=5)
    seeds = members[-1].eliminated
    for side in "RL":
        attr, sign, c = _side(side, Z)
        for x in _points(side):
            refs = crum_chain(c, [getattr(lv, attr).value for lv in seeds], [], 1.0 - sign * x)
            for k, member in enumerate(members):
                V = complex(refs[k][0])
                assert abs(member.potential(x) - V) <= RTOL * abs(V), (member.depth, x)
                if k < len(seeds):
                    # W = -psi'/psi of the level it eliminates, column k, whose
                    # psi is past the float range; d/dx = -sign d/du
                    psi, dpsi = refs[k][1][k]
                    W = sign * complex(dpsi / psi)
                    assert abs(member.superpotential(x) - W) <= RTOL * abs(W), (member.depth, x)
    for member in members[1:]:
        with pytest.raises(ConvergenceError) as err:
            member.eigenfunctions(0)
        assert err.value.stage == "Crum table"
