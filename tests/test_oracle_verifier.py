import cmath
import json
import math
import random
import sys
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwell import (
    ConvergenceError,
    EliminationPlan,
    MismatchValue,
    ShootingConfig,
    Side,
    build_hierarchy,
    classify_spectrum,
    find_critical_coupling,
    find_spectrum_numeric,
    integrate_side,
    mismatch,
    solve_real_spectrum,
    square_well_potential,
)
from ptwell import oracle_verifier
from ptwell.cli import main as cli_main
from ptwell.oracle_verifier import (BLOCK, DELTA, GRID_RESOLUTION, ROOT_TOL, SAMPLE_CHUNK,
                                    _exponent, _horner, _horner_degree,
                                    _ordered_levels, _real_axis_starts, _rk4_step_product,
                                    _sampled_sides, _secant, _side_pairs, linspace, mismatches)
from ptwell.susy_hierarchy import PiecewisePotential

from oracle_reference import (cut_degree, list_positions, list_sampled_sides, power_above,
                              rk4_order_estimate, step_product_reference, two_sided,
                              two_sided_blocks, two_sided_mismatches)


def test_config_validation():
    # ValueError, not assert, so `python -O` cannot accept these; a namedtuple's
    # _make and _replace build without __new__ unless ShootingConfig routes them there
    good = ShootingConfig()
    for h, p in ((0.0, 1), (-1e-3, 1), (1e-2, 1), (0.5, 2), (2e-4, 0), (2e-4, -3)):
        changed = {"h": h} if h != good.h else {"p": p}
        for build in (lambda: ShootingConfig(h=h, p=p), lambda: ShootingConfig(h, p),
                      lambda: ShootingConfig._make((h, p)), lambda: good._replace(h=h, p=p),
                      lambda: good._replace(**changed)):
            with pytest.raises(ValueError):
                build()
    assert good == (2e-4, 1)
    assert ShootingConfig._make((1e-3, 2)) == ShootingConfig(1e-3, 2) == good._replace(h=1e-3, p=2)
    with pytest.raises(TypeError):
        ShootingConfig._make((1e-3,) * 3)


def test_config_for_potential_reads_exponent():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real"), 3, levels=6)
    assert h[2].potential.endpoint_exponent == 3


def test_mismatch_sentinel_on_breakdown():
    assert MismatchValue(1.0 + 0j, 0.5 + 0j, 0.0).normalized == complex(1.0)
    assert MismatchValue(1.0 + 0j, complex("inf"), 2.0).normalized == complex(1.0)


def test_mismatch_vanishes_only_at_eigenvalues():
    V = square_well_potential(2.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    E0 = solve_real_spectrum(2.0, 1)[0].energy
    assert abs(mismatch(V, E0, cfg).normalized) < 1e-10
    assert abs(mismatch(V, E0 + 1.0, cfg).normalized) > 0.1


def test_side_solutions_share_parity_at_zero_coupling():
    V = square_well_potential(0.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    pR, dR = integrate_side(V, 3.0 + 0j, Side.RIGHT, cfg)
    pL, dL = integrate_side(V, 3.0 + 0j, Side.LEFT, cfg)
    assert pR == pL
    assert dR == -dL


def _step_loop(vnodes, vmids, E, hh, psi, dpsi):
    """Reference RK4, one step at a time, renormalized past 1e100 like the integrators."""
    logscale = 0.0
    half = hh / 2.0
    sixth = hh / 6.0
    for k in range(len(vmids)):
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


def _start(cfg, side):
    """(psi, psi') at the wall, as the integrators start."""
    sgn = -1.0 if side is Side.RIGHT else 1.0
    return complex(DELTA ** cfg.p), complex(sgn * cfg.p * DELTA ** (cfg.p - 1))


# members 2-4 of a real-phase chain, and of a broken-phase one at Z = 8
_PLANS = {0.0: "real,real,real", 2.0: "real,real,real", 8.0: "clower,cupper,real"}
_ENERGIES = [3.0, 3.0 + 0.5j, 150.0 - 3.0j, -50.0 + 2.0j, -53336.73, -6e4, -1e5]
# per energy, the members 1..k whose step loop grows past 1e100 from their wall
# start DELTA^p; the bare well's constant power renormalizes at -1e5 in its
# squaring, at -6e4 in its running product and at -53336.73 in its result
_RENORMALIZED = {-53336.73: 1, -6e4: 3, -1e5: 4}


def _close(got, want):
    (p1, d1), (p0, d0) = got, want
    return math.hypot(abs(p1 - p0), abs(d1 - d0)) <= 1e-12 * math.hypot(abs(p0), abs(d0))


@pytest.mark.parametrize("Z", [0.0, 2.0, 8.0])
@pytest.mark.parametrize("E", _ENERGIES)
def test_constant_side_power_matches_step_loop(Z, E):
    # the bare well takes the constant power, members 2-4 the step-matrix
    # product; the energies of _RENORMALIZED grow past 1e100
    members = build_hierarchy(Z, EliminationPlan.from_text(_PLANS[Z]), 4, levels=8)
    for mem in members:
        V = mem.potential
        cfg = ShootingConfig(p=V.endpoint_exponent)
        sides, blocks, *_ = _sampled_sides(V, cfg.h)
        assert (blocks is None) == (mem.depth == 1)
        for k, side in enumerate(Side):
            nodes, mids, hh, constant = sides[side]
            assert (constant is not None) == (mem.depth == 1)
            loop = _step_loop(nodes, mids, complex(E), hh, *_start(cfg, side))
            assert (loop[2] > 0.0) == (mem.depth <= _RENORMALIZED.get(E, 0))
            want = _restored(*loop)
            assert _close(integrate_side(V, E, side, cfg), want)
            # batched with E = -1e5, which rescales whole tree levels, E keeps its own exponent
            assert _close(_restored(*_side_pairs(V, [complex(E), -1e5 + 0j], cfg)[0][k]), want)


@pytest.mark.parametrize("h, n", [(1.6e-3, 625), (3e-3, 333)])
@pytest.mark.parametrize("Z", [2.0, 8.0])
def test_block_product_matches_step_loop_when_blocks_are_padded(h, n, Z):
    # n is no multiple of BLOCK, so the last block ends in identity steps;
    # 1.6e-3 is the first step of rk4_order_estimate's ladder
    assert n % BLOCK
    # the two-sided reference and the oracle's own sides, mirrored or not
    members = build_hierarchy(Z, EliminationPlan.from_text(_PLANS[Z]), 4, levels=8)
    Es = [complex(E) for E in _ENERGIES]
    for mem in members[1:]:
        V = mem.potential
        cfg = ShootingConfig(h=h, p=V.endpoint_exponent)
        sides, blocks, integrated, _ = _sampled_sides(V, cfg.h)
        assert blocks.shape == (2 * BLOCK + 1, 4, len(integrated), -(-n // BLOCK))
        assert two_sided_blocks(V, cfg)[0].shape == (2 * BLOCK + 1, 4, 2, -(-n // BLOCK))
        reference, pairs = two_sided(V, Es, cfg), _side_pairs(V, Es, cfg)
        for k, side in enumerate(Side):
            nodes, mids, hh, _ = sides[side]
            assert len(mids) == n
            for E, value, pair in zip(Es, reference[k], pairs):
                want = _restored(*_step_loop(nodes, mids, E, hh, *_start(cfg, side)))
                assert _close(_restored(*value), want)
                assert _close(_restored(*pair[k]), want)


def test_stacked_sides_equal_each_side_alone_bit_for_bit():
    Es = [3.0, 3.0 + 0.5j, 150.0 - 3.0j, -50.0 + 2.0j, -1e3, -1e5, 1e4, 40.0]
    members = build_hierarchy(8.0, EliminationPlan.from_text("clower,cupper,real,real"), 5,
                              levels=9)
    for mem in members[1:]:
        V = mem.potential
        cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
        blocks, tables, starts = two_sided_blocks(V, cfg)
        both = _rk4_step_product(blocks, tables, Es, starts)
        for k in range(2):
            assert both[k] == _rk4_step_product(blocks[:, :, k:k + 1], tables[k:k + 1], Es,
                                                starts[k:k + 1])[0]
        # the oracle's right side is the stacked product's; its left one too unless mirrored
        pairs = [list(side) for side in zip(*_side_pairs(V, [complex(E) for E in Es], cfg))]
        assert pairs[0] == both[0]
        if not _mirrored(V, cfg.h):
            assert pairs[1] == both[1]


def _mirrored(V, h):
    # the oracle integrates the right side alone
    return _sampled_sides(V, h).integrated == (Side.RIGHT,)


def _product_bits(sides):
    return [[(psi.real.hex(), psi.imag.hex(), dpsi.real.hex(), dpsi.imag.hex(), k.hex())
             for psi, dpsi, k in side] for side in sides]


@lru_cache(maxsize=None)
def _chain(Z, plan):
    return build_hierarchy(Z, EliminationPlan.from_text(plan), len(plan.split(",")) + 1,
                           levels=9)


# energies past 1e100 on every side and step, batched with energies that stay below
_RESCALING = [-1e5, -4e4, complex(-40186.3, 0.74)]
_PRODUCT_BATCHES = [[complex(-40186.3, 0.74)], [3.0 + 0.5j], [150.0 - 3.0j, -1e5, 40.0],
                    linspace(0.5, 260.0, 14) + _RESCALING + linspace(-300.0, 1e4, 15)]


# 13, 63, 125, 179 and 625 blocks: odd tails at different tree levels
@pytest.mark.parametrize("h", [9.9e-3, 2e-3, 1e-3, 7e-4, 2e-4])
@pytest.mark.parametrize("Z, plan", [(2.0, "real,real,real,real"),
                                     (8.0, "clower,cupper,real,real"),
                                     (17.0, "clower,cupper,real")])
def test_step_product_matches_reference_bit_for_bit(Z, plan, h):
    rescaled = 0
    for mem in _chain(Z, plan)[1:]:
        V = mem.potential
        cfg = ShootingConfig(h=h, p=V.endpoint_exponent)
        # both sides stacked, and the oracle's own blocks: the right side alone when mirrored
        stacked, tables, starts = two_sided_blocks(V, cfg)
        own = _sampled_sides(V, cfg.h)
        for blocks, degrees in ((stacked, tables), (own.blocks, own.degrees)):
            for Es in _PRODUCT_BATCHES:
                want = step_product_reference(blocks, Es, starts[:blocks.shape[2]])
                got = _rk4_step_product(blocks, degrees, Es, starts[:blocks.shape[2]])
                assert _product_bits(got) == _product_bits(want)
                rescaled += any(k for side in want for *_, k in side)
    assert rescaled


def _scaled_blocks(matrix, nb):
    # every block is E times matrix: C[1] holds it, every other coefficient is 0
    blocks = np.zeros((2 * BLOCK + 1, 4, 1, nb), dtype=np.complex128)
    blocks[1, :, 0] = np.array(matrix, dtype=np.complex128).reshape(4, 1)
    return blocks


# M^2 = I, 2 M and 2 M: the last two put all four entries of E^2 M^2 at one
# modulus, at the phase pi/4 below, the least |Re| and |Im| a size can have
@pytest.mark.parametrize("matrix", [((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0), (1.0, 1.0)),
                                    ((1.0, 1j), (-1j, 1.0))])
@pytest.mark.parametrize("nb", [2, 3, 7])
def test_rescaling_starts_where_the_reference_rescales(matrix, nb):
    # level 1's products E^2 M^2 have size 1e100 at |E|^2 = 1e100 / (size of M^2);
    # the energies straddle it by a few ulps, so a product just below 1e100
    # passes the pre-test and then the exact test, and one just above rescales
    m = np.array(matrix, dtype=np.complex128)
    size = float(np.abs(m @ m).sum())
    Es = [cmath.rect(math.sqrt(1e100 / size * (1.0 + k * 2.0 ** -52)), math.pi / 8.0)
          for k in range(-40, 41)]
    blocks, starts = _scaled_blocks(matrix, nb), [(1.0 + 0j, 0.5 - 0.25j)]
    degrees, rescaled = [{}], []
    for batch in [[E] for E in Es] + [Es]:
        want = step_product_reference(blocks, batch, starts)
        got = _rk4_step_product(blocks, degrees, batch, starts)
        assert _product_bits(got) == _product_bits(want)
        rescaled.append(want[0][0][2] != 0.0)
    if nb == 2:  # one level: both outcomes occur
        assert any(rescaled) and not all(rescaled)


def test_exponents_add_up_over_two_rescaled_levels():
    # blocks 10^60 I, 10^60 I, I, I and the odd tail 10^150 I: level 1 rescales
    # both products, and level 3 the tail's product with them, on top
    blocks = np.zeros((2 * BLOCK + 1, 4, 1, 5), dtype=np.complex128)
    blocks[0, 0, 0] = blocks[0, 3, 0] = [1e60, 1e60, 1.0, 1.0, 1e150]
    starts = [(1.0 + 0j, 0.5 - 0.25j)]
    want = step_product_reference(blocks, [0.0], starts)
    assert _product_bits(_rk4_step_product(blocks, [{}], [0.0], starts)) == _product_bits(want)
    assert abs(want[0][0][2] - 270.0 * math.log(10.0)) < 1.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(min_value=-1e5, max_value=1e4),
                          st.one_of(st.just(0.0), st.floats(min_value=-100.0, max_value=100.0))),
                min_size=1, max_size=40))
def test_random_batches_match_reference_bit_for_bit(energies):
    # member 3 at Z = 8, both sides and the oracle's own mirrored side
    V = _chain(8.0, "clower,cupper,real,real")[2].potential
    cfg = ShootingConfig(h=1e-3, p=V.endpoint_exponent)
    stacked, tables, starts = two_sided_blocks(V, cfg)
    own = _sampled_sides(V, cfg.h)
    Es = [complex(re, im) for re, im in energies]
    for blocks, degrees in ((stacked, tables), (own.blocks, own.degrees)):
        want = step_product_reference(blocks, Es, starts[:blocks.shape[2]])
        got = _rk4_step_product(blocks, degrees, Es, starts[:blocks.shape[2]])
        assert _product_bits(got) == _product_bits(want)


# moduli from 1e-3 to 1e5, each with energies on both real half-axes and at
# three phases, and the moduli of the rescaling energies, each with its own
_CUT_ENERGIES = {r: [complex(r), complex(-r)] + [cmath.rect(r, phase) for phase in (0.3, 1.6, -2.5)]
                 for r in [10.0 ** (k / 2.0) for k in range(-6, 11)]}
_CUT_ENERGIES.update({abs(E): [E] for E in _RESCALING})


@pytest.mark.parametrize("h", [2e-3, 1e-3, 2e-4])
@pytest.mark.parametrize("Z, plan", [(2.0, "real,real,real,real"),
                                     (8.0, "clower,cupper,real,real"),
                                     (17.0, "clower,cupper,real,real")])
def test_degree_cut_stays_below_rounding(Z, plan, h):
    # on the integrated sides of members 2-5, in each entry of each block:
    # the terms cut sum to at most 2^-60 of the rest at |E| itself, not only
    # at the power of two above it, and the cut value is within
    # 2^-51 sum |C_k| |E|^k of full-degree Horner.  The two round apart after
    # the cut, by up to 1.34 2^-52 of that sum on both sides; each is within
    # 2.91 2^-53 of it from the exact polynomial wherever K < 16
    for mem in _chain(Z, plan)[1:]:
        V = mem.potential
        blocks = _sampled_sides(V, h).blocks
        for s in range(blocks.shape[2]):
            c = blocks[:, :, s, None]
            for r, Es in _CUT_ENERGIES.items():
                p = _exponent(r)
                assert {_exponent(E) for E in Es} == {p}
                K = _horner_degree(blocks[:, :, s], p)
                assert K == cut_degree(blocks[:, :, s], power_above(r))
                z = np.array(Es)[:, None]
                cut, full = (np.empty((4, len(Es), c.shape[3]), dtype=np.complex128)
                             for _ in range(2))
                _horner(c[:K + 1], z, cut)
                _horner(c, z, full)
                terms = np.abs(c) * r ** np.arange(2 * BLOCK + 1)[:, None, None, None]
                assert (terms[K + 1:].sum(axis=0) <= 2.0 ** -60 * terms[:K + 1].sum(axis=0)).all()
                assert (np.abs(cut - full) <= 2.0 ** -51 * terms.sum(axis=0)).all()


def test_degree_table_counts_horner_steps(monkeypatch):
    # a deterministic work count: Horner's steps per block entry, from
    # |E| < 2 to |E| < 2^17; 2 BLOCK = 32 before the cut
    V = _chain(2.0, "real,real,real")[3].potential
    tables = {}
    for h in (2e-3, 1e-3, 2e-4):
        sampled = _sampled_sides(V, h)
        blocks = sampled.blocks
        assert blocks.shape[2] == 1  # mirrored: the right side alone
        Es = [1.5, 15.9, 127.0, 1023.0, 1e4, 1e5]
        mismatches(V, Es, ShootingConfig(h=h, p=V.endpoint_exponent))
        tables[h], = sampled.degrees
        assert tables[h] == {_exponent(E): cut_degree(blocks[:, :, 0], power_above(E)) for E in Es}
    assert [tables[1e-3][p] for p in (1, 4, 7, 10, 14, 17)] == [4, 5, 6, 8, 12, 19]
    assert [tables[2e-4][p] for p in (1, 4, 7, 10, 14, 17)] == [3, 4, 5, 6, 8, 10]
    assert [tables[2e-3][p] for p in (1, 4, 7, 10, 14, 17)] == [5, 6, 7, 10, 16, 25]
    # at h = 2e-3 the rule runs to the full degree from |E| >= 2^19 on
    assert _horner_degree(_sampled_sides(V, 2e-3).blocks[:, :, 0], 20) == 2 * BLOCK
    # the oracle benchmark's seed-1 round: the calls that hold its scans
    # (with any seeds' start values) run at degree 6 or less
    degrees, scanning = [], []
    scan, product = oracle_verifier.mismatches, oracle_verifier._rk4_step_product

    def scanned(V, Es, *args):
        scanning.append(len(Es) >= GRID_RESOLUTION)
        try:
            return scan(V, Es, *args)
        finally:
            scanning.pop()

    def counting(blocks, tables, Es, starts):
        out = product(blocks, tables, Es, starts)
        if scanning[-1]:
            degrees.extend(table[_exponent(E)] for table in tables for E in Es)
        return out

    monkeypatch.setattr(oracle_verifier, "mismatches", scanned)
    monkeypatch.setattr(oracle_verifier, "_rk4_step_product", counting)
    for request in [(6.507848, "cupper,clower", 3), (1.012318, "real", 2),
                    (16.716984, "clower,cupper,real", 4)]:
        args, seeds = _verify_search(*request, 3, "bench")
        find_spectrum_numeric(*args, seeds=seeds)
    assert len(degrees) >= 3 * GRID_RESOLUTION and max(degrees) <= 6


def test_stacked_sides_keep_their_own_degrees(monkeypatch):
    # a constant side next to a varying one: at |E| near 2e-7 one side's cut
    # degree is 1 and the other's 2, in both orders.  Stacked, each side runs
    # Horner's rule at its own degrees, and its values are its values alone
    runs = []
    horner = oracle_verifier._horner

    def counting(c, E, out):
        runs.append((len(c) - 1, out.shape[1]))
        return horner(c, E, out)

    monkeypatch.setattr(oracle_verifier, "_horner", counting)
    constant, varying = (lambda x: complex(4.0, -2.0)), (lambda x: complex(30.0 * x * x, 2.0))
    Es = [2e-7, 2e-7 + 1e-7j, 3.0 + 0.5j, -1e5, 150.0]
    for right, left in ((constant, varying), (varying, constant)):
        V, cfg = PiecewisePotential(right, left, 1, False), ShootingConfig(h=1e-3)
        blocks, tables, starts = two_sided_blocks(V, cfg)
        degrees = [[_horner_degree(blocks[:, :, s], _exponent(E)) for E in Es] for s in range(2)]
        assert {degrees[0][0], degrees[1][0]} == {1, 2}
        del runs[:]
        both = _rk4_step_product(blocks, tables, Es, starts)
        assert runs == [(K, side.count(K)) for side in degrees for K in sorted(set(side))]
        # each table handed in now holds the degree at each exponent of Es, and no other
        assert tables == [dict(zip(map(_exponent, Es), side)) for side in degrees]
        assert _product_bits(both) == _product_bits(step_product_reference(blocks, Es, starts))
        for k in range(2):
            assert both[k] == _rk4_step_product(blocks[:, :, k:k + 1], tables[k:k + 1], Es,
                                                starts[k:k + 1])[0]
        # the oracle's own record keeps one table per side, filled the same way
        mismatches(V, Es, cfg)
        assert _sampled_sides(V, cfg.h).degrees == tuple(tables)


def test_degree_tables_live_and_die_with_their_blocks():
    # potentials A, B, A, whose degree tables differ at |E| < 4: every product,
    # on the oracle's cached blocks, cold or warm, and on fresh arrays and views
    # made right after an eviction, equals the reference bit for bit; an
    # evicted record's blocks are freed
    A = _chain(2.0, "real")[1].potential
    B = _chain(2.0, "real,real,real,real")[4].potential
    Es = [15.9, 3.0 + 0.5j, 150.0 - 3.0j, -1e5, 1e4]
    degrees = [cut_degree(_sampled_sides(V, 1e-3).blocks[:, :, 0], 4.0) for V in (A, B)]
    assert degrees[0] != degrees[1]
    evicted = None
    for V in (A, B, A):
        cfg = ShootingConfig(h=1e-3, p=V.endpoint_exponent)
        sampled = _sampled_sides(V, cfg.h)
        blocks, own = sampled.blocks, sampled.degrees
        assert evicted is None or evicted() is None
        stacked, tables, starts = two_sided_blocks(V, cfg)
        for product, held, sides in ((blocks, own, starts[:1]), (blocks, own, starts[:1]),
                                     (stacked, tables, starts),
                                     (stacked[:, :, :1], tables[:1], starts[:1]),
                                     (stacked[:, :, 1:], tables[1:], starts[1:])):
            want = step_product_reference(product, Es, sides)
            got = _rk4_step_product(product, held, Es, sides)
            assert _product_bits(got) == _product_bits(want)
        evicted = weakref.ref(blocks)
        del sampled, blocks, own, stacked, tables, product, held


def test_one_constant_side_goes_through_the_product(monkeypatch):
    # a constant right side next to a varying left side: both sides take the
    # product, and only a potential constant on both sides takes the power
    V = PiecewisePotential(lambda x: complex(4.0, -2.0), lambda x: complex(30.0 * x * x, 2.0),
                           1, False)
    cfg = ShootingConfig(h=1e-3)
    sides, blocks, *_ = _sampled_sides(V, cfg.h)
    assert sides[Side.RIGHT][3] == complex(4.0, -2.0) and sides[Side.LEFT][3] is None
    assert blocks is not None

    def forbidden(*args):
        raise AssertionError("path not taken")

    monkeypatch.setattr(oracle_verifier, "_rk4_constant_power", forbidden)
    for side in Side:
        nodes, mids, hh, _ = sides[side]
        for E in _ENERGIES:
            want = _restored(*_step_loop(nodes, mids, complex(E), hh, *_start(cfg, side)))
            assert _close(integrate_side(V, E, side, cfg), want)
    monkeypatch.undo()
    monkeypatch.setattr(oracle_verifier, "_rk4_step_product", forbidden)
    well = square_well_potential(2.0)
    assert _sampled_sides(well, cfg.h).blocks is None
    assert cmath.isfinite(mismatch(well, 3.0, cfg).normalized)


def _loop_mismatch(V, E, cfg):
    # each side normalized before the Wronskian, so nothing is squared
    sides = []
    sampled = _sampled_sides(V, cfg.h).sides
    for side in Side:
        nodes, mids, hh, _ = sampled[side]
        psi, dpsi, _ = _step_loop(nodes, mids, complex(E), hh, *_start(cfg, side))
        norm = math.hypot(abs(psi), abs(dpsi))
        sides.append((psi / norm, dpsi / norm))
    (pR, dR), (pL, dL) = sides
    return pL * dR - dL * pR


def test_mismatch_finite_where_side_values_reach_1e100():
    # side values of about 1e100, just short of rescaling: squared in the
    # mismatch scale they overflow it to the breakdown sentinel 1
    V1 = square_well_potential(2.0)
    V2 = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=4)[1].potential
    for V, E in ((V1, -4e4), (V2, -3.5e4), (V2, -4e4), (V2, complex(-40186.3, 0.74))):
        cfg = ShootingConfig(p=V.endpoint_exponent)
        got = mismatch(V, E, cfg).normalized
        assert cmath.isfinite(got) and got != complex(1.0)
        assert abs(got - _loop_mismatch(V, E, cfg)) <= 1e-12


# members 2-5 of a real-phase chain at Z = 2 and a broken-phase one at Z = 8
@pytest.mark.parametrize("Z, plan", [(2.0, "real,real,real,real"),
                                     (8.0, "clower,cupper,real,real")])
def test_batched_mismatch_is_pointwise_bit_for_bit(Z, plan):
    # a coarser step than the CLI's keeps this cheap; batching is what is tested
    Es = linspace(0.5, 260.0, GRID_RESOLUTION) + [3.0, 3.0 + 0.5j, 150.0 - 3.0j, -50.0 + 2.0j,
                                                  -1e3, -1e5, 1e4, 40.0, -3.5e4, -4e4,
                                                  complex(-40186.3, 0.74)]
    for mem in build_hierarchy(Z, EliminationPlan.from_text(plan), 5, levels=9)[1:]:
        V = mem.potential
        cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
        batched = [m.normalized for m in mismatches(V, Es, cfg)]
        assert batched == [mismatch(V, E, cfg).normalized for E in Es]


def test_batched_raw_mismatch_differs_by_a_power_of_two():
    # -40186.3 + 0.74i passes 1e100 and rescales whole tree levels of its batch,
    # so the raw fields at 0.5 - 30i move by one exact power of two; only
    # .normalized is batch-independent
    V = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real,real"), 4,
                        levels=9)[3].potential
    cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
    E = 0.5 - 30j
    alone = mismatch(V, E, cfg)
    batched = mismatches(V, [E, complex(-40186.3, 0.74)], cfg)[0]
    mantissa, k = math.frexp(alone.scale / batched.scale)
    assert mantissa == 0.5 and k != 0
    assert math.ldexp(batched.scale, k - 1) == alone.scale
    assert complex(math.ldexp(batched.wronskian.real, k - 1),
                   math.ldexp(batched.wronskian.imag, k - 1)) == alone.wronskian
    assert batched.normalized == alone.normalized


def _bits(values):
    return [(m.wronskian.real.hex(), m.wronskian.imag.hex(), m.scale.hex()) for m in values]


def _count_sides(monkeypatch):
    # (sides, energies) of every step product
    products = []
    counted = oracle_verifier._rk4_step_product

    def counting(blocks, degrees, Es, starts):
        products.append((blocks.shape[2], len(Es)))
        return counted(blocks, degrees, Es, starts)

    monkeypatch.setattr(oracle_verifier, "_rk4_step_product", counting)
    return products


# real energies from the scan range to where rescaling fires
_REAL_ENERGIES = linspace(0.5, 260.0, 40) + [1e4, -1e3, -1e5, -3.5e4, -4e4]
_COMPLEX_ENERGIES = [3.0 + 0.5j, 150.0 - 3.0j, -50.0 + 2.0j, complex(-40186.3, 0.74)]


def test_real_seed_members_mirror_bit_for_bit(monkeypatch):
    # a real-seed member's Crum tables are mirror images, so the right side
    # at E and conj E gives the two-sided Wronskian exactly, complex E too
    products = _count_sides(monkeypatch)
    for mem in build_hierarchy(2.0, EliminationPlan.from_text("real,real,real,real"), 5,
                               levels=9)[1:]:
        V = mem.potential
        cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
        assert _mirrored(V, cfg.h)
        del products[:]
        got = mismatches(V, _REAL_ENERGIES, cfg)
        assert products == [(1, len(_REAL_ENERGIES))]
        assert _bits(got) == _bits(two_sided_mismatches(V, _REAL_ENERGIES, cfg))
        assert all(m.wronskian.imag == 0.0 for m in got)
        del products[:]
        got = mismatches(V, _COMPLEX_ENERGIES, cfg)
        assert products == [(1, 2 * len(_COMPLEX_ENERGIES))]
        assert _bits(got) == _bits(two_sided_mismatches(V, _COMPLEX_ENERGIES, cfg))


@pytest.mark.parametrize("Z", [0.0, 2.0, 8.0])
def test_bare_well_mirrors_exactly(Z, monkeypatch):
    # the well's constants -iZ and iZ are conjugates, so its right side's
    # power at E and conj E gives the two-sided values exactly
    V = square_well_potential(Z)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    assert _sampled_sides(V, cfg.h).blocks is None and _mirrored(V, cfg.h)
    powers = []
    counted = oracle_verifier._rk4_constant_power

    def counting(*args):
        powers.append(args[0])
        return counted(*args)

    monkeypatch.setattr(oracle_verifier, "_rk4_constant_power", counting)
    for Es, sides in ((_REAL_ENERGIES, 1), (_COMPLEX_ENERGIES, 2)):
        del powers[:]
        got = mismatches(V, Es, cfg)
        assert len(powers) == sides * len(Es)
        # equal as numbers: at Z = 0 and a real E the two-sided imaginary
        # part is -0.0, the mirrored one x - x = 0.0
        assert [(m.wronskian, m.scale) for m in got] == \
            [(m.wronskian, m.scale) for m in two_sided_mismatches(V, Es, cfg)]


def test_conjugate_energies_share_one_side(monkeypatch):
    # on a mirrored member E alone integrates the right side at E and conj E,
    # and a batch holding both integrates those same two for the pair; the
    # values at E and conj E are exact conjugates
    V = build_hierarchy(8.0, EliminationPlan.from_text("clower,cupper"), 3, levels=5)[2].potential
    cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
    assert _mirrored(V, cfg.h)
    products = _count_sides(monkeypatch)
    for E in _COMPLEX_ENERGIES:
        del products[:]
        alone = mismatch(V, E, cfg)
        assert products == [(1, 2)]
        del products[:]
        m, c = mismatches(V, [E, E.conjugate()], cfg)
        assert products == [(1, 2)]
        assert _bits([m]) == _bits([alone])
        assert (c.wronskian, c.scale) == (m.wronskian.conjugate(), m.scale)


def test_pair_eliminated_members_mirror_within_rounding():
    # a member that eliminated a conjugate pair conjugates its right side
    # on the left (its own seed tables mirrored each other to about 4e-14)
    for mem in build_hierarchy(8.0, EliminationPlan.from_text("clower,cupper,real,real"), 5,
                               levels=9)[2:]:
        V = mem.potential
        cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
        assert _mirrored(V, cfg.h)
        Es = _REAL_ENERGIES + _COMPLEX_ENERGIES
        got = mismatches(V, Es, cfg)
        want = two_sided_mismatches(V, Es, cfg)
        for E, m, w in zip(Es, got, want):
            assert m.wronskian.imag == 0.0 or E.imag != 0.0
            assert abs(m.normalized - w.normalized) <= 1e-12


def _non_pt_member():
    return build_hierarchy(8.0, EliminationPlan.from_text("clower"), 2, levels=5)[1].potential


def _flagged_off_mirror():
    # member 2's right side, a left side conj V(-x) (1 + 1e-9) and the PT
    # flag set; without the factor the sides are mirrored
    real = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=4)[1].potential

    def flagged(factor):
        return PiecewisePotential(real.right_eval,
                                  lambda x: real.right_eval(-x).conjugate() * factor,
                                  real.endpoint_exponent, True)

    assert _mirrored(flagged(1.0), 2e-3)
    return flagged(1.0 + 1e-9)


@pytest.mark.parametrize("build", [_non_pt_member, _flagged_off_mirror])
def test_unmirrored_potentials_take_both_sides_bit_for_bit(build, monkeypatch):
    # the samples decide, never the pt_symmetric flag
    V = build()
    cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
    assert not _mirrored(V, cfg.h)
    Es = _REAL_ENERGIES + _COMPLEX_ENERGIES
    products = _count_sides(monkeypatch)
    got = mismatches(V, Es, cfg)
    assert products == [(2, len(Es))]
    assert _bits(got) == _bits(two_sided_mismatches(V, Es, cfg))


def test_member_just_above_z_crit_is_an_exact_mirror(monkeypatch):
    # the pair's tables cancel there, and the left side, computed from its
    # own seeds, was a mirror image only to about 2e-10, so both sides were
    # integrated.  The left side now conjugates the right one: every left
    # sample is the conjugate of its right partner, bit for bit, and one
    # side is integrated, within rounding of both sides integrated
    near = find_critical_coupling(0).z_crit + 1e-8
    V = build_hierarchy(near, EliminationPlan.from_text("clower,cupper"), 3, levels=5)[2].potential
    assert V.pt_symmetric
    cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
    sides = _sampled_sides(V, cfg.h).sides
    for right, left in zip(sides[Side.RIGHT][:2], sides[Side.LEFT][:2]):
        assert left.tobytes() == np.conj(right).tobytes()
    assert _mirrored(V, cfg.h)
    Es = _REAL_ENERGIES + _COMPLEX_ENERGIES
    products = _count_sides(monkeypatch)
    got = mismatches(V, Es, cfg)
    assert products[0][0] == 1
    for m, w in zip(got, two_sided_mismatches(V, Es, cfg)):
        assert abs(m.normalized - w.normalized) <= 1e-12


def test_partner_sides_are_not_constant():
    V2 = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=4)[1].potential
    sides = _sampled_sides(V2, 2e-4).sides
    for side in Side:
        assert sides[side][3] is None


def _recording(ev, calls, kind):
    # ev, appending (kind, x) to calls on every call
    def record(x):
        calls.append((kind, x))
        return ev(x)
    return record


@pytest.mark.parametrize("h", [1e-3, 2e-4, 3e-3, 7.3e-4])
def test_array_positions_are_the_list_positions_in_chunks(h, monkeypatch):
    # a partner potential's sides take array calls of SAMPLE_CHUNK positions,
    # the last one the rest, over the floats the point-by-point formula
    # gives, the origin node +0.0 on the right and -0.0 on the left; the
    # bare well samples point by point without numpy
    n = max(1, round((1.0 - DELTA) / h))
    wanted = [list_positions(1.0 - DELTA, n), list_positions(-(1.0 - DELTA), n)]
    chunks = -(-(2 * n + 1) // SAMPLE_CHUNK)
    assert (chunks > 1) == (h in (2e-4, 7.3e-4))
    real = _chain(2.0, "real")[1].potential
    calls = []
    V = PiecewisePotential(_recording(real.right_eval, calls, "scalar"),
                           _recording(real.left_eval, calls, "scalar"),
                           real.endpoint_exponent, real.pt_symmetric,
                           tuple(_recording(ev, calls, "array") for ev in real.arrays))
    _sampled_sides(V, h)
    assert [kind for kind, _ in calls] == ["array"] * (2 * chunks)
    assert all(len(xs) == SAMPLE_CHUNK for _, xs in calls[:chunks - 1] + calls[chunks:-1])
    sides = [np.concatenate([xs for _, xs in calls[:chunks]]),
             np.concatenate([xs for _, xs in calls[chunks:]])]
    for xs, want in zip(sides, wanted):
        assert xs.dtype == np.float64 and xs.tobytes() == np.array(want).tobytes()
    assert [math.copysign(1.0, xs[-1]) for xs in sides] == [1.0, -1.0]
    assert all(xs[-1] == 0.0 for xs in sides)

    well = square_well_potential(8.0)
    del calls[:]
    V = PiecewisePotential(_recording(well.right_eval, calls, "scalar"),
                           _recording(well.left_eval, calls, "scalar"), 1, True)
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy now fails
    assert _sampled_sides(V, h).blocks is None
    assert cmath.isfinite(mismatch(V, 3.0, ShootingConfig(h=h)).normalized)
    assert {kind for kind, _ in calls} == {"scalar"}
    assert [x.hex() for _, x in calls] == [x.hex() for want in wanted for x in want]


@pytest.mark.parametrize("h", [1e-3, 2e-4])
@pytest.mark.parametrize("Z, plan", [(2.0, "real"), (8.0, "clower,cupper"),
                                     (17.0, "clower,cupper,real"), (2.0, "real,real,real,real")])
def test_array_sampling_matches_list_reference_bit_for_bit(Z, plan, h, monkeypatch):
    # the oracle workload's plans and members 2-5 of a real chain: every
    # partner member's samples and blocks, and the last member's roots, equal
    # those of list-built positions, evaluated in one call per side; at
    # h = 2e-4 the oracle's own samples come in chunks of SAMPLE_CHUNK
    chain = _chain(Z, plan)
    for mem in chain[1:]:
        own, ref = _sampled_sides(mem.potential, h), list_sampled_sides(mem.potential, h)
        assert own.integrated == ref.integrated
        for side in Side:
            (nodes, mids, hh, constant), want = own.sides[side], ref.sides[side]
            assert (nodes.tobytes(), mids.tobytes(), hh, constant) == \
                (want[0].tobytes(), want[1].tobytes(), want[2], want[3])
        assert own.blocks.tobytes() == ref.blocks.tobytes()
    (V, count, box, cfg), seeds = _verify_search(Z, plan, len(chain), 3, "bench")
    cfg = ShootingConfig(h=h, p=cfg.p)
    own = find_spectrum_numeric(V, count, box, cfg, seeds)
    monkeypatch.setattr(oracle_verifier, "_sampled_sides", list_sampled_sides)
    ref = find_spectrum_numeric(V, count, box, cfg, seeds)
    assert [(E.real.hex(), E.imag.hex()) for E in own] == \
        [(E.real.hex(), E.imag.hex()) for E in ref]


@pytest.mark.parametrize("Z", [1.0, 4.0])
def test_oracle_reproduces_real_spectra(Z):
    V = square_well_potential(Z)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    closed = solve_real_spectrum(Z, 8)
    found = find_spectrum_numeric(V, 8, (complex(1.0, -1.0), complex(165.0, 1.0)), cfg)
    for E, level in zip(found, closed):
        assert abs(E - level.energy) < 1e-6


def test_oracle_insensitive_to_startup_offset(monkeypatch):
    V = square_well_potential(2.0)
    box = (complex(1.0, -1.0), complex(5.0, 1.0))
    values = []
    for delta in (1e-7, 1e-6, 1e-5):
        monkeypatch.setattr(oracle_verifier, "DELTA", delta)
        _sampled_sides.cache_clear()  # its samples start DELTA from the wall
        values.append(find_spectrum_numeric(V, 1, box, ShootingConfig(p=1))[0])
    _sampled_sides.cache_clear()
    assert max(abs(a - b) for a in values for b in values) < 1e-7


def test_rk4_order():
    V = square_well_potential(2.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    E = solve_real_spectrum(2.0, 1)[0].energy * 1.0001
    assert 3.7 < rk4_order_estimate(V, E, cfg) < 4.3


def test_complex_pair_found_from_seeds():
    spec = classify_spectrum(8.0, 3)
    V = square_well_potential(8.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    seeds = [spec.levels[0].energy * 1.05, spec.levels[1].energy * 1.05]
    found = find_spectrum_numeric(V, 3, (complex(2.0, -7.0), complex(30.0, 7.0)), cfg, seeds=seeds)
    for E, level in zip(found, spec.levels):
        assert abs(E - level.energy) < 1e-7


def test_conjugate_pair_ordered_lower_first_despite_rounding():
    # the upper member's real part sits a few rounding steps below the lower's
    lower, upper = complex(6.791734691575692, -5.77), complex(6.791734691575685, 5.77)
    assert _ordered_levels([23.5 + 0j, upper, lower]) == [lower, upper, 23.5 + 0j]


def test_seedless_off_axis_search_raises():
    # a box off the real axis is not scanned, and without seeds no secant
    # starts: the search finds nothing and says where it looked
    V = square_well_potential(8.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    lo, hi = complex(3.0, -9.0), complex(11.0, -2.0)
    with pytest.raises(ConvergenceError) as err:
        find_spectrum_numeric(V, 1, (lo, hi), cfg)
    assert err.value.stage == "search box"
    assert err.value.iterate == ()
    assert err.value.bracket == (lo, hi)


def test_unconverged_secants_count_no_level():
    # NaN samples make every mismatch the sentinel 1, so each seeded secant
    # stops at once with residual 1 >= ROOT_TOL; its start lies in the box,
    # and only the residual keeps it from being counted as a level
    V = PiecewisePotential(lambda x: complex(math.nan, x), lambda x: complex(math.nan, -x), 1,
                           False)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    lo, hi = complex(1.0, -1.0), complex(20.0, 1.0)
    with pytest.raises(ConvergenceError) as err:
        find_spectrum_numeric(V, 1, (lo, hi), cfg, seeds=[3.0, 10.0 + 0.5j])
    assert err.value.stage == "search box"
    assert err.value.iterate == ()


def test_fourth_member_isospectral_with_bare_well():
    h = build_hierarchy(2.0, EliminationPlan.from_text("real,real,real"), 4, levels=8)
    V4 = h[3].potential
    assert V4.endpoint_exponent == 4
    closed = [level.energy for level in h[3].spectrum.levels[:4]]
    cfg = ShootingConfig(p=V4.endpoint_exponent)
    found = find_spectrum_numeric(V4, 4, (complex(30.0, -1.0), complex(165.0, 1.0)), cfg)
    for E, want in zip(found, closed):
        assert abs(E - want) < 1e-6


def test_overfull_request_raises():
    V = square_well_potential(2.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    with pytest.raises(ConvergenceError):
        find_spectrum_numeric(V, 3, (complex(1.0, -0.5), complex(5.0, 0.5)), cfg)


def _secant_alone(f, *start):
    """A `_secant` run driven one energy at a time."""
    run = _secant(*start)
    try:
        E = next(run)
        while True:
            E = run.send(f(E))
    except StopIteration as stop:
        return stop.value


def test_secant_from_scan_brackets_stays_in_bracket():
    V = square_well_potential(2.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    closed = [lv.energy.real for lv in solve_real_spectrum(2.0, 12)]
    Es = linspace(closed[0] - 2.0, closed[-1] + 5.0, GRID_RESOLUTION)
    starts = _real_axis_starts(Es, [m.normalized.real for m in mismatches(V, Es, cfg)])
    assert len(starts) >= 12

    def f(E):
        return mismatch(V, complex(E), cfg).normalized.real

    for E0, E1, f0, f1 in starts:
        E, res = _secant_alone(f, E0, E1, f0, f1)
        assert res < ROOT_TOL
        assert isinstance(E, float)
        assert E0 <= E <= E1
    roots = [_secant_alone(f, *start)[0] for start in starts[:12]]
    for E, want in zip(roots, closed):
        assert abs(E - want) < 1e-9 * want


def test_secant_stops_when_both_values_are_equal():
    def f(E):
        raise AssertionError("no secant line, so no evaluation")

    # the breakdown sentinel returns 1.0 at both starts
    assert _secant_alone(f, 1.0, 2.0, 1.0, 1.0)[1] == 1.0
    assert _secant_alone(f, 3.0 + 1.0j, 3.5 + 1.0j, complex(1.0), complex(1.0))[1] == 1.0


def _count_energies(monkeypatch):
    # every mismatch, scanned or single, is evaluated by `mismatches`
    energies = []
    counted = oracle_verifier.mismatches

    def counting(V, Es, *args, **kw):
        energies.extend(Es)
        return counted(V, Es, *args, **kw)

    monkeypatch.setattr(oracle_verifier, "mismatches", counting)
    return energies


def test_zero_coupling_search_mismatch_count(monkeypatch):
    # work counts are deterministic, so they catch regressions noisy timings miss
    energies = _count_energies(monkeypatch)
    V = square_well_potential(0.0)
    cfg = ShootingConfig(p=V.endpoint_exponent)
    found = find_spectrum_numeric(V, 10, (complex(0.5, -1.0), complex(260.0, 1.0)), cfg)
    assert len(found) == 10
    for n, E in enumerate(found):
        assert E.imag == 0.0
        assert abs(E.real - ((n + 1) * math.pi / 2.0) ** 2) < 1e-8 * E.real
    assert len(energies) <= 300


def test_partner_search_energy_count(monkeypatch):
    # member 2 at Z = 2 in the box `ptwell verify --levels 4` searches: the
    # 240-point scan and 16 secant steps; in step products, 4 scan batches of
    # up to 63 energies (BATCH_BLOCKS over 63 blocks per side) and 4
    # lockstep rounds of the 4 secant runs, every energy real and so on the
    # right side alone
    energies = _count_energies(monkeypatch)
    products = _count_sides(monkeypatch)
    member = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=5)[1]
    closed = [lv.energy for lv in member.spectrum.levels[:4]]
    box = (complex(closed[0].real - 2.0, -1.0), complex(closed[-1].real + 5.0, 1.0))
    cfg = ShootingConfig(h=1e-3, p=member.potential.endpoint_exponent)
    assert len(find_spectrum_numeric(member.potential, 4, box, cfg)) == 4
    assert len(energies) == 256
    assert len(products) == 8
    assert {sides for sides, _ in products} == {1}
    assert sum(count for _, count in products) == 256


@pytest.mark.parametrize("argv, energies, calls", [
    (("--coupling", "8", "--member", "2", "--plan", "clower", "--levels", "3"), 10, 3),
    (("--coupling", "2", "--member", "2", "--levels", "4"), 269, 5)])
def test_verify_energy_count(monkeypatch, capsys, argv, energies, calls):
    # `ptwell verify` seeds a secant at each closed level, and a seed's
    # first start value is that level's mismatch residual.  The Z = 8 clower
    # member is not PT-symmetric, so nothing is scanned: the seeds' start
    # values (6 energies), then 2 lockstep rounds (3, then 1); seeds a
    # twentieth of a level gap off took 25 energies in 8 calls, and a
    # separate residual call 13 in 4.  The Z = 2 member is scanned too: 8
    # start values with the 240 scan points, then the scan's and the seeds'
    # runs in lockstep.  Seeding only complex levels it took 260 in 6
    batches = []
    counted = oracle_verifier.mismatches

    def counting(V, Es, *args, **kw):
        batches.append(len(Es))
        return counted(V, Es, *args, **kw)

    monkeypatch.setattr(oracle_verifier, "mismatches", counting)
    assert cli_main(["verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    assert (sum(batches), len(batches)) == (energies, calls)


def _verify_search(Z, plan, depth, levels, seeded):
    """find_spectrum_numeric's arguments for one member in `ptwell verify`'s box, at h = 1e-3.

    seeded "verify" seeds every closed level at itself, as `ptwell verify`
    does; "bench" seeds only the complex levels, at 1.05 E, as the oracle
    benchmark does, and passes no seeds when there are none.  Either way a
    PT-symmetric member is also scanned on the real axis.
    """
    member = build_hierarchy(Z, EliminationPlan.from_text(plan), depth, levels + depth - 1)[-1]
    closed = [lv.energy for lv in member.spectrum.levels[:levels]]
    box = (complex(min(E.real for E in closed) - 2.0, min(0.0, min(E.imag for E in closed)) - 1.0),
           complex(max(E.real for E in closed) + 5.0, max(0.0, max(E.imag for E in closed)) + 1.0))
    cfg = ShootingConfig(h=1e-3, p=member.potential.endpoint_exponent)
    if seeded == "verify":
        return (member.potential, levels, box, cfg), closed
    seeds = [E * 1.05 for E in closed if abs(E.imag) > 1e-12]
    return (member.potential, levels, box, cfg), seeds or None


# the scan path (members 2-5 at Z = 2), the seed path (member 4 at Z = 17),
# seeds alone (member 2 at Z = 8, not PT-symmetric, so not scanned), a
# mirrored pair-eliminated scan (member 3 at Z = 8) and the bare well
_SEARCHES = [(2.0, "real,real,real,real", depth, 3, "bench") for depth in (2, 3, 4, 5)] + [
    (17.0, "clower,cupper,real", 4, 3, "bench"), (8.0, "clower", 2, 3, "verify"),
    (8.0, "clower,cupper", 3, 3, "bench")]


@pytest.mark.parametrize("search", _SEARCHES + ["bare"])
def test_search_roots_do_not_depend_on_batch_size(search, monkeypatch):
    if search == "bare":
        V = square_well_potential(0.0)
        args = (V, 10, (complex(0.5, -1.0), complex(260.0, 1.0)), ShootingConfig(p=V.endpoint_exponent))
        seeds = None
    else:
        args, seeds = _verify_search(*search)
    default = find_spectrum_numeric(*args, seeds=seeds)
    monkeypatch.setattr(oracle_verifier, "BATCH_BLOCKS", 1)  # one energy per step product
    one = find_spectrum_numeric(*args, seeds=seeds)
    assert [(E.real.hex(), E.imag.hex()) for E in one] == \
        [(E.real.hex(), E.imag.hex()) for E in default]


def test_seed_starts_ride_in_the_scan_call(monkeypatch):
    # member 4 at Z = 17 is seeded and scanned: its seeds' start values go
    # through the scan's `mismatches` call, one step product fewer than a
    # call of their own, and the roots are the same bits either way
    args, seeds = _verify_search(17.0, "clower,cupper,real", 4, 3, "bench")
    starts = 2 * len(seeds)
    products = _count_sides(monkeypatch)
    joined = find_spectrum_numeric(*args, seeds=seeds)
    count = len(products)
    calls, split = oracle_verifier.mismatches, []

    def apart(V, Es, cfg):
        if split:
            return calls(V, Es, cfg)
        split.append(len(Es))
        return calls(V, Es[:starts], cfg) + calls(V, Es[starts:], cfg)

    monkeypatch.setattr(oracle_verifier, "mismatches", apart)
    del products[:]
    alone = find_spectrum_numeric(*args, seeds=seeds)
    assert split == [starts + GRID_RESOLUTION]
    assert len(products) == count + 1
    assert [(E.real.hex(), E.imag.hex()) for E in joined] == \
        [(E.real.hex(), E.imag.hex()) for E in alone]


def test_pair_roots_from_conjugate_seeds_are_exact_conjugates():
    # member 4 at Z = 17 keeps a conjugate pair; it mirrors, so its mismatch
    # at conj E is the exact conjugate of the value at E, and the secant
    # runs from conjugate seeds stay exact conjugates
    (V, count, box, _), seeds = _verify_search(17.0, "clower,cupper,real", 4, 3, "bench")
    assert seeds[1] == seeds[0].conjugate()
    cfg = ShootingConfig(h=2e-3, p=V.endpoint_exponent)
    lower, upper, _ = find_spectrum_numeric(V, count, box, cfg, seeds=seeds)
    assert lower.imag < 0.0
    assert (upper.real.hex(), upper.imag.hex()) == (lower.real.hex(), (-lower.imag).hex())


@pytest.mark.parametrize("Z, plan, depth", [(2.0, "real,real,real,real", depth)
                                            for depth in (1, 2, 3, 4, 5)]
                         + [(8.0, "clower,cupper", 3), (17.0, "clower,cupper,real", 4)])
def test_seeds_leave_scan_roots_bit_for_bit(Z, plan, depth):
    # PT-symmetric members are scanned and seeded at every closed level; the
    # scan's runs come first, so a seed that converges to a level the scan
    # found is dropped, and the roots are those of seeding the complex
    # levels alone, bit for bit, every real one exactly real
    args, seeds = _verify_search(Z, plan, depth, 6, "verify")
    every = find_spectrum_numeric(*args, seeds=seeds)
    complex_only = find_spectrum_numeric(*args, seeds=[E for E in seeds if abs(E.imag) > 1e-12])
    assert [(E.real.hex(), E.imag.hex()) for E in every] == \
        [(E.real.hex(), E.imag.hex()) for E in complex_only]
    closed_real = [abs(E.imag) <= 1e-12 for E in seeds]
    assert any(closed_real)
    assert all(E.imag == 0.0 for E, real in zip(every, closed_real) if real)


def _linspace_cases():
    rng = random.Random(20260)
    cases = [(0.0, 1.0, 2), (3.5, 3.5, 2), (-2.0, -2.0, 48), (5.0, -1.0, 25), (1e-300, -1e-300, 7),
             (0.0, 5e-324, 3), (-0.999, 0.999, 101), (-0.999, 0.999, 2), (-0.95, 0.95, 20),
             (0.5, 260.0, 240)]
    cases += [(-0.999, 0.999, rng.randint(2, 400)) for _ in range(20)]
    for _ in range(60):
        lo, hi = rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)
        cases.append((lo, hi, rng.choice((2, 3, 20, 25, 48, 240, rng.randint(2, 1000)))))
    return cases


def test_linspace_is_numpy_linspace_bit_for_bit():
    for lo, hi, count in _linspace_cases():
        got = [x.hex() for x in linspace(lo, hi, count)]
        assert got == [float(x).hex() for x in np.linspace(lo, hi, count)], (lo, hi, count)
