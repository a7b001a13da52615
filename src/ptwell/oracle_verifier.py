"""Shooting-method eigen-solver, independent of every closed form.

Both sides are integrated from the walls toward the matching point with
fixed-step RK4 on presampled potential values; eigenvalues are zeros of the
normalized Wronskian mismatch at x = 0.  The integrator consumes only a
potential's side evaluators and its endpoint exponent, never eigenfunction
formulas, so agreement with the closed forms is a genuine cross-check.

The ODE is linear, so each RK4 step is a fixed 2x2 matrix and a side is the
ordered product of its step matrices: the n-th power of one matrix when
each side's samples share one value (the bare well), else a pairwise tree
product built at once in numpy (the partner potentials).  With
q = V - E sampled at a step's start, midpoint and end (q1, qm, q2), the
step matrix is exactly

    [[1 + h^2 (q1 + 2 qm)/6 + h^4 qm q1/24,   h + h^3 qm/6],
     [h (q1 + 4 qm + q2)/6 + h^3 qm (q1 + q2)/12,   1 + h^2 (2 qm + q2)/6 + h^4 q2 qm/24]],

so every entry is a quadratic in E, and a product of BLOCK = 16
neighbouring steps is a 2x2 matrix polynomial of degree 32 in E:

    M[16j+15](E) ... M[16j](E) = C[0] + E C[1] + ... + E^32 C[32],

block j of columns C[k][:, j], identity steps padding n to a multiple of
16; the blocks are built by pairwise doubling, steps to pairs to 4 steps
and on to 16.  A potential's two sides always take the same n steps, so
they are sampled and cached together (`_sampled_sides`), in one record
with the coefficients of the blocks of every side that is integrated,
stacked as one (33, 4, sides, n/16) array (k, rows a, b, c, d, side,
block).  An energy then costs Horner's rule in elementwise array
operations and a pairwise tree over n/16 blocks, for every integrated
side in one product, each tree level one broadcast 2x2 product;
exponents and the exact size test are paid only where a level can
rescale.  Horner's rule starts at the degree K where the side's higher
terms stop reaching the result: at most 2^-60 of the lower ones at the
power of two above |E|, less than 1/256 of the rule's own rounding
(`_horner_degree`).  K depends on the side and the binary exponent of
|E| only, and is 6 of 32 for |E| < 128 at h = 1e-3, so a block of 16
steps costs little more to evaluate than a block of 8 (5 of 16); the
record keeps one {exponent: K} table per integrated side, which the step
product fills as it meets exponents.  Energies are integrated several at
a time, as a third array axis down the same tree, with energies times
blocks per side up to BATCH_BLOCKS; the scan hands over its whole grid, and
the secant runs of one search advance in lockstep, each round's pending
energies in one call.

Most partner potentials are PT-symmetric, V(-x) = conj V(x).  Every
step-matrix entry above is even or odd in h, so the left side's steps at
E are D conj(M) D (D = diag(1, -1)) of the right side's at conj E, and
psi_L(x; E) = conj psi_R(-x; conj E).  Whether a potential's own samples
show that mirror symmetry is decided once, when they are taken; the
pt_symmetric flag never decides.  A mirrored potential, the bare well
included, integrates only its right side, at every E and conj E, and
takes the left as (conj psi, -conj psi') at conj E; any other potential
integrates both sides.

numpy is imported on the first potential that has array evaluators or is
not constant on both sides, so the bare well, and every process that
never integrates a partner potential, runs without it.
"""
import cmath
import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import groupby

from .spectral_core import ConvergenceError
from .wavefunctions import linspace

# no compiled backend; the name stays because the benchmark's report reads it
njit = None

GRID_RESOLUTION = 240  # real-axis scan points
# energies times blocks per side in one step product, 63 energies at
# h = 1e-3 and 12 at 2e-4.  Tuned on blocks of 8 (32 and 6 energies): at
# 1e-3 8 energies ran a quarter slower and 64 took more peak memory, at
# 2e-4 32 made arrays too large for the allocator to keep, so every product
# page-faulted in fresh memory; twice the energies in a one-side product was
# no faster (docs/decisions.md)
BATCH_BLOCKS = 4000
# steps per pre-multiplied block, a power of two: since Horner's rule stops
# at the cut degree, 16 runs the oracle workload faster than 8, and 32 is
# slower again (docs/decisions.md)
BLOCK = 16
ROOT_TOL = 1e-10       # |normalized mismatch| below which a secant run has converged
DELTA = 1e-6           # start offset from each wall, where psi = DELTA^p
# relative deviation of a left sample from its right partner's conjugate up
# to which a potential integrates one side.  A PT-symmetric Crum member's
# left side conjugates its right one, so its samples mirror exactly; the
# tolerance is for other potentials.  Built from their own seeds, left sides
# of pair-eliminated members deviated by at most 4e-14, and within 1e-4 of
# Z_crit(0) by 1.6e-12 to 3.5e-8 (docs/decisions.md)
MIRROR_TOL = 1e-12
# share of a block entry's terms up to E^K, at the power of two above |E|,
# that its terms above E^K may sum to for Horner's rule to stop at E^K: below
# 1/256 of the rule's own rounding bound (docs/decisions.md)
CUT_TOL = 2.0 ** -60
# positions per call of a side's array evaluator: over 10,001 positions (h =
# 2e-4) one call's temporaries outgrow what glibc malloc keeps, and every call
# page-faults them in afresh; chunks of 2,048 (32 KB per complex array) did not
# (docs/decisions.md)
SAMPLE_CHUNK = 2048


class Side(Enum):
    RIGHT = "R"
    LEFT = "L"


class ShootingConfig(namedtuple("ShootingConfig", "h p")):
    __slots__ = ()

    def __new__(cls, h: float = 2e-4, p: int = 1):
        # raised, not asserted: `python -O` would accept a negative step
        if not 0.0 < h < 1e-2:
            raise ValueError(f"RK4 step h must lie in (0, 1e-2), got {h!r}")
        if p < 1:
            raise ValueError(f"endpoint exponent p must be at least 1, got {p!r}")
        return super().__new__(cls, h, p)

    @classmethod
    def _make(cls, iterable):
        # the namedtuple's _make, which _replace calls too, would skip __new__'s checks
        return cls(*iterable)


class MismatchValue(namedtuple("MismatchValue", "E wronskian scale")):
    """Wronskian psi_L psi_R' - psi_L' psi_R at 0, with its natural scale."""
    __slots__ = ()

    @property
    def normalized(self) -> complex:
        # the sentinel keeps root scans away from breakdown points
        if self.scale == 0.0 or not math.isfinite(self.scale) or not cmath.isfinite(self.wronskian):
            return complex(1.0)
        return self.wronskian / self.scale


def _rk4_constant_power(q, n, hh, psi, dpsi):
    """n RK4 steps of psi'' = q psi for constant q, as a power of one step matrix.

    With A = [[0, 1], [q, 0]] and A^2 = q I, one RK4 step is exactly
    a I + b A with a = 1 + h^2 q/2 + h^4 q^2/24 and b = h (1 + h^2 q/6), and
    products of such matrices stay in that form, so M^n is built by repeated
    squaring on the pair (a, b).  Every operation is odd or even in h, which
    keeps M(-h) = D M(h) D (D = diag(1, -1)) exact in floating point.  Powers
    and the result are renormalized past 1e100, and the solution is
    (psi, dpsi) * exp(logscale).
    """
    h2q = hh * hh * q
    a = 1.0 + h2q / 2.0 + h2q * h2q / 24.0
    b = hh * (1.0 + h2q / 6.0)
    alog = 0.0
    pa, pb, plog = complex(1.0), complex(0.0), 0.0
    while n:
        if n & 1:
            pa, pb, plog = pa * a + q * pb * b, pa * b + pb * a, plog + alog
            m = abs(pa) + abs(pb)
            if m > 1e100:
                pa, pb, plog = pa / m, pb / m, plog + math.log(m)
        n >>= 1
        if n:
            a, b, alog = a * a + q * b * b, 2.0 * a * b, 2.0 * alog
            m = abs(a) + abs(b)
            if m > 1e100:
                a, b, alog = a / m, b / m, alog + math.log(m)
    psi, dpsi = pa * psi + pb * dpsi, q * pb * psi + pa * dpsi
    m = abs(psi) + abs(dpsi)
    if m > 1e100:
        psi, dpsi, plog = psi / m, dpsi / m, plog + math.log(m)
    return psi, dpsi, plog


def _step_coefficients(vnodes, vmids, hh):
    """(3, 4, n) array K with the step matrices' rows a, b, c, d equal to K[0] + E K[1] + E^2 K[2].

    K[0] and K[1] come from the samples in closed form (module docstring);
    K[2] and K[1]'s b row depend on h alone.
    """
    import numpy as np  # here, not at module level: see the module docstring

    v1, vm, v2 = vnodes[:-1], vmids, vnodes[1:]
    h2, h3, h4 = hh * hh, hh * hh * hh, hh * hh * hh * hh
    k = np.empty((3, 4, len(vm)), dtype=np.complex128)
    k[0, 0] = 1.0 + h2 * (v1 + 2.0 * vm) / 6.0 + h4 * vm * v1 / 24.0
    k[0, 1] = hh + h3 * vm / 6.0
    k[0, 2] = hh * (v1 + 4.0 * vm + v2) / 6.0 + h3 * vm * (v1 + v2) / 12.0
    k[0, 3] = 1.0 + h2 * (2.0 * vm + v2) / 6.0 + h4 * v2 * vm / 24.0
    k[1, 0] = -h2 / 2.0 - h4 * (v1 + vm) / 24.0
    k[1, 1] = -h3 / 6.0
    k[1, 2] = -hh - h3 * (v1 + 2.0 * vm + v2) / 12.0
    k[1, 3] = -h2 / 2.0 - h4 * (vm + v2) / 24.0
    k[2] = np.array([h4 / 24.0, 0.0, h3 / 6.0, h4 / 24.0])[:, None]
    return k


def _block_coefficients(vnodes, vmids, hh):
    """(2 BLOCK + 1, 4, ceil(n / BLOCK)) coefficients of one side's block products.

    Block j is M[BLOCK j + BLOCK - 1] ... M[BLOCK j], its rows a, b, c, d
    a polynomial in E with the coefficient of E^k at index k; identity
    steps pad n to a multiple of BLOCK, a power of two.  The blocks are
    built by pairwise doubling, steps to pairs to 4 steps and on up to
    BLOCK: each level multiplies every odd product from the left onto its
    even neighbour, one power of E of the odd one at a time, and doubles
    the degree.
    """
    import numpy as np  # here, not at module level: see the module docstring

    k = _step_coefficients(vnodes, vmids, hh)
    pad = -k.shape[2] % BLOCK
    if pad:
        identity = np.zeros((3, 4, pad), dtype=np.complex128)
        identity[0, 0] = identity[0, 3] = 1.0
        k = np.concatenate((k, identity), axis=2)
    p = k.reshape(3, 2, 2, -1)
    while p.shape[3] * BLOCK > k.shape[2]:
        # entry [r, c] is q[r, 0] p0[0, c] + q[r, 1] p0[1, c], on (..., 2, 2, pairs) views
        p0, p1 = p[..., 0::2], p[..., 1::2]
        out = np.zeros((2 * len(p) - 1,) + p0.shape[1:], dtype=np.complex128)
        for i, q in enumerate(p1):
            out[i:i + len(p)] += q[:, :1] * p0[:, :1] + q[:, 1:] * p0[:, 1:]
        p = out
    return p.reshape(len(p), 4, -1)


def _exponent(E):
    """p with 2^(p - 1) <= |E| < 2^p (0 at E = 0), None where |E| is not finite."""
    r = abs(E)
    return math.frexp(r)[1] if math.isfinite(r) else None


def _horner_degree(c, p):
    """The degree to which Horner's rule evaluates one side's blocks at |E| < R = 2^p.

    c is the side's (2 BLOCK + 1, 4, nb) `_block_coefficients`.  The degree
    is the least K at which, in every entry, sum_{k>K} |C_k| R^k is at most
    CUT_TOL sum_{k<=K} |C_k| R^k.  The share grows with R, so it bounds the
    cut at every |E| < R.  It is 2 BLOCK for p None and wherever a sum
    overflows.
    """
    import numpy as np  # here, not at module level: see the module docstring

    top = len(c) - 1
    if p is None:
        return top
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        terms = np.abs(c).reshape(len(c), -1) * np.ldexp(1.0, p * np.arange(len(c)))[:, None]
        heads = np.cumsum(terms, axis=0)  # heads[K]: terms 0 ... K, summed from the bottom up
        tails = np.cumsum(terms[::-1], axis=0)[::-1]  # tails[K]: terms K ... top, from the top down
        if not np.isfinite(tails[0]).all():
            return top
        cut = (tails[1:] <= CUT_TOL * heads[:-1]).all(axis=1)
    return int(cut.argmax()) if cut.any() else top


def _horner(c, E, out):
    """out = c[K] E^K + ... + c[1] E + c[0] by Horner's rule, c[k] broadcast against E."""
    import numpy as np  # here, not at module level: see the module docstring

    if len(c) == 1:
        out[...] = c[0]
        return
    np.multiply(c[-1], E, out=out)
    for ck in c[-2:0:-1]:
        out += ck
        out *= E
    out += c[0]


def _rk4_step_product(blocks, degrees, Es, starts):
    """For each side and each E in Es, all RK4 steps of psi'' = (V - E) psi at once.

    blocks stacks S sides' `_block_coefficients` on axis 2, shape
    (2 BLOCK + 1, 4, S, nb), degrees holds one {exponent: degree} table
    per side and starts their S start values (psi, dpsi).  Horner's rule,
    C[K] E + C[K - 1], times E, plus C[K - 2], ..., evaluates a side's
    blocks at E to the degree K that `_horner_degree` gives the side at
    |E|'s binary exponent: the terms above E^K add less than 1/256 of the
    rule's own rounding.  The degree depends on the side's blocks and the
    exponent only; it is read from the side's table, and computed into it
    on first use.  Each side's energies are grouped by degree, and each
    group is evaluated into its own rows of one (4, S B, nb) array in
    elementwise operations only: a matmul or einsum may sum in an order
    that depends on B, and a value would then depend on its batch.  The
    array is viewed as (2, 2, S B, nb): entry [r, c] of every block, one
    row of blocks per side and energy, blocks on the last axis so that
    every array operation runs down nb.  Neighbours along nb multiply
    pairwise up a tree, carrying an odd tail; a level is one 2x2 product
    of the odd blocks m1 times the even blocks m0 in two broadcast
    multiplies, m1[:, :1] m0[:1] + m1[:, 1:] m0[1:], for every entry, side
    and energy at once.  Once a product's size, the sum of its entries'
    |z|, passes 1e100, its level is scaled by exact powers of two, one per
    product, side and energy, summed up the tree, so each keeps its own
    exponent.  The exponents are created at the first level that
    rescales, and the exact size test runs only where a pre-test trips:
    some |Re| or |Im| of the level's products above 1e100 / 8.  Below
    that each |z| is at most sqrt(2) 1e100 / 8, so a size is at most
    0.71e100, and rounding cannot carry it past 1e100; a NaN trips the
    pre-test and meets the exact test.
    Returns, per side, one (psi, dpsi, logscale) per energy; the solution
    is (psi, dpsi) * exp(logscale).
    """
    import numpy as np  # here, not at module level: see the module docstring

    S, B, nb = blocks.shape[2], len(Es), blocks.shape[3]
    exponents = [_exponent(E) for E in Es]
    E = np.array(Es, dtype=np.complex128)[:, None]
    m = np.empty((4, S * B, nb), dtype=np.complex128)
    orders = []
    for s, table in enumerate(degrees):
        for p in set(exponents).difference(table):
            table[p] = _horner_degree(blocks[:, :, s], p)
        Ks = [table[p] for p in exponents]
        # the side's rows hold its energies by degree, one run of rows per degree
        order = sorted(range(B), key=Ks.__getitem__)
        row = s * B
        for K, run in groupby(order, Ks.__getitem__):
            run = list(run)
            _horner(blocks[:K + 1, :, s, None], E[run], m[:, row:row + len(run)])
            row += len(run)
        orders.append(order)
    m = m.reshape(2, 2, S * B, nb)
    e = None
    while m.shape[3] > 1:
        pairs = m.shape[3] // 2
        m0, m1 = m[..., 0:2 * pairs:2], m[..., 1:2 * pairs:2]
        prod = m1[:, :1] * m0[:1]  # row r of m1 times column c of m0, as [r, c]
        prod += m1[:, 1:] * m0[1:]
        if e is not None:
            e = np.concatenate((e[:, 0:2 * pairs:2] + e[:, 1:2 * pairs:2], e[:, 2 * pairs:]),
                               axis=1)
        if not np.abs(prod.view(np.float64)).max() <= 1e100 / 8:  # the pre-test
            size = np.abs(prod.reshape(4, *prod.shape[2:])).sum(axis=0)
            if (size > 1e100).any():
                shift = np.frexp(size)[1]
                prod *= np.ldexp(1.0, -shift)
                if e is None:
                    e = np.zeros((size.shape[0], m.shape[3] - pairs), dtype=np.int64)
                e[:, :pairs] += shift
        m = np.concatenate((prod, m[..., 2 * pairs:]), axis=3) if m.shape[3] % 2 else prod
    log2 = math.log(2.0)
    ks = e[:, 0].tolist() if e is not None else [0] * m.shape[2]
    rows = list(zip(*m.reshape(4, -1).tolist(), ks))
    out = []
    for s, ((psi, dpsi), order) in enumerate(zip(starts, orders)):
        side = [None] * B
        for j, (a, b, c, d, k) in zip(order, rows[s * B:(s + 1) * B]):
            side[j] = (a * psi + b * dpsi, c * psi + d * dpsi, k * log2)
        out.append(side)
    return out


# what `_sampled_sides` returns for one potential and step
_Sampled = namedtuple("_Sampled", "sides blocks integrated degrees")


# the potential being checked is all its callers reuse; more keeps old ones alive
@lru_cache(maxsize=1)
def _sampled_sides(V, h: float):
    """Potential samples on the integration nodes and midpoints of both sides.

    Node positions are affine in the step index so the last node lands on
    exactly 0.0 and is evaluated with the correct side's evaluator; an
    accumulated-position loop drifts across the origin jump and costs the
    integrator an order of convergence.  Both sides take the same n steps.
    Each side's nodes and midpoints are evaluated together, interleaved.
    A potential with array evaluators (its `arrays`) takes each side's
    positions as one float64 array, in calls of SAMPLE_CHUNK positions
    each: n - j/2 is exact and the multiply and divide round as Python's
    do, so every position is the float the point-by-point formula gives,
    the last node +0.0 on the right and -0.0 on the left; the evaluators
    work point by point, so the chunks change no sample.  Any other
    potential, the bare well included, is sampled point by point and loads
    no numpy unless a side varies.
    Returns a `_Sampled` record.  sides maps each Side to (nodes, mids,
    hh, constant), constant being the side's common sample value or None.
    integrated is (Side.RIGHT,) when V is mirrored, every left sample
    within MIRROR_TOL of the conjugate of its right partner, relative to
    that partner, V(-x) = conj V(x) (the bare well's two constants are
    compared directly); else it is both sides.  When both sides are
    constant, the samples are lists and blocks is None; else the samples
    are complex128 arrays and blocks stacks the integrated sides'
    `_block_coefficients` as the (2 BLOCK + 1, 4, sides, nb) array
    `_rk4_step_product` takes.  degrees holds one empty {exponent: degree}
    table per integrated side, for `_rk4_step_product` to fill.
    """
    n = max(1, round((1.0 - DELTA) / h))
    arrays = getattr(V, "arrays", None)
    if arrays:
        import numpy as np  # here, not at module level: see the module docstring

        js = np.arange(2 * n + 1)
    sides = {}
    for side, ev in zip(Side, arrays or (V.right_eval, V.left_eval)):
        x0 = 1.0 - DELTA if side is Side.RIGHT else -(1.0 - DELTA)
        # node k at j = 2k, midpoint k at j = 2k + 1: n - j/2 is exact
        if arrays:
            xs = x0 * (n - js / 2) / n
            vals = np.concatenate([ev(xs[k:k + SAMPLE_CHUNK])
                                   for k in range(0, len(xs), SAMPLE_CHUNK)])
        else:
            vals = [ev(x0 * (n - j / 2) / n) for j in range(2 * n + 1)]
        v = vals[0]
        constant = complex(v) if all(u == v for u in vals) else None
        sides[side] = (vals[0::2], vals[1::2], -x0 / n, constant)
    right, left = sides[Side.RIGHT][3], sides[Side.LEFT][3]
    both_constant = right is not None and left is not None
    if both_constant:
        mirrored = abs(left - right.conjugate()) <= MIRROR_TOL * abs(right)
    else:
        import numpy as np  # here, not at module level: see the module docstring

        # a no-op on array samples; a side sampled point by point becomes an array
        sides = {side: (np.asarray(nodes, dtype=np.complex128),
                        np.asarray(mids, dtype=np.complex128), hh, constant)
                 for side, (nodes, mids, hh, constant) in sides.items()}
        mirrored = all(bool(np.all(np.abs(l - np.conj(r)) <= MIRROR_TOL * np.abs(r)))
                       for r, l in zip(sides[Side.RIGHT][:2], sides[Side.LEFT][:2]))
    integrated = tuple(Side)[:1 if mirrored else 2]
    # one side at a time: building both as one array raised the oracle
    # workload's peak memory by 5 % against 1.4 % (docs/decisions.md)
    blocks = None if both_constant else np.stack([_block_coefficients(*sides[side][:3])
                                                  for side in integrated], axis=2)
    return _Sampled(sides, blocks, integrated, tuple({} for _ in integrated))


def _start(cfg: ShootingConfig, side: Side):
    """(psi, psi') at distance DELTA from the wall: the regular behavior psi = DELTA^p."""
    sgn = -1.0 if side is Side.RIGHT else 1.0
    return complex(DELTA ** cfg.p), complex(sgn * cfg.p * DELTA ** (cfg.p - 1))


def _side_pairs(V, Es, cfg: ShootingConfig):
    """Per energy in Es, the (right, left) (psi, dpsi, logscale) at x = 0.

    When `_sampled_sides` finds V mirrored, the left step matrices at E are
    D conj(M(conj E)) D (D = diag(1, -1)) of the right ones at conj E, and
    so is the left start value, so only the right side is integrated, at
    every E and conj E of Es, each energy once, and the left side at E is
    (conj psi, -conj dpsi, logscale) of the right side at conj E.  Any
    other potential integrates both sides at Es.  Either way all energies
    go through one step product, or one constant power per side and energy.
    """
    sides, blocks, integrated, degrees = _sampled_sides(V, cfg.h)
    mirrored = len(integrated) == 1
    conj = [E.conjugate() for E in Es]
    energies = list(dict.fromkeys(Es + conj if mirrored else Es))
    starts = [_start(cfg, side) for side in integrated]
    if blocks is None:
        values = [[_rk4_constant_power(constant - E, len(mids), hh, *start) for E in energies]
                  for (_, mids, hh, constant), start in zip(map(sides.get, integrated), starts)]
    else:
        values = _rk4_step_product(blocks, degrees, energies, starts)
    at = dict(zip(energies, zip(*values)))
    if not mirrored:
        return [at[E] for E in Es]
    pairs = []
    for E, C in zip(Es, conj):
        psi, dpsi, logscale = at[C][0]
        pairs.append((at[E][0], (psi.conjugate(), -dpsi.conjugate(), logscale)))
    return pairs


def integrate_side(V, E: complex, side: Side, cfg: ShootingConfig = ShootingConfig()):
    """(psi(0), psi'(0)) of the regular solution started at the wall.

    Startup uses the local regular behavior psi = DELTA^p at distance DELTA
    from the wall.  If intermediate renormalization fired and the common
    factor is too large to restore, the returned pair is the renormalized
    one (the direction is what the mismatch consumes).  The side comes from
    `_side_pairs`, so a mirrored potential's left side is the conjugate
    mirror image of its right side at conj E.
    """
    right, left = _side_pairs(V, [complex(E)], cfg)[0]
    psi, dpsi, logscale = right if side is Side.RIGHT else left
    if logscale != 0.0 and logscale < 700.0:
        f = math.exp(logscale)
        return psi * f, dpsi * f
    return psi, dpsi


def mismatches(V, Es, cfg: ShootingConfig = ShootingConfig()) -> list:
    """`mismatch` at every energy in Es, BATCH_BLOCKS / (blocks per side) energies at a time.

    Each `.normalized` is the one `mismatch` returns at that energy alone,
    bit for bit: whether sides are integrated or mirrored depends on the
    potential only, and rescaling is by exact powers of two, which the
    normalized value does not see.  The raw `.wronskian` and `.scale` are
    not batch-independent: once any product in a batch passes 1e100, every
    product of that tree level is rescaled, so both can carry a power of
    two that depends on the rest of the batch.  On a mirrored potential
    the value at conj E is the exact conjugate of the value at E, and at a
    real energy the Wronskian is 2 Re(conj psi_R psi_R') with imaginary
    part exactly 0.0.
    """
    Es = [complex(E) for E in Es]
    blocks = _sampled_sides(V, cfg.h).blocks
    per = max(1, BATCH_BLOCKS // (1 if blocks is None else blocks.shape[3]))
    out = []
    for k in range(0, len(Es), per):
        batch = Es[k:k + per]
        for E, ((pR, dR, _), (pL, dL, _)) in zip(batch, _side_pairs(V, batch, cfg)):
            w = pL * dR - dL * pR
            # side values reach 1e100 before rescaling, so square none of them
            scale = math.hypot(abs(pL), abs(dL)) * math.hypot(abs(pR), abs(dR))
            out.append(MismatchValue(E, w, scale))
    return out


def mismatch(V, E: complex, cfg: ShootingConfig = ShootingConfig()) -> MismatchValue:
    """Wronskian of the two one-sided solutions at x = 0; zero iff E is an eigenvalue.

    The scale is the Hadamard bound |(pL,dL)| |(pR,dR)|, never zero for a
    nontrivial solution; the normalized value is the sine of the angle
    between the side solutions and is invariant under per-side rescaling.
    """
    return mismatches(V, [E], cfg)[0]


def _secant(E0, E1, f0, f1):
    """Damped secant on a real or complex scalar f, from (E0, f0) and (E1, f1).

    A generator: it yields each energy it needs and is sent f there, so
    `_solve_lockstep` can evaluate many runs' energies in one batch.
    Starts from the end with the smaller |f|.  Each step is capped at
    0.5 (1 + |E|) and halved up to 8 times until |f| falls.  Once
    |f| < ROOT_TOL, one more step is kept if |f| does not rise: it takes E to
    the rounding floor of f.  Stops at once when f1 == f0 (no secant line).
    Returns (E, |f(E)|); a residual >= ROOT_TOL means no convergence.
    """
    if abs(f0) < abs(f1):
        E0, E1, f0, f1 = E1, E0, f1, f0
    for _ in range(60):
        if f1 == f0:
            break
        step = f1 * (E1 - E0) / (f0 - f1)
        cap = 0.5 * (1.0 + abs(E1))
        if abs(step) > cap:
            step *= cap / abs(step)
        if abs(f1) < ROOT_TOL:
            f2 = yield E1 + step
            return (E1 + step, abs(f2)) if abs(f2) <= abs(f1) else (E1, abs(f1))
        lam = 1.0
        for _ in range(8):
            E2 = E1 + lam * step
            f2 = yield E2
            if abs(f2) < abs(f1):
                break
            lam /= 2.0
        E0, E1, f0, f1 = E1, E2, f1, f2
    return E1, abs(f1)


def _solve_lockstep(V, runs, cfg: ShootingConfig):
    """(E, |f(E)|) of every `_secant` run in runs, advanced together.

    runs pairs each run with `real`: whether it sees the real part of the
    normalized mismatch or the complex value.  Each round sends every
    pending energy through one `mismatches` call; a value does not depend
    on its batch, so each run takes the steps it would take alone.
    """
    results = [None] * len(runs)
    pending = []

    def advance(i, run, real, f):
        try:
            pending.append((i, run, real, run.send(f)))
        except StopIteration as stop:
            results[i] = stop.value

    for i, (run, real) in enumerate(runs):
        advance(i, run, real, None)
    while pending:
        batch, pending = pending, []
        for (i, run, real, _), m in zip(batch, mismatches(V, [E for *_, E in batch], cfg)):
            advance(i, run, real, m.normalized.real if real else m.normalized)
    return results


def _real_axis_starts(Es, vals):
    """Neighbouring scan points (E0, E1, f0, f1) whose values bracket a real root.

    Es is the real-axis scan and vals the real parts of the normalized
    mismatch there.  PT-symmetric potential: the normalized mismatch is
    real on the real axis, so sign changes (or an exact zero) bracket
    eigenvalues.
    """
    return [(Es[k], Es[k + 1], vals[k], vals[k + 1]) for k in range(len(Es) - 1)
            if vals[k] == 0.0 or vals[k] * vals[k + 1] < 0.0]


def _dedup_tol(E: complex) -> float:
    return 1e-8 * (1.0 + abs(E))


def _ordered_levels(levels):
    """Levels by Re E; runs whose real parts agree within the dedup tolerance
    (a conjugate pair) go by Im E, lower member first."""
    out = []
    run = []
    for E in sorted(levels, key=lambda E: E.real):
        if run and abs(E.real - run[-1].real) >= _dedup_tol(E):
            out += sorted(run, key=lambda E: E.imag)
            run = []
        run.append(E)
    return out + sorted(run, key=lambda E: E.imag)


def find_spectrum_numeric(V, count: int, search_box, cfg: ShootingConfig = ShootingConfig(),
                          seeds=None):
    """`count` eigenvalues of V inside the box, sorted by Re, then Im.

    Real parts that agree within the dedup tolerance count as equal, so
    the lower member of a conjugate pair always comes first.

    search_box is a pair of complex corners.  Roots come from two sources
    of starts.  A PT-symmetric potential whose box straddles the real axis
    is scanned for real roots at GRID_RESOLUTION points; the scan is the
    one place the pt_symmetric flag is read: it asks whether the mismatch
    is real on the real axis, which holds for every PT-symmetric
    potential, also for one whose samples differ from their mirror image
    by more than MIRROR_TOL and so take both sides.  Seeds (`ptwell verify` passes every closed level) start
    the other runs.  Every root comes from one damped secant (`_secant`):
    on the real mismatch from a scan bracket's two points, so real roots
    stay exactly real, and on the complex mismatch from E and
    E + 1e-7 (1 + |E|) for a seed.  The scan's runs come first, so where a
    seed and a scan bracket reach the same level, dedup keeps the scan's
    exactly-real root, and a seed only supplies a level the scan missed
    (a complex level, two levels within one scan step, or any level of a
    potential that is not scanned).  All runs advance in lockstep
    (`_solve_lockstep`), and the start values of all seeds come from one
    `mismatches` call, the scan's points with them.  Starts that fail to
    converge are skipped; falling short of `count` converged levels,
    which is certain for an unscanned box without seeds, raises
    ConvergenceError.
    """
    return _search(V, count, search_box, cfg, seeds)[0]


def _search(V, count: int, search_box, cfg: ShootingConfig, seeds):
    """`find_spectrum_numeric`'s levels, and the normalized mismatch at each seed,
    which its first start value is."""
    lo, hi = complex(search_box[0]), complex(search_box[1])
    lo, hi = complex(min(lo.real, hi.real), min(lo.imag, hi.imag)), \
        complex(max(lo.real, hi.real), max(lo.imag, hi.imag))
    scan = getattr(V, "pt_symmetric", False) and lo.imag <= 0.0 <= hi.imag
    starts = [(E, E + 1e-7 * (1.0 + abs(E))) for E in map(complex, seeds or ())]
    grid = linspace(lo.real, hi.real, GRID_RESOLUTION) if scan else []
    vals = [m.normalized for m in mismatches(V, [E for pair in starts for E in pair] + grid, cfg)]
    scanned = [f.real for f in vals[2 * len(starts):]]
    runs = [(_secant(*start), True) for start in _real_axis_starts(grid, scanned)]
    runs += [(_secant(E0, E1, vals[2 * k], vals[2 * k + 1]), False)
             for k, (E0, E1) in enumerate(starts)]
    roots = _solve_lockstep(V, runs, cfg)
    found = []
    for E, res in roots:
        if res >= ROOT_TOL:
            continue
        E = complex(E)
        margin = 1e-6 * (1.0 + abs(hi - lo))
        if not (lo.real - margin <= E.real <= hi.real + margin
                and lo.imag - margin <= E.imag <= hi.imag + margin):
            continue
        if any(abs(E - F) < _dedup_tol(E) for F in found):
            continue
        found.append(E)
    found = _ordered_levels(found)
    if len(found) < count:
        raise ConvergenceError(
            f"only {len(found)} of {count} levels converged in the search box",
            stage="search box", iterate=tuple(found), bracket=(lo, hi))
    return found[:count], vals[:2 * len(starts):2]

