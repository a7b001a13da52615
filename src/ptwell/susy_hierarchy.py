"""Partner-potential chains driven by an elimination plan.

Each step removes one level from the current spectrum (the lowest real one,
or either member of a complex pair) and hands the remaining levels to the
next member.  A member that eliminated k levels is Crum's k-fold Darboux
transform of the well (M. M. Crum, Q. J. Math. 6 (1955) 121; Cooper, Khare,
Sukhatme, Phys. Rep. 251 (1995) 267): on each side, in the wall distance u
(1 - x right, 1 + x left), every well eigenfunction is sinh(kappa u), and
with seeds k_1..k_k, the eliminated levels' wavenumbers,

    V = V_1 - 2 d^2/du^2 ln Wr(sinh k_1 u, ..., sinh k_k u),
    psi_n ~ Wr(sinh k_1 u, ..., sinh k_k u, sinh kappa_n u) / Wr(sinh k_1 u, ..., sinh k_k u).

One table per side and point (`_CrumSide`, `_seed_table`) eliminates a
member's seeds; its potential, each of its eigenfunctions and its next
step's superpotential read that table.  Member 1, the well, is the member
with no seeds: its columns are the sinh(kappa u) themselves.
Since sigma(E) = conj rho(E*), a member is PT-symmetric exactly when its
eliminated energies are closed under conjugation.
"""
import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .spectral_core import (Branch, ConvergenceError, IllegalPlanError, SpectralLevel,
                            Spectrum, classify_spectrum, find_critical_coupling)
from .wavefunctions import (PiecewiseEigenfunction, PiecewisePair, chebyshev_grid,
                            normalize_sides, origin_scales, ratio_stats, sampled_pt_defect)


class LevelAnnihilated(Exception):
    """Intertwining was applied to the eliminated level itself."""


class PlanChoice(Enum):
    LOWEST_REAL = "real"
    COMPLEX_LOWER = "clower"
    COMPLEX_UPPER = "cupper"


class EliminationPlan(namedtuple("EliminationPlan", "choices")):
    __slots__ = ()

    @classmethod
    def from_text(cls, text: str) -> "EliminationPlan":
        """Parse a comma-separated plan, e.g. "clower,cupper,real"."""
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not tokens:
            raise IllegalPlanError("empty plan")
        try:
            return cls(tuple(PlanChoice(tok) for tok in tokens))
        except ValueError:
            raise IllegalPlanError(f"unknown plan token in {text!r}; "
                                   "use real|clower|cupper") from None


class PiecewisePotential:
    """V by side, right_eval on x >= 0 and left_eval on x < 0.  arrays, when
    given, is the (right, left) pair of the same evaluators over numpy
    arrays of x, for samplers that have numpy loaded."""
    __slots__ = ("right_eval", "left_eval", "endpoint_exponent", "pt_symmetric", "arrays")

    def __init__(self, right_eval, left_eval, endpoint_exponent: int, pt_symmetric: bool,
                 arrays: tuple = None):
        self.right_eval, self.left_eval, self.arrays = right_eval, left_eval, arrays
        self.endpoint_exponent, self.pt_symmetric = endpoint_exponent, pt_symmetric

    def __call__(self, x: float) -> complex:
        # x = 0 takes the right branch
        return self.right_eval(x) if x >= 0 else self.left_eval(x)


class Superpotential(PiecewisePair):
    """W by side: right(x) and left(x) each return (W, W') at x."""
    __slots__ = ("right", "left", "factorization_energy")

    def __init__(self, right, left, factorization_energy: complex):
        self.right, self.left, self.factorization_energy = right, left, factorization_energy


@dataclass(frozen=True, eq=False)
class HierarchyMember:
    depth: int
    potential: PiecewisePotential
    superpotential: Superpotential
    spectrum: Spectrum
    eigenfunctions: object
    eliminated: tuple = ()


_ANNIHILATION_PROBE = tuple(chebyshev_grid(50))
_SERIES_TOL = 1e-17  # a series stops where the bound on its next term over its first is below
_INV_FACTORIAL = [1.0 / math.factorial(m) for m in range(171)]  # 170! is the last float
# seed tables kept across sides: a member's 200-point grid, both sides, with
# the points where a level's basis is not V's, twice over.
# hierarchy_relations_check reads 529 tables (both orders' member 2 and
# member 3, at x and -x) in one grid sweep per eigenfunction and orientation,
# coming back to most of them once per level; at this bound it builds each once
_SEED_TABLES = 512
_NO_SEEDS = (0j, (), (), ())  # `_darboux` of no seed columns, at every x


def _darboux(fs, ds, steps, chain):
    """Eliminate the seed columns of (fs, ds) = (f, df/du), complex numbers or
    numpy arrays, in place.  steps holds per seed s lam_s and lam_j - lam_s
    for the later columns j; chain says whether column j carries f_{j-1}.
    Returns U = V - V_1, each step's w = f_s'/f_s and w^2, and, with chain,
    each step's chain term for one more column: the last seed column before it."""
    U = 0j
    ws, w2s, last = [], [], []
    s = 0
    for lam, dlams in steps:
        prev = fs[s]
        w = ds[s] / prev
        w2 = w * w
        j = s + 1
        if chain:
            for dlam in dlams:
                f = fs[j]
                d = ds[j]
                fs[j] = d - w * f
                ds[j] = (dlam + w2) * f - w * d + prev
                prev = f
                j += 1
            last.append(prev)
        else:  # most points: a fifth faster than testing chain per column
            for dlam in dlams:
                f = fs[j]
                d = ds[j]
                fs[j] = d - w * f
                ds[j] = (dlam + w2) * f - w * d
                j += 1
        ws.append(w)
        w2s.append(w2)
        U = 2.0 * (w2 - lam) - U
        s += 1
    return U, ws, w2s, last


@lru_cache(maxsize=None)
def _series_terms(bucket: int) -> int:
    """Terms every series column needs for X = |kappa|_max u < (bucket + 1)/2:
    term d of column j is at most C(d + j, j) X^(2d) (2j + 1)!/(2d + 2j + 1)!
    of term 0 (h_d of j + 1 numbers has C(d + j, j) monomials), most at j = 1."""
    x2, term, d = ((bucket + 1) / 2) ** 2, 1.0, 0
    while term > _SERIES_TOL:
        d += 1
        term *= x2 / (2 * d * (2 * d + 3))
    return d


def _extend(h, lam):
    """The complete homogeneous h_d(lam_0..lam_j), d < len(h), from h = h_d(lam_0..lam_j-1)
    and lam = lam_j: h_d(..lam_j) = h_d(..lam_j-1) + lam_j h_d-1(..lam_j)."""
    out, acc = [], 0j
    for hd in h:
        acc = hd + lam * acc
        out.append(acc)
    return out


def _horner(h, j: int, buckets: int):
    """Per bucket, Horner coefficients (value, slope), highest power first, of column
    j >= 1: G_j = u^(2j+1) sum_d h_d t^d/(2d+2j+1)! and G_j' = u^(2j) sum_d h_d t^d/(2d+2j)!,
    t = u^2, h_d = h_d(lam_0..lam_j).  ConvergenceError where 1/(2d+2j+1)! is past
    the float range, from j = 62 on."""
    terms = len(h)
    if 2 * terms + 2 * j - 1 >= len(_INV_FACTORIAL):
        raise ConvergenceError(f"Crum table of {j + 1} columns needs 1/{2 * terms + 2 * j - 1}!, "
                               "past the float range", stage="Crum table")
    coefficients = [(h[d] * _INV_FACTORIAL[2 * d + 2 * j + 1], h[d] * _INV_FACTORIAL[2 * d + 2 * j])
                    for d in reversed(range(terms))]
    return [coefficients[terms - _series_terms(b):] for b in range(buckets)]


class _CrumSide:
    """A member's seeds on one side, u = 1 - sign x, and its potential there.

    The seed table at x (`_seed_table`, shared by sides with equal seeds)
    eliminates the seed columns, each with its u-derivative, in ascending
    energy.  Column s gives w_s = f_s'/f_s, maps each later column by
    f_j <- (f_j' - w_s f_j, (lam_j - lam_s + w_s^2) f_j - w_s f_j' + f_{j-1}),
    lam = kappa^2, and the offset U = V - c by U <- -U - 2 lam_s + 2 w_s^2,
    so V = c + U.  Each level of the member is one more column
    (`_CrumColumn`), carried through the same w_s in O(k).

    Far from the wall the columns are (sinh kappa u, kappa cosh kappa u)
    with chain term 0, each divided by its sinh kappa u but an eigenfunction's:
    U and w see no column's scale, and (1, kappa coth kappa u) stays finite
    past the float range.  Near it, where those cancel, they are the divided
    differences G_j = g[lam_0..lam_j] of g(lam, u) = sinh(sqrt(lam) u)/sqrt(lam),
    whose G_j'' = lam_j G_j + G_{j-1} gives the chain term; a level's is
    the last seed column at each step, which the table keeps.  U and w agree
    in both bases.  The crossover X = |kappa|_max u = min(n (n - 1)/4, 9)
    for n columns was measured against a 40-digit referee
    (docs/decisions.md).  V has n = k; a level has n = k + 1 with its own
    kappa in the max, so at one x a level may read the near table where V
    reads the far one.  The series reaches the levels' crossover, no further.
    """

    def __init__(self, c: complex, sign: float, attr: str, kappas: tuple):
        self.c, self.sign, self.attr = c, sign, attr  # the well's value on this side; +1 on the right
        self.kappas = kappas
        self.lams = lams = [k * k for k in self.kappas]
        self.steps = [(lam, [m - lam for m in lams[s + 1:]]) for s, lam in enumerate(lams)]
        k = len(lams)
        self.v_buckets = min(k * (k - 1) // 2, 18)  # X-buckets below V's crossover
        self.buckets = min(k * (k + 1) // 2, 18)  # and below a level's, never fewer
        self.per_u = 2 * max((abs(kappa) for kappa in self.kappas), default=0.0)  # bucket = int(|u| per_u)
        self.series = self.h = None  # built on first use

    def _series(self):
        """Per bucket, the Horner coefficients of seed columns 1..k-1, and in
        self.h the h_d of all seeds that a level's column extends."""
        if self.series is None:
            self.h = [1.0] + [0.0] * (_series_terms(self.buckets - 1) - 1)
            columns = []
            for j, lam in enumerate(self.lams):
                self.h = _extend(self.h, lam)
                if j:
                    columns.append(_horner(self.h, j, self.buckets))
            self.series = [[c[b] for c in columns] for b in range(self.buckets)]
        return self.series

    def _columns(self, u, bucket, lib):
        """Seed columns at u (an array if lib is numpy), far basis for bucket -1."""
        fs, ds = [], []
        if bucket < 0:
            for k in self.kappas:
                fs.append(1.0)
                ds.append(k / lib.tanh(k * u))
            return fs, ds
        k = self.kappas[0]
        fs.append(lib.sinh(k * u) / k)
        ds.append(lib.cosh(k * u))
        t = power = u * u
        for coefficients in self._series()[bucket]:
            value = slope = 0j
            for a, b in coefficients:
                value = value * t + a
                slope = slope * t + b
            fs.append(value * power * u)
            ds.append(slope * power)
            power = power * t
        return fs, ds

    def potential(self, x: float) -> complex:
        u = 1.0 - self.sign * x
        return self.c + _seed_table(self, x, int(abs(u) * self.per_u) < self.v_buckets)[0]

    def potential_array(self, x):
        """V over a float64 numpy array of x, each bucket's points at once."""
        import numpy as np  # callers that pass arrays have it loaded already

        u = 1.0 - self.sign * x
        buckets = (abs(u) * self.per_u).astype(int)
        buckets[buckets >= self.v_buckets] = -1
        V = np.empty(u.shape, dtype=np.complex128)
        for bucket in np.unique(buckets).tolist():
            points = buckets == bucket
            fs, ds = self._columns(u[points], bucket, np)
            V[points] = self.c + _darboux(fs, ds, self.steps, bucket >= 0)[0]
        return V


@lru_cache(maxsize=_SEED_TABLES)
def _seed_table(side: _CrumSide, x: float, near: bool):
    """`_darboux` of the side's seed columns at x, in the near-wall basis if near.
    Every reader of the side at x gets the same lists: they are read-only."""
    u = 1.0 - side.sign * x
    fs, ds = side._columns(u, int(abs(u) * side.per_u) if near else -1, cmath)
    return _darboux(fs, ds, side.steps, near)


class _CrumColumn:
    """One level's column on a side, carried through the side's seed tables."""

    def __init__(self, side: _CrumSide, level: SpectralLevel):
        self.side, self.energy = side, level.energy
        self.kappa = kappa = getattr(level, side.attr).value
        self.dlams = [kappa * kappa - lam for lam in side.lams]
        self.per_u = max(side.per_u, 2 * abs(kappa))
        self.scale = kappa * math.prod(self.dlams)  # the near basis's column over the far one's
        self.series = None  # built on first use

    def _column(self, x: float, unit: bool):
        """(f, f', U) at x after the seeds, in the far basis's normalization (the near
        basis below the level's crossover); with unit, a far-basis column is divided
        by its sinh kappa u.  ConvergenceError where f or f' leaves the float range."""
        side = self.side
        u = 1.0 - side.sign * x
        bucket = int(abs(u) * self.per_u)
        U, ws, w2s, last = _seed_table(side, x, bucket < side.buckets) if side.steps else _NO_SEEDS
        if bucket >= side.buckets:
            z = self.kappa * u
            try:
                if unit:
                    f, d = 1.0, self.kappa / cmath.tanh(z)
                else:
                    f, d = cmath.sinh(z), self.kappa * cmath.cosh(z)
            except OverflowError:  # cmath's sinh and cosh; products go to inf instead
                f = d = math.inf
            for w, w2, dlam in zip(ws, w2s, self.dlams):
                f, d = d - w * f, (dlam + w2) * f - w * d
        else:
            if self.series is None:
                side._series()  # and with it side.h, the seeds' h_d
                self.series = _horner(_extend(side.h, self.kappa * self.kappa), len(ws), side.buckets)
            t = u * u
            value = slope = 0j
            for a, b in self.series[bucket]:
                value = value * t + a
                slope = slope * t + b
            power = t ** len(ws)
            f, d = value * power * u, slope * power
            for w, w2, dlam, prev in zip(ws, w2s, self.dlams, last):
                f, d = d - w * f, (dlam + w2) * f - w * d + prev
            f, d = f * self.scale, d * self.scale
        if not (cmath.isfinite(f) and cmath.isfinite(d)):
            raise ConvergenceError(f"Crum table overflows at coupling {abs(side.c)!r}, "
                                   f"x = {x!r}: sinh(kappa u) is past the float range",
                                   stage="Crum table", iterate=x)
        return f, d, U

    def eigenfunction(self, x: float):
        """(psi, psi') in x, over the origin constant norm (wavefunctions.origin_scales)."""
        f, d, _ = self._column(x, False)
        return f / self.norm, d * -self.side.sign / self.norm

    def superpotential(self, x: float):
        """(W, W') of eliminating this level: W = -psi'/psi, W' = W^2 - V + E_f."""
        f, d, U = self._column(x, True)
        w = self.side.sign * d / f
        return w, w * w - (self.side.c + U) + self.energy


# one object per equal side, so the seed-table cache hashes sides by identity;
# hierarchy_relations_check holds 12 at once, 8 of them distinct (both orders
# share the well and member 3), and an evicted side builds its own
_side = lru_cache(maxsize=32)(_CrumSide)


def _sides(Z: float, seeds):
    """The right and left _CrumSide of the levels `seeds`."""
    return [_side(c, sign, attr, tuple(getattr(lv, attr).value for lv in seeds))
            for c, sign, attr in ((complex(0.0, -Z), 1.0, "kappa_right"),
                                  (complex(0.0, Z), -1.0, "kappa_left"))]


def _canonical(levels) -> list:
    # V and psi depend only on the set: both orders that eliminate a pair give one member
    return sorted(levels, key=lambda lv: (lv.energy.real, lv.energy.imag))


def _crum_potential(sides, eliminated) -> PiecewisePotential:
    right, left = sides
    # pair members are exact conjugates (spectral_core); real levels have Im E = 0
    energies = [lv.energy for lv in eliminated]
    return PiecewisePotential(right.potential, left.potential, len(eliminated) + 1,
                              all(E.conjugate() in energies for E in energies),
                              (right.potential_array, left.potential_array))


def square_well_potential(Z: float) -> PiecewisePotential:
    """The well itself: -iZ on the right half, +iZ on the left."""
    return PiecewisePotential(lambda x: complex(0.0, -Z), lambda x: complex(0.0, Z), 1, True)


def _elim_level(spectrum: Spectrum, choice: PlanChoice) -> SpectralLevel:
    """The first level of the branch `choice` names (the lowest real one for "real")."""
    want = {PlanChoice.LOWEST_REAL: Branch.REAL, PlanChoice.COMPLEX_LOWER: Branch.COMPLEX_PAIR_LOWER,
            PlanChoice.COMPLEX_UPPER: Branch.COMPLEX_PAIR_UPPER}[choice]
    for lv in spectrum.levels:
        if lv.branch is want:
            return lv
    raise IllegalPlanError("no real level left to eliminate" if want is Branch.REAL
                           else f"no {want.value} level in the spectrum")


def intertwine(W: Superpotential, psi: PiecewiseEigenfunction) -> PiecewiseEigenfunction:
    """Apply d/dx + W and renormalize at the origin.

    A cross-check of the hierarchy's own eigenfunctions.  The derivative of
    the image needs no W': with W' = W^2 - V + E_f the chain rule collapses
    to phi' = (W^2 + E_f - E) psi + W psi'.  Applying the operator to the
    eliminated level itself raises LevelAnnihilated.  The image keeps
    psi's level, which the partner's spectrum holds one place lower when it
    lies above the eliminated one.
    """
    E = psi.level.energy
    Ef = W.factorization_energy

    def image(side, w_side):
        def ev(x):
            p, d = side(x)
            w = w_side(x)[0]
            return d + w * p, (w ** 2 + Ef - E) * p + w * d
        return ev

    right, left = image(psi.right, W.right), image(psi.left, W.left)
    probe = [(psi.value_and_slope(x), W(x)) for x in _ANNIHILATION_PROBE]
    scale = max(abs(d) + abs(w * p) for (p, d), w in probe)
    if max(abs(d + w * p) for (p, d), w in probe) < 1e-10 * scale:
        raise LevelAnnihilated(f"the level at E = {E!r} is the factorization level")
    return normalize_sides(psi.level, right, left)


def _eigenfunction(level: SpectralLevel, sides) -> PiecewiseEigenfunction:
    """The eigenfunction of `level` on the member with these sides: a column per side."""
    right, left = columns = [_CrumColumn(side, level) for side in sides]
    right.norm, left.norm = origin_scales(*((f, d * -col.side.sign) for col in columns
                                            for f, d, _ in [col._column(0.0, False)]))
    return PiecewiseEigenfunction(level, right.eigenfunction, left.eigenfunction)


def square_well_eigenfunction(level: SpectralLevel) -> PiecewiseEigenfunction:
    """Eigenfunction of the well itself, the member with no seeds: sinh[rho(1-x)] right,
    sinh[sigma(1+x)] left.  The sides' c = -iZ = rho^2 + E names Z only in an overflow."""
    Z = -(level.kappa_right.value ** 2 + level.energy).imag
    return _eigenfunction(level, _sides(Z, []))


def build_hierarchy(Z: float, plan: EliminationPlan, depth: int, levels: int = 8):
    """Member list of the partner chain; member 1 is the well with `levels` levels.

    Each step eliminates the planned level, so member m keeps
    levels - m + 1 of them: the very level objects of member m - 1 but the
    eliminated one.  An exhausted or illegal plan step raises
    IllegalPlanError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if levels < depth:
        raise ValueError("need at least `depth` levels so every member keeps one")
    if len(plan.choices) < depth - 1:
        raise IllegalPlanError(f"plan has {len(plan.choices)} steps, depth {depth} needs {depth - 1}")
    return _chain(classify_spectrum(Z, levels), plan, depth)


def _chain(spectrum: Spectrum, plan: EliminationPlan, depth: int):
    """Members 1..depth of the chain `plan` (depth - 1 steps or more) makes of the well's spectrum."""
    Z = spectrum.coupling
    eliminated = ()
    members = []
    for m in range(1, depth + 1):
        # V, every psi_n and W of a member read one pair of sides, and so share its seed tables
        sides = _sides(Z, _canonical(eliminated))
        potential = _crum_potential(sides, eliminated) if eliminated else square_well_potential(Z)
        choice = plan.choices[m - 1] if m - 1 < len(plan.choices) else None
        W = None
        if choice is not None:
            level = _elim_level(spectrum, choice)
            W = Superpotential(*(_CrumColumn(side, level).superpotential for side in sides), level.energy)
        # the defaults bind this member's levels and sides, not the loop's last
        members.append(HierarchyMember(
            m, potential, W, spectrum,
            lambda n, levels=spectrum.levels, sides=sides: _eigenfunction(levels[n], sides), eliminated))
        if m == depth:
            break
        eliminated += (level,)
        spectrum = Spectrum(Z, tuple(lv for lv in spectrum.levels if lv is not level))
    return members


def hierarchy_relations_check(Z: float, levels: int = 3) -> dict:
    """Grid deviations between the two pair-elimination orders at coupling Z.

    Valid between the first two critical couplings, where exactly one pair
    is complex.  Reports the member-2 mirror relation, the member-3
    coincidence, eigenfunction mirror ratios, and the PT diagnostics of the
    lower-first chain's members, for the lowest `levels` >= 1 levels of each
    member.  Numbers are reported as found; the caller judges them.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    c0 = find_critical_coupling(0)
    c1 = find_critical_coupling(1)
    if not c0.z_crit < Z < c1.z_crit:
        raise ValueError(f"need a coupling in ({c0.z_crit:.4f}, {c1.z_crit:.4f})")
    spectrum = classify_spectrum(Z, levels + 2)
    lower, upper = PlanChoice.COMPLEX_LOWER, PlanChoice.COMPLEX_UPPER
    lower_first = _chain(spectrum, EliminationPlan((lower, upper)), 3)
    upper_first = _chain(spectrum, EliminationPlan((upper, lower)), 3)
    grid = chebyshev_grid(101)
    mirrored = [-x for x in grid]

    report = {"coupling": Z}
    v2a, v2b = lower_first[1].potential, upper_first[1].potential
    report["member2_mirror_dev"] = max(
        abs(v2b(x) - complex(v2a(-x)).conjugate()) for x in grid)
    report["member3_same_dev"] = max(
        abs(upper_first[2].potential(x) - lower_first[2].potential(x)) for x in grid)
    report["member2_pt_symmetric"] = lower_first[1].potential.pt_symmetric
    report["member3_pt_symmetric"] = lower_first[2].potential.pt_symmetric

    # Each eigenfunction is sampled once at each point it needs: the
    # lower-first member 2 at -x (level 0 at x too), the upper-first one at
    # x, and member 3 at both.  Both orders' member 3 is one member (the
    # same levels on one interned pair of sides), so its mirror ratio is its
    # own PT ratio.
    mirror, member3_pt = {}, {}
    for n in range(levels):
        psi, image = lower_first[1].eigenfunctions(n), upper_first[1].eigenfunctions(n)
        at_minus_x = [psi(x) for x in mirrored]
        if n == 0:
            member2_defect = sampled_pt_defect([psi(x) for x in grid], at_minus_x)
        mu, var = ratio_stats([v.conjugate() for v in at_minus_x], [image(x) for x in grid])
        mirror[f"member2_level{n}"] = {"ratio_variance": var,
                                       "ratio_imag_frac": abs(mu.imag) / abs(mu)}
    for n in range(levels):
        psi = lower_first[2].eigenfunctions(n)
        at_x, at_minus_x = [psi(x) for x in grid], [psi(x) for x in mirrored]
        mu, var = ratio_stats([v.conjugate() for v in at_minus_x], at_x)
        mirror[f"member3_level{n}"] = {"ratio_variance": var,
                                       "ratio_imag_frac": abs(mu.imag) / abs(mu)}
        member3_pt[f"level{n}"] = {"pt_ratio_variance": var,
                                   "pt_defect": sampled_pt_defect(at_x, at_minus_x)}
    report["eigenfunction_mirror"] = mirror
    report["member3_eigenfunction_pt"] = member3_pt
    report["member2_eigenfunction_pt_defect"] = member2_defect
    return report
