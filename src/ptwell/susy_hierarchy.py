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

One evaluator per side (`_CrumSide`) gives a member's potential, its
eigenfunctions and its next step's superpotential.  Member 1 is the well.
Since sigma(E) = conj rho(E*), a member is PT-symmetric exactly when its
eliminated energies are closed under conjugation.
"""
import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .spectral_core import (Branch, IllegalPlanError, SpectralLevel, Spectrum,
                            classify_spectrum, find_critical_coupling,
                            indexed_spectrum)
from .wavefunctions import (PiecewiseEigenfunction, PiecewisePair, chebyshev_grid,
                            normalize_sides, pt_defect, pt_transform,
                            ratio_stats, square_well_eigenfunction)


class LevelAnnihilated(Exception):
    """Intertwining was applied to the eliminated level itself."""


class PlanChoice(Enum):
    LOWEST_REAL = "real"
    COMPLEX_LOWER = "clower"
    COMPLEX_UPPER = "cupper"


@dataclass(frozen=True)
class EliminationPlan:
    choices: tuple

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


@dataclass(frozen=True, eq=False)
class PiecewisePotential:
    """V by side, right_eval on x >= 0 and left_eval on x < 0.  arrays, when
    given, is the (right, left) pair of the same evaluators over numpy
    arrays of x, for samplers that have numpy loaded."""
    right_eval: object
    left_eval: object
    endpoint_exponent: int
    pt_symmetric: bool
    arrays: tuple = None

    def __call__(self, x: float) -> complex:
        # x = 0 takes the right branch
        return self.right_eval(x) if x >= 0 else self.left_eval(x)


@dataclass(frozen=True, eq=False)
class Superpotential(PiecewisePair):
    """W by side: right(x) and left(x) each return (W, W') at x."""
    right: object
    left: object
    factorization_energy: complex


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


def _darboux(fs, ds, steps, chain):
    """Eliminate the seed columns of (fs, ds) = (f, df/du), complex numbers or
    numpy arrays, in place.  steps holds per seed s lam_s and lam_j - lam_s
    for the later columns j; chain says whether column j carries f_{j-1}.
    Returns U = V - V_1 before and after the last step, and its w = f_s'/f_s."""
    U = U_prev = w = 0j
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
        else:  # most points: a fifth faster than testing chain per column
            for dlam in dlams:
                f = fs[j]
                d = ds[j]
                fs[j] = d - w * f
                ds[j] = (dlam + w2) * f - w * d
                j += 1
        U_prev, U = U, 2.0 * (w2 - lam) - U
        s += 1
    return U_prev, w, U


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


def _series(lams, buckets: int):
    """Per bucket and column j >= 1, Horner coefficients (value, slope), highest
    power first, of G_j = u^(2j+1) sum_d h_d t^d/(2d+2j+1)! and G_j' = u^(2j)
    sum_d h_d t^d/(2d+2j)!, t = u^2, h_d complete homogeneous in lam_0..lam_j."""
    terms = _series_terms(buckets - 1)
    h = [1.0] + [0.0] * (terms - 1)
    columns = []
    for j, lam in enumerate(lams):
        acc = 0j
        for d in range(terms):  # h_d(lam_0..lam_j) = h_d(lam_0..lam_j-1) + lam_j h_d-1(lam_0..lam_j)
            acc = h[d] = h[d] + lam * acc
        if j:
            columns.append([(h[d] * _INV_FACTORIAL[2 * d + 2 * j + 1], h[d] * _INV_FACTORIAL[2 * d + 2 * j])
                            for d in reversed(range(terms))])
    return [[c[terms - _series_terms(b):] for c in columns] for b in range(buckets)]


class _CrumSide:
    """Crum's transform of sinh(kappa u) on one side, u = 1 - sign x, by a Darboux table.

    The columns, each with its u-derivative, are the seeds (the eliminated
    levels) and, for an eigenfunction, its level last.  Eliminating column s
    takes w = f_s'/f_s, maps each later column by f_j <- (f_j' - w f_j,
    (lam_j - lam_s + w^2) f_j - w f_j' + f_{j-1}), lam = kappa^2, and the
    offset U = V - V_1 by U <- -U - 2 lam_s + 2 w^2.  Far from the wall the
    columns are (sinh kappa u, kappa cosh kappa u) with chain term 0; near it,
    where those cancel, the divided differences G_j = g[lam_0..lam_j] of
    g(lam, u) = sinh(sqrt(lam) u)/sqrt(lam) (`_series`), whose
    G_j'' = lam_j G_j + G_{j-1} gives the chain term.  U and w agree in both
    bases; the last column differs by kappa_n prod_s (lam_n - lam_s).  The
    crossover X = |kappa|_max u = min(n (n - 1)/4, 9) for n columns was
    measured against a 40-digit referee (docs/decisions.md).
    """

    def __init__(self, c: complex, sign: float, seeds, target=None):
        self.c, self.sign = c, sign  # the well's value on this side; +1 on the right
        self.kappas = list(seeds) + ([target] if target is not None else [])
        lams = [k * k for k in self.kappas]
        self.steps = [(lam, [m - lam for m in lams[s + 1:]]) for s, lam in enumerate(lams[:len(seeds)])]
        self.buckets = min(len(lams) * (len(lams) - 1) // 2, 18)  # X-buckets below the crossover
        self.per_u = 2 * max(abs(k) for k in self.kappas)  # bucket = int(|u| per_u)
        self.scale = 1.0 if target is None else target * math.prod(lams[-1] - m for m in lams[:-1])
        self.lams, self.series = lams, None  # series built on first use

    def _columns(self, u, bucket, lib):
        """Columns at u (an array if lib is numpy), far basis for bucket -1."""
        fs, ds = [], []
        if bucket < 0:
            for k in self.kappas:
                z = k * u
                fs.append(lib.sinh(z))
                ds.append(k * lib.cosh(z))
            return fs, ds
        if self.series is None:
            self.series = _series(self.lams, self.buckets)
        k = self.kappas[0]
        fs.append(lib.sinh(k * u) / k)
        ds.append(lib.cosh(k * u))
        t = power = u * u
        for coefficients in self.series[bucket]:
            value = slope = 0j
            for a, b in coefficients:
                value = value * t + a
                slope = slope * t + b
            fs.append(value * power * u)
            ds.append(slope * power)
            power = power * t
        return fs, ds

    def _table(self, x: float):
        """(fs, ds, (U_prev, w, U), scale to the far basis's last column) at x."""
        u = 1.0 - self.sign * x
        bucket = int(abs(u) * self.per_u)
        bucket = bucket if bucket < self.buckets else -1
        fs, ds = self._columns(u, bucket, cmath)
        return fs, ds, _darboux(fs, ds, self.steps, bucket >= 0), self.scale if bucket >= 0 else 1.0

    def potential(self, x: float) -> complex:
        return self.c + self._table(x)[2][2]

    def eigenfunction(self, x: float):
        """(psi, psi') of the last column."""
        fs, ds, _, scale = self._table(x)
        return fs[-1] * scale, ds[-1] * (-self.sign * scale)

    def potential_array(self, x):
        """V as a numpy array over a sequence of x, each bucket's points at once."""
        import numpy as np  # callers that pass arrays have it loaded already

        u = 1.0 - self.sign * np.asarray(x)
        buckets = (abs(u) * self.per_u).astype(int)
        buckets[buckets >= self.buckets] = -1
        V = np.empty(u.shape, dtype=np.complex128)
        for bucket in np.unique(buckets).tolist():
            points = buckets == bucket
            fs, ds = self._columns(u[points], bucket, np)
            V[points] = self.c + _darboux(fs, ds, self.steps, bucket >= 0)[2]
        return V


def _sides(Z: float, seeds, target=None):
    """The right and left _CrumSide of the levels `seeds`, and of `target`."""
    return [_CrumSide(c, sign, [getattr(lv, attr).value for lv in seeds],
                      None if target is None else getattr(target, attr).value)
            for c, sign, attr in ((complex(0.0, -Z), 1.0, "kappa_right"),
                                  (complex(0.0, Z), -1.0, "kappa_left"))]


def _canonical(levels) -> list:
    # V and psi depend only on the set: both orders that eliminate a pair give one member
    return sorted(levels, key=lambda lv: (lv.energy.real, lv.energy.imag))


def _crum_potential(Z: float, eliminated) -> PiecewisePotential:
    right, left = _sides(Z, _canonical(eliminated))
    # pair members are exact conjugates (spectral_core); real levels have Im E = 0
    energies = [lv.energy for lv in eliminated]
    return PiecewisePotential(right.potential, left.potential, len(eliminated) + 1,
                              all(E.conjugate() in energies for E in energies),
                              (right.potential_array, left.potential_array))


def _crum_superpotential(Z: float, eliminated, level: SpectralLevel) -> Superpotential:
    """W = -psi'/psi of `level` after `eliminated`: sign w of the table that
    eliminates it last; W' = W^2 - V + E_f, V from the same table's earlier
    steps, so each side builds one table per x."""
    E = level.energy

    def side(ev):
        def value_and_slope(x):
            U_prev, w, _ = ev._table(x)[2]
            w *= ev.sign
            return w, w * w - (ev.c + U_prev) + E
        return value_and_slope

    return Superpotential(*map(side, _sides(Z, _canonical(eliminated) + [level])), E)


def square_well_potential(Z: float) -> PiecewisePotential:
    """The well itself: -iZ on the right half, +iZ on the left."""
    return PiecewisePotential(lambda x: complex(0.0, -Z), lambda x: complex(0.0, Z), 1, True)


def _elim_index(spectrum: Spectrum, choice: PlanChoice) -> int:
    """Index of the first level of the branch `choice` names (the lowest real one for "real")."""
    want = {PlanChoice.LOWEST_REAL: Branch.REAL, PlanChoice.COMPLEX_LOWER: Branch.COMPLEX_PAIR_LOWER,
            PlanChoice.COMPLEX_UPPER: Branch.COMPLEX_PAIR_UPPER}[choice]
    for lv in spectrum.levels:
        if lv.branch is want:
            return lv.index
    raise IllegalPlanError("no real level left to eliminate" if want is Branch.REAL
                           else f"no {want.value} level in the spectrum")


def partner_potential(W: Superpotential, endpoint_exponent: int,
                      pt_symmetric: bool) -> PiecewisePotential:
    """V = W^2 + W' + E_f composed from the superpotential's parts.

    A cross-check of the hierarchy's own potentials; the caller states the
    endpoint exponent and PT symmetry, which W alone does not carry.
    """
    Ef = W.factorization_energy

    def side(w_side):
        def V(x):
            w, dw = w_side(x)
            return w ** 2 + dw + Ef
        return V

    return PiecewisePotential(side(W.right), side(W.left), endpoint_exponent, pt_symmetric)


def intertwine(W: Superpotential, psi: PiecewiseEigenfunction) -> PiecewiseEigenfunction:
    """Apply d/dx + W and renormalize at the origin.

    A cross-check of the hierarchy's own eigenfunctions.  The derivative of
    the image needs no W': with W' = W^2 - V + E_f the chain rule collapses
    to phi' = (W^2 + E_f - E) psi + W psi'.  Applying the operator to the
    eliminated level itself raises LevelAnnihilated.
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
        raise LevelAnnihilated(f"level {psi.level.index} is the factorization level")

    key_new = (E.real, E.imag) > (Ef.real, Ef.imag)
    lvl = SpectralLevel(psi.level.index - 1 if key_new else psi.level.index,
                        E, psi.level.kappa_right, psi.level.kappa_left, psi.level.branch)
    return normalize_sides(lvl, psi.member_depth + 1, right, left)


def _eigenfunctions(spectrum: Spectrum, eliminated):
    if not eliminated:
        return lambda n: square_well_eigenfunction(spectrum.levels[n])
    seeds = _canonical(eliminated)
    return lambda n: normalize_sides(spectrum.levels[n], len(seeds) + 1, *(
        side.eigenfunction for side in _sides(0.0, seeds, spectrum.levels[n])))


def build_hierarchy(Z: float, plan: EliminationPlan, depth: int, levels: int = 8):
    """Member list of the partner chain; member 1 is the well with `levels` levels.

    Each step eliminates the planned level, so member m keeps
    levels - m + 1 of them.  An exhausted or illegal plan step raises
    IllegalPlanError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if levels < depth:
        raise ValueError("need at least `depth` levels so every member keeps one")
    if len(plan.choices) < depth - 1:
        raise IllegalPlanError(f"plan has {len(plan.choices)} steps, depth {depth} needs {depth - 1}")
    spectrum = classify_spectrum(Z, levels)
    potential = square_well_potential(Z)
    eliminated = ()
    members = []
    for m in range(1, depth + 1):
        choice = plan.choices[m - 1] if m - 1 < len(plan.choices) else None
        e_idx = None if choice is None else _elim_index(spectrum, choice)
        W = None if choice is None else _crum_superpotential(Z, eliminated, spectrum.levels[e_idx])
        members.append(HierarchyMember(m, potential, W, spectrum, _eigenfunctions(spectrum, eliminated),
                                       eliminated))
        if m == depth:
            break
        eliminated += (spectrum.levels[e_idx],)
        spectrum = indexed_spectrum(spectrum.coupling, [lv for lv in spectrum.levels if lv.index != e_idx])
        potential = _crum_potential(Z, eliminated)
    return members


def hierarchy_relations_check(Z: float, levels: int = 3) -> dict:
    """Grid deviations between the two pair-elimination orders at coupling Z.

    Valid between the first two critical couplings, where exactly one pair
    is complex.  Reports the member-2 mirror relation, the member-3
    coincidence, eigenfunction mirror ratios, and the PT diagnostics of the
    lower-first chain's members.  Numbers are reported as found; the caller
    judges them.
    """
    c0 = find_critical_coupling(0)
    c1 = find_critical_coupling(1)
    if not c0.z_crit < Z < c1.z_crit:
        raise ValueError(f"need a coupling in ({c0.z_crit:.4f}, {c1.z_crit:.4f})")
    lower_first = build_hierarchy(
        Z, EliminationPlan((PlanChoice.COMPLEX_LOWER, PlanChoice.COMPLEX_UPPER)), 3, levels + 2)
    upper_first = build_hierarchy(
        Z, EliminationPlan((PlanChoice.COMPLEX_UPPER, PlanChoice.COMPLEX_LOWER)), 3, levels + 2)
    grid = chebyshev_grid(101)

    report = {"coupling": Z}
    v2a, v2b = lower_first[1].potential, upper_first[1].potential
    report["member2_mirror_dev"] = max(
        abs(v2b(x) - complex(v2a(-x)).conjugate()) for x in grid)
    report["member3_same_dev"] = max(
        abs(upper_first[2].potential(x) - lower_first[2].potential(x)) for x in grid)
    report["member2_pt_symmetric"] = lower_first[1].potential.pt_symmetric
    report["member3_pt_symmetric"] = lower_first[2].potential.pt_symmetric

    # each of these is read at x and -x several times below
    lower = {(m, n): lru_cache(maxsize=None)(lower_first[m - 1].eigenfunctions(n))
             for m in (2, 3) for n in range(levels)}
    mirror = {}
    for m in (2, 3):
        for n in range(levels):
            mu, var = ratio_stats(pt_transform(lower[m, n]),
                                  upper_first[m - 1].eigenfunctions(n), grid)
            mirror[f"member{m}_level{n}"] = {
                "ratio_variance": var, "ratio_imag_frac": abs(mu.imag) / abs(mu)}
    report["eigenfunction_mirror"] = mirror

    member3_pt = {}
    for n in range(levels):
        f = lower[3, n]
        mu, var = ratio_stats(pt_transform(f), f, grid)
        member3_pt[f"level{n}"] = {
            "pt_ratio_variance": var, "pt_defect": pt_defect(f, grid)}
    report["member3_eigenfunction_pt"] = member3_pt
    report["member2_eigenfunction_pt_defect"] = pt_defect(lower[2, 0], grid)
    return report
