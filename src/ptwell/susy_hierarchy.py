"""Partner-potential chains driven by an elimination plan.

Each step removes one level from the current spectrum (the lowest real one,
or either member of a complex pair), builds the superpotential of the
removed level, and hands the remaining levels to the next member.  Members
one to three use closed forms; deeper members fall back to the logarithmic
derivative of the lowest retained eigenfunction.
"""
import cmath
from dataclasses import dataclass, replace
from enum import Enum

from .spectral_core import (Branch, SpectralLevel, Spectrum, classify_spectrum,
                            cosech, coth, find_critical_coupling,
                            indexed_spectrum)
from .wavefunctions import (PiecewiseEigenfunction, chebyshev_grid,
                            normalize_sides, pt_defect, pt_transform,
                            ratio_stats, square_well_eigenfunction)


class IllegalPlanError(Exception):
    """An elimination choice that the current spectrum cannot honor."""


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


class Piecewise:
    """A function of x with a right branch on x >= 0 and a left one on x < 0.

    Subclasses provide right_eval and left_eval.
    """

    def __call__(self, x: float) -> complex:
        # x = 0 takes the right branch
        return self.right_eval(x) if x >= 0 else self.left_eval(x)


@dataclass(frozen=True, eq=False)
class PiecewisePotential(Piecewise):
    right_eval: object
    left_eval: object
    endpoint_exponent: int
    pt_symmetric: bool


@dataclass(frozen=True, eq=False)
class Superpotential(Piecewise):
    """W by side; right_deriv(x, w) and left_deriv(x, w) give W' at x from w = W(x)."""
    right_eval: object
    left_eval: object
    factorization_energy: complex
    right_deriv: object = None
    left_deriv: object = None

    def derivative(self, x: float) -> complex:
        if x >= 0:
            return self.right_deriv(x, self.right_eval(x))
        return self.left_deriv(x, self.left_eval(x))


@dataclass(frozen=True, eq=False)
class HierarchyMember:
    depth: int
    potential: PiecewisePotential
    superpotential: Superpotential
    spectrum: Spectrum
    eigenfunctions: object
    plan_prefix: EliminationPlan
    next_choice: PlanChoice = None
    eliminated: tuple = ()


_PT_PROBE = (0.15, 0.35, 0.55, 0.75, 0.9)
_ANNIHILATION_PROBE = tuple(chebyshev_grid(50))


def _probe_pt_symmetric(right_eval, left_eval) -> bool:
    vals = [right_eval(x) for x in _PT_PROBE]
    scale = max(1.0, max(abs(v) for v in vals))
    dev = max(abs(v - complex(left_eval(-x)).conjugate())
              for v, x in zip(vals, _PT_PROBE))
    return dev <= 1e-8 * scale


def square_well_potential(Z: float) -> PiecewisePotential:
    """The well itself: -iZ on the right half, +iZ on the left."""
    return PiecewisePotential(lambda x: complex(0.0, -Z), lambda x: complex(0.0, Z), 1, True)


def _lowest_real_index(spectrum: Spectrum) -> int:
    for lv in spectrum.levels:
        if lv.branch is Branch.REAL:
            return lv.index
    raise IllegalPlanError("no real level left to eliminate")


def _elim_index(spectrum: Spectrum, choice: PlanChoice) -> int:
    if choice is PlanChoice.LOWEST_REAL:
        return _lowest_real_index(spectrum)
    want = Branch.COMPLEX_PAIR_LOWER if choice is PlanChoice.COMPLEX_LOWER else Branch.COMPLEX_PAIR_UPPER
    for lv in spectrum.levels:
        if lv.branch is want:
            return lv.index
    raise IllegalPlanError(f"no {want.value} level in the spectrum")


def _drop_level(spectrum: Spectrum, idx: int) -> Spectrum:
    return indexed_spectrum(spectrum.coupling, [lv for lv in spectrum.levels if lv.index != idx])


def superpotential_W1(spectrum: Spectrum, eliminate: int) -> Superpotential:
    """Superpotential of the well built on one eliminated level.

    W_R = rho coth[rho(1-x)], W_L = -sigma coth[sigma(1+x)]; simple poles at
    the walls make the partner blow up there.  Only the lowest real level or
    a complex-pair member is a legal choice.
    """
    if not 0 <= eliminate < len(spectrum.levels):
        raise IllegalPlanError(f"no level {eliminate} in the spectrum")
    lvl = spectrum.levels[eliminate]
    if lvl.branch is Branch.REAL and eliminate != _lowest_real_index(spectrum):
        raise IllegalPlanError("only the lowest real level can be eliminated")
    rho = lvl.kappa_right.value
    sigma = lvl.kappa_left.value
    return Superpotential(
        lambda x: rho * coth(rho * (1.0 - x)),
        lambda x: -sigma * coth(sigma * (1.0 + x)),
        lvl.energy,
        lambda x, w: rho ** 2 * cosech(rho * (1.0 - x)) ** 2,
        lambda x, w: sigma ** 2 * cosech(sigma * (1.0 + x)) ** 2)


def partner_potential(W: Superpotential, endpoint_exponent: int = None) -> PiecewisePotential:
    """V = W^2 + W' + E_f composed from the superpotential's analytic parts.

    The endpoint exponent is inferred from the wall singularity strength
    when not supplied.
    """
    Ef = W.factorization_energy

    def right(x, W=W, Ef=Ef):
        w = W.right_eval(x)
        return w ** 2 + W.right_deriv(x, w) + Ef

    def left(x, W=W, Ef=Ef):
        w = W.left_eval(x)
        return w ** 2 + W.left_deriv(x, w) + Ef

    if endpoint_exponent is None:
        c = ((1e-4) ** 2 * right(1.0 - 1e-4)).real
        endpoint_exponent = round((1.0 + (1.0 + 4.0 * c) ** 0.5) / 2.0)
    return PiecewisePotential(right, left, endpoint_exponent, _probe_pt_symmetric(right, left))


def _closed_V2(Z: float, a: SpectralLevel) -> PiecewisePotential:
    # stable rearrangement of W1^2 + W1' + E: the coth^2 pieces collapse to cosech^2
    ra, sa = a.kappa_right.value, a.kappa_left.value

    def right(x):
        return -1j * Z + 2.0 * ra ** 2 * cosech(ra * (1.0 - x)) ** 2

    def left(x):
        return 1j * Z + 2.0 * sa ** 2 * cosech(sa * (1.0 + x)) ** 2

    return PiecewisePotential(right, left, 2, _probe_pt_symmetric(right, left))


def _pair_correction(w: complex, ra: complex, rb: complex) -> complex:
    """The -2(rb^2-ra^2) num/den^2 term of the two-level partner potential.

    num cancels to O(w^4) and den to O(w^3) at the wall; below the threshold
    both come from subtraction-free series (the whole term is N / (4 w^6 T^2)
    with N, T built from complete homogeneous symmetric polynomials).
    """
    if abs(w) * (abs(ra) + abs(rb)) > 1.0:
        sha, shb = cmath.sinh(ra * w), cmath.sinh(rb * w)
        num = rb ** 2 * sha ** 2 - ra ** 2 * shb ** 2
        den = rb * cmath.cosh(rb * w) * sha - ra * cmath.cosh(ra * w) * shb
        return -2.0 * (rb ** 2 - ra ** 2) * num / den ** 2
    A, B = ra * ra, rb * rb
    w2 = 4.0 * w * w
    c, h, bpow = w2 * w2 / 24.0, 1.0 + 0j, 1.0 + 0j
    n_sum = c * h
    for k in range(3, 30):
        c *= w2 / ((2 * k - 1) * (2 * k))
        bpow *= B
        h = A * h + bpow
        term = c * h
        n_sum += term
        if abs(term) <= 1e-18 * abs(n_sum):
            break
    m2, p2 = ((ra - rb) * w) ** 2, ((ra + rb) * w) ** 2
    t_sum, c, h, bpow = 1.0 / 6.0 + 0j, 1.0 / 6.0, 1.0 + 0j, 1.0 + 0j
    for k in range(2, 30):
        c /= (2 * k) * (2 * k + 1)
        bpow *= p2
        h = m2 * h + bpow
        term = c * h
        t_sum += term
        if abs(term) <= 1e-18 * abs(t_sum):
            break
    return n_sum / (4.0 * w ** 6 * t_sum * t_sum)


def _closed_V3(Z: float, a: SpectralLevel, b: SpectralLevel) -> PiecewisePotential:
    ra, sa = a.kappa_right.value, a.kappa_left.value
    rb, sb = b.kappa_right.value, b.kappa_left.value

    def right(x):
        return -1j * Z + _pair_correction(1.0 - x, ra, rb)

    def left(x):
        return 1j * Z + _pair_correction(1.0 + x, sa, sb)

    return PiecewisePotential(right, left, 3, _probe_pt_symmetric(right, left))


def _psi2(level: SpectralLevel, a: SpectralLevel) -> PiecewiseEigenfunction:
    """Second-member eigenfunction, node-safe wall-coordinate form."""
    rj, sj = level.kappa_right.value, level.kappa_left.value
    ra, sa = a.kappa_right.value, a.kappa_left.value

    def side(j, av, sign):
        # wall coordinate u = 1 - sign x; (f, df/du) becomes (psi, psi') with psi' = -sign df/du
        def ev(x):
            u = 1.0 - sign * x
            sh, ch = cmath.sinh(j * u), cmath.cosh(j * u)
            ct, cs = coth(av * u), cosech(av * u)
            f = j * ch - av * ct * sh
            d = j ** 2 * sh + av ** 2 * cs ** 2 * sh - av * j * ct * ch
            return f, (-d if sign > 0 else d)
        return ev

    return normalize_sides(level, 2, side(rj, ra, 1.0), side(sj, sa, -1.0))


def _psi3(level: SpectralLevel, a: SpectralLevel, b: SpectralLevel) -> PiecewiseEigenfunction:
    """Third-member eigenfunction; the denominator never vanishes inside the well."""
    rj, sj = level.kappa_right.value, level.kappa_left.value
    ra, sa = a.kappa_right.value, a.kappa_left.value
    rb, sb = b.kappa_right.value, b.kappa_left.value

    def side(j, av, bv, sign):
        c0 = j * j - av * av
        c1 = bv * bv - av * av

        # wall coordinate u = 1 - sign x; (f, df/du) becomes (psi, psi') with psi' = -sign df/du
        def ev(x):
            u = 1.0 - sign * x
            shj, chj = cmath.sinh(j * u), cmath.cosh(j * u)
            sha, cha = cmath.sinh(av * u), cmath.cosh(av * u)
            shb, chb = cmath.sinh(bv * u), cmath.cosh(bv * u)
            n2 = j * chj * sha - av * cha * shj
            den = bv * chb * sha - av * cha * shb  # the den of _pair_correction(u, av, bv)
            f = c0 * shj - c1 * n2 * shb / den
            dn2 = c0 * shj * sha
            dden = c1 * shb * sha
            d = (c0 * j * chj
                 - c1 * ((dn2 * shb + n2 * bv * chb) / den - n2 * shb * dden / den ** 2))
            return f, (-d if sign > 0 else d)
        return ev

    return normalize_sides(level, 3, side(rj, ra, rb, 1.0), side(sj, sa, sb, -1.0))


def intertwine(W: Superpotential, psi: PiecewiseEigenfunction) -> PiecewiseEigenfunction:
    """Apply d/dx + W and renormalize at the origin.

    The derivative of the image needs no W': with W' = W^2 - V + E_f the
    chain rule collapses to phi' = (W^2 + E_f - E) psi + W psi'.  Applying
    the operator to the eliminated level itself raises LevelAnnihilated.
    """
    E = psi.level.energy
    Ef = W.factorization_energy

    def image(side, w_eval):
        def ev(x):
            p, d = side(x)
            w = w_eval(x)
            return d + w * p, (w ** 2 + Ef - E) * p + w * d
        return ev

    right, left = image(psi.right, W.right_eval), image(psi.left, W.left_eval)
    probe = [(psi.value_and_slope(x), W(x)) for x in _ANNIHILATION_PROBE]
    scale = max(abs(d) + abs(w * p) for (p, d), w in probe)
    if max(abs(d + w * p) for (p, d), w in probe) < 1e-10 * scale:
        raise LevelAnnihilated(f"level {psi.level.index} is the factorization level")

    key_new = (E.real, E.imag) > (Ef.real, Ef.imag)
    lvl = SpectralLevel(psi.level.index - 1 if key_new else psi.level.index,
                        E, psi.level.kappa_right, psi.level.kappa_left, psi.level.branch)
    return normalize_sides(lvl, psi.member_depth + 1, right, left)


def _logderiv_superpotential(psi: PiecewiseEigenfunction, V: PiecewisePotential) -> Superpotential:
    E = psi.level.energy

    def make(side, vfun):
        def w_eval(x):
            p, d = side(x)
            if p == 0:
                raise ZeroDivisionError("superpotential pole: node of the generating eigenfunction")
            return -d / p

        def w_deriv(x, w):
            return w * w - vfun(x) + E

        return w_eval, w_deriv

    wR, dR = make(psi.right, V.right_eval)
    wL, dL = make(psi.left, V.left_eval)
    return Superpotential(wR, wL, E, dR, dL)


def superpotential_next(member: HierarchyMember) -> Superpotential:
    """Superpotential taking this member to the next, per its pending plan choice.

    Depth 2 uses the closed two-level form; deeper members divide out the
    eigenfunction being eliminated.
    """
    if member.next_choice is None:
        raise IllegalPlanError("member has no pending elimination")
    e = _elim_index(member.spectrum, member.next_choice)
    lvl = member.spectrum.levels[e]
    if member.depth == 1:
        return superpotential_W1(member.spectrum, e)
    if member.depth == 2:
        a = member.eliminated[0]
        ra, sa = a.kappa_right.value, a.kappa_left.value
        rb, sb = lvl.kappa_right.value, lvl.kappa_left.value

        def wR(x):
            w = 1.0 - x
            return -ra * coth(ra * w) + (rb ** 2 - ra ** 2) / (rb * coth(rb * w) - ra * coth(ra * w))

        def wL(x):
            v = 1.0 + x
            return sa * coth(sa * v) - (sb ** 2 - sa ** 2) / (sb * coth(sb * v) - sa * coth(sa * v))

        def dR(x, w):
            return w * w - member.potential.right_eval(x) + lvl.energy

        def dL(x, w):
            return w * w - member.potential.left_eval(x) + lvl.energy

        return Superpotential(wR, wL, lvl.energy, dR, dL)
    return _logderiv_superpotential(member.eigenfunctions(e), member.potential)


def _eig_builder(depth, spectrum, eliminated, prev_builder=None, W=None, e_idx=None):
    if depth == 1:
        return lambda n: square_well_eigenfunction(spectrum.levels[n])
    if depth == 2:
        a = eliminated[0]
        return lambda n: _psi2(spectrum.levels[n], a)
    if depth == 3:
        a, b = eliminated[0], eliminated[1]
        return lambda n: _psi3(spectrum.levels[n], a, b)

    def build(n):
        parent = n if n < e_idx else n + 1
        return intertwine(W, prev_builder(parent))

    return build


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
    eliminated = []
    eig = _eig_builder(1, spectrum, eliminated)
    members = []
    for m in range(1, depth + 1):
        choice = plan.choices[m - 1] if m - 1 < len(plan.choices) else None
        member = HierarchyMember(m, potential, None, spectrum, eig,
                                 EliminationPlan(tuple(plan.choices[:m - 1])),
                                 choice, tuple(eliminated))
        if choice is not None:
            member = replace(member, superpotential=superpotential_next(member))
        members.append(member)
        if m == depth:
            break
        e_idx = _elim_index(spectrum, choice)
        elim_level = spectrum.levels[e_idx]
        eliminated.append(elim_level)
        child = _drop_level(spectrum, e_idx)
        if m + 1 == 2:
            potential = _closed_V2(Z, elim_level)
        elif m + 1 == 3:
            potential = _closed_V3(Z, eliminated[0], eliminated[1])
        else:
            potential = partner_potential(member.superpotential, endpoint_exponent=m + 1)
        eig = _eig_builder(m + 1, child, eliminated, prev_builder=eig,
                           W=member.superpotential, e_idx=e_idx)
        spectrum = child
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

    mirror = {}
    for m in (2, 3):
        for n in range(levels):
            fa = lower_first[m - 1].eigenfunctions(n)
            fb = upper_first[m - 1].eigenfunctions(n)
            mu, var = ratio_stats(pt_transform(fa), fb, grid)
            mirror[f"member{m}_level{n}"] = {
                "ratio_variance": var, "ratio_imag_frac": abs(mu.imag) / abs(mu)}
    report["eigenfunction_mirror"] = mirror

    member3_pt = {}
    for n in range(levels):
        f = lower_first[2].eigenfunctions(n)
        mu, var = ratio_stats(pt_transform(f), f, grid)
        member3_pt[f"level{n}"] = {
            "pt_ratio_variance": var, "pt_defect": pt_defect(f, grid)}
    report["member3_eigenfunction_pt"] = member3_pt
    report["member2_eigenfunction_pt_defect"] = pt_defect(
        lower_first[1].eigenfunctions(0), grid)
    return report
