"""Complex wavenumber maps, matching-condition roots, critical couplings.

Units: hbar = 2m = 1, well half-width 1.  The well is -iZ on (0,1) and +iZ
on (-1,0) with Dirichlet walls at x = +-1.  Real eigenvalues solve
G(t, Z) = s*sinh(2s) + t*sin(2t) = 0 with s = Z/(2t), E = t^2 - s^2.
Above a critical coupling the lowest pair leaves the real axis and is
found from the two-sided wavenumber condition instead.
"""
import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class ConvergenceError(Exception):
    """A root search or Newton iteration failed to meet its tolerance.

    `stage` names the search or check that failed and `iterate` is the last
    point it reached (for a level count that falls short, the levels it
    found).  Where the search has one, `bracket` is its (low, high)
    interval or search box.
    """

    def __init__(self, message: str, *, stage: str = None, iterate=None, bracket=None):
        super().__init__(message)
        self.stage, self.iterate, self.bracket = stage, iterate, bracket


class IllegalPlanError(Exception):
    """An elimination choice that the current spectrum cannot honor."""


class Branch(Enum):
    REAL = "Real"
    COMPLEX_PAIR_LOWER = "ComplexPairLower"
    COMPLEX_PAIR_UPPER = "ComplexPairUpper"


WaveNumber = namedtuple("WaveNumber", "value")


@dataclass(frozen=True)
class SpectralLevel:
    energy: complex
    kappa_right: WaveNumber
    kappa_left: WaveNumber
    branch: Branch


@dataclass(frozen=True)
class Spectrum:
    """Levels in order; a level's index is its position in `levels`."""
    coupling: float
    levels: tuple

    @property
    def broken_pairs(self) -> tuple:
        """(i, i + 1) for each lower pair member i directly followed by an upper one."""
        levels = self.levels
        return tuple((i, i + 1) for i in range(len(levels) - 1)
                     if levels[i].branch is Branch.COMPLEX_PAIR_LOWER
                     and levels[i + 1].branch is Branch.COMPLEX_PAIR_UPPER)


CriticalCoupling = namedtuple("CriticalCoupling", "nu z_crit t_merge e_merge")


def coth(z: complex) -> complex:
    # sinh/cosh overflow near |Re z| ~ 710; switch to the exponential tail
    if abs(z.real) > 20:
        sgn = 1.0 if z.real > 0 else -1.0
        e = cmath.exp(-2 * sgn * z)
        return sgn * (1 + 2 * e / (1 - e))
    return cmath.cosh(z) / cmath.sinh(z)


def cosech(z: complex) -> complex:
    if abs(z.real) > 20:
        sgn = 1.0 if z.real > 0 else -1.0
        e = cmath.exp(-sgn * z)
        return sgn * 2 * e / (1 - e * e)
    return 1.0 / cmath.sinh(z)


def halfplane_sqrt(w: complex) -> complex:
    """Square root branch with Re >= 0; on the imaginary axis picks Im <= 0."""
    r = cmath.sqrt(w)
    if r.real < 0 or (r.real == 0 and r.imag > 0):
        r = -r
    return r


def kappa_from_energy(E: float, Z: float):
    """Map a real energy to the WaveNumber kappa = s - i t, 2st = Z, t^2 - s^2 = E.

    kappa^2 = -E - iZ; s >= 0 and t > 0 (fourth quadrant).  Raises
    ValueError for a coupling `_check_coupling` refuses, and for E <= 0 at
    Z = 0 where t would vanish.
    """
    _check_coupling(Z)
    if Z == 0 and E <= 0:
        raise ValueError("E must be positive when Z = 0")
    t = math.sqrt((E + math.hypot(E, Z)) / 2.0)
    s = Z / (2.0 * t) if Z != 0 else 0.0
    return WaveNumber(complex(s, -t))


def matching_residual(t: float, Z: float) -> float:
    """G(t, Z) = s sinh(2s) + t sin(2t), s = Z/(2t); zero exactly at eigenvalues."""
    s = Z / (2.0 * t)
    return s * math.sinh(2 * s) + t * math.sin(2 * t)


def matching_residual_dt(t: float, Z: float) -> float:
    """Analytic dG/dt at fixed Z (s = Z/2t depends on t)."""
    return _matching_terms(t, Z)[1]


def _matching_terms(t: float, Z: float):
    """(G, dG/dt) at t, from one s, sinh 2s and sin 2t: a Newton iterate's pair."""
    s = Z / (2.0 * t)
    sinh_2s, sin_2t = math.sinh(2 * s), math.sin(2 * t)
    return (s * sinh_2s + t * sin_2t,
            -(s / t) * (sinh_2s + 2 * s * math.cosh(2 * s)) + sin_2t + 2 * t * math.cos(2 * t))


def band_bounds(nu: int):
    """Open band ((2 nu + 1) pi/2, (nu + 1) pi) holding root pair nu."""
    return (2 * nu + 1) * math.pi / 2, (nu + 1) * math.pi


def kappa_condition_residual(E: complex, Z: float) -> complex:
    """Two-sided wavenumber condition rho coth rho + sigma coth sigma at energy E."""
    rho = halfplane_sqrt(-E - 1j * Z)
    sigma = halfplane_sqrt(1j * Z - E)
    return rho * coth(rho) + sigma * coth(sigma)


def _newton(evaluate, x, tol, what: str):
    """Damped Newton for a complex root of f, where evaluate(x) returns
    (f, f', scale) at x from one pass: each step is halved until |f| falls.
    Once |f| < tol(x, f', scale), `_polish` takes f to its rounding floor.
    A step that no halving improves is a stall, raised with the stage `what`
    and the last iterate.
    """
    fx, d, scale = evaluate(x)
    for _ in range(100):
        if abs(fx) < tol(x, d, scale):
            return _polish(evaluate, x, fx, d)
        if d == 0:
            break
        step = fx / d
        for _ in range(60):
            xn = x - step
            fn, dn, sn = evaluate(xn)
            if abs(fn) < abs(fx):
                break
            step *= 0.5
        else:
            break
        x, fx, d, scale = xn, fn, dn, sn
    raise ConvergenceError(f"{what} Newton stalled at {x}", stage=what, iterate=x)


def _polish(evaluate, x, fx, d):
    """x moved by plain Newton steps while |f| strictly falls, at most 8, from
    a root search's stop (fx and d are f and f' at x) to f's rounding floor;
    evaluate(x) returns f and f' first.
    An ill-conditioned root needs them: just above an exceptional point f' is
    proportional to Im E, and a stop at |f| < 1e-10 left 14 % of Im E there.
    """
    for _ in range(8):
        if d == 0:
            break
        xn = x - fx / d
        fn, dn = evaluate(xn)[:2]
        if not abs(fn) < abs(fx):
            break
        x, fx, d = xn, fn, dn
    return x


def _bracketed_newton(evaluate, neg: float, pos: float, tol: float, what: str,
                      start: float) -> float:
    """Root of f inside a sign change f(neg) < 0 < f(pos), where evaluate(x)
    returns (f, f') at x from one pass; the ends may come in either order,
    and f is never evaluated at them.

    Newton starts at `start` if it lies strictly inside the bracket, else
    at the bracket's midpoint.  Every iterate shrinks the bracket by the
    sign of f there, and a step that leaves the bracket is replaced by its
    midpoint, so the root stays held.  Once |f| < tol, `_polish` takes f to
    its rounding floor.  A bracket that no longer shrinks is a stall, raised
    with the stage `what`, the last iterate and the final bracket.
    """
    x = start if min(neg, pos) < start < max(neg, pos) else 0.5 * (neg + pos)
    for _ in range(100):
        fx, d = evaluate(x)
        if abs(fx) < tol:
            return _polish(evaluate, x, fx, d)
        if fx < 0:
            neg = x
        else:
            pos = x
        # x is now an end of the bracket, so a step that stays strictly
        # inside it moves
        xn = x - fx / d if d != 0 else x
        if not min(neg, pos) < xn < max(neg, pos):
            xn = 0.5 * (neg + pos)
            if xn in (neg, pos):
                break
        x = xn
    raise ConvergenceError(f"{what} Newton stalled at {x}", stage=what, iterate=x,
                           bracket=(min(neg, pos), max(neg, pos)))


def _far_above_critical(Z: float, nu: int) -> bool:
    """A rigorous certificate that Z - 0.05 exceeds the band's critical coupling.

    G = s sinh 2s + t sin 2t >= s sinh 2s - t, and s sinh 2s - t falls with
    t (s = z/2t), so if it is positive at the band's upper end hi for
    z = Z - 0.05, G > 0 on the whole band there and its roots have merged.
    s sinh 2s >= 2 s^2, so 2 s^2 > hi decides it first without overflowing
    sinh at large Z.
    """
    z = Z - 0.05
    _, hi = band_bounds(nu)
    s = z / (2 * hi)
    return z > 0 and (2 * s * s > hi or s * math.sinh(2 * s) - hi > 0)


def _band_split(Z: float, nu: int):
    """A point of band nu where G < 0, which separates its two real roots; None
    once Z exceeds the band's critical coupling and the roots are a complex pair.

    At the band's midpoint sin 2t = -1, so G(mid) = s sinh 2s - mid.  If that
    is negative the midpoint splits the roots, as it does for every band well
    below its critical coupling, and the critical coupling is not needed.
    Since s sinh 2s >= 2 s^2, G(mid) < 0 needs 2 s^2 < mid; testing that
    first keeps sinh from overflowing at large Z.  Otherwise a band that
    `_far_above_critical` certifies broken has none, again without its
    critical coupling.  Only in between are the roots, if any, split at the
    merge point t_merge, where G <= 0 up to Z_crit.
    """
    lo, hi = band_bounds(nu)
    mid = 0.5 * (lo + hi)
    s = Z / (2 * mid)
    if 2 * s * s < mid and matching_residual(mid, Z) < 0:
        return mid
    if _far_above_critical(Z, nu):
        return None
    crit = find_critical_coupling(nu)
    return crit.t_merge if Z <= crit.z_crit else None


def _band_roots(Z: float, nu: int):
    """Roots of G in band nu, increasing; none once Z exceeds the band's critical coupling.

    For 0 < Z <= Z_crit, G > 0 at both band ends, so each end and the split
    point of `_band_split` bracket one root, found by one bracketed Newton.
    Its start is the root of G's linearization about the end, where
    sin 2t = 0: G(end) = s_e sinh 2s_e (s_e = Z / 2 end), and the slope of
    t sin 2t there is 2 end cos 2end, -2 lo at lo and 2 hi at hi.  As Z -> 0
    the roots tend to the band ends, so this lands next to them.  Where it
    is not strictly inside (split, end), beyond the split near Z_crit or on
    the end itself at tiny Z, where the correction is below an ulp of the
    end, the Newton starts at the bracket's midpoint instead.
    It stops at |G| < max(1e-12, 8 eps hi^2): sin 2t carries the rounding
    of its argument, about eps hi, and t multiplies it, so G's rounding
    floor is about eps hi^2, and a fixed 1e-12 lies below it from hi ~ 24 on.
    """
    lo, hi = band_bounds(nu)
    if Z == 0:
        # exact endpoint roots t = (2 nu + 1) pi / 2 and (nu + 1) pi
        return [lo, hi]
    split = _band_split(Z, nu)
    if split is None:
        return []

    def start(end, slope):
        s = Z / (2 * end)
        return end - s * math.sinh(2 * s) / slope

    tol = max(1e-12, 8 * 2.0 ** -52 * hi * hi)
    return [_bracketed_newton(lambda t: _matching_terms(t, Z), split, end, tol,
                              f"matching-residual (Z={Z})", start(end, slope))
            for end, slope in ((lo, -2 * lo), (hi, 2 * hi))]


def _verified_level(t: float, Z: float) -> SpectralLevel:
    kap = kappa_from_energy(t * t - (Z / (2 * t)) ** 2 if Z else t * t, Z)
    ks, kt = kap.value.real, -kap.value.imag  # (s, t) recomputed from E
    E = complex(kt ** 2 - ks ** 2)
    if Z != 0:
        # guard against spurious roots: both formulations must agree; at
        # Z = 0 the roots are exact band endpoints and coth has poles there.
        # The wavenumber form equals G scaled by |sinh kappa|^-2, so near a
        # band endpoint its raw value is rounding noise; judge the scaled one
        res = kappa_condition_residual(E, Z)
        sinh_sq = (math.cosh(2 * ks) - math.cos(2 * kt)) / 2.0
        if abs(res) >= 1e-10 and abs(res) * sinh_sq >= 1e-12:
            raise ConvergenceError(f"root t={t} fails the wavenumber condition ({abs(res):.2e})",
                                   stage=f"wavenumber condition (Z={Z})", iterate=t)
    return SpectralLevel(E, kap, WaveNumber(kap.value.conjugate()), Branch.REAL)


def _check_coupling(Z: float):
    """The CLI's rule for a coupling, shared by every spectrum entry point."""
    if not 0 <= Z < math.inf:
        raise ValueError("coupling must be finite and >= 0")


def _check_count(count: int):
    """A level count is a nonnegative int: a negative one would return no
    levels, and a float fail as a slice bound."""
    if not (isinstance(count, int) and count >= 0):
        raise ValueError(f"level count must be a nonnegative integer, not {count!r}")


def solve_real_spectrum(Z: float, count: int):
    """First `count` real levels, increasing; bands whose pair went complex are skipped."""
    _check_coupling(Z)
    _check_count(count)
    levels = []
    nu = 0
    while len(levels) < count:
        for t in _band_roots(Z, nu):
            if len(levels) < count:
                levels.append(_verified_level(t, Z))
        nu += 1
        if nu > count + 64:
            raise ConvergenceError("ran out of bands before reaching the requested count",
                                   stage=f"real levels (Z={Z})", iterate=nu - 1)
    return levels


def _curve_s(t: float) -> float:
    """s >= 0 with s sinh 2s = -t sin 2t: the G = 0 curve at t, inside a band.

    s sinh 2s is convex and increasing and exceeds both 2 s^2 and, for
    s >= 1/2, sinh(2s)/2, so s0 bounds the root from above, and Newton from
    s0 runs down to it inside the bracket (0, 2 s0) by plain steps.
    """
    r = max(-t * math.sin(2 * t), 0.0)
    s0 = min(math.sqrt(r / 2), max(0.5, math.asinh(2 * r) / 2))

    def evaluate(s):
        sinh_2s = math.sinh(2 * s)
        return s * sinh_2s - r, sinh_2s + 2 * s * math.cosh(2 * s)

    return _bracketed_newton(evaluate, 0.0, 2 * s0, 1e-13 * (1 + r), "G = 0 curve", s0)


def _merge_residual_dt(t: float, s: float) -> float:
    """d/dt of dG/dt on the G = 0 curve Z(t) = 2 t s(t), with s = _curve_s(t)
    and ds/dt = -q/D from s sinh 2s = -t sin 2t."""
    D = math.sinh(2 * s) + 2 * s * math.cosh(2 * s)  # d(s sinh 2s)/ds
    dD = 4 * (math.cosh(2 * s) + s * math.sinh(2 * s))
    q = math.sin(2 * t) + 2 * t * math.cos(2 * t)  # d(t sin 2t)/dt
    return (q / t + s * q * dD / (t * D) + s * D / t ** 2
            + 4 * (math.cos(2 * t) - t * math.sin(2 * t)))


@lru_cache(maxsize=None)
def find_critical_coupling(nu: int) -> CriticalCoupling:
    """Coupling where the band-nu root pair merges: the peak of the G = 0 curve.

    In band nu, G = 0 is the curve Z(t) = 2 t s(t) with s sinh 2s = -t sin 2t.
    It rises from 0 at the lower band edge and falls to 0 at the upper one,
    and is tangent to a constant-Z line only at its peak, where dG/dt = 0
    as well: on the curve dZ/dt = -2t dG/dt / (sinh 2s + 2s cosh 2s).
    dG/dt runs from -2 lo at the lower band edge to 2 hi at the upper one,
    so the band brackets that zero for one bracketed Newton from its
    midpoint.  s(t) is solved once per point (`_curve_s`): Newton's
    residual and derivative at an iterate, and the returned s at the root,
    share it.
    """
    if nu < 0:
        raise ValueError("band index must be nonnegative")
    lo, hi = band_bounds(nu)
    curve = {}  # s(t) at each iterate t

    def evaluate(t):
        if t not in curve:
            curve[t] = _curve_s(t)
        s = curve[t]
        return matching_residual_dt(t, 2 * t * s), _merge_residual_dt(t, s)

    t = _bracketed_newton(evaluate, lo, hi, 2e-11 * hi, f"tangency (band {nu})",
                          0.5 * (lo + hi))
    s = curve[t]
    return CriticalCoupling(nu, 2 * t * s, t, t * t - s * s)


def _r_coth_r_dr(r: complex, coth_r: complex) -> complex:
    """d(r coth r)/dr = coth r - r csch^2 r, given coth r."""
    return coth_r - r * cosech(r) ** 2


def _pair_terms(E: complex, Z: float):
    """(F, F_E, |rho coth rho| + |sigma coth sigma|) at E from one rho, sigma
    and coth of each; F is kappa_condition_residual, the last its scale.

    F_E sums d(r coth r)/dr (-1/2r); each r coth r is even in r, so F_E is
    holomorphic in E whatever square-root branch gives rho and sigma.
    """
    rho, sigma = halfplane_sqrt(-E - 1j * Z), halfplane_sqrt(1j * Z - E)
    coth_rho, coth_sigma = coth(rho), coth(sigma)
    f_rho, f_sigma = rho * coth_rho, sigma * coth_sigma
    f_E = 0j
    for r, coth_r in ((rho, coth_rho), (sigma, coth_sigma)):
        f_E += _r_coth_r_dr(r, coth_r) / (-2 * r)
    return f_rho + f_sigma, f_E, abs(f_rho) + abs(f_sigma)


def _kappa_condition_dZ(E: complex, Z: float) -> complex:
    """d/dZ of kappa_condition_residual, from d rho/dZ = -i/2rho, d sigma/dZ = i/2sigma."""
    rho, sigma = halfplane_sqrt(-E - 1j * Z), halfplane_sqrt(1j * Z - E)
    return 0.5j * (_r_coth_r_dr(sigma, coth(sigma)) / sigma - _r_coth_r_dr(rho, coth(rho)) / rho)


def _pair_newton(E: complex, Z: float, nu: int) -> complex:
    """The pair member of band nu near E, returned as the lower one (Im E <= 0).

    Newton stops at |F| <= 16 eps (|E| |F_E| + |rho coth rho| + |sigma coth sigma|).
    The first term, a few ulps of E times the slope, is the rounding floor
    of F at large Z; the term sizes are the floor next to an exceptional
    point, where F_E is proportional to Im E.  `_newton` then polishes E.
    All three come from one `_pair_terms` per iterate.
    """
    def tol(E, dE, terms):
        return 16 * 2.0 ** -52 * (abs(E) * abs(dE) + terms)

    E = _newton(lambda E: _pair_terms(E, Z), E, tol, f"pair {nu} (Z={Z})")
    return complex(E.real, -abs(E.imag))


def _pair_seed(nu: int, Z: float, crit: CriticalCoupling = None) -> complex:
    """Newton seed for the lower pair member of band nu at Z above its critical
    coupling; crit is that band's CriticalCoupling, or None where
    `_far_above_critical` holds and Z - Z_crit > 0.05 is known without it.

    Within 0.05 of Z_crit the pair is the square-root (Kato) branch of the
    exceptional point, F ~ F_Z dZ + F_EE dE^2 / 2 there:
    E = e_merge + sqrt(-2 F_Z (Z - Z_crit) / F_EE), the member with Im E < 0,
    with F_EE a central difference of F_E (a seed needs no more).
    Further up, with E = y^2 - iZ the pair condition reads
    y cot y = -sigma coth sigma, sigma = sqrt(2iZ - y^2): each member lives
    on one half of the well, and for large Z y tends to (nu + 1) pi.  Three
    fixed-point passes y <- (nu + 1) pi + atan(-y / (sigma coth sigma)) from
    there give the seed.
    """
    if crit is not None and Z - crit.z_crit < 0.05:
        e0, z0, h = complex(crit.e_merge), crit.z_crit, 1e-4
        f_ee = (_pair_terms(e0 + h, z0)[1] - _pair_terms(e0 - h, z0)[1]) / (2 * h)
        de = cmath.sqrt(-2 * _kappa_condition_dZ(e0, z0) * (Z - z0) / f_ee)
        return e0 + (de if de.imag < 0 else -de)
    y0 = (nu + 1) * math.pi
    y = complex(y0)
    for _ in range(3):
        sigma = cmath.sqrt(2j * Z - y * y)
        y = y0 + cmath.atan(-y / (sigma * coth(sigma)))
    return y * y - 1j * Z


def solve_complex_pair(Z: float, nu: int):
    """The complex-conjugate pair of band nu for Z above its critical coupling.

    Returns (lower, upper) SpectralLevels with energies e0 -+ i eps0, eps0 > 0.
    The pair is solved directly at Z by `_pair_newton` from `_pair_seed`,
    and its root taken as it comes: `_newton`'s tail has polished it.  A
    direct Newton does not hold the band by construction; `classify_spectrum`
    certifies the band order.  Where `_far_above_critical` holds, the band's
    critical coupling is not solved: the seed is the one-sided one it would
    have chosen anyway.
    """
    _check_coupling(Z)
    if nu < 0:
        raise ValueError("band index must be nonnegative")
    crit = None if _far_above_critical(Z, nu) else find_critical_coupling(nu)
    stage = f"pair {nu} (Z={Z})"
    if crit is not None and Z <= crit.z_crit:
        raise ConvergenceError(
            f"pair {nu} is still real at Z={Z} (critical coupling {crit.z_crit:.6f})",
            stage=stage, iterate=crit.z_crit)
    E0 = _pair_newton(_pair_seed(nu, Z, crit), Z, nu)
    if E0.imag == 0:
        raise ConvergenceError(f"pair {nu} solver landed on a real energy at Z={Z}",
                               stage=stage, iterate=E0)
    E1 = E0.conjugate()
    lower = SpectralLevel(E0, WaveNumber(halfplane_sqrt(-E0 - 1j * Z)),
                          WaveNumber(halfplane_sqrt(1j * Z - E0)), Branch.COMPLEX_PAIR_LOWER)
    upper = SpectralLevel(E1, WaveNumber(halfplane_sqrt(-E1 - 1j * Z)),
                          WaveNumber(halfplane_sqrt(1j * Z - E1)), Branch.COMPLEX_PAIR_UPPER)
    return lower, upper


def classify_spectrum(Z: float, count: int) -> Spectrum:
    """Assemble `count` levels: broken pairs first (ordered by Re E), then reals.

    Pair members carry the two-sided wavenumbers rho = sqrt(-E - iZ),
    sigma = sqrt(iZ - E) on the Re >= 0 branch; real levels carry the
    conjugate pair (kappa, kappa*).  Pairs are solved in band order until
    a band still has real roots or 2 (pairs) >= count: every real level and
    every later pair lies above them.  Each pair must lie strictly above
    the one before it in Re E, or the solve left its band and
    `ConvergenceError` names it.
    """
    _check_coupling(Z)
    _check_count(count)
    entries = []
    nu = 0
    while 2 * len(entries) < count and _band_split(Z, nu) is None:
        lo, up = solve_complex_pair(Z, nu)
        if entries and not lo.energy.real > entries[-1][0].energy.real:
            raise ConvergenceError(
                f"pair {nu} at Z={Z} does not lie above pair {nu - 1}: Re E = "
                f"{lo.energy.real!r} against {entries[-1][0].energy.real!r}",
                stage=f"pair {nu} (Z={Z})", iterate=lo.energy)
        entries.append((lo, up))
        nu += 1
    reals = solve_real_spectrum(Z, max(count - 2 * len(entries), 0))
    flat = [lv for pair in entries for lv in pair] + list(reals)
    flat.sort(key=lambda lv: (lv.energy.real, lv.energy.imag))
    return Spectrum(Z, tuple(flat[:count]))
