"""Complex wavenumber maps, matching-condition roots, critical couplings.

Units: hbar = 2m = 1, well half-width 1.  The well is -iZ on (0,1) and +iZ
on (-1,0) with Dirichlet walls at x = +-1.  Real eigenvalues solve
G(t, Z) = s*sinh(2s) + t*sin(2t) = 0 with s = Z/(2t), E = t^2 - s^2.
Above a critical coupling the lowest pair leaves the real axis and is
found from the two-sided wavenumber condition instead.
"""
import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache


class ConvergenceError(Exception):
    """A root search or Newton iteration failed to meet its tolerance."""


class IllegalPlanError(Exception):
    """An elimination choice that the current spectrum cannot honor."""


class Branch(Enum):
    REAL = "Real"
    COMPLEX_PAIR_LOWER = "ComplexPairLower"
    COMPLEX_PAIR_UPPER = "ComplexPairUpper"


@dataclass(frozen=True)
class WaveNumber:
    value: complex


@dataclass(frozen=True)
class SpectralLevel:
    index: int
    energy: complex
    kappa_right: WaveNumber
    kappa_left: WaveNumber
    branch: Branch


@dataclass(frozen=True)
class Spectrum:
    coupling: float
    levels: tuple
    broken_pairs: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class CriticalCoupling:
    nu: int
    z_crit: float
    t_merge: float
    e_merge: float


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

    kappa^2 = -E - iZ; s >= 0 and t > 0 (fourth quadrant).  Raises for
    E <= 0 at Z = 0 where t would vanish.
    """
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
    s = Z / (2.0 * t)
    return -(s / t) * (math.sinh(2 * s) + 2 * s * math.cosh(2 * s)) + math.sin(2 * t) + 2 * t * math.cos(2 * t)


def curve_X(T: float) -> float:
    """Coupling-independent curve S = arcsinh(0.5*sqrt(-pi T sin(pi T))).

    Defined on the bands 2m-1 <= T <= 2m, m >= 1, where the radicand is
    nonnegative; zero at band endpoints.
    """
    m = math.ceil(T / 2.0)
    if m < 1 or not (2 * m - 1 <= T <= 2 * m):
        raise ValueError(f"T={T} outside the bands [2m-1, 2m]")
    r = -math.pi * T * math.sin(math.pi * T)
    return math.asinh(0.5 * math.sqrt(max(r, 0.0)))


def curve_Y(Z: float, T: float) -> float:
    """Coupling-dependent curve S = arcsinh(sqrt((Z/(2 pi T)) sinh(2Z/(pi T))))."""
    if T <= 0 or Z < 0:
        raise ValueError("need T > 0 and Z >= 0")
    return math.asinh(math.sqrt((Z / (2 * math.pi * T)) * math.sinh(2 * Z / (math.pi * T))))


def curve_point(kappa: WaveNumber):
    """(T, S) of a real level's kappa = s - i t: T = 2t/pi, sinh^2 S = s sinh(2s)/2."""
    s, t = kappa.value.real, -kappa.value.imag
    return 2 * t / math.pi, math.asinh(math.sqrt(s * math.sinh(2 * s) / 2))


def band_bounds(nu: int):
    """Open band ((2 nu + 1) pi/2, (nu + 1) pi) holding root pair nu."""
    return (2 * nu + 1) * math.pi / 2, (nu + 1) * math.pi


def kappa_condition_residual(E: complex, Z: float) -> complex:
    """Two-sided wavenumber condition rho coth rho + sigma coth sigma at energy E."""
    rho = halfplane_sqrt(-E - 1j * Z)
    sigma = halfplane_sqrt(1j * Z - E)
    return rho * coth(rho) + sigma * coth(sigma)


def _newton(f, df, x, tol: float, what: str):
    """Damped Newton for a real or complex scalar root of f, df its derivative.

    Each step is halved until |f| decreases.  Once |f| < tol, one more plain
    step is taken if it does not raise |f|: it pushes the residual to its
    rounding floor, which the ill-conditioned wavenumber form downstream
    needs.  A step that no halving improves is a stall.
    """
    fx = f(x)
    for _ in range(100):
        d = df(x)
        if abs(fx) < tol:
            if d != 0:
                xn = x - fx / d
                if abs(f(xn)) <= abs(fx):
                    x = xn
            return x
        if d == 0:
            break
        step = fx / d
        for _ in range(60):
            xn = x - step
            fn = f(xn)
            if abs(fn) < abs(fx):
                break
            step *= 0.5
        else:
            break
        x, fx = xn, fn
    raise ConvergenceError(f"{what} Newton stalled at {x}")


def _bisect(f, neg: float, pos: float, width: float) -> float:
    """Midpoint of a sign change of f, f(neg) < 0 < f(pos), bracketed to `width`.

    The ends may come in either order; f is never evaluated at them.
    """
    while abs(pos - neg) > width:
        mid = 0.5 * (neg + pos)
        if f(mid) < 0:
            neg = mid
        else:
            pos = mid
    return 0.5 * (neg + pos)


def _band_roots(Z: float, nu: int):
    """Roots of G in band nu, increasing; none once Z exceeds the band's critical coupling.

    For 0 < Z <= Z_crit, G > 0 at both band ends and G < 0 at the merge
    point, so [lo, t_merge] and [t_merge, hi] each bracket one root:
    bisection to 1e-8, then Newton to 1e-12.
    """
    lo, hi = band_bounds(nu)
    if Z == 0:
        # exact endpoint roots t = (2 nu + 1) pi / 2 and (nu + 1) pi
        return [lo, hi]
    crit = find_critical_coupling(nu)
    if Z > crit.z_crit:
        return []

    def G(t):
        return matching_residual(t, Z)

    def dG(t):
        return matching_residual_dt(t, Z)

    return [_newton(G, dG, _bisect(G, crit.t_merge, end, 1e-8), 1e-12,
                    f"matching-residual (Z={Z})") for end in (lo, hi)]


def _verified_level(index: int, t: float, Z: float) -> SpectralLevel:
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
            raise ConvergenceError(f"root t={t} fails the wavenumber condition ({abs(res):.2e})")
    return SpectralLevel(index, E, kap, WaveNumber(kap.value.conjugate()), Branch.REAL)


def solve_real_spectrum(Z: float, count: int):
    """First `count` real levels, increasing; bands whose pair went complex are skipped."""
    if Z < 0:
        raise ValueError("coupling must be nonnegative")
    levels = []
    nu = 0
    while len(levels) < count:
        for t in _band_roots(Z, nu):
            if len(levels) < count:
                levels.append(_verified_level(len(levels), t, Z))
        nu += 1
        if nu > count + 64:
            raise ConvergenceError("ran out of bands before reaching the requested count")
    return levels


def _curve_s(t: float) -> float:
    """s >= 0 with s sinh 2s = -t sin 2t: the G = 0 curve at t, inside a band."""
    r = max(-t * math.sin(2 * t), 0.0)
    # s sinh 2s is convex and exceeds both 2 s^2 and, for s >= 1/2, sinh(2s)/2,
    # so Newton runs down to the root from this upper bound without overshoot
    s0 = min(math.sqrt(r / 2), max(0.5, math.asinh(2 * r) / 2))
    return _newton(lambda s: s * math.sinh(2 * s) - r,
                   lambda s: math.sinh(2 * s) + 2 * s * math.cosh(2 * s),
                   s0, 1e-13 * (1 + r), "G = 0 curve")


def _merge_residual(t: float) -> float:
    """dG/dt on the G = 0 curve Z(t) = 2 t s(t).

    There dZ/dt = -2t dG/dt / (sinh 2s + 2s cosh 2s), so this vanishes at
    the peak of Z(t).  It runs from -2 lo at the lower band edge to 2 hi at
    the upper one.
    """
    return matching_residual_dt(t, 2 * t * _curve_s(t))


def _merge_residual_dt(t: float) -> float:
    """d/dt of _merge_residual, with ds/dt = -q/D from s sinh 2s = -t sin 2t."""
    s = _curve_s(t)
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
    as well.  Bisection brackets that zero to 0.1, then Newton polishes it.
    """
    if nu < 0:
        raise ValueError("band index must be nonnegative")
    lo, hi = band_bounds(nu)
    t = _newton(_merge_residual, _merge_residual_dt, _bisect(_merge_residual, lo, hi, 0.1),
                2e-11 * hi, f"tangency (band {nu})")
    s = _curve_s(t)
    return CriticalCoupling(nu, 2 * t * s, t, t * t - s * s)


def _r_coth_r_dr(r: complex) -> complex:
    """d(r coth r)/dr = coth r - r csch^2 r."""
    return coth(r) - r * cosech(r) ** 2


def _kappa_condition_dE(E: complex, Z: float) -> complex:
    """d/dE of kappa_condition_residual: sum of d(r coth r)/dr (-1/2r).

    Each term r coth r is even in r, so the sum is holomorphic in E whatever
    square-root branch gives rho and sigma.
    """
    total = 0j
    for r in (halfplane_sqrt(-E - 1j * Z), halfplane_sqrt(1j * Z - E)):
        total += _r_coth_r_dr(r) / (-2 * r)
    return total


def _kappa_condition_dZ(E: complex, Z: float) -> complex:
    """d/dZ of kappa_condition_residual, from d rho/dZ = -i/2rho, d sigma/dZ = i/2sigma."""
    rho, sigma = halfplane_sqrt(-E - 1j * Z), halfplane_sqrt(1j * Z - E)
    return 0.5j * (_r_coth_r_dr(sigma) / sigma - _r_coth_r_dr(rho) / rho)


def _pair_newton(E: complex, Z: float) -> complex:
    """The pair member near E, returned as the lower one (Im E <= 0)."""
    E = _newton(lambda E: kappa_condition_residual(E, Z), lambda E: _kappa_condition_dE(E, Z),
                E, 1e-10, f"complex-pair (Z={Z})")
    return complex(E.real, -abs(E.imag))


def _continue_pair(crit: CriticalCoupling, Z: float) -> complex:
    """Lower pair energy of band crit.nu at Z, continued from the merge point.

    The first point is Newton from e_merge - 1e-3 i at z_crit + 0.05 (or Z).
    Each step predicts along the tangent dE/dZ = -F_Z/F_E and corrects by
    Newton at the new coupling.  A step is accepted when the correction is
    under a tenth of the predicted move, which rejects a jump onto a
    neighbouring pair; the step then doubles, otherwise it halves.
    """
    def stalled(z):
        return ConvergenceError(f"pair {crit.nu} continuation stalled at Z={z} on the way to Z={Z}")

    z = min(crit.z_crit + 0.05, Z)
    try:
        E = _pair_newton(complex(crit.e_merge, -1e-3), z)
    except ConvergenceError as exc:
        raise stalled(crit.z_crit) from exc
    dz = 0.05
    while z < Z:
        zn = min(z + dz, Z)
        pred = E - (zn - z) * _kappa_condition_dZ(E, z) / _kappa_condition_dE(E, z)
        try:
            En = _pair_newton(pred, zn)
            accept = abs(En - pred) <= 0.1 * abs(pred - E) + 1e-9 * (1 + abs(E))
        except ConvergenceError:
            accept = False
        if accept:
            z, E = zn, En
            dz *= 2
        else:
            dz *= 0.5
            if dz < 1e-6:
                raise stalled(z)
    return E


def solve_complex_pair(Z: float, nu: int):
    """The complex-conjugate pair of band nu for Z above its critical coupling.

    Returns (lower, upper) SpectralLevels with energies e0 -+ i eps0, eps0 > 0.
    The pair is continued from the merge point by tangent predictor and Newton
    corrector, with coupling steps doubled on success and halved on a stall or
    a jump.
    """
    crit = find_critical_coupling(nu)
    if Z <= crit.z_crit:
        raise ConvergenceError(
            f"pair {nu} is still real at Z={Z} (critical coupling {crit.z_crit:.6f})")
    E0 = _pair_newton(_continue_pair(crit, Z), Z)
    if E0.imag == 0:
        raise ConvergenceError("pair solver landed on a real energy")
    E1 = E0.conjugate()
    lower = SpectralLevel(0, E0, WaveNumber(halfplane_sqrt(-E0 - 1j * Z)),
                          WaveNumber(halfplane_sqrt(1j * Z - E0)), Branch.COMPLEX_PAIR_LOWER)
    upper = SpectralLevel(1, E1, WaveNumber(halfplane_sqrt(-E1 - 1j * Z)),
                          WaveNumber(halfplane_sqrt(1j * Z - E1)), Branch.COMPLEX_PAIR_UPPER)
    return lower, upper


def classify_spectrum(Z: float, count: int) -> Spectrum:
    """Assemble `count` levels: broken pairs first (ordered by Re E), then reals.

    Pair members carry the two-sided wavenumbers rho = sqrt(-E - iZ),
    sigma = sqrt(iZ - E) on the Re >= 0 branch; real levels carry the
    conjugate pair (kappa, kappa*).
    """
    if Z < 0:
        raise ValueError("coupling must be nonnegative")
    entries = []
    nu = 0
    while True:
        crit = find_critical_coupling(nu)
        if Z <= crit.z_crit:
            break
        lo, up = solve_complex_pair(Z, nu)
        entries.append((lo, up))
        nu += 1
    reals = solve_real_spectrum(Z, max(count - 2 * len(entries), 0))
    flat = [lv for pair in entries for lv in pair] + list(reals)
    flat.sort(key=lambda lv: (lv.energy.real, lv.energy.imag))
    return indexed_spectrum(Z, flat[:count])


def indexed_spectrum(coupling: float, levels) -> Spectrum:
    """The spectrum of `levels` in the given order, indexed from 0.

    A broken pair is a lower pair member directly followed by an upper one.
    """
    levels = tuple(SpectralLevel(i, lv.energy, lv.kappa_right, lv.kappa_left, lv.branch)
                   for i, lv in enumerate(levels))
    broken = tuple((i, i + 1) for i in range(len(levels) - 1)
                   if levels[i].branch is Branch.COMPLEX_PAIR_LOWER
                   and levels[i + 1].branch is Branch.COMPLEX_PAIR_UPPER)
    return Spectrum(coupling, levels, broken)
