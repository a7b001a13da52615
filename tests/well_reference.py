"""Closed forms of the well, the Schrodinger stencil and the PT image: referees for the library.

Not a test module.  Tests import it by name, like ``crum_reference``.

The well's level with wavenumbers rho (right) and sigma (left) is
sinh[rho(1 - x)] on the right and sinh[sigma(1 + x)] on the left, each side
over its origin constant (`wavefunctions.origin_scales`).  At Z = 0 the odd
levels have sinh(rho) = 0, and the origin-value form is indeterminate; the
continuity limit sin(t x)/t takes over there (slope-pinned, psi'(0) = i).

A real level's matching condition G = 0 is also the crossing of two curves
in (T, S), T = 2t/pi: X(T), which no coupling enters, and Y(Z, T).
"""
import cmath
import math

from ptwell.wavefunctions import origin_scales


def well_eigenfunction(level):
    """(right, left), each x -> (psi, psi') of the well's `level`.

    OverflowError where an origin value, the largest, is past the float range.
    """
    rho = level.kappa_right.value
    sigma = level.kappa_left.value

    def right(x):
        w = 1.0 - x
        return cmath.sinh(rho * w), -(rho * cmath.cosh(rho * w))

    def left(x):
        v = 1.0 + x
        return cmath.sinh(sigma * v), sigma * cmath.cosh(sigma * v)

    origin = right(0.0) + left(0.0)  # cmath's sinh and cosh raise OverflowError themselves
    if not all(map(cmath.isfinite, origin)):
        raise OverflowError(f"the well's eigenfunction at E = {level.energy!r} overflows at x = 0")
    if abs(origin[0]) < 1e-12:  # sinh(rho), the right side's origin value
        t = -rho.imag

        def limit_side(y):
            return 1j * math.sin(t * y) / t, 1j * math.cos(t * y)

        # x goes through the wall coordinates, as in the sinh form
        return lambda x: limit_side(1.0 - (1.0 - x)), lambda x: limit_side((1.0 + x) - 1.0)
    cR, cL = origin_scales(origin[:2], origin[2:])

    def scaled(side, c):
        def ev(x):
            p, d = side(x)
            return p / c, d / c
        return ev

    return scaled(right, cR), scaled(left, cL)


def curve_X(T: float) -> float:
    """S = arcsinh(0.5 sqrt(-pi T sin(pi T))), on the bands 2m-1 <= T <= 2m where the
    radicand is >= 0."""
    r = -math.pi * T * math.sin(math.pi * T)
    return math.asinh(0.5 * math.sqrt(max(r, 0.0)))


def curve_Y(Z: float, T: float) -> float:
    """S = arcsinh(sqrt((Z/(2 pi T)) sinh(2Z/(pi T)))), for T > 0 and Z >= 0."""
    return math.asinh(math.sqrt((Z / (2 * math.pi * T)) * math.sinh(2 * Z / (math.pi * T))))


def curve_point(kappa):
    """(T, S) of a real level's WaveNumber kappa = s - i t: T = 2t/pi, sinh^2 S = s sinh(2s)/2."""
    s, t = kappa.value.real, -kappa.value.imag
    return 2 * t / math.pi, math.asinh(math.sqrt(s * math.sinh(2 * s) / 2))


def schrodinger_residual(f, V, E: complex, x: float, h: float) -> complex:
    """Central-stencil residual -f'' + (V - E) f at x; x +- h must lie on x's side, inside the walls."""
    lap = (complex(f(x + h)) - 2.0 * complex(f(x)) + complex(f(x - h))) / h ** 2
    return -lap + (complex(V(x)) - E) * complex(f(x))


def pt_transform(f):
    """The PT image of a callable: x -> conj(f(-x))."""
    def g(x):
        return complex(f(-x)).conjugate()
    return g
