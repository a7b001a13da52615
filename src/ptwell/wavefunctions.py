"""Closed-form eigenfunctions, PT diagnostics, and zero-coupling limit shapes.

Each side of an eigenfunction returns (psi, psi') at x; the closed forms
compute in the wall coordinates w = 1 - x (right) and v = 1 + x (left).
Eigenfunctions are normalized at the origin, psi(0) = 1.  When the origin
value vanishes identically (odd levels of the real well) the slope is pinned
instead, psi'(0) = i.
"""
import cmath
import math
from dataclasses import dataclass

from .spectral_core import SpectralLevel


@dataclass(frozen=True, eq=False)
class PiecewiseEigenfunction:
    """An eigenfunction whose sides right(x) (x >= 0) and left(x) (x < 0)
    each return the pair (psi, psi') at the physical coordinate x."""
    level: SpectralLevel
    member_depth: int
    right: object
    left: object

    def value_and_slope(self, x: float):
        # x = 0 takes the right side; continuity makes this immaterial
        return self.right(x) if x >= 0 else self.left(x)

    def __call__(self, x: float) -> complex:
        return self.value_and_slope(x)[0]

    def derivative(self, x: float) -> complex:
        return self.value_and_slope(x)[1]


def normalize_sides(level: SpectralLevel, depth: int, right, left) -> PiecewiseEigenfunction:
    """The depth-`depth` eigenfunction of `level` from unnormalized sides.

    right(x) and left(x) return (psi, psi') at the physical coordinate x.
    Each side is divided by its own origin value so the match
    psi(0+) = psi(0-) = 1 is exact by construction.  When the origin value
    is negligible against the slope, each side is divided by its origin slope
    over i instead, giving psi'(0) = i.
    """
    val0R, der0R = right(0.0)
    val0L, der0L = left(0.0)
    if abs(val0R) >= 1e-8 * (abs(val0R) + abs(der0R)):
        cR, cL = val0R, val0L
    else:
        cR, cL = der0R / 1j, der0L / 1j

    def scaled(side, c):
        def ev(x):
            p, d = side(x)
            return p / c, d / c
        return ev

    return PiecewiseEigenfunction(level, depth, scaled(right, cR), scaled(left, cL))


def square_well_eigenfunction(level: SpectralLevel) -> PiecewiseEigenfunction:
    """Eigenfunction of the well itself: sinh[rho(1-x)] right, sinh[sigma(1+x)] left.

    At Z = 0 the odd levels have sinh(rho) = 0 and the origin-value form is
    indeterminate; the continuity limit sin(t x)/t applies there (slope-pinned,
    psi'(0) = i).
    """
    rho = level.kappa_right.value
    sigma = level.kappa_left.value
    if abs(cmath.sinh(rho)) < 1e-12:
        t = -rho.imag

        def limit_side(y):
            return 1j * math.sin(t * y) / t, 1j * math.cos(t * y)

        # x goes through the wall coordinates w = 1 - x and v = 1 + x, as in
        # every closed form; the limit command prints these last bits
        return PiecewiseEigenfunction(
            level, 1,
            lambda x: limit_side(1.0 - (1.0 - x)), lambda x: limit_side((1.0 + x) - 1.0))

    def right(x):
        w = 1.0 - x
        return cmath.sinh(rho * w), -(rho * cmath.cosh(rho * w))

    def left(x):
        v = 1.0 + x
        return cmath.sinh(sigma * v), sigma * cmath.cosh(sigma * v)

    return normalize_sides(level, 1, right, left)


def eval_sw_eigenfunction(level: SpectralLevel, x: float) -> complex:
    """Value at x of the well eigenfunction, psi(0) = 1 (or psi'(0) = i)."""
    if not -1.0 <= x <= 1.0:
        raise ValueError("x outside the well")
    return square_well_eigenfunction(level)(x)


def pt_transform(f):
    """The PT image of a callable: x -> conj(f(-x))."""
    def g(x):
        return complex(f(-x)).conjugate()
    return g


def ratio_stats(f, g, grid):
    """Mean mu of f/g over the grid, and the ratio's variance over |mu|^2."""
    rat = [complex(f(x)) / complex(g(x)) for x in grid]
    mu = sum(rat) / len(rat)
    return mu, sum(abs(r - mu) ** 2 for r in rat) / len(rat) / abs(mu) ** 2


def pt_defect(f, grid) -> float:
    """max |f(x) - conj(f(-x))| over the grid, relative to max |f|; 0 iff PT-symmetric there."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    amax = max(abs(complex(f(x))) for x in grid)
    if amax == 0.0:
        return 0.0
    return max(abs(complex(f(x)) - complex(f(-x)).conjugate()) for x in grid) / amax


def schrodinger_residual(f, V, E: complex, x: float, h: float) -> complex:
    """Central-stencil residual -f'' + (V - E) f at x; the stencil must stay in one region."""
    if h <= 0:
        raise ValueError("h must be positive")
    if abs(x) < h or abs(x) > 1.0 - h:
        raise ValueError("stencil crosses x = 0 or a wall")
    lap = (complex(f(x + h)) - 2.0 * complex(f(x)) + complex(f(x - h))) / h ** 2
    return -lap + (complex(V(x)) - E) * complex(f(x))


def gegenbauer_eval(n: int, m: int, x: float) -> float:
    """C_n^(m)(x) by the three-term recurrence."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0, m >= 1")
    if n == 0:
        return 1.0
    c_prev, c = 1.0, 2.0 * m * x
    for k in range(2, n + 1):
        c_prev, c = c, (2.0 * (k + m - 1) * x * c - (k + 2 * m - 2) * c_prev) / k
    return c


def limit_form(m: int, n: int, x: float) -> float:
    """Zero-coupling shape of the depth-m hierarchy member's level n, up to a constant.

    cos^m(pi x / 2) * C_n^(m)(sin(pi x / 2)), for every depth m >= 1.
    """
    if m < 1:
        raise ValueError("member depth must be at least 1")
    if n < 0:
        raise ValueError("level index must be nonnegative")
    if not abs(x) < 1:
        raise ValueError("x must lie strictly inside the well")
    c = math.cos(math.pi * x / 2.0)
    return c ** m * gegenbauer_eval(n, m, math.sin(math.pi * x / 2.0))


def chebyshev_grid(count: int = 101):
    """Chebyshev-spaced points on (-0.999, 0.999) that avoid 0 exactly.

    Half-integer nodes of order count+1 never hit the midpoint when count is
    odd; the first `count` of them are returned (decreasing in x).
    """
    order = count + 1
    return [0.999 * math.cos(math.pi * (k + 0.5) / order) for k in range(count)]


def linspace(lo: float, hi: float, count: int):
    """`count` >= 2 evenly spaced floats from lo to hi, bit for bit numpy.linspace's.

    Point k is k step + lo with step = (hi - lo) / (count - 1), the last is
    hi itself; when step underflows to 0, numpy computes k / (count - 1)
    (hi - lo) + lo instead, and so does this.
    """
    div = count - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        return [k / div * delta + lo for k in range(div)] + [hi]
    return [k * step + lo for k in range(div)] + [hi]
