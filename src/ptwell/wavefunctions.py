"""Piecewise eigenfunctions, their origin normalization, PT diagnostics, and
zero-coupling limit shapes.

Each side of an eigenfunction returns (psi, psi') at x; susy_hierarchy
computes every member's sides, the well's included, in the wall coordinates
u = 1 - x (right) and 1 + x (left).  Eigenfunctions are normalized at the
origin, psi(0) = 1.  When the origin value is negligible against the slope
(odd levels of the real well) the slope is pinned instead, psi'(0) = i.
"""
import math

from .spectral_core import SpectralLevel


class PiecewisePair:
    """A function of x whose sides right(x) (x >= 0) and left(x) (x < 0)
    each return the pair (f, f') at the physical coordinate x.

    Subclasses provide right and left.
    """
    __slots__ = ()

    def value_and_slope(self, x: float):
        # x = 0 takes the right side; a value is continuous there, W' is not
        return self.right(x) if x >= 0 else self.left(x)

    def __call__(self, x: float) -> complex:
        return (self.right(x) if x >= 0 else self.left(x))[0]

    def derivative(self, x: float) -> complex:
        return self.value_and_slope(x)[1]


class PiecewiseEigenfunction(PiecewisePair):
    """An eigenfunction whose sides return (psi, psi')."""
    __slots__ = ("level", "right", "left")

    def __init__(self, level: SpectralLevel, right, left):
        self.level, self.right, self.left = level, right, left


def origin_scales(right0, left0):
    """Divisors (cR, cL) of sides whose (psi, psi') at x = 0 are right0 and left0.

    Each side is divided by its own origin value, so psi(0+) = psi(0-) = 1 (a
    complex f/f may leave Im below 2^-52); when that value is negligible
    against the slope, by its origin slope over i, so psi'(0) = i.
    """
    val0R, der0R = right0
    val0L, der0L = left0
    if abs(val0R) >= 1e-8 * (abs(val0R) + abs(der0R)):
        return val0R, val0L
    return der0R / 1j, der0L / 1j


def normalize_sides(level: SpectralLevel, right, left) -> PiecewiseEigenfunction:
    """The eigenfunction of `level` from sides right(x), left(x) -> (psi, psi'), by `origin_scales`."""
    cR, cL = origin_scales(right(0.0), left(0.0))

    def scaled(side, c):
        def ev(x):
            p, d = side(x)
            return p / c, d / c
        return ev

    return PiecewiseEigenfunction(level, scaled(right, cR), scaled(left, cL))


def ratio_stats(fs, gs):
    """Mean mu of the ratios f/g of two equal-length value lists, and the
    ratios' variance over |mu|^2."""
    rat = [f / g for f, g in zip(fs, gs)]
    mu = sum(rat) / len(rat)
    return mu, sum(abs(r - mu) ** 2 for r in rat) / len(rat) / abs(mu) ** 2


def sampled_pt_defect(values, mirrored) -> float:
    """`pt_defect` of f from its values f(x) over a grid and f(-x) at the same points."""
    amax = max(abs(v) for v in values)
    if amax == 0.0:
        return 0.0
    return max(abs(v - m.conjugate()) for v, m in zip(values, mirrored)) / amax


def pt_defect(f, grid) -> float:
    """max |f(x) - conj(f(-x))| over the grid, relative to max |f|; 0 iff PT-symmetric there."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    return sampled_pt_defect([complex(f(x)) for x in grid], [complex(f(-x)) for x in grid])


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
