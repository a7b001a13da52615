"""Shooting-method eigen-solver, independent of every closed form.

Both sides are integrated from the walls toward the matching point with
fixed-step RK4 on presampled potential values; eigenvalues are zeros of the
normalized Wronskian mismatch at x = 0.  The integrator consumes only a
potential's side evaluators and its endpoint exponent, never eigenfunction
formulas, so agreement with the closed forms is a genuine cross-check.

The ODE is linear, so each RK4 step is a fixed 2x2 matrix and a side is the
ordered product of its step matrices: the n-th power of one matrix when all
samples share one value (the bare well), else a pairwise tree product of the
n matrices, built at once in numpy (the partner potentials).  numpy is
imported on the first such side, so the bare well, and every process that
never integrates a partner potential, runs without it.
"""
import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .spectral_core import ConvergenceError

# no compiled backend; the name stays because the benchmark's report reads it
njit = None

GRID_RESOLUTION = 240  # real-axis scan points
ROOT_TOL = 1e-10       # |normalized mismatch| below which a secant run has converged


class Side(Enum):
    RIGHT = "R"
    LEFT = "L"


@dataclass(frozen=True)
class ShootingConfig:
    h: float = 2e-4
    delta: float = 1e-6
    p: int = 1

    def __post_init__(self):
        assert 0.0 < self.h < 1e-2
        assert 0.0 < self.delta < 1e-3
        assert self.p >= 1

    @classmethod
    def for_potential(cls, V, **kw) -> "ShootingConfig":
        return cls(p=V.endpoint_exponent, **kw)


@dataclass(frozen=True)
class MismatchValue:
    """Wronskian psi_L psi_R' - psi_L' psi_R at 0, with its natural scale."""
    E: complex
    wronskian: complex
    scale: float

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


def _rk4_step_product(vnodes, vmids, E, hh, psi, dpsi):
    """All RK4 steps of psi'' = (V - E) psi as the ordered product M[n-1]...M[1] M[0].

    The RK4 stage arithmetic runs on both unit vectors at once, giving rows
    a, b, c, d of every step matrix [[a, b], [c, d]].  Neighbours multiply
    pairwise up a tree, carrying an odd tail; once a partial product passes
    1e100, its level is scaled by exact powers of two, summed up the tree.
    The solution is (psi, dpsi) * exp(logscale).
    """
    import numpy as np  # here, not at module level: see the module docstring

    q1, qm, q2 = vnodes[:-1] - E, vmids - E, vnodes[1:] - E
    p, d = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    k1p, k1d = d, q1 * p
    k2p, k2d = d + hh / 2.0 * k1d, qm * (p + hh / 2.0 * k1p)
    k3p, k3d = d + hh / 2.0 * k2d, qm * (p + hh / 2.0 * k2p)
    k4p, k4d = d + hh * k3d, q2 * (p + hh * k3p)
    m = np.concatenate((p + hh / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
                        d + hh / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)))
    e = np.zeros(m.shape[1], dtype=np.int64)
    while m.shape[1] > 1:
        k = m.shape[1] & ~1
        (a0, b0, c0, d0), (a1, b1, c1, d1) = m[:, 0:k:2], m[:, 1:k:2]
        pm = np.stack((a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                       c1 * a0 + d1 * c0, c1 * b0 + d1 * d0))
        pe = e[0:k:2] + e[1:k:2]
        size = np.abs(pm).sum(axis=0)
        if (size > 1e100).any():  # rescaling every level would cost far more than this test
            shift = np.frexp(size)[1]
            pm *= np.ldexp(1.0, -shift)
            pe += shift
        m, e = np.concatenate((pm, m[:, k:]), axis=1), np.concatenate((pe, e[k:]))
    a, b, c, d = m[:, 0].tolist()
    return a * psi + b * dpsi, c * psi + d * dpsi, int(e[0]) * math.log(2.0)


def _samples(ev, xs):
    """Samples of ev at xs, and their common value if they share one."""
    vals = [ev(x) for x in xs]
    v = vals[0]
    return vals, (complex(v) if all(u == v for u in vals) else None)


# one potential's two sides are all its callers reuse; more keeps old ones alive
@lru_cache(maxsize=2)
def _sampled_side(V, side: Side, h: float, delta: float):
    """Potential samples on the integration nodes and midpoints of one side.

    Node positions are affine in the step index so the last node lands on
    exactly 0.0 and is evaluated with the correct side's evaluator; an
    accumulated-position loop drifts across the origin jump and costs the
    integrator an order of convergence.  The fourth entry is the common
    value when every node and midpoint sample is the same, and the samples
    are lists; else it is None and they are complex128 arrays for the step
    product.
    """
    n = max(1, round((1.0 - delta) / h))
    x0 = 1.0 - delta if side is Side.RIGHT else -(1.0 - delta)
    hh = -x0 / n
    ev = V.right_eval if side is Side.RIGHT else V.left_eval
    nodes, vn = _samples(ev, (x0 * (n - k) / n for k in range(n + 1)))
    mids, vm = _samples(ev, (x0 * (n - k - 0.5) / n for k in range(n)))
    if vn is not None and vn == vm:
        return nodes, mids, hh, vn
    import numpy as np  # here, not at module level: see the module docstring

    return np.array(nodes, dtype=np.complex128), np.array(mids, dtype=np.complex128), hh, None


def _integrate(V, E: complex, side: Side, cfg: ShootingConfig):
    nodes, mids, hh, constant = _sampled_side(V, side, cfg.h, cfg.delta)
    sgn = -1.0 if side is Side.RIGHT else 1.0
    psi0 = complex(cfg.delta ** cfg.p)
    dpsi0 = complex(sgn * cfg.p * cfg.delta ** (cfg.p - 1))
    if constant is not None:
        return _rk4_constant_power(constant - complex(E), len(mids), hh, psi0, dpsi0)
    return _rk4_step_product(nodes, mids, complex(E), hh, psi0, dpsi0)


def integrate_side(V, E: complex, side: Side, cfg: ShootingConfig = ShootingConfig()):
    """(psi(0), psi'(0)) of the regular solution started at the wall.

    Startup uses the local regular behavior psi = delta^p at distance delta
    from the wall.  If intermediate renormalization fired and the common
    factor is too large to restore, the returned pair is the renormalized
    one (the direction is what the mismatch consumes).
    """
    psi, dpsi, logscale = _integrate(V, E, side, cfg)
    if logscale != 0.0 and logscale < 700.0:
        f = math.exp(logscale)
        return psi * f, dpsi * f
    return psi, dpsi


def mismatch(V, E: complex, cfg: ShootingConfig = ShootingConfig()) -> MismatchValue:
    """Wronskian of the two one-sided solutions at x = 0; zero iff E is an eigenvalue.

    The scale is the Hadamard bound |(pL,dL)| |(pR,dR)|, never zero for a
    nontrivial solution; the normalized value is the sine of the angle
    between the side solutions and is invariant under per-side rescaling.
    """
    pR, dR, _ = _integrate(V, E, Side.RIGHT, cfg)
    pL, dL, _ = _integrate(V, E, Side.LEFT, cfg)
    w = pL * dR - dL * pR
    scale = math.sqrt((abs(pL) ** 2 + abs(dL) ** 2) * (abs(pR) ** 2 + abs(dR) ** 2))
    return MismatchValue(complex(E), w, scale)


def _secant(f, E0, E1, f0, f1):
    """Damped secant on a real or complex scalar f, from (E0, f0) and (E1, f1).

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
            f2 = f(E1 + step)
            return (E1 + step, abs(f2)) if abs(f2) <= abs(f1) else (E1, abs(f1))
        lam = 1.0
        for _ in range(8):
            E2 = E1 + lam * step
            f2 = f(E2)
            if abs(f2) < abs(f1):
                break
            lam /= 2.0
        E0, E1, f0, f1 = E1, E2, f1, f2
    return E1, abs(f1)


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


def _real_axis_starts(V, lo: float, hi: float, cfg: ShootingConfig):
    """Neighbouring scan points (E0, E1, f0, f1) whose values bracket a real root.

    PT-symmetric potential: the normalized mismatch is real on the real
    axis, so sign changes (or an exact zero) bracket eigenvalues.
    """
    Es = linspace(lo, hi, GRID_RESOLUTION)
    vals = [mismatch(V, complex(E), cfg).normalized.real for E in Es]
    return [(Es[k], Es[k + 1], vals[k], vals[k + 1]) for k in range(len(Es) - 1)
            if vals[k] == 0.0 or vals[k] * vals[k + 1] < 0.0]


def _box_minima_candidates(V, lo: complex, hi: complex, cfg: ShootingConfig):
    # coarse |mismatch| landscape; local minima become secant starts
    nr, ni = 48, 25
    res = linspace(lo.real, hi.real, nr)
    ims = linspace(lo.imag, hi.imag, ni)
    mag = [[abs(mismatch(V, complex(a, b), cfg).normalized) for a in res] for b in ims]
    seeds = []
    for i in range(ni):
        for j in range(nr):
            patch = min(min(row[max(0, j - 1):j + 2]) for row in mag[max(0, i - 1):i + 2])
            if mag[i][j] == patch and mag[i][j] < 0.5:
                seeds.append(complex(res[j], ims[i]))
    return seeds


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

    search_box is a pair of complex corners.  PT-symmetric potentials whose
    box straddles the real axis are scanned for real roots; otherwise, when
    no seeds are given, the box is sampled for mismatch minima.  Extra
    complex seeds (e.g. closed predictions perturbed by a few percent) are
    solved first.  Every root comes from one damped secant (`_secant`):
    on the real mismatch from a scan bracket's two points, so real roots
    stay exactly real, and on the complex mismatch from E and
    E + 1e-7 (1 + |E|) for a seed or box minimum.  Starts that fail to
    converge are skipped; falling short of `count` converged levels raises
    ConvergenceError.
    """
    lo, hi = complex(search_box[0]), complex(search_box[1])
    lo, hi = complex(min(lo.real, hi.real), min(lo.imag, hi.imag)), \
        complex(max(lo.real, hi.real), max(lo.imag, hi.imag))
    on_plane = lambda E: mismatch(V, E, cfg).normalized
    on_axis = lambda E: mismatch(V, complex(E), cfg).normalized.real
    scan = getattr(V, "pt_symmetric", False) and lo.imag <= 0.0 <= hi.imag
    seeds = list(seeds) if seeds is not None else []
    if not scan and not seeds:
        seeds = _box_minima_candidates(V, lo, hi, cfg)
    roots = []
    for seed in seeds:
        E0 = complex(seed)
        E1 = E0 + 1e-7 * (1.0 + abs(E0))
        roots.append(_secant(on_plane, E0, E1, on_plane(E0), on_plane(E1)))
    if scan:
        roots += [_secant(on_axis, *start) for start in _real_axis_starts(V, lo.real, hi.real, cfg)]
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
            f"only {len(found)} of {count} levels converged in the search box")
    return found[:count]


def rk4_order_estimate(V, E: complex, cfg: ShootingConfig = ShootingConfig(),
                       ladder=(1.6e-3, 8e-4, 4e-4, 2e-4)) -> float:
    """Observed convergence exponent of the mismatch under step halving.

    E should sit near, not on, an eigenvalue: at a root the leading error
    terms cancel and the ratio turns into noise.
    """
    vals = [mismatch(V, E, replace(cfg, h=h)).normalized for h in ladder]
    diffs = [abs(vals[i] - vals[i + 1]) for i in range(len(vals) - 1)]
    exps = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    return sum(exps) / len(exps)
