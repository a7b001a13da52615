"""Cross-checks of the shooting oracle that only tests run.

Not a test module.  Tests import it by name, like ``crum_reference``.
"""
import dataclasses
import math
from functools import lru_cache
from itertools import accumulate

from ptwell.oracle_verifier import (DELTA, MIRROR_TOL, MismatchValue, ShootingConfig, Side,
                                    _block_coefficients, _rk4_constant_power, _rk4_step_product,
                                    _Sampled, _sampled_sides, _start, mismatch)


def power_above(E):
    """R = 2^p with 2^(p - 1) <= |E| < 2^p (1 at E = 0); inf where |E| or R is not finite."""
    import numpy as np

    r = abs(complex(E))
    with np.errstate(over="ignore"):
        return float(np.ldexp(1.0, math.frexp(r)[1])) if math.isfinite(r) else math.inf


def cut_degree(c, R):
    """The degree to which the product evaluates one side's blocks c at |E| < R, restated.

    The least K at which, in every entry, the terms |C_k| R^k above E^K sum
    to at most 2^-60 of those up to E^K; the full degree where a sum is not
    finite.
    """
    import numpy as np

    top = len(c) - 1
    with np.errstate(all="ignore"):
        terms = list(np.abs(c) * R ** np.arange(len(c))[:, None, None])
        heads = list(accumulate(terms))  # sums from E^0 up, tails from the top down
        tails = list(accumulate(reversed(terms)))[::-1]
    if not np.isfinite(tails[0]).all():
        return top
    return next((K for K in range(top) if (tails[K + 1] <= 2.0 ** -60 * heads[K]).all()), top)


def step_product_reference(blocks, Es, starts):
    """`_rk4_step_product` with each tree level written out entry by entry.

    Horner's rule to each side's `cut_degree` at each energy, then each
    level's four 2x2 product entries written in place next to the odd
    tail, with an exponent array from the start and the exact size test at
    every level: about 21 numpy calls per level.  The product must equal
    it bit for bit: the same multiplies and adds per element, and
    rescaling at the same levels by the same powers of two.
    """
    import numpy as np

    E = np.array(Es, dtype=np.complex128)
    m = np.empty((4, blocks.shape[2], len(Es), blocks.shape[3]), dtype=np.complex128)
    powers = [power_above(z) for z in Es]
    for s in range(blocks.shape[2]):
        table = {R: cut_degree(blocks[:, :, s], R) for R in set(powers)}
        degrees = [table[R] for R in powers]
        for K in set(degrees):
            at = [j for j, k in enumerate(degrees) if k == K]
            cs = blocks[:K + 1, :, s, None, :]
            if K == 0:
                m[:, s, at] = cs[0]
                continue
            v = cs[-1] * E[at, None]
            for c in cs[-2:0:-1]:
                v += c
                v *= E[at, None]
            m[:, s, at] = v + cs[0]
    m = m.reshape(4, -1, m.shape[3])
    e = np.zeros(m.shape[1:], dtype=np.int64)
    while m.shape[2] > 1:
        pairs = m.shape[2] // 2
        m0, m1 = m[:, :, 0:2 * pairs:2], m[:, :, 1:2 * pairs:2]
        pm = np.empty(m.shape[:2] + (m.shape[2] - pairs,), dtype=np.complex128)
        pm[:, :, pairs:] = m[:, :, 2 * pairs:]
        prod, t = pm[:, :, :pairs], np.empty(m0.shape[1:], dtype=np.complex128)
        for r in (0, 2):  # row r of m1 times column c of m0, written in place
            for c in (0, 1):
                np.multiply(m1[r], m0[c], out=prod[r + c])
                prod[r + c] += np.multiply(m1[r + 1], m0[c + 2], out=t)
        pe = np.concatenate((e[:, 0:2 * pairs:2] + e[:, 1:2 * pairs:2], e[:, 2 * pairs:]), axis=1)
        size = np.abs(prod).sum(axis=0)
        if (size > 1e100).any():
            shift = np.frexp(size)[1]
            prod *= np.ldexp(1.0, -shift)
            pe[:, :pairs] += shift
        m, e = pm, pe
    log2 = math.log(2.0)
    rows = list(zip(*m[:, :, 0].tolist(), e[:, 0].tolist()))
    return [[(a * psi + b * dpsi, c * psi + d * dpsi, k * log2)
             for a, b, c, d, k in rows[s * len(Es):(s + 1) * len(Es)]]
            for s, (psi, dpsi) in enumerate(starts)]


def rk4_order_estimate(V, E: complex, cfg: ShootingConfig = ShootingConfig(),
                       ladder=(1.6e-3, 8e-4, 4e-4, 2e-4)) -> float:
    """Observed convergence exponent of the mismatch under step halving.

    E should sit near, not on, an eigenvalue: at a root the leading error
    terms cancel and the ratio turns into noise.
    """
    vals = [mismatch(V, E, dataclasses.replace(cfg, h=h)).normalized for h in ladder]
    diffs = [abs(vals[i] - vals[i + 1]) for i in range(len(vals) - 1)]
    exps = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    return sum(exps) / len(exps)


def two_sided_blocks(V, cfg: ShootingConfig):
    """Both sides' block coefficients, right then left, stacked as `_rk4_step_product`
    takes them, with one empty degree table per side and their start values;
    blocks is None when both sides are constant.  A slice of sides k:k + 1
    takes tables[k:k + 1] and starts[k:k + 1]."""
    import numpy as np

    sides = _sampled_sides(V, cfg.h).sides
    tables, starts = [{} for _ in Side], [_start(cfg, side) for side in Side]
    if all(constant is not None for *_, constant in sides.values()):
        return None, tables, starts
    blocks = np.stack([_block_coefficients(*sides[side][:3]) for side in Side], axis=2)
    return blocks, tables, starts


def two_sided(V, Es, cfg: ShootingConfig):
    """Per side, right then left, (psi, dpsi, logscale) at x = 0 for each energy
    in Es, each side integrated on its own samples, mirrored or not."""
    blocks, tables, starts = two_sided_blocks(V, cfg)
    if blocks is None:
        sides = _sampled_sides(V, cfg.h).sides
        return [[_rk4_constant_power(constant - E, len(mids), hh, *start) for E in Es]
                for (_, mids, hh, constant), start in zip(sides.values(), starts)]
    return _rk4_step_product(blocks, tables, Es, starts)


def two_sided_mismatches(V, Es, cfg: ShootingConfig):
    """MismatchValues from both sides integrated, as `mismatches` builds them."""
    right, left = two_sided(V, Es, cfg)
    return [MismatchValue(E, pL * dR - dL * pR,
                          math.hypot(abs(pL), abs(dL)) * math.hypot(abs(pR), abs(dR)))
            for E, (pR, dR, _), (pL, dL, _) in zip(Es, right, left)]


def list_positions(x0, n):
    """A side's 2n + 1 sample positions by the point-by-point formula: node k
    at j = 2k, midpoint k at j = 2k + 1."""
    return [x0 * (n - j / 2) / n for j in range(2 * n + 1)]


@lru_cache(maxsize=1)
def list_sampled_sides(V, h: float):
    """`_sampled_sides` with every side's positions built as a Python list.

    Array evaluators get the list converted by numpy, as they converted it
    themselves when the oracle passed lists; everything after sampling is
    the oracle's own rule, restated.  Its samples, blocks and so every
    mismatch and root must equal the oracle's bit for bit.  Cached like the
    oracle's, so it can stand in for `_sampled_sides` in a whole search.
    """
    import numpy as np

    n = max(1, round((1.0 - DELTA) / h))
    arrays = getattr(V, "arrays", None)
    sides = {}
    for side, ev in zip(Side, arrays or (V.right_eval, V.left_eval)):
        x0 = 1.0 - DELTA if side is Side.RIGHT else -(1.0 - DELTA)
        xs = list_positions(x0, n)
        vals = ev(np.asarray(xs)) if arrays else [ev(x) for x in xs]
        v = vals[0]
        constant = complex(v) if all(u == v for u in vals) else None
        sides[side] = (vals[0::2], vals[1::2], -x0 / n, constant)
    right, left = sides[Side.RIGHT][3], sides[Side.LEFT][3]
    both_constant = right is not None and left is not None
    if both_constant:
        mirrored = abs(left - right.conjugate()) <= MIRROR_TOL * abs(right)
    else:
        sides = {side: (np.asarray(nodes, dtype=np.complex128),
                        np.asarray(mids, dtype=np.complex128), hh, constant)
                 for side, (nodes, mids, hh, constant) in sides.items()}
        mirrored = all(bool(np.all(np.abs(l - np.conj(r)) <= MIRROR_TOL * np.abs(r)))
                       for r, l in zip(sides[Side.RIGHT][:2], sides[Side.LEFT][:2]))
    integrated = tuple(Side)[:1 if mirrored else 2]
    blocks = None if both_constant else np.stack([_block_coefficients(*sides[side][:3])
                                                  for side in integrated], axis=2)
    return _Sampled(sides, blocks, integrated, tuple({} for _ in integrated))
