"""Cross-checks of the shooting oracle that only tests run.

Not a test module.  Tests import it by name, like ``crum_reference``.
"""
import dataclasses
import math

from ptwell.oracle_verifier import (MismatchValue, ShootingConfig, Side, _block_coefficients,
                                    _rk4_constant_power, _rk4_step_product, _sampled_sides,
                                    _start, mismatch)


def step_product_reference(blocks, Es, starts):
    """`_rk4_step_product` with each tree level written out entry by entry.

    The same Horner's rule, then each level's four 2x2 product entries
    written in place next to the odd tail, with an exponent array from the
    start and the exact size test at every level: about 21 numpy calls per
    level.  The product must equal it bit for bit: the same multiplies and
    adds per element, and rescaling at the same levels by the same powers
    of two.
    """
    import numpy as np

    E = np.array(Es, dtype=np.complex128)[:, None]
    cs = blocks[:, :, :, None, :]
    m = cs[-1] * E
    for c in cs[-2:0:-1]:
        m += c
        m *= E
    m += cs[0]
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
    takes them, with their start values; blocks is None when both sides are constant."""
    import numpy as np

    sides = _sampled_sides(V, cfg.h)[0]
    starts = [_start(cfg, side) for side in Side]
    if all(constant is not None for *_, constant in sides.values()):
        return None, starts
    return np.stack([_block_coefficients(*sides[side][:3]) for side in Side], axis=2), starts


def two_sided(V, Es, cfg: ShootingConfig):
    """Per side, right then left, (psi, dpsi, logscale) at x = 0 for each energy
    in Es, each side integrated on its own samples, mirrored or not."""
    blocks, starts = two_sided_blocks(V, cfg)
    if blocks is None:
        sides = _sampled_sides(V, cfg.h)[0]
        return [[_rk4_constant_power(constant - E, len(mids), hh, *start) for E in Es]
                for (_, mids, hh, constant), start in zip(sides.values(), starts)]
    return _rk4_step_product(blocks, Es, starts)


def two_sided_mismatches(V, Es, cfg: ShootingConfig):
    """MismatchValues from both sides integrated, as `mismatches` builds them."""
    right, left = two_sided(V, Es, cfg)
    return [MismatchValue(E, pL * dR - dL * pR,
                          math.hypot(abs(pL), abs(dL)) * math.hypot(abs(pR), abs(dR)))
            for E, (pR, dR, _), (pL, dL, _) in zip(Es, right, left)]
