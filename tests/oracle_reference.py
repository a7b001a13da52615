"""Cross-checks of the shooting oracle that only tests run.

Not a test module.  Tests import it by name, like ``crum_reference``.
"""
import dataclasses
import math

from ptwell.oracle_verifier import (MismatchValue, ShootingConfig, Side, _block_coefficients,
                                    _rk4_constant_power, _rk4_step_product, _sampled_sides,
                                    _start, mismatch)


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

    sides = _sampled_sides(V, cfg.h, cfg.delta)[0]
    starts = [_start(cfg, side) for side in Side]
    if all(constant is not None for *_, constant in sides.values()):
        return None, starts
    return np.stack([_block_coefficients(*sides[side][:3]) for side in Side], axis=2), starts


def two_sided(V, Es, cfg: ShootingConfig):
    """Per side, right then left, (psi, dpsi, logscale) at x = 0 for each energy
    in Es, each side integrated on its own samples, mirrored or not."""
    blocks, starts = two_sided_blocks(V, cfg)
    if blocks is None:
        sides = _sampled_sides(V, cfg.h, cfg.delta)[0]
        return [[_rk4_constant_power(constant - E, len(mids), hh, *start) for E in Es]
                for (_, mids, hh, constant), start in zip(sides.values(), starts)]
    return _rk4_step_product(blocks, Es, starts)


def two_sided_mismatches(V, Es, cfg: ShootingConfig):
    """MismatchValues from both sides integrated, as `mismatches` builds them."""
    right, left = two_sided(V, Es, cfg)
    return [MismatchValue(E, pL * dR - dL * pR,
                          math.hypot(abs(pL), abs(dL)) * math.hypot(abs(pR), abs(dR)))
            for E, (pR, dR, _), (pL, dL, _) in zip(Es, right, left)]
