"""A 40-digit referee for the hierarchy members: Crum's Wronskian determinants in mpmath.

Not a test module.  Tests import it after ``pytest.importorskip("mpmath")``.

On one side of the well, in the wall coordinate u (1 - x on the right,
1 + x on the left), every eigenfunction of the bare well is sinh(kappa u)
with kappa^2 = c - E, c = -iZ on the right and +iZ on the left.  A member
that eliminated the levels with wavenumbers k_1..k_k has, by Crum's theorem,

    V = c - 2 d^2/du^2 ln Wr(sinh k_1 u, ..., sinh k_k u),
    psi = Wr(sinh k_1 u, ..., sinh k_k u, sinh kappa u) / Wr(sinh k_1 u, ..., sinh k_k u).

Row r of a Wronskian matrix is exact: kappa^r sinh(kappa u) for even r,
kappa^r cosh(kappa u) for odd r, and a u-derivative of a Wronskian only
moves its last rows.  Gaussian elimination of the matrix with rows
0..k+1, columns in elimination order, gives every member of one chain at
once: after p pivots the reduced entries are ratios of determinants
(Sylvester's identity), and the pivots are the members' Wronskians over
each other, which never vanish inside the well.  The only loss is the
cancellation inside the determinants near the wall; the working precision
is raised by the digits it costs, so every result carries about 40
correct digits.
"""
import math

import mpmath as mp

DIGITS = 40


def _guard_digits(kappas, u) -> int:
    # Wr of n functions vanishes like (K u)^(n(n-1)/2) at the wall, from
    # entries of order one, and its u-derivatives cost a few digits more
    n = len(kappas)
    kmax = max(abs(complex(k)) for k in kappas)
    return int(math.ceil((n + 1) * (n + 2) / 2 * max(0.0, -math.log10(kmax * u)))) + 10


def crum_chain(c, seeds, extra, u):
    """Every member of the chain that eliminates `seeds` in order, at wall distance u.

    Columns are the functions sinh(kappa u) for kappa in seeds + extra.
    Returns a list whose item k is the member that eliminated seeds[:k]:
    (V, psi), with psi mapping each column j >= k to (psi_j, dpsi_j/du),
    unnormalized.  Pass u exactly as the code under test forms it (1 - x or
    1 + x in floating point): near the wall V moves like 1/u^2.
    """
    kappas = [complex(k) for k in list(seeds) + list(extra)]
    K = len(seeds)
    with mp.workdps(DIGITS + _guard_digits(kappas, u)):
        u = mp.mpf(u)
        kappas = [mp.mpc(k) for k in kappas]
        sh = [mp.sinh(k * u) for k in kappas]
        ch = [mp.cosh(k * u) for k in kappas]
        rows, power = [], [mp.mpf(1)] * len(kappas)
        for r in range(K + 2):
            rows.append([p * (s if r % 2 == 0 else q) for p, s, q in zip(power, sh, ch)])
            power = [p * k for p, k in zip(power, kappas)]
        # states[p]: rows p..K+1 over columns p.. after p pivots
        states = [rows]
        for _ in range(K):
            head, *rest = states[-1]
            states.append([[q - f * h for q, h in zip(r[1:], head[1:])]
                           for r, f in ((r, r[0] / head[0]) for r in rest)])
        members = []
        for k in range(K + 1):
            if k == 0:
                dlog, ddlog = mp.mpf(0), mp.mpf(0)
            elif k == 1:
                dlog, ddlog = rows[1][0] / rows[0][0], rows[2][0] / rows[0][0]
            else:
                a, b, p, q = states[k - 2][:4]

                def minor(r, s):
                    return r[0] * s[1] - r[1] * s[0]
                w = minor(a, b)
                dlog, ddlog = minor(a, p) / w, (minor(a, q) + minor(b, p)) / w
            V = mp.mpc(c) - 2 * (ddlog - dlog ** 2)
            top, below = states[k][0], states[k][1]
            members.append((+V, {k + i: (+f, +(g - f * dlog))
                                 for i, (f, g) in enumerate(zip(top, below))}))
        return members
