"""Independent checks of every answer, made outside the timed region.

Nothing here reuses the program's solvers or compares against stored
output.  Real levels are refined as roots of G(t) = s sinh 2s + t sin 2t
with mpmath at 40 digits, complex levels as roots of rho coth rho +
sigma coth sigma, and critical couplings as solutions of G = dG/dt = 0,
each from the referee's own seeds.  Eigenfunctions are checked against the
Schroedinger equation with the referee's own finite-difference stencil,
hierarchy spectra against their parent's, and potentials against the
closed SUSY partner of the well and the Z = 0 sec^2 family.

`check` returns a list of problems; an empty list means every answer passed.
"""
import csv
import io
import json
import math
import statistics

import workloads

DPS = 40
# closed forms against the oracle: the tolerance of `ptwell verify`
ORACLE_TOL = 1e-6
# relative agreement of a returned level with its 40-digit refinement; a
# level perturbed by 1e-6 relative is far outside it
LEVEL_RTOL = 1e-10
# relative size of the relations and closed potentials the program must meet
RELATION_RTOL = 1e-9
# relative accuracy of one eigenfunction value, for the stencil's rounding
# floor: members built through a near-singular one (a pair member, then a
# real level eliminated) were measured down to 6e-8
PSI_RTOL = 1e-7
# a stencil is only trusted while its rounding floor is below this share of
# the equation's terms
FLOOR_SHARE = 0.1
# stencil points stay this far from the walls, where V grows like (1-|x|)^-2
STENCIL_XMAX = 0.9


class Referee:
    def __init__(self):
        import mpmath  # imported here, after the timed run has read its peak RSS
        mpmath.mp.dps = DPS
        self.mp = mpmath
        self.problems = []
        self._crit = []

    def fail(self, where, message):
        self.problems.append(f"{where}: {message}")

    # --- the matching condition and its roots --------------------------------

    def G(self, t, Z):
        mp = self.mp
        s = Z / (2 * t)
        return s * mp.sinh(2 * s) + t * mp.sin(2 * t)

    def G_t(self, t, Z):
        mp = self.mp
        s = Z / (2 * t)
        # s = Z/2t, so ds/dt = -s/t
        return (-(s / t) * (mp.sinh(2 * s) + 2 * s * mp.cosh(2 * s))
                + mp.sin(2 * t) + 2 * t * mp.cos(2 * t))

    def kappa_residual(self, E, Z):
        mp = self.mp
        rho = self._halfplane_sqrt(-E - 1j * Z)
        sigma = self._halfplane_sqrt(1j * Z - E)
        return rho * mp.coth(rho) + sigma * mp.coth(sigma)

    def _halfplane_sqrt(self, w):
        r = self.mp.sqrt(self.mp.mpc(w))
        if r.real < 0 or (r.real == 0 and r.imag > 0):
            r = -r
        return r

    def critical(self, nu):
        """(Z_crit, t_merge) of band nu: G = dG/dt = 0, seeded at mid-band."""
        mp = self.mp
        while len(self._crit) <= nu:
            k = len(self._crit)
            t0 = (k + mp.mpf(3) / 4) * mp.pi  # t sin 2t = -t there
            s0 = mp.findroot(lambda s: s * mp.sinh(2 * s) - t0, 1)
            t, Z = mp.findroot([lambda t, Z: self.G(t, Z), lambda t, Z: self.G_t(t, Z)],
                               (t0, 2 * t0 * s0))
            if not (k + mp.mpf(1) / 2) * mp.pi < t < (k + 1) * mp.pi:
                raise RuntimeError(f"referee: tangency of band {k} left its band (t={t})")
            self._crit.append((Z, t))
        return self._crit[nu]

    def pairs_below(self, Z):
        nu = 0
        while self.critical(nu)[0] < Z:
            nu += 1
        return nu

    def real_root(self, t, Z):
        return self.mp.findroot(lambda u: self.G(u, Z), self.mp.mpf(t))

    def complex_root(self, E, Z):
        return self.mp.findroot(lambda e: self.kappa_residual(e, Z), self.mp.mpc(E))

    def lowest_real_root(self, Z):
        """The lower root of G in band 0 at 0 < Z < Z_crit(0), bracketed by a scan."""
        lo, hi = math.pi / 2, math.pi
        ts = [lo + (hi - lo) * k / 400 for k in range(400)]  # G(lo) = s sinh 2s > 0
        for a, b in zip(ts, ts[1:]):
            if float(self.G(a, Z)) > 0 >= float(self.G(b, Z)):
                return self.mp.findroot(lambda u: self.G(u, Z), (a, b), solver="anderson")
        raise RuntimeError(f"referee: no real root in band 0 at Z={Z}")

    # --- spectra ---------------------------------------------------------------

    def spectrum(self, where, Z, count, levels):
        """levels: [(E complex, branch name, t)] as the program returned them."""
        mp = self.mp
        if len(levels) != count:
            self.fail(where, f"{len(levels)} levels returned, {count} asked")
        res = [E.real for E, _, _ in levels]
        if res != sorted(res):
            self.fail(where, "levels not ordered by Re E")
        if Z == 0:
            for n, (E, branch, _) in enumerate(levels):
                exact = ((n + 1) * mp.pi / 2) ** 2
                if branch != "Real" or abs(E - exact) > LEVEL_RTOL * exact:
                    self.fail(where, f"level {n} = {E} at Z = 0, expected {float(exact)!r}")
            return
        n_crit = self.pairs_below(Z)
        pairs = min(n_crit, count // 2)
        complex_levels = [lv for lv in levels if lv[1] != "Real"]
        if len(complex_levels) != 2 * pairs and not (2 * n_crit > count
                                                     and len(complex_levels) == count):
            self.fail(where, f"{len(complex_levels)} complex levels, but {n_crit} critical "
                             f"couplings lie below Z = {Z}")
        reals = []
        for n, (E, branch, t) in enumerate(levels):
            if branch == "Real":
                reals.append(self.real_level(f"{where} level {n}", E, t, Z))
            elif branch == "ComplexPairLower":
                self.pair_level(f"{where} level {n}", E, Z)
                upper = levels[n + 1] if n + 1 < len(levels) else None
                if upper is not None and (upper[1] != "ComplexPairUpper"
                                          or upper[0] != E.conjugate() or E.imag >= 0):
                    self.fail(where, f"level {n + 1} is not the conjugate of level {n}")
            elif branch == "ComplexPairUpper":
                self.pair_level(f"{where} level {n}", E, Z)
            else:
                self.fail(where, f"unknown branch {branch!r}")
        # the real levels fill the unbroken bands in order, two per band
        for j, (nu, t) in enumerate(reals):
            if nu != n_crit + j // 2:
                self.fail(where, f"real level {j} sits in band {nu}, expected {n_crit + j // 2}")
            if j % 2 and abs(t - reals[j - 1][1]) <= LEVEL_RTOL * t:
                self.fail(where, f"real levels {j - 1} and {j} are the same root")

    def real_level(self, where, E, t, Z):
        mp = self.mp
        if E.imag != 0:
            self.fail(where, f"real level with Im E = {E.imag}")
        ts = self.real_root(t, Z)
        nu = int(mp.floor(ts / mp.pi))
        if not (nu + mp.mpf(1) / 2) * mp.pi < ts < (nu + 1) * mp.pi:
            self.fail(where, f"root t = {float(ts)!r} outside every band")
        if abs(t - ts) > LEVEL_RTOL * ts:
            self.fail(where, f"t = {t!r} is not a root of G: the 40-digit root is {float(ts)!r}")
        Es = ts ** 2 - (Z / (2 * ts)) ** 2
        if abs(E.real - Es) > LEVEL_RTOL * abs(Es):
            self.fail(where, f"E = {E.real!r}, the 40-digit level is {float(Es)!r}")
        return nu, float(ts)

    def pair_level(self, where, E, Z):
        Es = self.complex_root(E, Z)
        if abs(E - Es) > LEVEL_RTOL * abs(Es):
            self.fail(where, f"E = {E!r} does not solve rho coth rho + sigma coth sigma = 0: "
                             f"the 40-digit root is {complex(Es)!r}")

    def chain(self, where, plan, spectra):
        """Member m keeps member m-1's levels except the one its plan step removes."""
        for m, token in enumerate(plan, start=1):
            parent, child = spectra[m - 1], spectra[m]
            idx = eliminated(parent, token)
            if idx is None:
                self.fail(where, f"member {m} has no level for plan step {token!r}")
                continue
            if child != parent[:idx] + parent[idx + 1:]:
                self.fail(where, f"member {m + 1} does not keep member {m}'s spectrum "
                                 f"minus level {idx}")

    # --- potentials and eigenfunctions ----------------------------------------

    def stencil(self, where, xs, psi, V, E, evaluate):
        """-psi'' + (V - E) psi = 0 on one side of the well, by finite differences.

        The 4th-order stencil runs at steps h and 2h; by Richardson the
        truncation error at h is (r_2h - r_h)/15, and a residual may exceed
        that estimate threefold, plus the stencil's rounding floor.  Where
        the grid does not resolve psi (a near-pole of V inside the well), the
        point is retried at steps h/4, h/16, ... with values from
        `evaluate(x) -> (psi, V)`, as long as the rounding floor stays below
        FLOOR_SHARE of the equation's terms.  A wrong V or E leaves a
        residual that does not shrink with h, so it fails.
        """
        h = xs[1] - xs[0]
        typical = statistics.median(abs((v - E) * p) for v, p in zip(V, psi))
        for j in range(4, len(xs) - 4):
            if abs(xs[j]) > STENCIL_XMAX:
                continue
            p, v = psi[j - 4:j + 5], V[j]
            for k in range(5):
                hk = h / 4 ** k
                if k:
                    vals = [evaluate(xs[j] + i * hk) for i in range(-4, 5)]
                    p, v = [q for q, _ in vals], vals[4][1]
                verdict = self._stencil_ok(p, v, E, hk, typical)
                if verdict is not False:
                    break
            if not verdict:
                self.fail(where, f"eigenfunction misses -psi'' + (V - E) psi = 0 at "
                                 f"x = {xs[j]:.4f} (smallest step tried {hk:.2g})")
                return

    @staticmethod
    def _stencil_ok(p, V, E, h, typical):
        """p: psi at x + i h, i = -4..4.  True if the residual is within the
        bound, False if not, None if the rounding floor is too large to judge."""
        r = []
        for k in (1, 2):
            d2 = (-p[4 + 2 * k] + 16 * p[4 + k] - 30 * p[4] + 16 * p[4 - k] - p[4 - 2 * k]) \
                / (12 * (k * h) ** 2)
            r.append(-d2 + (V - E) * p[4])
            if k == 1:
                terms = max(abs(d2) + abs((V - E) * p[4]), typical)
        local = max(abs(v) for v in p)
        floor = (64 / 12) * PSI_RTOL * local / h ** 2 + PSI_RTOL * abs(V - E) * local
        if floor > FLOOR_SHARE * terms:
            return None
        return abs(r[0]) <= 3 * abs(r[1] - r[0]) / 15 + floor

    def partner_V2(self, x, E, Z):
        """Second member from the well's level E: V = W^2 + W' + E, W = rho coth rho(1-x)."""
        mp = self.mp
        if x >= 0:
            rho = self._halfplane_sqrt(-E - 1j * Z)
            return 2 * rho ** 2 * mp.csch(rho * (1 - x)) ** 2 - 1j * Z
        sigma = self._halfplane_sqrt(1j * Z - E)
        return 2 * sigma ** 2 * mp.csch(sigma * (1 + x)) ** 2 + 1j * Z

    @staticmethod
    def close(a, b, scale):
        return abs(a - b) <= RELATION_RTOL * scale


def _well(x, Z):
    """The bare well: -iZ for x >= 0, +iZ for x < 0."""
    return complex(0.0, -Z) if x >= 0 else complex(0.0, Z)


def eliminated(energies, token):
    """Index of the level a plan step removes: the lowest real level, or the
    lowest lower (Im < 0) or upper (Im > 0) pair member."""
    test = {"real": lambda E: E.imag == 0, "clower": lambda E: E.imag < 0,
            "cupper": lambda E: E.imag > 0}[token]
    return next((i for i, E in enumerate(energies) if test(E)), None)


def _levels(spectrum):
    return [(lv.energy, lv.branch.value, -lv.kappa_right.value.imag) for lv in spectrum.levels]


def _rows(rows):
    return [(complex(r["re"], r["im"]), r["branch"], r["t"]) for r in rows]


def check_hierarchy(ref, where, req, answer, program):
    _, Z, plan, depth = req
    members = answer.members
    ref.spectrum(f"{where} member 1", Z, workloads.HIERARCHY_LEVELS, _levels(members[0].spectrum))
    tokens = plan.split(",") if plan else []
    ref.chain(where, tokens, [[lv.energy for lv in m.spectrum.levels] for m in members])
    grid = workloads.GRID
    half = len(grid) // 2
    inner = [j for j, x in enumerate(grid) if abs(x) <= STENCIL_XMAX]
    for mem, (V, psis) in zip(members, answer.grids):
        m = mem.depth
        scale = max(abs(V[j]) for j in inner)
        if m == 1 and any(v != _well(x, Z) for x, v in zip(grid, V)):
            ref.fail(where, "member 1 is not the well -iZ / +iZ")
        if mem.potential.pt_symmetric and not all(
                ref.close(V[j], V[-1 - j].conjugate(), scale) for j in inner):
            ref.fail(where, f"member {m} is marked PT-symmetric but V(-x) != conj V(x)")
        if Z == 0:
            g = m * (m - 1) * math.pi ** 2 / 4
            family = [g / math.cos(math.pi * grid[j] / 2) ** 2 for j in inner]
            if not all(ref.close(V[j], f, max(f, 1.0)) for j, f in zip(inner, family)):
                ref.fail(where, f"member {m} at Z = 0 is not {m * (m - 1)} pi^2/4 sec^2(pi x/2)")
        for n, psi in enumerate(psis):
            f = mem.eigenfunctions(n)

            def evaluate(x, f=f, V=mem.potential):
                return f(x), V(x)
            E = mem.spectrum.levels[n].energy
            for side, cut in (("left", slice(0, half)), ("right", slice(half, None))):
                ref.stencil(f"{where} member {m} psi{n} {side}", grid[cut], psi[cut], V[cut],
                            E, evaluate)
    if answer.relations is not None:
        rel = answer.relations
        for key in ("member2_mirror_dev", "member3_same_dev"):
            if not rel[key] <= RELATION_RTOL * (1 + Z):
                ref.fail(where, f"relations check reports {key} = {rel[key]:.3g}")
        _mirror_relations(ref, where, Z, program)


def _mirror_relations(ref, where, Z, program):
    """V2b(x) = conj V2a(-x), and both pair-elimination orders reach the same V3."""
    sh = program.susy_hierarchy
    a = sh.build_hierarchy(Z, sh.EliminationPlan.from_text("clower,cupper"), 3, 4)
    b = sh.build_hierarchy(Z, sh.EliminationPlan.from_text("cupper,clower"), 3, 4)
    grid = workloads.GRID
    v2a = {x: a[1].potential(x) for x in grid}
    v2b = [b[1].potential(x) for x in grid]
    scale = max(abs(v) for v in v2b)
    if not all(ref.close(v, v2a[-x].conjugate(), scale) for x, v in zip(grid, v2b)):
        ref.fail(where, "V2 of the cupper-first order is not conj V2a(-x)")
    v3a = [a[2].potential(x) for x in grid]
    v3b = [b[2].potential(x) for x in grid]
    scale = max(abs(v) for v in v3a)
    if not all(ref.close(u, v, scale) for u, v in zip(v3a, v3b)):
        ref.fail(where, "the two pair-elimination orders give different V3")


def check_oracle(ref, where, req, answer):
    _, Z, plan, depth, levels = req
    members = answer.members
    ref.spectrum(f"{where} member 1", Z, levels + depth - 1, _levels(members[0].spectrum))
    ref.chain(where, plan.split(","), [[lv.energy for lv in m.spectrum.levels] for m in members])
    if len(answer.found) != len(answer.closed):
        ref.fail(where, f"oracle returned {len(answer.found)} of {len(answer.closed)} levels")
    for n, (Ec, Eo) in enumerate(zip(answer.closed, answer.found)):
        if not abs(Ec - Eo) < ORACLE_TOL:
            ref.fail(where, f"level {n}: oracle {Eo!r} vs closed form {Ec!r}")


def check_cli(ref, where, req, answer):
    code, out = answer
    argv = list(req[1:])
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    cmd = argv[0]
    if code != 0:
        return  # counted as failed
    text = out.decode()
    if cmd == "hierarchy" and opt.get("--format") == "csv":
        _cli_csv(ref, where, opt, text)
        return
    try:
        doc = json.loads(text)
    except ValueError as exc:
        ref.fail(where, f"stdout is not JSON: {exc}")
        return
    if cmd == "spectrum":
        Z = float(opt["--coupling"])
        ref.spectrum(where, Z, int(opt["--levels"]), _rows(doc["levels"]))
        if doc["coupling"] != Z:
            ref.fail(where, "coupling echoed wrongly")
    elif cmd == "critical":
        Zs, ts = ref.critical(int(opt["--index"]))
        if not abs(doc["z_crit"] - Zs) <= 1e-8 * Zs:
            ref.fail(where, f"z_crit {doc['z_crit']!r}; the 40-digit tangency is at {float(Zs)!r}")
        if not abs(doc["t_merge"] - ts) <= 1e-6 * ts:
            ref.fail(where, f"t_merge {doc['t_merge']!r}; the 40-digit tangency is at "
                            f"{float(ts)!r}")
        s = doc["z_crit"] / (2 * doc["t_merge"])
        if not abs(doc["e_merge"] - (doc["t_merge"] ** 2 - s * s)) <= 1e-12 * abs(doc["e_merge"]):
            ref.fail(where, "e_merge is not t^2 - s^2")
    elif cmd == "hierarchy":
        _cli_hierarchy(ref, where, opt, doc)
    elif cmd == "limit":
        for key in ("at_zero", "near_zero"):
            stats = doc[key]
            if not stats["ratio_variance"] < 1e-10:
                ref.fail(where, f"{key}: eigenfunction is not the Gegenbauer limit shape "
                                f"(ratio variance {stats['ratio_variance']:.3g})")
            if "family_rel_dev" in stats and not stats["family_rel_dev"] < 1e-5:
                ref.fail(where, f"{key}: potential is off the sec^2 family by "
                                f"{stats['family_rel_dev']:.3g}")
    elif cmd == "verify":
        Z = float(opt["--coupling"])
        rows = doc["levels"]
        if len(rows) != int(opt["--levels"]) or not doc["all_pass"]:
            ref.fail(where, "verify did not confirm every level")
        for row in rows:
            Ec = complex(row["closed"]["re"], row["closed"]["im"])
            Eo = complex(row["oracle"]["re"], row["oracle"]["im"])
            if not abs(Ec - Eo) < ORACLE_TOL:
                ref.fail(where, f"level {row['n']}: oracle {Eo!r} vs closed form {Ec!r}")
            if Ec.imag == 0:
                t = math.sqrt((Ec.real + math.hypot(Ec.real, Z)) / 2)
                ref.real_level(f"{where} level {row['n']}", Ec, t, Z)
            else:
                ref.pair_level(f"{where} level {row['n']}", Ec, Z)


def _cli_hierarchy(ref, where, opt, doc):
    Z = float(opt["--coupling"])
    depth = int(opt["--depth"])
    tokens = opt["--plan"].split(",")
    members = doc["members"]
    if [m["depth"] for m in members] != list(range(1, depth + 1)):
        ref.fail(where, "wrong member list")
        return
    ref.spectrum(f"{where} member 1", Z, max(8, depth + 1), _rows(members[0]["spectrum"]))
    spectra = [[complex(r["re"], r["im"]) for r in m["spectrum"]] for m in members]
    ref.chain(where, tokens, spectra)
    E1 = spectra[0][eliminated(spectra[0], tokens[0])]
    samples = [[(s["x"], complex(s["re_v"], s["im_v"])) for s in m["samples"]] for m in members]
    _member_samples(ref, where, Z, E1, samples[0], samples[1], int(opt["--samples"]))
    rel = doc["relations"]
    window = ref.critical(0)[0] < Z < ref.critical(1)[0]
    if (rel is not None) != window:
        ref.fail(where, "relations reported outside their window, or missing inside it")
    if rel is not None:
        for key in ("member2_mirror_dev", "member3_same_dev"):
            if not rel[key] <= RELATION_RTOL * (1 + Z):
                ref.fail(where, f"relations: {key} = {rel[key]:.3g}")


def _cli_csv(ref, where, opt, text):
    Z = float(opt["--coupling"])
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["member", "x", "re_v", "im_v"]:
        ref.fail(where, f"CSV header {rows[0]}")
        return
    by_member = {}
    for m, x, re_v, im_v in rows[1:]:
        by_member.setdefault(int(m), []).append((float(x), complex(float(re_v), float(im_v))))
    if sorted(by_member) != list(range(1, int(opt["--depth"]) + 1)):
        ref.fail(where, f"CSV members {sorted(by_member)}")
        return
    t = ref.lowest_real_root(Z)  # the plan's first step removes the lowest real level
    E1 = complex(t ** 2 - (Z / (2 * t)) ** 2)
    _member_samples(ref, where, Z, E1, by_member[1], by_member[2], int(opt["--samples"]))


def _member_samples(ref, where, Z, E1, first, second, samples):
    """Member 1 is the bare well; member 2 is the SUSY partner built on level E1."""
    if len(first) != samples or len(second) != samples:
        ref.fail(where, f"{len(first)} and {len(second)} samples, {samples} asked")
    if any(v != _well(x, Z) for x, v in first):
        ref.fail(where, "member 1 samples are not the well -iZ / +iZ")
    for x, v in second:
        exact = ref.partner_V2(x, E1, Z)
        if not abs(v - exact) <= RELATION_RTOL * (abs(exact) + 1):
            ref.fail(where, f"member 2 at x = {x!r} is {v!r}; the SUSY partner of level "
                            f"{E1!r} has {complex(exact)!r}")
            return


def check(workload, reqs, answers, program):
    """Every problem found in the answers of one round; [] if all are right."""
    ref = Referee()
    for req, answer in zip(reqs, answers):
        where = workloads.describe(req)
        if isinstance(answer, BaseException):
            continue  # a failed operation, counted as failed
        if workload == "spectrum":
            ref.spectrum(where, req[1], req[2], _levels(answer))
        elif workload == "hierarchy":
            check_hierarchy(ref, where, req, answer, program)
        elif workload == "oracle":
            check_oracle(ref, where, req, answer)
        else:
            check_cli(ref, where, req, answer)
    return ref.problems
