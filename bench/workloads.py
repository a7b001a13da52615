"""Seeded inputs, warm-ups and operations of the four benchmark workloads.

Every workload runs in rounds.  A round is a fixed list of requests drawn
from the seed in narrow strata; a run repeats its round until the run time
is spent, so every run attempts whole rounds and the share of failed
operations is the same in every run.  Strata are narrow in cost, so a
round costs about the same whatever the seed.

This module imports nothing from ptwell at import time: `load` does, so the
set-up probe can time the import.
"""
import contextlib
import random
import sys
from types import SimpleNamespace

WORKLOADS = ("spectrum", "hierarchy", "oracle", "cli")

# spectrum: real-phase requests, one per level count.  Counts stop at 21:
# from 22 levels on, whether a request fails depends on the coupling.
SPECTRUM_REAL_Z = (0.05, 4.3)
SPECTRUM_REAL_COUNTS = (2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20, 21)
# broken-phase cells (Z range, pairs below it), placed between the critical
# couplings Z_crit(0..9) = 4.48, 12.80, 22.63, 33.40, 44.85, 56.83, 69.26,
# 82.07, 95.21, 108.65; each request asks for all pairs plus one to four
# real levels
SPECTRUM_BROKEN_CELLS = (((4.7, 8.0), 1), ((8.5, 12.5), 1), ((13.2, 17.5), 2),
                         ((18.0, 22.2), 2), ((24.0, 30.0), 3), ((35.0, 40.0), 4),
                         ((47.0, 51.0), 5), ((61.0, 65.0), 6), ((76.0, 80.0), 7))
# nine pairs continued, eight levels returned
SPECTRUM_TRUNCATED = ((96.0, 100.0), 8)
# The named failing slice: real-phase requests for 22 or more levels whose
# correct roots near t = k pi are rejected by the wavenumber guard of
# spectral_core._verified_level (ConvergenceError).  Fixed, not seeded.
SPECTRUM_FAILING = ((0.484, 22), (0.88, 30), (4.0, 40))

# hierarchy: (Z range or exact 0, depth, plan pool).  Windows sit below
# Z_crit(0), between Z_crit(0) and Z_crit(1), and between Z_crit(1) and
# Z_crit(2); every plan in a pool was checked to build at depth 5.
_W0, _W1, _W2 = (0.05, 4.3), (4.7, 12.5), (13.2, 22.2)
_PLANS_W0 = ("real,real,real,real",)
_PLANS_W1 = ("clower,cupper,real,real", "cupper,clower,real,real",
             "real,clower,cupper,real", "clower,real,cupper,real",
             "cupper,real,clower,real", "real,real,clower,cupper")
_PLANS_W2 = ("clower,cupper,clower,cupper", "cupper,clower,cupper,clower",
             "clower,clower,cupper,cupper", "real,clower,cupper,real",
             "cupper,real,clower,clower", "clower,cupper,real,real")
HIERARCHY_STRATA = tuple(
    [((0.0, 0.0), 3, _PLANS_W0), ((0.0, 0.0), 5, _PLANS_W0)]
    + [(window, depth, plans) for window, plans in ((_W0, _PLANS_W0), (_W1, _PLANS_W1),
                                                    (_W2, _PLANS_W2))
       for depth in (2, 3, 4, 5)])
# draws per stratum and round, one in each equal sub-window, so the mean
# coupling of a stratum (which sets its cost) hardly moves with the seed
HIERARCHY_DRAWS = 3
HIERARCHY_LEVELS = 8
HIERARCHY_EIGENFUNCTIONS = 2
# 200 points +-j h, j = 1..100: symmetric under x -> -x, never 0, and
# evenly spaced on each side so the referee's stencil can use them
GRID_STEP = 0.0099
GRID = tuple([-(j * GRID_STEP) for j in range(100, 0, -1)]
             + [j * GRID_STEP for j in range(1, 101)])

# oracle: one verify-style check per stratum (Z range, plan pool, member, levels).
# The RK4 step is 5x the CLI's 2e-4: at the CLI's step one check takes about
# 10 s, too long to repeat within a run on a machine whose speed drifts over
# tens of seconds; at 1e-3 it takes about 2 s, does the same scan, bisection
# and Newton, and still meets the CLI's 1e-6 (worst seen 1.5e-7; 2e-3 missed it).
ORACLE_STEP = 1e-3
ORACLE_STRATA = (((1.0, 4.0), ("real",), 2, 3),
                 ((6.0, 11.0), ("clower,cupper", "cupper,clower"), 3, 3),
                 ((14.0, 21.0), ("clower,cupper,real", "cupper,clower,real"), 4, 3))


def _z(rng, window):
    lo, hi = window
    return lo if lo == hi else round(rng.uniform(lo, hi), 6)


def _spread(rng, window, k):
    """k couplings, one drawn in each of k equal sub-windows."""
    lo, hi = window
    w = (hi - lo) / k
    return [_z(rng, (lo + i * w, lo + (i + 1) * w)) for i in range(k)]


def spectrum_round(rng):
    zs = _spread(rng, SPECTRUM_REAL_Z, len(SPECTRUM_REAL_COUNTS))
    rng.shuffle(zs)
    reqs = [("spectrum", z, n) for z, n in zip(zs, SPECTRUM_REAL_COUNTS)]
    reqs += [("spectrum", _z(rng, cell), 2 * pairs + rng.randint(1, 4))
             for cell, pairs in SPECTRUM_BROKEN_CELLS]
    reqs.append(("spectrum", _z(rng, SPECTRUM_TRUNCATED[0]), SPECTRUM_TRUNCATED[1]))
    reqs += [("spectrum", z, n) for z, n in SPECTRUM_FAILING]
    return reqs


def hierarchy_round(rng):
    return [("hierarchy", z, ",".join(rng.choice(plans).split(",")[:depth - 1]), depth)
            for window, depth, plans in HIERARCHY_STRATA
            for z in (_spread(rng, window, HIERARCHY_DRAWS) if window[1] > window[0] else [0.0])]


def oracle_round(rng):
    return [("oracle", _z(rng, window), rng.choice(plans), member, levels)
            for window, plans, member, levels in ORACLE_STRATA]


def cli_round(rng):
    """One request per subcommand; hierarchy outputs run to a few thousand samples.

    Depths and sample counts vary little, so the round's median latency
    does not move with the seed."""
    def z(window):
        return repr(_z(rng, window))

    argvs = [
        ("spectrum", "--coupling", z(SPECTRUM_REAL_Z), "--levels", str(rng.randint(4, 21))),
        ("spectrum", "--coupling", z((13.2, 22.2)), "--levels", str(4 + rng.randint(1, 4))),
        ("critical", "--index", str(rng.randint(0, 4))),
        ("hierarchy", "--coupling", z(_W1), "--depth", "3",
         "--plan", rng.choice(("clower,cupper", "cupper,clower")),
         "--samples", str(rng.randint(400, 600))),
        ("hierarchy", "--coupling", z(_W0), "--depth", "4", "--plan", "real,real,real",
         "--samples", str(rng.randint(800, 1000))),
        ("hierarchy", "--coupling", z(_W0), "--depth", "3", "--plan", "real,real",
         "--samples", str(rng.randint(2500, 3000)), "--format", "csv"),
        # levels n >= 3 are left out: at Z = 1e-6 some come out wrong (see CHANGES.md)
        ("limit", "--m", str(rng.randint(1, 3)), "--n", str(rng.randint(0, 2))),
        ("verify", "--coupling", z(SPECTRUM_REAL_Z), "--member", "1",
         "--levels", str(rng.randint(3, 6))),
    ]
    return [("cli",) + argv for argv in argvs]


_ROUNDS = {"spectrum": spectrum_round, "hierarchy": hierarchy_round,
           "oracle": oracle_round, "cli": cli_round}


def make_round(workload, seed):
    """The seeded round of a workload, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _ROUNDS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def load(workload):
    """Import the program; returns its modules and the critical-coupling solver
    as imported, whose cache `reset` clears even while a wrapper is installed."""
    import ptwell  # noqa: F401  (the package import is what set-up pays)
    from ptwell import oracle_verifier, spectral_core, susy_hierarchy, wavefunctions
    program = SimpleNamespace(
        spectral_core=spectral_core, wavefunctions=wavefunctions,
        susy_hierarchy=susy_hierarchy, oracle_verifier=oracle_verifier, cli=None,
        critical=spectral_core.find_critical_coupling)
    if workload == "cli":
        from ptwell import cli
        program.cli = cli
    return program


def warm_up(workload, program):
    """The workload's own warm-up, part of its set-up time."""
    sc = program.spectral_core
    if workload == "spectrum":
        sc.classify_spectrum(1.0, 2)
        program.critical.cache_clear()
    elif workload in ("hierarchy", "oracle"):
        for nu in range(3):
            sc.find_critical_coupling(nu)
    if workload == "oracle":
        # a short non-constant side runs (and, with numba, compiles) the RK4 loop
        ov = program.oracle_verifier
        ramp = program.susy_hierarchy.PiecewisePotential(
            lambda x: complex(x), lambda x: complex(-x), 1, True)
        ov.integrate_side(ramp, 1.0, ov.Side.RIGHT, ov.ShootingConfig(h=5e-3))


class NullTracer:
    """Tracer stand-in of the timed runs: records nothing."""

    def span(self, name, calls=1):
        return contextlib.nullcontext()


def reset(workload, program):
    """Per-operation reset outside the latency window: every spectrum request,
    like every CLI process, starts from an empty critical-coupling cache."""
    if workload == "spectrum":
        program.critical.cache_clear()


def verify_box(closed):
    """Search box and seeds that `ptwell verify` gives find_spectrum_numeric."""
    lo_re = min(E.real for E in closed) - 2.0
    hi_re = max(E.real for E in closed) + 5.0
    lo_im = min(0.0, min(E.imag for E in closed)) - 1.0
    hi_im = max(0.0, max(E.imag for E in closed)) + 1.0
    seeds = [E * 1.05 for E in closed if abs(E.imag) > 1e-12]
    return (complex(lo_re, lo_im), complex(hi_re, hi_im)), seeds


def in_relations_window(program, Z):
    sc = program.spectral_core
    return sc.find_critical_coupling(0).z_crit < Z < sc.find_critical_coupling(1).z_crit


def _plan(program, text):
    sh = program.susy_hierarchy
    return sh.EliminationPlan.from_text(text) if text else sh.EliminationPlan(())


def run_op(program, req, tracer):
    """Run one request in-process; returns the program's answer."""
    kind = req[0]
    if kind == "spectrum":
        return program.spectral_core.classify_spectrum(req[1], req[2])
    if kind == "hierarchy":
        _, Z, plan, depth = req
        members = program.susy_hierarchy.build_hierarchy(Z, _plan(program, plan), depth,
                                                         HIERARCHY_LEVELS)
        grids = []
        for mem in members:
            with tracer.span("susy_hierarchy.potential_eval", len(GRID)):
                v = [mem.potential(x) for x in GRID]
            psis = []
            for n in range(HIERARCHY_EIGENFUNCTIONS):
                with tracer.span("wavefunctions.eigenfunction_eval", len(GRID)):
                    f = mem.eigenfunctions(n)
                    psis.append([f(x) for x in GRID])
            grids.append((v, psis))
        relations = None
        if in_relations_window(program, Z):
            relations = program.susy_hierarchy.hierarchy_relations_check(Z)
        return SimpleNamespace(members=members, grids=grids, relations=relations)
    if kind == "oracle":
        _, Z, plan, depth, levels = req
        ov = program.oracle_verifier
        members = program.susy_hierarchy.build_hierarchy(Z, _plan(program, plan), depth,
                                                         levels + depth - 1)
        member = members[-1]
        closed = [lv.energy for lv in member.spectrum.levels[:levels]]
        cfg = ov.ShootingConfig(h=ORACLE_STEP, p=member.potential.endpoint_exponent)
        residuals = [abs(ov.mismatch(member.potential, E, cfg).normalized) for E in closed]
        box, seeds = verify_box(closed)
        found = ov.find_spectrum_numeric(member.potential, len(closed), box, cfg,
                                         seeds=seeds or None)
        return SimpleNamespace(members=members, closed=closed, residuals=residuals, found=found)
    raise ValueError(f"no in-process operation for {kind!r}")


def fingerprint(req, answer):
    """A value equal for equal answers; later rounds must reproduce round one's."""
    kind = req[0]
    if isinstance(answer, BaseException):
        return (type(answer).__name__, str(answer))
    if kind == "spectrum":
        return tuple(lv.energy for lv in answer.levels)
    if kind == "hierarchy":
        return hash(tuple(tuple(v) + tuple(c for psi in psis for c in psi)
                          for v, psis in answer.grids))
    if kind == "oracle":
        return tuple(answer.found)
    return answer  # cli: (exit code, stdout bytes)


def cli_command(req):
    """Subprocess argv of a cli request."""
    return [sys.executable, "-m", "ptwell.cli"] + list(req[1:])


def describe(req):
    if req[0] == "cli":
        return "ptwell " + " ".join(req[1:])
    return req[0] + repr(req[1:])
