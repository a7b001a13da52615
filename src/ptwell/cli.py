"""Command-line front end: spectra, critical couplings, hierarchies, checks.

Everything prints deterministic JSON (floats at 17 significant digits) to
stdout; CSV is available for potential samples.  Exit codes: 0 success,
1 usage, 2 solver failure, 3 verification failure.
"""
import argparse
import json
import math
import sys

# spectrum and critical need only spectral_core; the other subcommands import
# their modules where they run, so a process compiles no module it never calls
from .spectral_core import (ConvergenceError, IllegalPlanError,
                            classify_spectrum, find_critical_coupling,
                            kappa_condition_residual, matching_residual,
                            matching_residual_dt)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in output: {x}")
    return f"{x:.17g}"


# each type _render takes, and what a subclass of it (an IntEnum, numpy's
# float64) renders as: the first base it is an instance of, in this order
_RENDERED = (dict, list, tuple, complex, bool, type(None), int, str, float)
_KEY_TEXT = {}  # JSON text of each dict key: the keys are the program's own, so it stays small


def _render(obj, indent=0) -> str:
    """JSON text with floats at fixed significant digits, insertion-ordered."""
    kind = type(obj)
    if kind not in _RENDERED:
        kind = next((base for base in _RENDERED if isinstance(obj, base)), None)
    pad = "  " * indent
    if kind is dict:
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            k = str(k)
            key = _KEY_TEXT.get(k) or _KEY_TEXT.setdefault(k, json.dumps(k))
            items.append(f"{pad}  {key}: "
                         f"{_fmt_float(v) if type(v) is float else _render(v, indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = [f"{pad}  {_fmt_float(v) if type(v) is float else _render(v, indent + 1)}"
                 for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if kind is complex:
        return _render({"re": obj.real, "im": obj.imag}, indent)
    if kind is float:
        return _fmt_float(obj)
    if kind is None:
        raise TypeError(f"cannot render {type(obj)!r}")
    return json.dumps(obj)


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # the usage code, like a refused argument
            print(f"ptwell: error: cannot write --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            raise SystemExit(1) from None
    else:
        print(text)


def _level_rows(levels) -> list:
    """One row per level; a level's n is its position."""
    return [{"n": n, "re": lv.energy.real, "im": lv.energy.imag, "branch": lv.branch.value,
             "s": lv.kappa_right.value.real, "t": -lv.kappa_right.value.imag}
            for n, lv in enumerate(levels)]


def _sample_row(potential, x: float) -> dict:
    v = potential(x)
    return {"x": x, "re_v": v.real, "im_v": v.imag}


def cmd_spectrum(args) -> int:
    spec = classify_spectrum(args.coupling, args.levels)
    out = {
        "coupling": args.coupling,
        "levels": _level_rows(spec.levels),
        "broken_pairs": [list(p) for p in spec.broken_pairs],
        "residuals": [abs(kappa_condition_residual(lv.energy, args.coupling))
                      for lv in spec.levels],
    }
    _emit(args, _render(out))
    return 0


def cmd_critical(args) -> int:
    crit = find_critical_coupling(args.index)
    out = {
        "nu": crit.nu,
        "z_crit": crit.z_crit,
        "t_merge": crit.t_merge,
        "e_merge": crit.e_merge,
        "residuals": {
            "matching": abs(matching_residual(crit.t_merge, crit.z_crit)),
            "tangency": abs(matching_residual_dt(crit.t_merge, crit.z_crit)),
        },
    }
    _emit(args, _render(out))
    return 0


def _parse_plan(text: str, needed: int):
    """The plan in text, or by default `needed` real eliminations."""
    from .susy_hierarchy import EliminationPlan
    if needed == 0 and not text:
        return EliminationPlan(())
    return EliminationPlan.from_text(text or ",".join(["real"] * needed))


def cmd_hierarchy(args) -> int:
    from .susy_hierarchy import build_hierarchy, hierarchy_relations_check
    from .wavefunctions import linspace
    plan = _parse_plan(args.plan, args.depth - 1)
    levels = max(8, args.depth + 1)
    members = build_hierarchy(args.coupling, plan, args.depth, levels)
    xs = linspace(-0.999, 0.999, args.samples)
    if args.fmt == "csv":
        # csv.writer's rows, built directly: numbers need no quoting, and each
        # row ends in "\r\n", the last one's "\n" from _emit
        rows = ["member,x,re_v,im_v"]
        for mem in members:
            for x in xs:
                v = mem.potential(x)
                rows.append(f"{mem.depth},{_fmt_float(x)},"
                            f"{_fmt_float(v.real)},{_fmt_float(v.imag)}")
        _emit(args, "\r\n".join(rows) + "\r")
        return 0
    report = None
    c0 = find_critical_coupling(0)
    c1 = find_critical_coupling(1)
    if c0.z_crit < args.coupling < c1.z_crit:
        report = hierarchy_relations_check(args.coupling)
    out = {
        "coupling": args.coupling,
        "depth": args.depth,
        "plan": ",".join(c.value for c in plan.choices),
        "members": [{
            "depth": mem.depth,
            "pt_symmetric": mem.potential.pt_symmetric,
            "endpoint_exponent": mem.potential.endpoint_exponent,
            "spectrum": _level_rows(mem.spectrum.levels),
            "samples": [_sample_row(mem.potential, x) for x in xs],
        } for mem in members],
        "relations": report,
    }
    _emit(args, _render(out))
    return 0


def cmd_verify(args) -> int:
    from .oracle_verifier import ShootingConfig, _search
    from .susy_hierarchy import build_hierarchy
    plan = _parse_plan(args.plan, args.depth - 1)
    members = build_hierarchy(args.coupling, plan, args.depth, args.levels + args.depth - 1)
    member = members[-1]
    closed = [lv.energy for lv in member.spectrum.levels[:args.levels]]
    sh = ShootingConfig(p=member.potential.endpoint_exponent)
    lo_re = min(E.real for E in closed) - 2.0
    hi_re = max(E.real for E in closed) + 5.0
    lo_im = min(0.0, min(E.imag for E in closed)) - 1.0
    hi_im = max(0.0, max(E.imag for E in closed)) + 1.0
    # the search's first start value at each closed level is its mismatch residual
    oracle, at_closed = _search(member.potential, len(closed),
                                (complex(lo_re, lo_im), complex(hi_re, hi_im)), sh, closed)
    res = [abs(v) for v in at_closed]
    rows = []
    ok = True
    for n, (Ec, Eo, r) in enumerate(zip(closed, oracle, res)):
        dev = abs(Ec - Eo)
        good = dev < args.tol
        ok = ok and good
        rows.append({"n": n, "closed": Ec, "oracle": Eo,
                     "abs_dev": dev, "mismatch_residual": r, "pass": good})
    out = {"coupling": args.coupling, "member_depth": args.depth,
           "tolerance": args.tol, "levels": rows, "all_pass": ok}
    _emit(args, _render(out))
    return 0 if ok else 3


def _limit_stats(Z: float, m: int, n: int) -> dict:
    from .susy_hierarchy import build_hierarchy
    from .wavefunctions import chebyshev_grid, limit_form, linspace, ratio_stats
    members = build_hierarchy(Z, _parse_plan("", m - 1), m, n + m + 1)
    member = members[-1]
    psi = member.eigenfunctions(n)
    grid = linspace(-0.95, 0.95, 20)
    mu, var = ratio_stats([psi(x) for x in grid], [complex(limit_form(m, n, x)) for x in grid])
    out = {"ratio_variance": var, "ratio_mean": mu}
    if m > 1:
        strength = (math.pi ** 2 / 4.0) * m * (m - 1)
        dev = 0.0
        for x in chebyshev_grid(101):
            family = strength / math.cos(math.pi * x / 2.0) ** 2
            base = member.potential(x) - (-1j * Z if x >= 0 else 1j * Z)
            dev = max(dev, abs(base - family) / abs(family))
        out["family_rel_dev"] = dev
    return out


def cmd_limit(args) -> int:
    out = {"member_depth": args.m, "level": args.n,
           "at_zero": _limit_stats(0.0, args.m, args.n),
           "near_zero": _limit_stats(1e-6, args.m, args.n)}
    _emit(args, _render(out))
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for solvers
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _checked(kind, good, rule: str):
    """argparse type: kind(text), refused unless good(value); the parser names the flag."""
    def parse(text: str):
        value = kind(text)
        if not good(value):  # NaN fails every comparison, so it is refused too
            raise argparse.ArgumentTypeError(f"must be {rule}: {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_COUPLING = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_INDEX = _checked(int, lambda v: v >= 0, ">= 0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ptwell", description=__doc__.splitlines()[0])
    parser.set_defaults(out=None)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("spectrum", help="eigenvalues at a coupling")
    sp.add_argument("--coupling", type=_COUPLING, required=True)
    sp.add_argument("--levels", type=_COUNT, default=8)
    sp.set_defaults(run=cmd_spectrum)

    cr = sub.add_parser("critical", help="pair-merge coupling for one band")
    cr.add_argument("--index", type=_INDEX, default=0)
    cr.set_defaults(run=cmd_critical)

    hi = sub.add_parser("hierarchy", help="partner-chain potentials and spectra")
    hi.add_argument("--coupling", type=_COUPLING, required=True)
    hi.add_argument("--depth", type=_COUNT, default=2)
    hi.add_argument("--plan", type=str, default="")
    hi.add_argument("--samples", type=_checked(int, lambda v: v >= 2, ">= 2"), default=101)
    hi.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    hi.add_argument("--out", type=str, default=None)
    hi.set_defaults(run=cmd_hierarchy)

    ve = sub.add_parser("verify", help="closed forms against the shooting oracle")
    ve.add_argument("--coupling", type=_COUPLING, required=True)
    ve.add_argument("--member", dest="depth", metavar="MEMBER", type=_COUNT, default=1)
    ve.add_argument("--levels", type=_COUNT, default=6)
    ve.add_argument("--plan", type=str, default="")
    ve.add_argument("--tol", type=_checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0"),
                    default=1e-6)
    ve.set_defaults(run=cmd_verify)

    li = sub.add_parser("limit", help="zero-coupling closed-form checks")
    li.add_argument("--m", type=_COUNT, required=True)
    li.add_argument("--n", type=_INDEX, default=0)
    li.set_defaults(run=cmd_limit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConvergenceError, IllegalPlanError, ZeroDivisionError) as exc:
        print(_render({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
