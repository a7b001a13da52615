import ast
import json
import math
import subprocess
import sys

import pytest

from ptwell.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "2", "--levels", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["coupling"] == 2
    assert [row["n"] for row in doc["levels"]] == [0, 1, 2]
    assert doc["levels"][0]["re"] == pytest.approx(2.8941620684721343)
    assert doc["levels"][0]["branch"] == "Real"
    assert doc["broken_pairs"] == []
    assert all(r < 1e-10 for r in doc["residuals"])


def test_spectrum_broken_phase_lists_pair(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "8", "--levels", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["broken_pairs"] == [[0, 1]]
    assert doc["levels"][0]["im"] == pytest.approx(-5.770054142209853)
    assert doc["levels"][1]["branch"] == "ComplexPairUpper"


def test_spectrum_large_coupling_lists_distinct_pairs(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "3000", "--levels", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["broken_pairs"] == [[k, k + 1] for k in range(0, 12, 2)]
    lowers = [(doc["levels"][i]["re"], doc["levels"][i]["im"]) for i, _ in doc["broken_pairs"]]
    assert len(set(lowers)) == 6
    assert doc["levels"][0]["re"] == pytest.approx(9.6895, abs=1e-4)


def test_spectrum_many_levels_at_large_coupling(capsys):
    # a fixed |G| < 1e-12 stop made the matching-residual Newton stall at t = 91.1
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "100", "--levels", "60")
    assert code == 0
    assert len(json.loads(out)["levels"]) == 60


def test_spectrum_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "spectrum", "--coupling", "3.7", "--levels", "6")
    _, second, _ = run_cli(capsys, "spectrum", "--coupling", "3.7", "--levels", "6")
    assert first == second


def test_critical_json(capsys):
    code, out, _ = run_cli(capsys, "critical", "--index", "1")
    assert code == 0
    doc = json.loads(out)
    assert 12.79 < doc["z_crit"] < 12.81
    assert doc["residuals"]["matching"] < 1e-10
    assert doc["residuals"]["tangency"] < 1e-8


def test_hierarchy_json_outside_pair_window(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", "2", "--depth", "3",
                           "--plan", "real,real", "--samples", "5")
    assert code == 0
    doc = json.loads(out)
    assert [m["depth"] for m in doc["members"]] == [1, 2, 3]
    assert doc["members"][2]["endpoint_exponent"] == 3
    assert doc["relations"] is None
    assert len(doc["members"][0]["samples"]) == 5


@pytest.mark.parametrize("plan", ["real,real", "clower,cupper"])
def test_hierarchy_levels_are_numbered_by_position(capsys, plan):
    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", "8", "--depth", "3",
                           "--plan", plan, "--samples", "2")
    assert code == 0
    for member in json.loads(out)["members"]:
        assert [row["n"] for row in member["spectrum"]] == list(range(len(member["spectrum"])))


def test_hierarchy_json_relations_in_window(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", "8", "--depth", "3",
                           "--plan", "clower,cupper", "--samples", "3")
    assert code == 0
    doc = json.loads(out)
    rel = doc["relations"]
    assert rel["member2_mirror_dev"] < 1e-10
    assert rel["member3_pt_symmetric"] is True


def test_hierarchy_csv():
    # the exact bytes of a process's stdout: csv.writer's "\r\n" after every row
    proc = subprocess.run([sys.executable, "-m", "ptwell.cli", "hierarchy", "--coupling", "2",
                           "--samples", "3", "--format", "csv"], capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (b"member,x,re_v,im_v\r\n"
                           b"1,-0.999,0,2\r\n"
                           b"1,0,0,-2\r\n"
                           b"1,0.999,0,-2\r\n"
                           b"2,-0.999,2000001.9294419596,0.66666512349383611\r\n"
                           b"2,0,3.6570679341323848,2.0000000000000018\r\n"
                           b"2,0.999,2000001.9294419596,-0.66666512349383611\r\n")


class _Float(float):
    pass


class _Complex(complex):
    pass


# _render's exact text on each of its branches
_GOLDEN = [
    ({}, "{}"),
    ([], "[]"),
    ((), "[]"),
    ({"a": {}, "b": [], "c": {"d": [1, 2.5, (3, -0.0)]}},
     '{\n  "a": {},\n  "b": [],\n  "c": {\n    "d": [\n      1,\n      2.5,\n      [\n'
     '        3,\n        -0\n      ]\n    ]\n  }\n}'),
    ([[], [{}], [[1]]], "[\n  [],\n  [\n    {}\n  ],\n  [\n    [\n      1\n    ]\n  ]\n]"),
    ((1, "x"), '[\n  1,\n  "x"\n]'),
    (1.5 - 2j, '{\n  "re": 1.5,\n  "im": -2\n}'),
    (complex(0.0, -0.0), '{\n  "re": 0,\n  "im": -0\n}'),
    ({"c": 0.5 - 1j}, '{\n  "c": {\n    "re": 0.5,\n    "im": -1\n  }\n}'),
    (True, "true"),
    (False, "false"),
    (None, "null"),
    (0, "0"),
    (-7, "-7"),
    (2 ** 70, "1180591620717411303424"),
    ('he said "hi"\\ \n\t', '"he said \\"hi\\"\\\\ \\n\\t"'),
    ("caf\u00e9 \u03ba\u00b2 \U0001d49c", '"caf\\u00e9 \\u03ba\\u00b2 \\ud835\\udc9c"'),
    (-0.0, "-0"),
    (0.1, "0.10000000000000001"),
    (1e300, "1.0000000000000001e+300"),
    (5e-324, "4.9406564584124654e-324"),
    ({"k\u00e9y \"q\"": 1.0, "2": "v"}, '{\n  "k\\u00e9y \\"q\\"": 1,\n  "2": "v"\n}'),
    ({"top": [{"re": 1.0, "im": 2.0}], "flag": True, "none": None},
     '{\n  "top": [\n    {\n      "re": 1,\n      "im": 2\n    }\n  ],\n  "flag": true,\n'
     '  "none": null\n}'),
    ([True, None, 3, "a"], '[\n  true,\n  null,\n  3,\n  "a"\n]'),
    ({3: 1.0, None: 2, True: 1, 1.5: "x"}, '{\n  "3": 1,\n  "None": 2,\n  "True": 1,\n  "1.5": "x"\n}'),
    # a subclass renders as its base type
    ([_Float(-0.0), _Float(0.5)], "[\n  -0,\n  0.5\n]"),
    ({"z": _Complex(2.0, 1.0)}, '{\n  "z": {\n    "re": 2,\n    "im": 1\n  }\n}'),
]


@pytest.mark.parametrize("obj, text", _GOLDEN)
def test_render_golden(obj, text):
    from ptwell.cli import _render
    assert _render(obj) == text


def test_render_refuses_what_json_cannot_hold():
    from ptwell.cli import _render
    for bad in (math.nan, math.inf, -math.inf, [1.0, math.nan], {"x": complex(math.inf, 0.0)}):
        with pytest.raises(ValueError, match="non-finite value in output"):
            _render(bad)
    for bad in (object(), {1, 2}, b"x"):
        with pytest.raises(TypeError, match="cannot render"):
            _render(bad)


def test_hierarchy_out_file(tmp_path, capsys):
    target = tmp_path / "chain.json"
    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", "2", "--samples", "3",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["members"][0]["depth"] == 1


def test_hierarchy_out_file_that_cannot_be_written(tmp_path, capsys):
    target = tmp_path / "missing" / "chain.json"
    with pytest.raises(SystemExit) as err:
        main(["hierarchy", "--coupling", "2", "--samples", "3", "--out", str(target)])
    assert err.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"ptwell: error: cannot write --out {target}: No such file or directory\n"


def test_verify_passes_at_default_tolerance(capsys):
    # the Z = 8 clower member is not PT-symmetric but has real levels; the
    # real-axis scan does not run for it, so every closed level must seed it.
    # At its default 6 levels, seeds at 1.05 E lost level 4 (88.24) to
    # level 3 (62.03) and the command exited 2; each level now seeds a
    # secant at itself.
    for argv in (("--coupling", "2", "--member", "2", "--levels", "2"),
                 ("--coupling", "8", "--member", "2", "--plan", "clower", "--levels", "3"),
                 ("--coupling", "8", "--member", "2", "--plan", "clower")):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert all(row["pass"] for row in doc["levels"])
        assert all(row["abs_dev"] < 1e-6 for row in doc["levels"])


@pytest.mark.parametrize("member, plan", [(2, "clower"), (2, "cupper"), (3, "clower,cupper"),
                                          (4, "clower,cupper,clower")])
@pytest.mark.parametrize("coupling", ["100", "200", "300", "500", "1000"])
def test_verify_passes_at_large_coupling(capsys, coupling, member, plan):
    # members with complex levels, or no PT symmetry, find those levels only
    # from the seeds at their closed levels.  Seeds a twentieth of a level
    # gap off them started 26 of these 40 secant sets in a neighbour's
    # basin: exit 2 with a level short, or exit 3 with an "oracle" level
    # 394-996 away
    for levels in ("4", "6"):
        code, out, _ = run_cli(capsys, "verify", "--coupling", coupling, "--member", str(member),
                               "--plan", plan, "--levels", levels)
        assert code == 0, levels
        assert json.loads(out)["all_pass"] is True


@pytest.mark.parametrize("argv", [("--coupling", "2", "--member", "1"),
                                  ("--coupling", "2", "--member", "3"),
                                  ("--coupling", "0", "--member", "1"),
                                  ("--coupling", "8", "--member", "3", "--plan", "clower,cupper")])
def test_verify_passes_at_many_levels(capsys, argv):
    # at 30 levels two levels can fall in one step of the 240-point scan,
    # which then brackets neither; every closed level also seeds a secant at
    # itself, so the level the scan misses is found.  Seeding only complex
    # levels and non-PT members left these short by a level or more (exit 2)
    code, out, _ = run_cli(capsys, "verify", *argv, "--levels", "30")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


@pytest.mark.parametrize("coupling", ["10", "20"])
def test_verify_never_passes_member_3_of_clower_real(capsys, coupling):
    # the FOUND line on member 3 of clower,real in CHANGES.md: its potential
    # spikes near Crum-Wronskian zeros just off the real axis, which the
    # fixed RK4 step does not resolve.  At Z = 10 the oracle misses a level
    # by 1.5e-6 (exit 3), at Z = 20 it finds 1 of 4 (exit 2); whatever the
    # oracle does, it must not report a pass.  An oracle that resolves the
    # spikes may pass here, and then this test changes with it
    code, out, _ = run_cli(capsys, "verify", "--coupling", coupling, "--member", "3",
                           "--plan", "clower,real", "--levels", "4")
    assert code in (2, 3)
    if code == 3:
        assert json.loads(out)["all_pass"] is False


def test_verify_fails_at_unreachable_tolerance(capsys):
    # below the energies' rounding: the oracle's deviations here are about 1e-15 and 1e-14
    code, out, _ = run_cli(capsys, "verify", "--coupling", "2", "--member", "1",
                           "--levels", "2", "--tol", "1e-16")
    assert code == 3
    assert json.loads(out)["all_pass"] is False


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1)])
def test_limit_json(capsys, m, n):
    code, out, _ = run_cli(capsys, "limit", "--m", str(m), "--n", str(n))
    assert code == 0
    doc = json.loads(out)
    assert doc["member_depth"] == m
    assert doc["at_zero"]["ratio_variance"] < 1e-12
    assert doc["near_zero"]["ratio_variance"] < 1e-8
    if m > 1:  # the well has no sec^2 family to compare with
        assert doc["at_zero"]["family_rel_dev"] < 1e-10


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["spectrum", "--coupling", "2", "--levels", "0"],
    ["critical", "--index", "-1"],
    ["hierarchy", "--coupling", "2", "--samples", "1"],
    ["limit", "--m", "0", "--n", "0"],
    ["bogus"],
    ["verify", "--coupling", "2", "--member", "0"],
    ["verify", "--coupling", "2", "--member", "2", "--levels", "1", "--tol", "inf"],
    ["verify", "--coupling", "2", "--member", "2", "--levels", "1", "--tol", "1e309"],
    ["verify", "--coupling", "inf"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    if argv[0] != "bogus":
        # the subcommand's own parser reports the error, with its own usage
        assert f"usage: ptwell {argv[0]}" in err_text
        assert f"ptwell {argv[0]}: error:" in err_text
    flag = argv[-2] if len(argv) > 1 else None  # the flag with the refused value
    if flag in ("--member", "--tol", "--coupling"):
        assert f"argument {flag}:" in err_text


def test_solver_failures_exit_2(capsys):
    # pair elimination below the critical coupling cannot converge
    code, _, err = run_cli(capsys, "hierarchy", "--coupling", "2", "--depth", "2",
                           "--plan", "clower")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "hierarchy", "--coupling", "2", "--plan", "sideways")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("coupling", ["3e5", "1e6"])
def test_hierarchy_past_the_float_range_matches_referee(capsys, coupling):
    # at Z = 1e6 sinh(kappa u) of member 2's seeds is past the float range, at
    # 3e5 it is not; the far basis divides each column by it, so V stays exact
    pytest.importorskip("mpmath")
    from crum_reference import crum_chain

    from ptwell import classify_spectrum

    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", coupling, "--depth", "3",
                           "--plan", "clower,cupper", "--samples", "5")
    assert code == 0
    members = json.loads(out)["members"]
    Z = float(coupling)
    pair = classify_spectrum(Z, 2).levels
    for k, member in enumerate(members):
        for row in member["samples"]:
            x = row["x"]
            right = x >= 0
            seeds = [(lv.kappa_right if right else lv.kappa_left).value for lv in pair]
            want = complex(crum_chain(-1j * Z if right else 1j * Z, seeds, [],
                                      1.0 - x if right else 1.0 + x)[k][0])
            assert abs(complex(row["re_v"], row["im_v"]) - want) <= 1e-12 * abs(want), (k, x)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ptwell.cli", "spectrum", "--coupling", "0", "--levels", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["levels"][0]["re"] == pytest.approx(2.4674011002723395)


_SUBCOMMAND_ALONE = """
import contextlib, io, sys
from ptwell.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(repr((code, sorted(m for m in sys.modules if m.partition(".")[0] == "ptwell"),
            "numpy" in sys.modules, "csv" in sys.modules)))
"""

_PARTNER_SIDE = """
import sys
from ptwell import EliminationPlan, ShootingConfig, Side, build_hierarchy, integrate_side
V = build_hierarchy(2.0, EliminationPlan.from_text("real"), 2, levels=4)[1].potential
assert "numpy" not in sys.modules
cfg = ShootingConfig(p=V.endpoint_exponent)
print(repr([integrate_side(V, 6.0 + 0.5j, side, cfg) for side in (Side.RIGHT, Side.LEFT)]))
assert "numpy" in sys.modules
"""

_SPECTRAL = ["ptwell", "ptwell.cli", "ptwell.spectral_core"]
_HIERARCHY = sorted(_SPECTRAL + ["ptwell.susy_hierarchy", "ptwell.wavefunctions"])
_EVERY = sorted(_HIERARCHY + ["ptwell.oracle_verifier"])


def _fresh(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_without_numpy_until_a_partner_side():
    # a CLI process compiles only the modules its subcommand runs, and numpy,
    # most of a process's start-up, only for the step product of a
    # non-constant (partner-potential) side; csv never, since CSV rows are
    # f-strings; one fresh interpreter per argv
    cases = [(["spectrum", "--coupling", "8", "--levels", "4"], _SPECTRAL),
             (["critical", "--index", "1"], _SPECTRAL),
             (["hierarchy", "--coupling", "8", "--depth", "3", "--plan", "clower,cupper",
               "--samples", "5"], _HIERARCHY),
             (["hierarchy", "--coupling", "2", "--depth", "3", "--samples", "5",
               "--format", "csv"], _HIERARCHY),
             (["limit", "--m", "1", "--n", "1"], _HIERARCHY),
             (["limit", "--m", "2", "--n", "1"], _HIERARCHY),
             (["verify", "--coupling", "2", "--member", "1", "--levels", "3"], _EVERY)]
    for argv, modules in cases:
        code, loaded, numpy, csv = ast.literal_eval(_fresh(_SUBCOMMAND_ALONE.format(argv=argv)))
        assert (code, loaded, numpy, csv) == (0, modules, False, False), argv
    sides = ast.literal_eval(_fresh(_PARTNER_SIDE))
    # (psi(0), psi'(0)) of each member-2 side at E = 6 + 0.5i
    expected = [(0.5852201300188641 - 0.027773524202855126j, -0.6376355641305693 - 0.035227505177624185j),
                (0.5848201935127273 - 0.03879180933944787j, 0.6255566164165379 - 0.2601145257630488j)]
    for got, want in zip(sides, expected):
        assert got == pytest.approx(want, rel=1e-12)
