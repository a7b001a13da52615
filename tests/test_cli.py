import json
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


def test_hierarchy_json_relations_in_window(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", "8", "--depth", "3",
                           "--plan", "clower,cupper", "--samples", "3")
    assert code == 0
    doc = json.loads(out)
    rel = doc["relations"]
    assert rel["member2_mirror_dev"] < 1e-10
    assert rel["member3_pt_symmetric"] is True


def test_hierarchy_csv(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", "2", "--samples", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "member,x,re_v,im_v"
    assert len(lines) == 1 + 2 * 3


def test_hierarchy_out_file(tmp_path, capsys):
    target = tmp_path / "chain.json"
    code, out, _ = run_cli(capsys, "hierarchy", "--coupling", "2", "--samples", "3",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["members"][0]["depth"] == 1


def test_verify_passes_at_default_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coupling", "2", "--member", "2",
                           "--levels", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(row["pass"] for row in doc["levels"])
    assert all(row["abs_dev"] < 1e-6 for row in doc["levels"])


def test_verify_fails_at_unreachable_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coupling", "2", "--member", "1",
                           "--levels", "2", "--tol", "1e-13")
    assert code == 3
    assert json.loads(out)["all_pass"] is False


def test_limit_json(capsys):
    code, out, _ = run_cli(capsys, "limit", "--m", "2", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["member_depth"] == 2
    assert doc["at_zero"]["ratio_variance"] < 1e-12
    assert doc["near_zero"]["ratio_variance"] < 1e-8
    assert doc["at_zero"]["family_rel_dev"] < 1e-10


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["spectrum", "--coupling", "2", "--levels", "0"],
    ["critical", "--index", "-1"],
    ["hierarchy", "--coupling", "2", "--samples", "1"],
    ["limit", "--m", "4", "--n", "0"],
    ["bogus"],
    ["verify", "--coupling", "2", "--member", "0"],
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
    if "--member" in argv:
        assert "argument --member:" in err_text


def test_solver_failures_exit_2(capsys):
    # pair elimination below the critical coupling cannot converge
    code, _, err = run_cli(capsys, "hierarchy", "--coupling", "2", "--depth", "2",
                           "--plan", "clower")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "hierarchy", "--coupling", "2", "--plan", "sideways")
    assert code == 2
    assert "error" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ptwell.cli", "spectrum", "--coupling", "0", "--levels", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["levels"][0]["re"] == pytest.approx(2.4674011002723395)
