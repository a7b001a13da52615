"""Tests of the benchmark itself: workloads at a tiny size, the referee, tracing.

    python3 -m pytest bench/tests -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import referee
import run
import tracing
import workloads

ROOT = Path(run.__file__).resolve().parents[1]
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _run(capsys, monkeypatch, workload, requests, trace=0):
    """run.main on the first `requests` requests of seed 3's round, one round long."""
    full = workloads.make_round
    monkeypatch.setattr(workloads, "make_round", lambda w, s: full(w, s)[:requests])
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,requests", [("spectrum", 6), ("hierarchy", 6),
                                               ("oracle", 1), ("cli", 3)])
def test_workload_reports_every_end_to_end_metric(capsys, monkeypatch, workload, requests):
    doc = _run(capsys, monkeypatch, workload, requests)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= requests and doc["attempted"] % requests == 0
    assert isinstance(doc["failed"], int)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_repeats_counts(capsys, monkeypatch):
    first = _run(capsys, monkeypatch, "hierarchy", 4, trace=1)
    second = _run(capsys, monkeypatch, "hierarchy", 4, trace=1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == dict(tracing.PER_LAYER)
    counts = [k for k, unit in tracing.PER_LAYER if unit == "count"]
    assert [first["metrics"][k]["value"] for k in counts] == \
        [second["metrics"][k]["value"] for k in counts]
    assert first["metrics"]["susy_hierarchy.build_hierarchy.calls"]["value"] >= 4


def test_tracing_leaves_no_wrapper_installed():
    program = workloads.load("spectrum")
    before = program.spectral_core.classify_spectrum, program.spectral_core.matching_residual
    restore = tracing.install(tracing.Tracer(), program)
    assert program.spectral_core.matching_residual is not before[1]
    restore()
    assert (program.spectral_core.classify_spectrum,
            program.spectral_core.matching_residual) == before


@pytest.mark.parametrize("seed", [1, 2])
def test_spectrum_fails_only_on_the_named_slice(seed):
    program = workloads.load("spectrum")
    failed = set()
    for req in workloads.make_round("spectrum", seed):
        workloads.reset("spectrum", program)
        try:
            workloads.run_op(program, req, workloads.NullTracer())
        except program.spectral_core.ConvergenceError:
            failed.add(req[1:])
    assert failed == set(workloads.SPECTRUM_FAILING)


def test_rounds_depend_on_the_seed_only():
    for name in workloads.WORKLOADS:
        assert workloads.make_round(name, 5) == workloads.make_round(name, 5)
        assert workloads.make_round(name, 5) != workloads.make_round(name, 6)


def _perturbed(spectrum, n, factor):
    lv = spectrum.levels[n]
    kap = type(lv.kappa_right)(lv.kappa_right.value * factor ** 0.5)
    levels = list(spectrum.levels)
    levels[n] = dataclasses.replace(lv, energy=lv.energy * factor, kappa_right=kap)
    return dataclasses.replace(spectrum, levels=tuple(levels))


@pytest.mark.parametrize("Z,n", [(2.0, 3), (8.0, 0), (8.0, 4)])
def test_referee_rejects_a_level_perturbed_by_1e_6(Z, n):
    program = workloads.load("spectrum")
    req = ("spectrum", Z, 6)
    spectrum = program.spectral_core.classify_spectrum(Z, 6)
    assert referee.check("spectrum", [req], [spectrum], program) == []
    assert referee.check("spectrum", [req], [_perturbed(spectrum, n, 1 + 1e-6)], program)


@pytest.mark.parametrize("req", [("hierarchy", 2.5, "real,real", 3),
                                 ("hierarchy", 9.0, "clower,cupper,real", 4)])
def test_referee_rejects_a_member_with_the_wrong_potential(req):
    program = workloads.load("hierarchy")
    answer = workloads.run_op(program, req, workloads.NullTracer())
    assert referee.check("hierarchy", [req], [answer], program) == []
    m = len(answer.members) - 1
    members = list(answer.members)
    members[m] = dataclasses.replace(members[m], potential=members[m - 1].potential)
    grids = list(answer.grids)
    grids[m] = (grids[m - 1][0], grids[m][1])
    wrong = SimpleNamespace(members=members, grids=grids, relations=answer.relations)
    assert any("misses -psi''" in p for p in referee.check("hierarchy", [req], [wrong], program))


def test_referee_rejects_a_wrong_cli_answer():
    req = ("cli", "critical", "--index", "1")
    code, out, _, _ = run.run_cli(req)
    assert referee.check("cli", [req], [(code, out)], None) == []
    doc = json.loads(out)
    doc["z_crit"] *= 1 + 1e-6
    assert referee.check("cli", [req], [(0, json.dumps(doc).encode())], None)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "spectrum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
