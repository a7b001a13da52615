import importlib
import subprocess
import sys

import pytest

import ptwell


def test_every_export_is_its_submodules_object():
    for name in ptwell.__all__:
        home = importlib.import_module(f"ptwell.{ptwell._HOME[name]}")
        assert getattr(ptwell, name) is getattr(home, name), name
    assert set(ptwell.__all__) <= set(dir(ptwell))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ptwell.no_such_name  # noqa: B018


def test_bare_import_loads_no_submodule():
    script = ("import sys, ptwell\n"
              "print(sorted(m for m in sys.modules if m.startswith('ptwell.')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_names_the_benchmark_reads():
    # bench/ lies outside testpaths, so this pins the surface its workloads,
    # tracer and referee call: a deletion that breaks them fails here too
    import dataclasses

    from ptwell import cli, oracle_verifier as ov, spectral_core as sc
    from ptwell import susy_hierarchy as sh, wavefunctions as wf

    for module, names in (
            (sc, ("ConvergenceError", "classify_spectrum", "find_critical_coupling",
                  "kappa_condition_residual", "matching_residual", "solve_complex_pair",
                  "solve_real_spectrum")),
            (sh, ("build_hierarchy", "hierarchy_relations_check", "intertwine")),
            (wf, ("pt_defect",)),
            (ov, ("find_spectrum_numeric", "mismatch", "njit")),
            (cli, ("main",))):
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    sc.find_critical_coupling.cache_clear()

    spectrum = sc.classify_spectrum(2.0, 3)
    lv = spectrum.levels[0]
    assert isinstance(lv.kappa_right, sc.WaveNumber)
    kap = type(lv.kappa_right)(lv.kappa_right.value * 2.0)
    moved = dataclasses.replace(lv, energy=lv.energy * 4.0, kappa_right=kap)
    assert dataclasses.replace(spectrum, levels=(moved,)).levels[0].kappa_right.value == kap.value

    ramp = sh.PiecewisePotential(lambda x: complex(x), lambda x: complex(-x), 1, True)
    ov.integrate_side(ramp, 1.0, ov.Side.RIGHT, ov.ShootingConfig(h=5e-3))

    assert sh.EliminationPlan(()).choices == ()
    members = sh.build_hierarchy(2.0, sh.EliminationPlan.from_text("real"), 2, 3)
    assert dataclasses.replace(members[1], potential=members[0].potential).potential is \
        members[0].potential
    V, E = members[1].potential, members[1].spectrum.levels[0].energy
    cfg = ov.ShootingConfig(h=2e-3, p=V.endpoint_exponent)
    assert abs(ov.mismatch(V, E, cfg).normalized) < 1e-6
    found = ov.find_spectrum_numeric(V, 1, (E - 2.0 - 1j, E + 2.0 + 1j), cfg, seeds=[E * 1.001])
    assert abs(found[0] - E) < 1e-6
