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


def test_public_names_are_pinned():
    # README's "Python API" section lists the same names: change both together
    assert ptwell.__all__ == [
        "Branch", "ConvergenceError", "CriticalCoupling", "EliminationPlan", "HierarchyMember",
        "IllegalPlanError", "LevelAnnihilated", "MismatchValue", "PiecewiseEigenfunction",
        "PiecewisePotential", "PlanChoice", "ShootingConfig", "Side", "SpectralLevel", "Spectrum",
        "Superpotential", "WaveNumber", "build_hierarchy", "chebyshev_grid", "classify_spectrum",
        "find_critical_coupling", "find_spectrum_numeric", "gegenbauer_eval",
        "hierarchy_relations_check", "integrate_side", "intertwine", "kappa_from_energy",
        "limit_form", "matching_residual", "mismatch", "pt_defect",
        "solve_complex_pair", "solve_real_spectrum", "square_well_eigenfunction",
        "square_well_potential"]


def test_only_three_public_types_are_dataclasses():
    # the dataclass code generator costs each CLI process start-up time, so the
    # other record types are namedtuples or __slots__ classes. These three stay:
    # tests/test_package.py, tests/test_spectral_core.py and bench/tests/test_bench.py
    # call dataclasses.replace on them
    import dataclasses

    assert [name for name in ptwell.__all__
            if dataclasses.is_dataclass(getattr(ptwell, name))] == [
        "HierarchyMember", "SpectralLevel", "Spectrum"]


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
    assert lv.branch.value == "Real" and lv.kappa_right.value.imag < 0
    kap = type(lv.kappa_right)(lv.kappa_right.value * 2.0)
    moved = dataclasses.replace(lv, energy=lv.energy * 4.0, kappa_right=kap)
    assert dataclasses.replace(spectrum, levels=(moved,)).levels[0].kappa_right.value == kap.value
    broken = sc.classify_spectrum(8.0, 3)
    assert [lv.branch.value for lv in broken.levels] == ["ComplexPairLower", "ComplexPairUpper",
                                                         "Real"]
    assert dataclasses.replace(broken, levels=broken.levels[1:]).broken_pairs == ()

    ramp = sh.PiecewisePotential(lambda x: complex(x), lambda x: complex(-x), 1, True)
    ov.integrate_side(ramp, 1.0, ov.Side.RIGHT, ov.ShootingConfig(h=5e-3))

    assert sh.EliminationPlan(()).choices == ()
    members = sh.build_hierarchy(2.0, sh.EliminationPlan.from_text("real"), 2, 3)
    assert [mem.depth for mem in members] == [1, 2]
    assert dataclasses.replace(members[1], potential=members[0].potential).potential is \
        members[0].potential
    V, E = members[1].potential, members[1].spectrum.levels[0].energy
    # the sample calls of the hierarchy workload and its referee
    assert V.pt_symmetric is True and isinstance(V(0.3), complex) and isinstance(E, complex)
    for mem in members:
        assert isinstance(mem.eigenfunctions(0)(0.3), complex)
        assert isinstance(mem.eigenfunctions(0)(-0.3), complex)
    cfg = ov.ShootingConfig(h=2e-3, p=V.endpoint_exponent)
    assert (cfg.h, cfg.p) == (2e-3, 2)
    assert abs(ov.mismatch(V, E, cfg).normalized) < 1e-6
    found = ov.find_spectrum_numeric(V, 1, (E - 2.0 - 1j, E + 2.0 + 1j), cfg, seeds=[E * 1.001])
    assert abs(found[0] - E) < 1e-6
