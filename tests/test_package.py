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
