"""The package namespace: every public name reads as the object its layer
defines, however the layers were loaded."""

import os
import pathlib
import subprocess
import sys
import types

import pytest

import semiphi
import semiphi.extension
import semiphi.numerics

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
LAYERS = ("numerics", "algebra", "cpmaps", "modules", "extension", "paulsen", "serialization")


def run_fresh(script):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", semiphi.__all__)
def test_public_name_is_its_layers_object(name):
    value = getattr(semiphi, name)
    homes = [layer for layer in LAYERS if getattr(sys.modules[f"semiphi.{layer}"], name, None) is value]
    assert homes
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__.rpartition(".")[2] in homes


def test_star_import_in_a_fresh_process_binds_every_public_name():
    script = (
        "import sys, types\n"
        "import semiphi\n"
        f"layers = {LAYERS!r}\n"
        "assert not any(type(sys.modules['semiphi.' + l]) is types.ModuleType for l in layers)\n"
        "namespace = {}\n"
        "exec('from semiphi import *', namespace)\n"
        "missing = [name for name in semiphi.__all__ if name not in namespace]\n"
        "assert not missing, missing\n"
        "assert all(namespace[name] is getattr(semiphi, name) for name in semiphi.__all__)\n"
    )
    done = run_fresh(script)
    assert done.returncode == 0, done.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        semiphi.no_such_name
    assert set(semiphi.__all__) <= set(dir(semiphi))


def test_self_check_error_is_one_class():
    assert semiphi.SelfCheckError is semiphi.extension.SelfCheckError is semiphi.numerics.SelfCheckError
