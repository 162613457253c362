"""What a process imports: the lazy package namespace and each command's layers.

Each import case runs in a fresh interpreter and prints the ``rydcat.*``
and ``numpy`` entries of ``sys.modules`` after the code given.
"""

import importlib
import json
import subprocess
import sys

import pytest

import rydcat

MODEL_MODULES = {
    "rydcat.bessel", "rydcat.catstate", "rydcat.cavity", "rydcat.fock",
    "rydcat.montecarlo", "rydcat.overlap", "rydcat.roundtrip",
    "rydcat.steady", "rydcat.thermal",
}


def loaded_after(code):
    script = (
        code + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('rydcat'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_by_command(*argv):
    code = (
        "import contextlib, io\nfrom rydcat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0"
    )
    return loaded_after(code)


def test_bare_import_loads_no_model_module_and_no_numpy():
    assert loaded_after("import rydcat") == {"rydcat", "rydcat.errors"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command,modules", [
    ("headline", {"rydcat.catstate", "rydcat.cavity"}),
    ("amplitudes", {"rydcat.cavity"}),
])
def test_closed_form_commands_load_no_numpy(command, modules, fmt):
    loaded = loaded_by_command(command, "--format", fmt)
    assert loaded == {"rydcat", "rydcat.cli", "rydcat.errors"} | modules


def test_mc_loads_only_the_monte_carlo_layers():
    loaded = loaded_by_command("mc", "--n-atoms", "5", "--n-runs", "2")
    assert loaded & MODEL_MODULES == {
        "rydcat.bessel", "rydcat.montecarlo", "rydcat.overlap",
    }


def test_attribute_access_loads_the_home_module():
    loaded = loaded_after("import rydcat\nrydcat.CavityParams\nrydcat.overlap")
    assert {"rydcat.cavity", "rydcat.overlap", "numpy"} <= loaded
    assert "rydcat.montecarlo" not in loaded


class TestNamespace:
    @pytest.mark.parametrize("name", rydcat.__all__)
    def test_each_name_is_the_object_of_its_home_module(self, name):
        home = importlib.import_module(f"rydcat.{rydcat._HOME[name]}")
        assert getattr(rydcat, name) is getattr(home, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from rydcat import *", namespace)
        assert set(rydcat.__all__) <= set(namespace)
        for name in rydcat.__all__:
            assert namespace[name] is getattr(rydcat, name)

    def test_dir_lists_the_public_names(self):
        assert set(rydcat.__all__) <= set(dir(rydcat))
        assert "overlap" in dir(rydcat)

    def test_each_name_has_one_home(self):
        listed = [name for names in rydcat._EXPORTS.values() for name in names]
        assert sorted(listed) == rydcat.__all__

    def test_submodule_by_attribute(self):
        assert rydcat.bessel is sys.modules["rydcat.bessel"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rydcat.no_such_name
        assert not hasattr(rydcat, "j0_stable")
