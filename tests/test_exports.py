"""Export-completeness contracts for repro.analysis, repro.tara,
repro.engine, repro.runtime and repro.sim.

Every submodule declares ``__all__``; the package re-exports exactly the
union of its submodules' ``__all__`` lists; and every public top-level
definition in a submodule is listed in that submodule's ``__all__`` (so
the declarations cannot rot as code is added).  Importing the public
entry points also never loads numpy, and the package version is the
one ``pyproject.toml`` declares.
"""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

PACKAGES = {
    "repro.analysis": None,  # eager package: the static-verification plane
    "repro.tara": None,  # eager package: names live in vars(package)
    "repro.engine": None,  # lazy package: names resolve via __getattr__
    "repro.faults": None,  # eager package: deterministic fault injection
    "repro.runtime": None,  # eager package: the execution layer
    "repro.service": None,  # eager package: the campaign service plane
    "repro.sim": None,  # eager package: the simulation substrate
}


def submodules(package_name: str):
    package = importlib.import_module(package_name)
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):
            continue
        yield importlib.import_module(f"{package_name}.{info.name}")


def public_definitions(module) -> set[str]:
    """Top-level classes/functions defined in (not imported into) the
    module, plus anything it already claims in ``__all__``."""
    defined = set()
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            defined.add(name)
    return defined


@pytest.mark.parametrize("package_name", sorted(PACKAGES))
class TestExportCompleteness:
    def test_every_submodule_declares_all(self, package_name):
        for module in submodules(package_name):
            assert hasattr(module, "__all__"), (
                f"{module.__name__} has no __all__"
            )
            assert list(module.__all__) == sorted(set(module.__all__)), (
                f"{module.__name__}.__all__ must be sorted and duplicate-free"
            )

    def test_submodule_all_covers_every_definition(self, package_name):
        for module in submodules(package_name):
            missing = public_definitions(module) - set(module.__all__)
            assert not missing, (
                f"{module.__name__} defines public symbols absent from "
                f"__all__: {sorted(missing)}"
            )

    def test_package_reexports_exactly_the_submodule_unions(
        self, package_name
    ):
        package = importlib.import_module(package_name)
        union = {
            name
            for module in submodules(package_name)
            for name in module.__all__
        }
        assert set(package.__all__) == union, (
            f"{package_name}.__all__ drifted from its submodules: "
            f"missing {sorted(union - set(package.__all__))}, "
            f"extra {sorted(set(package.__all__) - union)}"
        )

    def test_every_export_resolves_to_the_submodule_symbol(
        self, package_name
    ):
        package = importlib.import_module(package_name)
        owners = {}
        for module in submodules(package_name):
            for name in module.__all__:
                owners[name] = module
        for name in package.__all__:
            exported = getattr(package, name)
            assert exported is getattr(owners[name], name), (
                f"{package_name}.{name} is not the symbol "
                f"{owners[name].__name__}.{name}"
            )


def test_entry_points_never_import_numpy():
    """A fresh interpreter importing the API, CLI and service planes
    leaves numpy unloaded: the spatial engine is pure Python."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys\n"
        "import repro.api, repro.cli, repro.service\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_package_version_matches_pyproject():
    """``repro.__version__`` and the distribution metadata agree."""
    import repro

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(
        r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE
    )
    assert match is not None, "pyproject.toml declares no version"
    assert repro.__version__ == match.group(1)
