"""The package's public surface: the README quick start, the names the
scripts take from ``heun_rsj``, and every module's ``__all__``."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import heun_rsj

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("spectral_sweep.py", "phase_benchmark.py")
MODULES = ["heun_rsj"] + [
    f"heun_rsj.{m.name}" for m in pkgutil.iter_modules(heun_rsj.__path__)
]


def _quick_start() -> str:
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _names_from_package(source: str) -> set[str]:
    """Names that ``source`` imports with ``from heun_rsj import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "heun_rsj"
        for alias in node.names
    }


def test_readme_quick_start_runs():
    namespace: dict = {}
    exec(compile(_quick_start(), "README.md", "exec"), namespace)
    assert len(namespace["spectrum"].lambdas) == 3
    assert namespace["P"].coeffs[-1] == 1.0
    assert len(namespace["phi"]) == 2


def test_package_exports_what_is_imported():
    # The namespace holds what the quick start and the scripts import from
    # it, each name resolving, plus the base error class.
    used = _names_from_package(_quick_start())
    for script in SCRIPTS:
        names = _names_from_package((ROOT / "scripts" / script).read_text())
        assert names, script
        used |= names
    for name in sorted(used):
        getattr(heun_rsj, name)
    assert sorted(heun_rsj.__all__) == sorted(used | {"HeunRsjError"})


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    for entry in exported:
        assert hasattr(module, entry), f"{name}.{entry}"
