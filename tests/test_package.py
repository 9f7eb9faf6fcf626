"""The package's public surface: the README quick start, the names the
scripts take from ``heun_rsj``, every module's ``__all__``, and no code in
the package that nothing reaches."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import heun_rsj

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
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
    assert len(namespace["phi"]) == len(namespace["rate"]) == 2
    # RK4 from the closed form's start lands on its phase at the end.
    assert abs(namespace["rk4"].values[-1, 0] - namespace["phi"][1]) <= 1e-9


def test_package_exports_what_is_imported():
    # The namespace holds what the quick start and the scripts import from
    # it, each name resolving, plus the base error class and the triplet
    # type that root_params returns and build_polynomial takes.
    used = _names_from_package(_quick_start())
    for script in SCRIPTS:
        names = _names_from_package(script.read_text())
        assert names, script.name
        used |= names
    for name in sorted(used):
        getattr(heun_rsj, name)
    assert sorted(heun_rsj.__all__) == sorted(used | {"HeunRsjError", "DcheParams"})


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    for entry in exported:
        assert hasattr(module, entry), f"{name}.{entry}"


# Top-level statements that do not run code by themselves.
_NOT_RUN = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _names_used(nodes) -> set[str]:
    """Every name and attribute that ``nodes`` read, imports left out."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def test_src_holds_no_unreached_code():
    # A top-level function or class of the package is reached from a root
    # (``heun_rsj.__all__``, the scripts, the benchmark workloads, or a
    # module's own top-level statements such as the CLI entry point), or
    # from the body of a reached definition.  Names resolve by spelling.
    src = Path(heun_rsj.__file__).resolve().parent
    defs = {}
    reached = set(heun_rsj.__all__)
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text()).body
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node
        reached |= _names_used(n for n in body if not isinstance(n, _NOT_RUN))
    roots = [*SCRIPTS, ROOT / "perfbench" / "workloads.py"]
    for path in roots:
        reached |= _names_used([ast.parse(path.read_text())])
    done: set[str] = set()
    while True:
        todo = [k for k, node in defs.items() if node.name in reached and k not in done]
        if not todo:
            break
        for key in todo:
            reached |= _names_used([defs[key]])
            done.add(key)
    assert sorted(set(defs) - done) == []
