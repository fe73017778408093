"""The public surface resolves: every exported name, and every ``repro``
import an example or a benchmark makes.

Only a couple of examples run in CI, so a name removed from the package
would otherwise leave a script that fails on its first line unnoticed.
The scripts are parsed, never executed.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def _resolves(module: str, name: str | None = None) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_exported_name_resolves():
    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    missing = [
        f"{package.__name__}.{name}"
        for package in packages
        for name in getattr(package, "__all__", ())
        if not hasattr(package, name)
    ]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def _repro_imports(path: Path):
    """Yield ``(module, name or None)`` for each ``repro`` import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def test_every_script_import_resolves():
    scripts = sorted(ROOT.glob("examples/*.py")) + sorted(
        path
        for path in ROOT.glob("benchmarks/**/*.py")
        if "_runs" not in path.parts
    )
    assert scripts
    missing = [
        f"{path.relative_to(ROOT)}: {module}{'' if name is None else '.' + name}"
        for path in scripts
        for module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not missing, f"imports that do not resolve: {missing}"
