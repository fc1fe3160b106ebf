"""Import layering of the package, read from its sources with ast: no module
reaches into another's private names, and the covariance layer (kernel,
spectral, analysis) does not depend on the sampler."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stwm"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imports(module: str) -> list:
    """(package module, name) for every import of a package module in
    `module`; name is None where the module itself is imported."""
    found = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if not (source == "stwm" or source.startswith("stwm.")):
                    continue
                source = source[len("stwm."):]
            for alias in node.names:
                found.append((source, alias.name) if source else (alias.name, None))
        elif isinstance(node, ast.Import):
            found += [(a.name[len("stwm."):], None) for a in node.names
                      if a.name.startswith("stwm.")]
    return found


def test_sources_found():
    assert {"kernel", "sampler", "spectral", "analysis", "cli"} <= set(MODULES)
    assert ("kernel", "ModeKernel") in imports("sampler")


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_imported(module):
    private = [f"{source}.{name}" for source, name in imports(module)
               if name is not None and name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module,forbidden", [
    ("kernel", {"sampler", "spectral", "analysis", "cli", "fieldfile"}),
    ("spectral", {"sampler", "analysis", "cli", "fieldfile"}),
    ("analysis", {"sampler", "cli", "fieldfile"}),
])
def test_covariance_layer_below_sampler(module, forbidden):
    assert {source for source, _ in imports(module)} & forbidden == set()
