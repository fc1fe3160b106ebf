"""Import layering of the package, read from its sources with ast: no module
reaches into another's private names, the covariance layer (kernel,
spectral, analysis) does not depend on the sampler, no module depends on
the tests, and no module of the package or the tests imports a name it
never uses. Each module's `__all__` names what it defines, and the package
re-exports only such names."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stwm"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
SOURCES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize("module", MODULES)
def test_tests_not_imported(module):
    # test oracles (reference.py) and test helpers stay out of the library
    tests = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
    assert found & tests == set()


def unused_imports(path: Path) -> list:
    """Names that the module at path imports and never reads; an entry of
    its __all__ counts as a read."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


# the package's __init__ imports only to re-export; test_reexports_listed checks it
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_imports_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os.path\nimport sys\nfrom a import b as c, d\nprint(sys)\n"
                    "__all__ = ['c']\n")
    assert unused_imports(path) == ["os", "d"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"stwm.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []


def test_reexports_listed():
    # every name the package re-exports is in its module's __all__
    unlisted = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names = importlib.import_module(f"stwm.{node.module}").__all__
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in names]
    assert unlisted == []
