"""Every module-level import in the package is used, except those kept only
for the benchmark's tracer (``perfbench/tracing.py``).  Such an import sits
in a block headed by a "Not called here" comment, and the tracer wraps that
name in that module; once the tracer stops wrapping it, the import goes."""

import ast
import importlib
from pathlib import Path

import pytest

import pqsim

from conftest import load_tracing

PACKAGE = Path(pqsim.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
MARKER = "Not called here"


def module_imports(tree):
    """(name bound, line) for each import at module level, except __future__."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def under_marker(lines, lineno):
    """Whether line ``lineno`` (1-based) belongs to a block, unbroken by
    blank lines, that a comment carrying the marker heads."""
    k = lineno - 1
    while k >= 0 and lines[k].strip():
        if lines[k].lstrip().startswith("#") and MARKER in lines[k]:
            return True
        k -= 1
    return False


@pytest.fixture(scope="module")
def tracer_sites():
    """(module, name) for every module attribute the tracer replaces."""
    modules = {name: importlib.import_module(f"pqsim.{name}") for name in MODULES}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer, pqsim)
    try:
        return {(name, attr) for name, module in modules.items()
                for attr, value in vars(module).items() if before[name].get(attr) is not value}
    finally:
        tracer.restore()


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_used_or_name_a_tracer_site(module, tracer_sites):
    source = (PACKAGE / f"{module}.py").read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, lineno in module_imports(tree):
        if under_marker(lines, lineno):
            assert (module, name) in tracer_sites, f"{module}.{name} is marked but not traced"
        else:
            assert name in used, f"{module}.{name} is imported but never used"


def test_oracle_shares_no_module_with_the_sampler():
    """The oracle checks the samplers, so it imports none of their modules."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    forbidden = {"sampler", "processes", "detectors", "simulability"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imported.update(module)
            if module == [""] or module == ["pqsim"]:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert not imported & forbidden


def test_only_the_config_reads_the_scheme_label():
    """The sources pick the sampling route (``sampler.default_route``);
    ``scheme`` is a recorded label, so no module but experiment.py reads an
    attribute of that name."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "experiment":
            continue
        reads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "scheme"]
        assert not reads, f"{path.name} reads .scheme on lines {reads}"
