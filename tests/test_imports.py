"""Every module-level import in the package is used, except those kept only
for the benchmark's tracer (``perfbench/tracing.py``).  Such an import sits
in a block headed by a "Not called here" comment, and the tracer wraps that
name in that module; once the tracer stops wrapping it, the import goes.
Every public module-level name is likewise used by the package or a demo."""

import ast
import importlib
from pathlib import Path

import pytest

import pqsim

from conftest import load_tracing

PACKAGE = Path(pqsim.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
MARKER = "Not called here"
DEMOS = Path(__file__).resolve().parents[1] / "demos"


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


def public_definitions(tree):
    """(name, node) for each public function, class or assigned name at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def references(nodes):
    """Names read, attributes looked up and names imported under ``nodes``."""
    found = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_every_public_name_is_used_in_the_package_or_a_demo():
    """A public module-level name that no other code in ``src/pqsim`` (the
    re-exports in ``__init__.py`` aside) and no demo refers to is API that
    only tests call.  The tracer's names pass through the "Not called here"
    imports."""
    trees = {module: ast.parse((PACKAGE / f"{module}.py").read_text()) for module in MODULES}
    demos = [ast.parse(path.read_text()) for path in sorted(DEMOS.glob("*.py"))]
    found = {node: references([node]) for tree in [*trees.values(), *demos] for node in tree.body}
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name, node in public_definitions(tree)
              if not any(name in refs for other, refs in found.items() if other is not node)]
    assert not unused, f"public names no package code or demo uses: {unused}"


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


def test_only_the_config_presets_and_cli_import_the_scheme_names():
    """The scheme names label a config and pick a threshold table, so no
    module but experiment.py (which defines them), presets.py, cli.py and
    the re-exports in __init__.py imports them."""
    allowed = {"experiment", "presets", "cli", "__init__"}
    for path in sorted(PACKAGE.glob("*.py")):
        imported = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        schemes = imported & {"SCHEME_SINGLE_PHOTON", "SCHEME_SPDC"}
        assert path.stem in allowed or not schemes, f"{path.name} imports {sorted(schemes)}"
