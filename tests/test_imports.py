"""Every name a ramp module imports is used in that module.

An AST scan of each module under src/ramp (the package's __init__, which
re-exports, is left out) collects the names its import statements bind and
the names its code loads. An imported name the module never loads fails the
test.
"""

import ast
from pathlib import Path

import pytest

import ramp

PACKAGE = Path(ramp.__file__).parent

# (module, name) pairs imported on purpose without a use in the module
ALLOWED = {
    # the benchmark tracer wraps calibration.effective_score_deriv by name
    ("calibration", "effective_score_deriv"),
}


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - loaded_names(tree)
    unused -= {name for module, name in ALLOWED if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_allowlist_is_current():
    # an allowed name that the module no longer imports, or now uses, is stale
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in imported_names(tree)
        assert name not in loaded_names(tree)
