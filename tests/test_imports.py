"""Every name a ramp module or test module imports is used in that module.

An AST scan of each module under src/ramp (the package's __init__, which
re-exports, is left out) and of each test module under tests collects the
names its import statements bind and the names its code loads. An imported
name the module never loads fails the test. The names the benchmark tracer
wraps must exist on ramp's modules, so the allowlist and the tracer agree.
Only `losses` may name a loss family: every other module reads a loss
through its score window. Importing ramp does not load scipy.stats, whose
import alone costs more than half a second.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramp

PACKAGE = Path(ramp.__file__).parent
TESTS = Path(__file__).parent

# (module, name) pairs imported on purpose without a use in the module
ALLOWED = {
    # the benchmark tracer wraps calibration.effective_score_deriv by name
    ("calibration", "effective_score_deriv"),
    # the tracer wraps state_evolution.truncated_moments by name, and the
    # score-moment tests compare the edge-term kernel against it there
    ("state_evolution", "truncated_moments"),
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


MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("test_*.py")))
PATHS = {p.stem: p for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - loaded_names(tree)
    unused -= {name for module, name in ALLOWED if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_allowlist_is_current():
    # an allowed name that the module no longer imports, or now uses, is stale
    for module, name in ALLOWED:
        tree = ast.parse(PATHS[module].read_text())
        assert name in imported_names(tree)
        assert name not in loaded_names(tree)


def test_tracer_names_exist():
    # perfbench/tracer.py wraps each (module, attribute) of its WRAPPED
    # tuple; a name that is gone makes a traced benchmark run fail
    tracer = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    if not tracer.exists():
        pytest.skip("perfbench/ is not in this checkout")
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "WRAPPED"
                           for t in node.targets))
    assert wrapped
    for module, attr, _ in wrapped:
        mod = importlib.import_module(f"ramp.{module}")
        assert hasattr(mod, attr), f"ramp.{module} has no {attr}"


def test_import_does_not_load_scipy_stats():
    # a fresh interpreter, since this test process has loaded scipy.stats
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ramp; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


FAMILY_NAMES = {"LEAST_SQUARES", "HUBER", "ABSOLUTE", "QUANTILE", "FAMILIES"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "losses.py"),
                         ids=lambda p: p.stem)
def test_only_losses_names_a_family(path):
    # a read of .family or losses.HUBER, or an import of a family constant
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        {node.lineno for node in ast.walk(tree)
         if isinstance(node, ast.Attribute) and node.attr in FAMILY_NAMES | {"family"}}
        | {node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           and FAMILY_NAMES & {alias.name for alias in node.names}})
    assert not lines, f"{path.name} names a loss family on lines {lines}"


def test_losses_reads_the_family_only_in_its_spec():
    # the kernels read a loss through (kappa, e_lo, e_hi); only the spec's
    # validation, its constants and its label read .family
    tree = ast.parse(PATHS["losses"].read_text())
    allowed = {"__post_init__", "_shape_of", "loss_label"}
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name in allowed
              for node in ast.walk(func)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "family"
                   and id(node) not in inside)
    assert not lines, f"losses.py reads .family on lines {lines}"
