"""Import direction: every ``repro`` layer imports only from layers below it.

The layers, lowest first::

    errors/ops/stats_util/units -> sim/hw -> os -> quartz -> faults
        -> workloads/service/pmem/explore -> validation -> cli

Only module-level imports count: a function-local import runs on first
call, not on import, so it cannot drag a higher layer into a lower
layer's import closure.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

LAYERS = (
    ("errors", "ops", "stats_util", "units"),
    ("sim", "hw"),
    ("os",),
    ("quartz",),
    ("faults",),
    ("workloads", "service", "pmem", "explore"),
    ("validation",),
    ("cli", "__main__"),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _layer_of(module: str) -> str:
    """``repro.quartz.trace`` -> ``quartz``."""
    return module.split(".")[1]


def _module_imports(path: Path) -> list[str]:
    """The ``repro.*`` modules imported by *path*'s top-level statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.append(node.module)
    return [name for name in imported if name.startswith("repro.")]


def layering_violations(root: Path = PACKAGE_ROOT) -> list[str]:
    """Every module-level import that points up the layer order."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative == Path("__init__.py"):
            continue  # the package root re-exports the public API
        importer = "repro." + ".".join(relative.with_suffix("").parts)
        for imported in _module_imports(path):
            if RANK[_layer_of(imported)] > RANK[_layer_of(importer)]:
                violations.append(f"{importer} imports {imported}")
    return violations


def test_every_module_belongs_to_a_layer():
    unknown = {
        path.relative_to(PACKAGE_ROOT).with_suffix("").parts[0]
        for path in PACKAGE_ROOT.rglob("*.py")
        if path.relative_to(PACKAGE_ROOT) != Path("__init__.py")
    } - set(RANK)
    assert not unknown, f"modules outside the layer order: {sorted(unknown)}"


def test_module_level_imports_point_down():
    assert layering_violations() == []


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT.parent)},
    )


def test_emulator_core_does_not_load_validation():
    completed = _run_fresh(
        "import sys, repro.quartz.emulator\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.validation'))\n"
        "assert not loaded, loaded\n"
    )
    assert completed.returncode == 0, completed.stderr


def test_cli_import_does_not_load_numpy():
    """Only the graph workloads use numpy; they import it when they run."""
    completed = _run_fresh(
        "import sys, repro.cli\n"
        "assert 'numpy' not in sys.modules, 'repro.cli imported numpy'\n"
    )
    assert completed.returncode == 0, completed.stderr
