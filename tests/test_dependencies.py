"""numpy stays the only runtime dependency of the package, and its
modules import each other only down the layers below."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rope_kit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "rope_kit"}

# The rope_kit modules each lower layer may import, and nothing else.
LAYERS = {
    "errors": set(),
    "numerics": {"errors"},
    "rotary": {"numerics", "errors"},
    "baselines": {"numerics", "errors"},
    "attention": {"numerics", "rotary", "errors"},
    "analysis": {"numerics", "rotary", "errors"},
}


def imported_modules(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def unit(path: Path) -> str:
    """The top-level module of the package that a source file belongs to."""
    return path.relative_to(PACKAGE).with_suffix("").parts[0]


def imported_units(path: Path):
    """The top-level rope_kit modules a source file imports, relative or absolute."""
    package = ["rope_kit", *path.relative_to(PACKAGE).parent.parts]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = base + (node.module.split(".") if node.module else [])
            modules = [module + [alias.name] for alias in node.names]
        else:
            continue
        for module in modules:
            if module[0] == "rope_kit" and len(module) > 1:
                yield module[1]


def test_imports_only_stdlib_numpy_and_itself():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) >= 10, f"expected the rope_kit sources under {PACKAGE}"
    outside = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in paths
        for name in imported_modules(path)
        if name.split(".")[0] not in ALLOWED
    }
    assert outside == set()


def test_modules_import_only_lower_layers():
    wrong = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        source = unit(path)
        for target in set(imported_units(path)) - {source}:
            if source in LAYERS and target not in LAYERS[source]:
                wrong.add(f"{source} imports {target}")
            if target == "cli":
                wrong.add(f"{source} imports cli")
            if target == "harness" and source not in ("cli", "__init__"):
                wrong.add(f"{source} imports harness")
    assert wrong == set()


def test_layer_table_names_every_module():
    units = {unit(path) for path in PACKAGE.rglob("*.py")}
    assert set(LAYERS) | {"cli", "harness", "__init__"} == units
