"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rope_kit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "rope_kit"}


def imported_modules(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


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
