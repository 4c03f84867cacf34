"""The package's public names: derived from its imports, and enough for the README and demos."""

import ast
import re
import types
from pathlib import Path

import blocksysid

ROOT = Path(__file__).resolve().parent.parent


def _documented_names() -> set[str]:
    """Every ``bs.<name>`` read in README.md and the demo scripts."""
    texts = [(ROOT / "README.md").read_text()]
    texts += [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    return {name for text in texts for name in re.findall(r"\bbs\.([A-Za-z_]\w*)", text)}


def test_public_names_are_the_imported_functions_and_classes():
    for name in blocksysid.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(blocksysid, name), types.ModuleType), name
    assert blocksysid.__all__ == sorted(set(blocksysid.__all__))


def test_public_names_cover_the_readme_and_demos():
    documented = _documented_names()
    assert "solve_block_regularized" in documented  # the scan reads the scripts
    assert documented <= set(blocksysid.__all__), sorted(documented - set(blocksysid.__all__))


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from blocksysid import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == blocksysid.__all__


def test_every_module_level_public_name_is_exported_or_used():
    # A public function or class outside __all__ must be read somewhere
    # besides its own definition: by other code in the package, a demo or
    # the README.  One that only tests reach is dead surface.
    sources = sorted((ROOT / "src" / "blocksysid").glob("*.py"))
    lines = {path: path.read_text().splitlines() for path in sources}
    outside = [(ROOT / "README.md").read_text()]
    outside += [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    dead = []
    for path in sources:
        for node in ast.parse("\n".join(lines[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in blocksysid.__all__:
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            used = any(
                word.search(line)
                for other in sources
                for i, line in enumerate(lines[other])
                if other != path or i not in own
            )
            if not used and not any(word.search(text) for text in outside):
                dead.append(f"{path.stem}.{node.name}")
    assert not dead, dead
