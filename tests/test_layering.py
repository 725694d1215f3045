"""The package's import layering, read from its source with ast: no module
rebinds a global, an import inside a function is there only where a real
import cycle forces it, and the map type has one home."""

import ast
from pathlib import Path

import hypkm.km
import hypkm.maps

SRC = Path(__file__).resolve().parent.parent / "src" / "hypkm"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_no_module_has_a_global_statement():
    found = [f"{name}.py:{node.lineno}" for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_function_level_imports_are_the_two_cycles():
    # cli.cmd_demo imports acceptance, which imports cli; RateOverflowError's
    # message comes from rates, which imports errors
    found = {
        (name, node.module)
        for name, tree in TREES.items()
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert found == {("cli", "acceptance"), ("errors", "rates")}


def test_maps_and_km_share_one_map_type():
    assert hypkm.maps.NonexpansiveMap is hypkm.km.NonexpansiveMap
    assert hypkm.maps.SelectionFunction is hypkm.maps.ProductMap is hypkm.km.NonexpansiveMap
