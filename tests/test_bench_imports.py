"""The benchmark imports only names the program has, and the program keeps none only for it.

Files under ``decodebench/`` change only with the benchmark, so every name
they import from the package must stay importable.  The engine's aliases of
``decode`` exist only because the benchmark still imports them: when it
stops, the aliases go too.
"""

import ast
import importlib
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _bench_imports() -> set[tuple[str, str | None]]:
    """(module, name) of every import from the package in ``decodebench/*.py``.

    ``import glimpse.engine as engine`` gives ``("glimpse.engine", None)``.
    """
    found = set()
    for path in sorted((_ROOT / "decodebench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("glimpse"):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((a.name, None) for a in node.names if a.name.startswith("glimpse"))
    return found


def _decode_aliases() -> set[str]:
    """The engine's functions whose body is one ``return`` of a ``decode(...)`` call."""
    tree = ast.parse((_ROOT / "src" / "glimpse" / "engine.py").read_text())
    return {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and len(fn.body) == 1
        and isinstance(fn.body[0], ast.Return)
        and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "decode"
            for node in ast.walk(fn.body[0])
        )
    }


def test_every_name_the_benchmark_imports_exists():
    imports = _bench_imports()
    assert ("glimpse", "DecodeConfig") in imports
    for module, name in sorted(imports, key=str):
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{module}.{name}"


def test_the_engine_keeps_an_alias_exactly_while_the_benchmark_imports_it():
    engine = ast.parse((_ROOT / "src" / "glimpse" / "engine.py").read_text())
    defined = {node.name for node in engine.body if isinstance(node, ast.FunctionDef)}
    # the engine's functions that the benchmark imports, the one decode call aside
    used = {name for _, name in _bench_imports() if name in defined} - {"decode"}
    assert _decode_aliases() == used
