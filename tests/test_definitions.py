"""Every definition in the package is used, and every benchmark hook into it resolves."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(path: Path) -> list[str]:
    """The module-level functions and classes of a file, and their methods other than dunders."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def test_every_definition_is_named_apart_from_its_definition():
    texts = [path.read_text() for top in ("src", "tests", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    words = Counter(w for text in texts for w in re.findall(r"[A-Za-z_]\w*", text))
    defined = Counter(m for text in texts for m in re.findall(r"\b(?:def|class)\s+(\w+)", text))
    unused = [f"{path.name}: {name}" for path in sorted((ROOT / "src" / "pitwo").glob("*.py"))
              for name in _definitions(path) if words[name] <= defined[name]]
    assert unused == []


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, apart from ``from __future__`` imports."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_import_is_used():
    # the package's __init__ imports names only to re-export them
    unused = [f"{path.name}: {name}" for path in sorted((ROOT / "src" / "pitwo").glob("*.py"))
              if path.name != "__init__.py" for name in _unused_imports(path)]
    assert unused == []


def test_the_benchmark_tracer_hooks_resolve():
    # bench/tracer.py wraps pitwo functions by name; a rename would break only the benchmark
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr in tracer.BOUNDARIES:
        target = importlib.import_module(f"pitwo.{mod_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    for name in tracer.CACHED:
        mod_name, attr = name.split(".")
        assert hasattr(getattr(importlib.import_module(f"pitwo.{mod_name}"), attr), "cache_info"), name
