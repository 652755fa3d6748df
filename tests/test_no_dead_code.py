"""Dead-code guard: every module-level function and class in the package,
every non-dunder method of its classes and every non-dunder name assigned
at module level is loaded by name somewhere in ``src/`` or ``tests/``;
every error class is raised or subclassed in ``src/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geoequiv"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _referenced_names():
    names = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_definition_is_referenced():
    used = _referenced_names()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in _trees(PACKAGE)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unused == []


def test_every_method_is_referenced():
    used = _referenced_names()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {cls.name}.{node.name}"
        for path, tree in _trees(PACKAGE)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unused == []


def test_every_module_level_assignment_is_loaded():
    used = _referenced_names()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name.id}"
        for path, tree in _trees(PACKAGE)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
        and not (name.id.startswith("__") and name.id.endswith("__"))
        and name.id not in used
    ]
    assert unused == []


def test_every_error_class_is_raised_or_subclassed():
    raised, based = set(), set()
    for _, tree in _trees(ROOT / "src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
            elif isinstance(node, ast.ClassDef):
                based.update(b.id for b in node.bases if isinstance(b, ast.Name))
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    unused = [
        f"errors.py:{node.lineno} {node.name}"
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name not in raised | based
    ]
    assert unused == []
