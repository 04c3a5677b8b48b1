"""The key/stack layout is decided in one place: only ``matrix.Stacked._of`` makes
arrays read-only, and no class in ``series.py`` defines its own ``__setattr__``."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grasschur"


def _violations(tree: ast.Module, module: str) -> list[str]:
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
            if (module == "series.py" and isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef) and item.name == "__setattr__" for item in node.body)):
                found.append(f"{module}: class {node.name} defines __setattr__")
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(
            node, (ast.AugAssign, ast.AnnAssign)) else []
        for target in targets:
            if (isinstance(target, ast.Attribute) and target.attr == "writeable"
                    and isinstance(target.value, ast.Attribute) and target.value.attr == "flags"
                    and scope != ("Stacked", "_of")):
                found.append(f"{module}:{node.lineno} assigns .flags.writeable in {'.'.join(scope) or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_layout_is_decided_in_stacked():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _violations(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert not found, found


def test_a_second_layout_rule_is_caught():
    source = ("class Stacked:\n    def _of(cls, a):\n        a.flags.writeable = False\n\n"
              "class LaurentSeries(Stacked):\n    def __setattr__(self, name, value):\n        pass\n\n"
              "def thaw(a):\n    a.flags.writeable = True\n")
    assert _violations(ast.parse(source), "series.py") == [
        "series.py: class LaurentSeries defines __setattr__", "series.py:10 assigns .flags.writeable in thaw"]
    assert _violations(ast.parse(source), "matrix.py") == ["matrix.py:10 assigns .flags.writeable in thaw"]
