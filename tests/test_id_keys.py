"""Only ``data.columns`` keys on ``id()``.

Facts share their annotation objects, and ``columns`` is the one code that
recovers them: it holds every annotation while it compares their ids, so no
``id()`` is reused. Everything else works from its annotation table.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tero"


def id_uses(source: str) -> list[str]:
    """``function (line n)`` for each read of the builtin name ``id``, such as a
    call or ``map(id, ...)``, named by its innermost enclosing function."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "id" \
                    and isinstance(child.ctx, ast.Load):
                found.append(f"{where} (line {child.lineno})")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_function else where)

    visit(ast.parse(source), "<module>")
    return found


def test_no_id_outside_columns():
    uses = [f"{path.name}: {use}" for path in sorted(PACKAGE.glob("*.py"))
            for use in id_uses(path.read_text(encoding="utf-8"))]
    assert [use for use in uses if not use.startswith("data.py: columns (")] == []


def test_finds_id_uses():
    source = ("seen = {id(x): x for x in xs}\n"
              "class A:\n    def f(self, q):\n        g = lambda t: id(t)\n"
              "        return list(map(id, q)), self.id(q), q.id\n")
    assert id_uses(source) == ["<module> (line 1)", "<lambda> (line 4)", "f (line 5)"]
