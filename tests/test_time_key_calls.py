"""Only ``data.py`` functions and ``FilterSet`` methods call ``time_key``.

A ``FilterSet`` keeps the binning it was built with and bins each query
with it, so the filter's keys cannot come from a second binning. Outside
``data.py``, which bins annotations for the endpoint terms and the training
rows, no other code in the package works out a time key.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tero"


def time_key_calls(source: str) -> list[tuple[str | None, str | None, int]]:
    """``(class, function, line)`` of each call of ``time_key``, by name or as an
    attribute, with its innermost enclosing class and function (None outside one)."""
    found = []

    def visit(node: ast.AST, cls: str | None, fn: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == "time_key":
                    found.append((cls, fn, child.lineno))
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, cls, getattr(child, "name", "<lambda>"))
            else:
                visit(child, cls, fn)

    visit(ast.parse(source), None, None)
    return found


def test_time_key_called_only_in_data_and_filterset():
    calls = {path.name: time_key_calls(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    stray = [f"{name}: {'.'.join(filter(None, (cls, fn))) or '<module>'} (line {line})"
             for name, found in calls.items()
             for cls, fn, line in found
             if not (name == "data.py" and fn is not None) and cls != "FilterSet"]
    assert stray == []
    assert calls["data.py"] and calls["evaluation.py"]  # the check has something to find


def test_finds_time_key_calls():
    source = ("k = time_key(t, b)\n"
              "class FilterSet:\n    def build(self, t):\n        return data.time_key(t, self.b)\n"
              "def rank(q):\n    f = lambda t: time_key(t, b)\n    return time_key, q.time_key\n")
    assert time_key_calls(source) == [(None, None, 1), ("FilterSet", "build", 4),
                                      (None, "<lambda>", 6)]
