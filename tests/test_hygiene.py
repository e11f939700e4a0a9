"""Source hygiene: every name a module in src/ or tests/ imports is used.

No linter ships with the project, so this AST scan stands in for the
unused-import check. A name counts as used when it appears as an identifier
anywhere in the module or is listed in the module's __all__ (a re-export).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported binding that the module never references."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_only_unused_names():
    src = ("import json\nimport numpy as np\nimport os.path\n"
           "from a import b, c as d\nfrom e import f\n__all__ = ['f']\n"
           "np.zeros(d)\nos.path.join()\n")
    assert unused_imports(src) == [(1, "json"), (4, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
