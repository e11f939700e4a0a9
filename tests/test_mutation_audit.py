"""scripts/mutation_audit.py's choice of statements and of lines.

The script itself runs the test suite once per mutant and is not run here.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "mutation_audit.py"
_SPEC = importlib.util.spec_from_file_location("mutation_audit", _PATH)
mutation_audit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_audit)

SOURCE = '''"""A module."""
import math

LIMIT = 3


class Box:
    """A box."""

    size: int = 1

    def grow(self, by):
        """Grow."""
        self.size += by
        return self.size


def f(a, b):
    if a:
        x = 1
    elif b:
        x = math.floor(b)
    else:
        pass
    for i in range(LIMIT): a += i

    def inner():
        return a
    return (a +
            x)
'''


def test_mutants_are_the_statements_in_function_bodies():
    # no docstring, pass, import, module constant, class field or def; an if
    # as a whole, its elif with the else after it, and each block statement
    got = [(first, last, SOURCE.splitlines()[first - 1].strip())
           for first, last, _ in mutation_audit.mutants(SOURCE)]
    assert got == [
        (14, 14, "self.size += by"),
        (15, 15, "return self.size"),
        (19, 24, "if a:"),
        (20, 20, "x = 1"),
        (21, 24, "elif b:"),
        (22, 22, "x = math.floor(b)"),
        (25, 25, "for i in range(LIMIT): a += i"),
        (25, 25, "for i in range(LIMIT): a += i"),
        (28, 28, "return a"),
        (29, 30, "return (a +"),
    ]


def test_each_mutant_puts_pass_in_place_of_its_statement():
    texts = [text for _, _, text in mutation_audit.mutants(SOURCE)]
    assert "    if a:\n        x = 1\n    pass\n    for" in texts[4]  # the elif
    assert "    pass\n\n    def inner" in texts[6]  # the whole for
    assert "    for i in range(LIMIT): pass\n" in texts[7]  # its body
    assert texts[9].endswith("        return a\n    pass\n")
    for text in texts:
        compile(text, "<mutant>", "exec")
        assert text != SOURCE and text.count("\n") <= SOURCE.count("\n")


def test_parse_lines_reads_ranges_and_single_lines():
    assert mutation_audit.parse_lines("42-45,68") == {42, 43, 44, 45, 68}
    assert mutation_audit.parse_lines("110") == {110}
