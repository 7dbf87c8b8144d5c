"""Every function and class of the package has a caller outside the tests.

The scan collects each name, attribute and imported name that appears in the
source of ``src/qgfraud`` and ``qgbench``, and asks that every top-level
``def`` or ``class`` of ``src/qgfraud``, public or private, be among them. A
definition that only tests call is code the program does not need; its tests
belong on the production path or against ``tests/oracles.py``.

The scan matches names, not bindings. A name that is also used elsewhere as
an attribute of something else, such as ``split`` beside ``str.split``, or
as a local variable, counts as used and is not caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgfraud"
CALLERS = (PACKAGE, ROOT / "qgbench")


def used_names() -> set:
    names = set()
    for directory in CALLERS:
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    return names


def uncalled_definitions(private: bool) -> list:
    used = used_names()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") == private
                    and node.name not in used):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_public_definition_has_a_caller_outside_the_tests():
    unused = uncalled_definitions(private=False)
    assert not unused, f"public APIs that only tests call: {', '.join(unused)}"


def test_every_private_definition_has_a_caller_outside_the_tests():
    unused = uncalled_definitions(private=True)
    assert not unused, f"private definitions that only tests call: {', '.join(unused)}"
