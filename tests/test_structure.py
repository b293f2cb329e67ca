"""Which model is which is known in one place: the records in ``models.py``."""

import ast
from pathlib import Path

import gaussn

SOURCES = sorted(Path(gaussn.__file__).parent.glob("*.py"))


def test_no_model_branches_outside_models():
    found = []
    for path in SOURCES:
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "ModelId"
            ):
                found.append(f"{path.name}:{node.lineno} ModelId.{node.attr}")
    assert SOURCES and not found, found
