"""Which model is which, and how each is integrated over its observations,
is known in one place: the records in ``models.py``.  The criterion runs
no quadrature.  The command line builds its parser once per process."""

import argparse
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


INTEGRATORS = {"integrate", "integrate_with_log_singularity"}
# The family records decide how each family is integrated over its
# observations; the package root only re-exports the integrators.
INTEGRATOR_CALLERS = {"models.py", "quadrature.py", "__init__.py"}


def test_only_models_imports_the_integrators():
    found = []
    for path in SOURCES:
        if path.name in INTEGRATOR_CALLERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr}
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} {name}" for name in names & INTEGRATORS)
    assert SOURCES and not found, found


QUADRATURE_H = {"h_functional", "h_derivative_numeric"}


def test_criterion_names_no_quadrature_h():
    # The criterion reads the closed H of each carrier, never its quadrature.
    path = next(p for p in SOURCES if p.name == "criterion.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    assert not names & QUADRATURE_H, names & QUADRATURE_H


def test_main_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    from gaussn import cli

    cli.main(["table", "--model", "trig", "--n", "8"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (
        ["table", "--model", "trig", "--n", "8"],
        ["criterion", "--model", "gauss"],
        ["posterior", "--model", "binom", "--xi-true", "0.3", "--n", "8", "--seed", "7"],
        ["criterion", "--model", "nope"],
        ["--help"],
    ):
        cli.main(argv)
    capsys.readouterr()
    assert built == []
