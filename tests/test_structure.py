"""Which model is which, and how each is integrated over its observations,
is known in one place: the records in ``models.py``.  The criterion runs
no quadrature.  The command line builds its parser once per process, and
no module reads the environment, so an envelope depends on argv alone.
Importing the package loads no numpy; each module imports it on first use."""

import argparse
import ast
import json
import subprocess
import sys
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


def test_only_models_reads_the_density_zeros():
    # Where an integral over the observations splits is the record's to say:
    # a caller names the log densities its integrand holds, not the points.
    found = []
    for path in SOURCES:
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "zeros"
                and not (isinstance(node.value, ast.Name) and node.value.id == "np")
            ):
                found.append(f"{path.name}:{node.lineno}")
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


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} {name}" for name in names & ENVIRONMENT_READS)
    assert SOURCES and not found, found


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


NUMPY_FREE_COMMANDS = [
    ["criterion", "--model", "chi2log"],
    ["criterion", "--model", "gauss", "--sigma", "2"],
    ["criterion", "--model", "trig"],
    ["criterion", "--model", "binom"],
    ["table", "--model", "chi2log", "--n", "3,160"],
    ["verify", "--suite", "table1"],
]
NUMERIC_COMMAND = ["fisher", "--model", "trig"]

# Run in a fresh interpreter: this one has numpy loaded already.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import gaussn, gaussn.cli
facts = {
    "modules": sorted(m for m in sys.modules if m == "gaussn" or m.startswith("gaussn.")),
    "numpy_after_import": "numpy" in sys.modules,
    "rule_built_at_import": "_WG" in vars(sys.modules["gaussn.quadrature"]),
    "runs": [],
}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gaussn.cli.main(argv)
    facts["runs"].append([argv, code, "numpy" in sys.modules])
print(json.dumps(facts))
"""


def test_numpy_loads_on_the_first_numeric_command():
    commands = NUMPY_FREE_COMMANDS + [NUMERIC_COMMAND]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(gaussn.__file__).parent.parent), json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    facts = json.loads(proc.stdout)
    package = {"gaussn"} | {f"gaussn.{p.stem}" for p in SOURCES if not p.stem.startswith("__")}
    assert len(package) == 10 and set(facts["modules"]) == package, facts["modules"]
    assert not facts["numpy_after_import"]
    assert not facts["rule_built_at_import"]
    numpy_free = [[argv, code, loaded] for argv, code, loaded in facts["runs"][:-1]]
    assert numpy_free == [[argv, 0, False] for argv in NUMPY_FREE_COMMANDS]
    assert facts["runs"][-1] == [NUMERIC_COMMAND, 0, True]


def test_cli_binds_no_numpy():
    # Every value the commands print is a Python int, float, bool or str,
    # so the command line needs numpy for nothing of its own.
    from gaussn import cli

    path = next(p for p in SOURCES if p.name == "cli.py")
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    assert not names & {"np", "numpy", "LazyNumpy"}, names
    assert not modules & {"numpy", "_lazy"}, modules
    assert "np" not in vars(cli)
