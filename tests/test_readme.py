"""README states the contract, so what it shows must be what the program
does: each example runs and prints what README shows under it, and each
module name and path it cites exists."""

import importlib
import io
import json
import pkgutil
import re
import shlex
from contextlib import redirect_stdout
from functools import reduce
from pathlib import Path

import pytest

import depqkd
from depqkd.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def shown_commands():
    """``(argv, shown lines)`` of each ``$ depqkd`` line of README that is
    followed by output: every line inside a code block after it, up to the
    next ``$`` line or the next heading."""
    found, fenced, command = [], False, None
    for line in README.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif (line.startswith("#") and not fenced) or line.startswith("$ "):
            command = None
            if line.startswith("$ depqkd "):
                command = (shlex.split(line)[2:], [])
                found.append(command)
        elif fenced and command is not None:
            command[1].append(line)
    return [(argv, lines) for argv, lines in found if lines]


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


COMMANDS = shown_commands()


def test_readme_shows_the_output_of_each_subcommand():
    assert sorted({argv[0] for argv, _ in COMMANDS}) == ["run", "verify-tables"]
    assert python_blocks()


@pytest.mark.parametrize(
    "argv, shown", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
)
def test_each_readme_example_prints_what_it_shows(argv, shown):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    lines = out.getvalue().splitlines()
    if argv[0] == "verify-tables":
        # the first and the last line, with an ellipsis for the rows between
        assert [shown[0], shown[-1]] == [lines[0], lines[-1]]
        return
    # one JSON object per trial, wrapped over several display lines
    decoder, text, objects = json.JSONDecoder(), "\n".join(shown).strip(), []
    while text:
        obj, end = decoder.raw_decode(text)
        objects.append(obj)
        text = text[end:].strip()
    reports = [json.loads(line) for line in lines]
    assert len(objects) == len(reports)
    for obj, report in zip(objects, reports):
        assert list(obj) == list(report)
        fields = list(report)[: list(report).index("elapsed_ms")]
        assert {k: obj[k] for k in fields} == {k: report[k] for k in fields}


@pytest.mark.parametrize("source", python_blocks())
def test_each_readme_python_block_runs(source):
    with redirect_stdout(io.StringIO()):
        exec(compile(source, "README.md", "exec"), {})


MODULES = {info.name for info in pkgutil.iter_modules(depqkd.__path__)}


def cited_names():
    """Each backticked name of README that starts with ``depqkd.`` or with a
    module of the package, without that prefix and without a trailing call
    ``()``: ``alphabet.table_checks`` for ``depqkd.alphabet.table_checks()``."""
    names = set()
    for span in re.findall(r"`([\w.]+)(?:\(\))?`", README):
        package, _, name = span.partition(".")
        if package == "depqkd" and name:
            names.add(name)
        elif package in MODULES and name:
            names.add(span)
    return sorted(names)


def cited_paths():
    paths = re.findall(r"\b(?:tests|perfbench|src)/[\w./-]*", README)
    return sorted({path.rstrip(".") for path in paths})


def resolves(name):
    module, *attrs = name.split(".")
    if attrs == ["py"]:  # a file name, such as quantum.py
        return (ROOT / "src" / "depqkd" / f"{module}.py").is_file()
    try:
        reduce(getattr, attrs, importlib.import_module(f"depqkd.{module}"))
    except (ImportError, AttributeError):
        return False
    return True


def test_readme_cites_module_names_that_resolve():
    names = cited_names()
    assert "protocol._sizes" in names and "cli._BATCH_PAIRS" in names
    assert [name for name in names if not resolves(name)] == []


def test_readme_cites_paths_that_exist():
    paths = cited_paths()
    assert "tests/test_golden.py" in paths
    assert [path for path in paths if not (ROOT / path).exists()] == []
