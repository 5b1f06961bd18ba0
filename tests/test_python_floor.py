"""Every module of the package parses as the oldest Python that
``pyproject.toml`` declares, though the suite may run on a newer one,
keeps its lines within the package's width, and reads the other modules
through their public names only."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = (ROOT / "pyproject.toml").read_text()
FLOOR = tuple(
    int(part)
    for part in re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT).groups()
)
MODULES = sorted((ROOT / "src").rglob("*.py"))
MAX_LINE = 88  # characters


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_parses_as_the_declared_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_line_of_the_package_fits_the_width(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, start=1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: lines over {MAX_LINE} characters: {long}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    # a name another module needs is that module's public name
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    private = [
        f"{node.lineno}: from {'.' * node.level}{node.module or ''} import {a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == [], f"{path.name}: private names imported: {private}"


def test_parsing_as_an_older_python_refuses_newer_syntax():
    # except* came in 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
