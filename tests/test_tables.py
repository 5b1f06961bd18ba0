"""The table file sessions read: it holds exactly the alphabet's build, a
broken copy fails naming the file, its regeneration command rewrites it,
and a wheel carries it."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from depqkd import cli
from depqkd.alphabet import StateAlphabet, table_bytes
from depqkd.tables import PATH, REGENERATE, load

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = Path(PATH).read_bytes()


def test_the_shipped_file_holds_the_build():
    # a change to the physics or to a table that is not regenerated fails
    assert SHIPPED == table_bytes(StateAlphabet())


BROKEN = {
    "truncated in a table": SHIPPED[:-1],
    "truncated in the header": SHIPPED[:40],
    "a byte past the last table": SHIPPED + b"\0",
    "another magic": SHIPPED.replace(b"depqkd tables", b"depqkd tablez", 1),
    "a wider dtype": SHIPPED.replace(b"prepared <i2 4", b"prepared <i4 4", 1),
    "an unknown dtype": SHIPPED.replace(b"prepared <i2 4", b"prepared <q9 4", 1),
    "a shape that is no number": SHIPPED.replace(b"<i2 160", b"<i2 1x0", 1),
    "tables out of order": SHIPPED.replace(b"decoded", b"decidex", 1)
    .replace(b"decided", b"decoded", 1)
    .replace(b"decidex", b"decided", 1),
    "an empty file": b"",
}


@pytest.mark.parametrize("data", BROKEN.values(), ids=BROKEN.keys())
def test_a_broken_copy_raises_naming_the_file_and_its_command(tmp_path, data):
    path = tmp_path / "tables.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError) as raised:
        load(str(path))
    assert str(path) in str(raised.value) and REGENERATE in str(raised.value)


def test_a_missing_file_raises_naming_it(tmp_path):
    path = tmp_path / "tables.bin"
    with pytest.raises(ValueError, match=re.escape(str(path))) as raised:
        load(str(path))
    assert REGENERATE in str(raised.value)


def test_a_stale_file_fails_only_its_verify_tables_row(tmp_path, monkeypatch, capsys):
    stale = bytearray(SHIPPED)
    stale[-1] ^= 1  # one entry of the last table, local
    path = tmp_path / "tables.bin"
    path.write_bytes(bytes(stale))
    load(str(path))  # well formed: only the build tells it is stale
    monkeypatch.setattr("depqkd.alphabet.PATH", str(path))
    assert cli.main(["verify-tables"]) == 1
    failing = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
    assert failing == ["FAIL shipped tables equal the build (tables.bin byte for byte)"]


def test_the_regeneration_command_rewrites_a_broken_file(tmp_path):
    # a broken file fails the first session with one error line, naming
    # the file and the command, and leaves the package importable so that
    # command runs
    package = tmp_path / "depqkd"
    shutil.copytree(ROOT / "src" / "depqkd", package)
    (package / "tables.bin").write_bytes(SHIPPED[:100])
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}

    def depqkd(*argv):
        command = [sys.executable, *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True)

    failed = depqkd("-m", "depqkd", "run", "--pairs", "20")
    assert failed.returncode == 2 and failed.stdout == ""
    [line] = failed.stderr.splitlines()
    assert line.startswith("error: ") and str(package / "tables.bin") in line
    assert REGENERATE in line
    assert depqkd("-m", "depqkd.alphabet").returncode == 0
    assert (package / "tables.bin").read_bytes() == SHIPPED
    assert depqkd("-m", "depqkd", "run", "--pairs", "20").returncode == 0


def test_a_wheel_carries_the_table_file():
    pyproject = (ROOT / "pyproject.toml").read_text()
    section = re.search(
        r"^\[tool\.setuptools\.package-data\]\n((?:[^\[\n].*\n)*)", pyproject, re.M
    )
    assert section, "pyproject.toml declares no package data"
    listed = re.search(r'^depqkd = \[(.*)\]$', section.group(1), re.M)
    assert listed and '"tables.bin"' in listed.group(1).split(", ")
    assert Path(PATH).name == "tables.bin"
