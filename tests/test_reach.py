"""Every function of the session engine runs in some use of the program.

A fresh process traces every call from before ``import depqkd`` through
``verify-tables``, small runs of the benchmark's three workload shapes, an
attacker sweep on both photons, a config-file run, two rejected command
lines and one session that keeps a transcript.  It lists each function
and method defined in ``protocol.py``, ``alphabet.py``, ``cli.py`` or
``states.py`` that never ran.
Code that nothing reaches is either dead or untested; this test names it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import contextlib, io, json, sys

seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(profile)
import depqkd
from depqkd import CheckStrategy, ProtocolConfig, Transcript, run_session
from depqkd import alphabet, cli, protocol, states
from depqkd.cli import main

runs = [
    ["verify-tables"],
    # the benchmark's three workload shapes, at a few hundred pairs
    ["run", "--check", "both", "--eve", "none", "--pairs", "200"],
    ["run", "--check", "decoy", "--eve", "ir-random", "--eve-targets", "b",
     "--decoy-fraction", "0.85", "--pairs", "200"],
    ["sweep", "--param", "loss", "--values", "0,0.1,0.2", "--check", "wc",
     "--eve", "ir-z", "--eve-targets", "a", "--pairs", "100", "--trials", "2"],
    ["sweep", "--param", "eve", "--values", "none,ir-z,ir-x,ir-random",
     "--eve-targets", "both", "--pairs", "100"],
    ["run", "--config", sys.argv[1]],
    ["run", "--pairs", "0"],
    ["run", "--no-such-flag"],
]
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    codes = [main(argv) for argv in runs]
    run_session(ProtocolConfig(pairs=50, check=CheckStrategy.BOTH), Transcript())
sys.setprofile(None)

# read by callers of the library only
unused = {"messages", "kinds", "__len__", "__iter__"}
missed = []
for module in (protocol, alphabet, cli, states):
    for name, value in vars(module).items():
        members = [(name, value)]
        if isinstance(value, type):
            members = [
                (f"{name}.{attr}", member)
                for attr, member in vars(value).items()
                if not (name == "Transcript" and attr in unused)
            ]
        for qualname, member in members:
            code = getattr(member, "__code__", None)
            # generated dataclass methods are compiled from a string
            if code and code.co_filename == module.__file__ and code not in seen:
                missed.append(f"{module.__name__}.{qualname}")
print(json.dumps({"codes": codes, "missed": missed}))
"""


def test_every_engine_function_runs_in_some_use_of_the_program(tmp_path):
    config = tmp_path / "session.cfg"
    config.write_text("pairs = 50\ncheck = wc\n")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(result.stdout)
    assert out["codes"] == [0, 0, 0, 0, 0, 0, 2, 2]
    assert out["missed"] == []
