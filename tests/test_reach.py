"""Every function of the package runs in some use of the program.

A fresh process traces every call from before ``import depqkd`` through
``verify-tables``, small runs of the benchmark's three workload shapes, an
attacker sweep on both photons, a config-file run, two rejected command
lines and one session that keeps a transcript.  It then calls, once and on
a small input, each function of ``quantum.py``, ``channel.py`` or
``device.py`` that the benchmark's per-layer metrics name, since the
benchmark times those whether or not a session calls them.  It lists each
function and method defined in any module of the package that never ran,
except the transcript's readers, which only callers of the library use;
no debugging aid such as a ``__repr__`` is exempt.  Code that nothing
reaches is either dead or untested; this test names it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(profile)
import depqkd
from depqkd import CheckStrategy, ProtocolConfig, Transcript, run_session
from depqkd import alphabet, channel, cli, device, protocol, quantum, states
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

# one small call of each function of these layers the benchmark names
g = quantum.SeededGenerator(1, 0)
pair = states.dep_basis(states.DepLabel.PSI_PLUS)
photon = quantum.pol_freq_eigenstate(quantum.PolBasis.X, 0, quantum.Freq.LOW)
A, B, Z, X = quantum.Photon.A, quantum.Photon.B, quantum.PolBasis.Z, quantum.PolBasis.X
calls = {
    "quantum.apply_local": lambda: quantum.apply_local(quantum.Pauli.X, B, pair),
    "quantum.partial_measure": lambda: quantum.partial_measure(pair, B, Z, g),
    "channel.ir_attack_entangled": lambda: channel.ir_attack_entangled(
        pair, A, channel.EveStrategy.RANDOM_ZX, g
    ),
    "channel.ir_attack_decoy": lambda: channel.ir_attack_decoy(
        photon, channel.EveStrategy.Z, g
    ),
    "channel.apply_loss": lambda: channel.apply_loss(0.5, g),
    "device.device_measure": lambda: device.device_measure(pair, g),
    "device.measure_single": lambda: device.measure_single(photon, X, g),
    "device.wavelength_convert_global": lambda: device.wavelength_convert_global(pair),
}
layers = {"quantum": quantum, "channel": channel, "device": device}
traced = {}
for metric in json.loads(Path(sys.argv[2]).read_text())["per_layer"]:
    layer, name = metric["name"].split(".")[:2]
    if callable(getattr(layers.get(layer), name, None)):
        traced[f"{layer}.{name}"] = None
for name in traced:
    calls[name]()
sys.setprofile(None)

# read by callers of the library only
unused = {"messages", "kinds", "__len__", "__iter__"}
missed = []
for module in (protocol, alphabet, cli, states, quantum, channel, device):
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
print(json.dumps({"codes": codes, "traced": list(traced), "missed": missed}))
"""


def test_every_engine_function_runs_in_some_use_of_the_program(tmp_path):
    config = tmp_path / "session.cfg"
    config.write_text("pairs = 50\ncheck = wc\n")
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(root / "BENCHMARK.json")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(result.stdout)
    assert out["codes"] == [0, 0, 0, 0, 0, 0, 2, 2]
    # the benchmark times some function of these layers by name
    assert out["traced"]
    assert out["missed"] == []
