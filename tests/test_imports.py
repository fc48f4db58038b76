"""The package's lazy exports, and single-member commands without numpy
or dataclasses."""

import json
import os
import subprocess
import sys

import pytest

import ozaki
from ozaki import cli

SINGLE_MEMBER_COMMANDS = (
    ["extremal", "f2", "--order", "12"],
    ["coeffs", "--class", "G", "--schwarz=-0.3:0.1,0.2"],
    ["coeffs", "--class", "F", "--caratheodory", "1,0.5:0.5", "--order", "10"],
    ["report", "--class", "F", "--schwarz=0.3:0.1,0.2"],
    ["report", "--class", "G", "--caratheodory", "1,0.5:0.5"],
    ["report", "--extremal", "g1"],
    ["verify", "--class", "all"],
)

# numpy cannot be imported in this interpreter: an import of it raises
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
import ozaki
import ozaki.cli
results = [ozaki.cli.run(argv) for argv in json.loads(sys.argv[1])]
rejected = ozaki.cli.main(["report", "--class", "F", "--caratheodory", "2,2,-2"])
assert sys.modules["numpy"] is None
print(json.dumps([results, rejected]))
"""


def test_single_member_commands_run_without_numpy():
    """import ozaki, import ozaki.cli and the single-member commands load no
    numpy, and print what they print with numpy loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(SINGLE_MEMBER_COMMANDS)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    results, rejected = json.loads(proc.stdout)
    assert results == [list(cli.run(argv)) for argv in SINGLE_MEMBER_COMMANDS]
    assert rejected == 1
    assert "Caratheodory-Toeplitz criterion" in proc.stderr


# dataclasses cannot be imported in this interpreter; the modules that the
# single-member commands do not run are listed as they stand after them
_WITHOUT_DATACLASSES = """
import json, sys
sys.modules["dataclasses"] = None
import ozaki.cli
commands = json.loads(sys.argv[1])
results = [ozaki.cli.run(argv) for argv in commands[:-1]]
unused = ["ozaki.ledger", "ozaki.objectives", "fractions", "csv"]
loaded = [name for name in unused if name in sys.modules]
results.append(ozaki.cli.run(commands[-1]))
print(json.dumps([results, loaded]))
"""


def test_single_member_commands_load_only_what_they_run():
    """extremal, coeffs and report load no dataclasses, ledger, objectives,
    fractions or csv, and verify no dataclasses; all four print what they
    print in this interpreter."""
    commands = SINGLE_MEMBER_COMMANDS
    assert commands[-1][0] == "verify"
    assert {argv[0] for argv in commands[:-1]} == {"extremal", "coeffs", "report"}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_DATACLASSES, json.dumps(commands)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    results, loaded = json.loads(proc.stdout)
    assert loaded == []
    assert results == [list(cli.run(argv)) for argv in commands]


def test_every_public_name_resolves_from_its_module():
    assert ozaki.__all__ == sorted(set(ozaki.__all__))
    for name in ozaki.__all__:
        value = getattr(ozaki, name)
        if name in ozaki._EXPORTS:
            assert value is sys.modules[f"ozaki.{name}"]
        else:
            module = sys.modules[f"ozaki.{ozaki._MODULE_OF[name]}"]
            assert value is getattr(module, name)
    assert set(dir(ozaki)) >= set(ozaki.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ozaki.no_such_name


_SAMPLE = """
import sys
import ozaki.cli
code, text = ozaki.cli.run(["sample", "--class", "F", "--samples", "2000"])
print(text)
print("concurrent.futures" in sys.modules)
"""


def _sample_in_fresh_interpreter(threads):
    env = {k: v for k, v in os.environ.items() if k != "OZAKI_THREADS"}
    if threads is not None:
        env["OZAKI_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", _SAMPLE], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    text, _, pooled = proc.stdout.rstrip("\n").rpartition("\n")
    return text, pooled == "True"


def test_one_thread_samples_without_a_pool():
    """By default ``sample`` runs its chunks in the calling thread and never
    imports concurrent.futures; two threads do, and print the same text."""
    one, pooled = _sample_in_fresh_interpreter(None)
    assert not pooled
    two, pooled = _sample_in_fresh_interpreter("2")
    assert pooled
    assert two == one
    assert json.loads(one)["payload"]["count"] == 2000
