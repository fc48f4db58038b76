"""The per-phase scalar command timer of tools/command_stages.py (no timing
asserted)."""

import importlib.util
from pathlib import Path

from ozaki import cli

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "command_stages.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("command_stages", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_phase_is_printed_per_kind(capsys):
    tool = _load_tool()
    assert tool.main(["--blocks", "1", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "101 scalar commands in 1 blocks, seed 5" in out
    for kind in tool.KINDS:
        assert f"\n{kind}: " in out
    rows = [line.split()[0] for line in out.splitlines()]
    for phase in tool.PHASES + ("total",):
        assert rows.count(phase) == len(tool.KINDS), phase


def test_timed_phases_print_what_run_prints():
    tool = _load_tool()
    argvs = tool.scalar_commands(1, 5)
    first = {}
    for argv in argvs:
        first.setdefault(tool.kind_of(argv), argv)
    assert set(first) == set(tool.KINDS)
    for argv in first.values():
        spent, code, text = tool.time_command(argv)
        assert set(spent) == set(tool.PHASES)
        assert (code, text) == cli.run(list(argv))
