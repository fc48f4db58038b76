"""The fresh-interpreter stage timer of tools/startup_stages.py (no timing
asserted)."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "startup_stages.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("startup_stages", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_is_printed_without_numpy(capsys):
    tool = _load_tool()
    assert tool.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fresh interpreters, 1 runs per stage")
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert list(rows) == ["python", *tool.STAGES]
    for name, row in rows.items():
        assert len(row) == 5 and row[-1] == "no", name
        assert 0 < float(row[1]) <= float(row[2]) <= float(row[3]), name
