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


def test_every_stage_is_printed_with_the_modules_it_loads(capsys):
    tool = _load_tool()
    assert tool.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fresh interpreters, 1 runs per stage")
    assert lines[1].split()[-1] == "loaded"
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert list(rows) == ["python", *tool.STAGES]
    loaded = {name: row[-1] for name, row in rows.items()}
    assert loaded == {
        "python": "-", "import": "-", "extremal": "-", "coeffs": "-",
        "report": "-", "verify": "fractions,ozaki.ledger",
        "sample": "numpy,dataclasses,fractions,ozaki.ledger",
        "optimize": "numpy,dataclasses,fractions,ozaki.objectives"}
    for name, row in rows.items():
        assert len(row) == 5, name
        assert 0 < float(row[1]) <= float(row[2]) <= float(row[3]), name
