"""The per-round grid search timer of tools/grid_stages.py (no timing
asserted)."""

import importlib.util
from pathlib import Path

import pytest

from ozaki import gridsearch
from ozaki.objectives import ObjectiveId

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "grid_stages.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("grid_stages", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_round_is_printed_per_objective(capsys):
    tool = _load_tool()
    assert tool.main(["--runs", "2", "--resolution", "100", "--refine", "2"]) == 0
    out = capsys.readouterr().out
    for oid in ObjectiveId:
        assert f"{oid.value} (" in out
    rows = [line.split()[0] for line in out.splitlines()]
    for label in ("0", "1", "2", "total"):
        assert rows.count(label) == len(ObjectiveId), label


@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_timed_rounds_are_the_rounds_of_grid_extremize(oid):
    tool = _load_tool()
    row_maxima, curved_edge = gridsearch._row_maxima, gridsearch._curved_edge
    result, rounds = tool.time_search(oid, 257, 2)
    assert result == gridsearch.grid_extremize(oid, resolution=257, refine_iters=2)
    assert [set(r) for r in rounds] == [{"rows", "edge", "round"}] * 3
    assert (gridsearch._row_maxima, gridsearch._curved_edge) == (row_maxima,
                                                                 curved_edge)


def test_invalid_setting_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        _load_tool().main(["--runs", "1", "--resolution", "50"])
    assert exc.value.code == 2
