"""The per-stage chunk timer of tools/chunk_stages.py (no timing asserted)."""

import importlib.util
from pathlib import Path

import numpy as np

from ozaki.classes import ClassLabel
from ozaki.ledger import entries_for
from ozaki.sampling import _CHUNK, _TILE, SampleConfig, _check_chunk

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "chunk_stages.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("chunk_stages", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_is_printed_per_class(capsys):
    tool = _load_tool()
    assert tool.main(["--chunks", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    for label in "FG":
        assert f"class {label}: 2 chunks" in out
    lines = out.splitlines()
    # per class a timing table, then a table of peak traced memory
    assert [line.split()[1:] for line in lines if line.startswith("stage")] == [
        ["q1", "ms", "median", "ms", "q3", "ms"], ["peak", "KiB"]] * 2
    rows = [line.split() for line in lines]
    for stage in tool.STAGES + ("total",):
        widths = [len(row) for row in rows if row[0] == stage]
        assert widths == [4, 2, 4, 2], stage


def test_timed_stages_compute_what_the_sampler_does():
    tool = _load_tool()
    label = ClassLabel.G
    sides = tuple((e.functional, chk) for e in entries_for(label)
                  for chk in e.checks)
    cfg = SampleConfig(label, _CHUNK, seed=8)
    seed = np.random.SeedSequence(8).spawn(1)[0]
    _, tiles = tool.time_chunk(cfg, seed, _TILE, sides)
    assert tiles == _check_chunk(label, seed, _CHUNK, cfg.blaschke_max_zeros,
                                 sides, cfg.violation_tolerance)
    peaks, traced_tiles = tool.memory_chunk(cfg, seed, _TILE, sides)
    assert traced_tiles == tiles
    assert set(peaks) == set(tool.STAGES) and min(peaks.values()) > 0
