"""The output comparison of tools/stdout_digests.py."""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "stdout_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("stdout_digests", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _diff(old, new):
    floats, other = {}, []
    _load_tool()._output_diff(old, new, floats, other)
    return floats, other


def _json(payload):
    return json.dumps({"payload": payload, "status": "ok"})


def test_float_changes_are_kept_per_collapsed_path():
    old = _json({"functionals": [{"max": 1.0}, {"max": 2.0}], "count": 10})
    new = _json({"functionals": [{"max": 1.0 + 2 ** -52}, {"max": 2.5}],
                 "count": 10})
    floats, other = _diff([0, old, ""], [0, new, ""])
    assert other == []
    assert list(floats) == ["payload.functionals[].max"]
    change, rel = floats["payload.functionals[].max"]
    assert change == 0.5 and rel == 0.2


def test_counts_codes_strings_and_stderr_are_not_floats():
    old = _json({"violations": 3, "label": "F"})
    new = _json({"violations": 4, "label": "G"})
    floats, other = _diff([2, old, ""], [0, new, "ozaki: x\n"])
    assert floats == {}
    assert other == ["exit code 2 -> 0", "stderr '' -> 'ozaki: x\\n'",
                     "payload.violations: 3 -> 4", "payload.label: 'F' -> 'G'"]


def test_zero_that_changes_sign_is_a_float_change_of_zero():
    floats, other = _diff([0, '{"Gamma3": -0}', ""], [0, '{"Gamma3": 0}', ""])
    assert other == [] and floats == {"Gamma3": (0.0, 0.0)}


def test_csv_cells_are_keyed_by_first_column_and_header():
    old = "name,min,count\nT21_log,0.25,7\n"
    new = "name,min,count\nT21_log,0.5,8\n"
    floats, other = _diff([0, old, ""], [0, new, ""])
    assert floats == {"csv[T21_log].min": (0.25, 0.5)}
    assert other == ["csv[T21_log].count: 7 -> 8"]


def test_compare_with_itself_finds_nothing(capsys):
    tool = _load_tool()
    assert tool.compare(tool.ROOT, ["verify"]) == 0
    assert capsys.readouterr().out == "verify           6 commands, 0 differ\n"


def test_objects_with_other_keys_are_walked_key_by_key():
    """A key on one side only is reported by name, and a float change under
    a shared key is still found."""
    old = _json({"label": "F", "order": 8, "a2": 1.0})
    new = _json({"label": "F", "a2": 1.5, "extra": [1]})
    floats, other = _diff([0, old, ""], [0, new, ""])
    assert other == ["payload.order: removed", "payload.extra: added"]
    assert floats == {"payload.a2": (0.5, 0.5 / 1.5)}


def test_an_empty_stdout_is_named_as_such():
    """A command that fails on one side prints nothing on stdout there; the
    difference names the empty side, not a CSV header."""
    out = _json({"label": "F"})
    for old, new, side in (("", out, "old"), (out, "", "new")):
        floats, other = _diff([1, old, "ozaki: x\n"], [1, new, "ozaki: x\n"])
        assert floats == {} and other == [f"stdout is empty on the {side} side"]
