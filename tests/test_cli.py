"""Command-line contract: payloads, exit codes, formats, determinism."""

import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emit_oracle import _jsonval
from parse_oracle import parse_with_full_parser
from ozaki import __version__, cli
from ozaki.cli import main, run
from ozaki.functionals import FunctionalReport
from ozaki.ledger import LEDGER


def invoke(*argv):
    code, text = run(list(argv))
    return code, json.loads(text)


def test_extremal_payload():
    code, env = invoke("extremal", "f1", "--order", "4")
    assert code == 0
    assert env["tool_version"] == __version__
    assert env["status"] == "ok"
    assert env["payload"]["coefficients"] == [0, 1, 1.5, 2, 2.5]
    assert env["payload"]["label"] == "F"
    assert "seed" not in env


def test_coeffs_from_schwarz():
    code, env = invoke("coeffs", "--class", "F", "--schwarz", "1")
    assert code == 0
    p = env["payload"]
    assert p["a2"] == 1.5 and p["a3"] == 2 and p["a4"] == 2.5
    assert p["direct_formula"] == {"a2": 1.5, "a3": 2, "a4": 2.5}
    assert p["source"] == "schwarz"


def test_coeffs_from_caratheodory():
    code, env = invoke("coeffs", "--class", "G", "--caratheodory", "0:0,2:0,0:0")
    assert code == 0
    p = env["payload"]
    assert p["a2"] == 0
    assert p["a3"] == pytest.approx(-1 / 6, abs=1e-15)
    assert p["a4"] == 0


def test_report_on_extremal():
    code, env = invoke("report", "--extremal", "g1")
    assert code == 0
    p = env["payload"]
    assert p["S4"] == -6
    assert p["T21_log"] == pytest.approx(15 / 256)
    assert p["Gamma3"] == pytest.approx(5 / 24)
    assert p["extremal"] == "g1"


def test_report_complex_values_as_pairs():
    code, env = invoke("report", "--class", "F", "--schwarz", "0:0.5")
    assert code == 0
    a2 = env["payload"]["a2"]
    assert isinstance(a2, list) and len(a2) == 2  # genuinely complex


def test_verify_all_classes():
    code, env = invoke("verify", "--class", "all")
    assert code == 0
    assert env["status"] == "ok"
    p = env["payload"]
    assert p["entry_count"] == 13
    assert len(p["entries"]) == 13
    assert p["failures"] == 0
    assert p["max_abs_residual"] <= 1e-12
    t21 = [e for e in p["entries"]
           if e["functional"] == "T21_log" and e["label"] == "F"][0]
    assert t21["kind"] == "two_sided"
    assert [c["bound"] for c in t21["checks"]] == ["-1/16", "95/256"]
    assert all(c["ok"] for e in p["entries"] for c in e["checks"])


def test_verify_single_class():
    code, env = invoke("verify", "--class", "G")
    assert code == 0
    assert env["payload"]["entry_count"] == 6


def test_optimize_single_objective():
    code, env = invoke("optimize", "--objective", "SG",
                       "--resolution", "300", "--refine", "1")
    assert code == 0
    res = env["payload"]["results"][0]
    assert res["objective"] == "SG"
    assert res["paper"] == "5/24"
    assert res["value"] == pytest.approx(5 / 24, abs=1e-6)
    assert res["gap"] <= 1e-6


def test_optimize_upsilon_reports_true_maximum():
    # the search finds 45/121 on the x = 1 edge, above the tabulated 95/256
    code, env = invoke("optimize", "--objective", "UpsilonF",
                       "--resolution", "2000", "--refine", "3")
    assert code == 0
    res = env["payload"]["results"][0]
    assert res["value"] == pytest.approx(45 / 121, abs=1e-6)
    assert res["paper"] == "95/256"
    assert res["gap"] == pytest.approx(45 / 121 - 95 / 256, abs=1e-6)


def test_optimize_csv_format():
    code, text = run(["optimize", "--objective", "SG", "--resolution", "300",
                      "--refine", "1", "--format", "csv"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("objective,mode,value")
    assert lines[1].startswith("SG,max,")


def test_sample_ok_and_exit_zero():
    code, env = invoke("sample", "--class", "G", "--samples", "3000",
                       "--seed", "5")
    assert code == 0
    assert env["status"] == "ok"
    assert env["seed"] == 5
    assert env["payload"]["total_violations"] == 0


def test_sample_violation_exit_two():
    code, env = invoke("sample", "--class", "F", "--samples", "100000",
                       "--seed", "42")
    assert code == 2
    assert env["status"] == "bound_violation"
    over = [c for c in env["payload"]["checks"]
            if c["functional"] == "T21_log" and c["side"] == "upper"][0]
    assert over["violations"] > 0


def test_sample_csv_format():
    code, text = run(["sample", "--class", "G", "--samples", "2000",
                      "--seed", "5", "--format", "csv"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "name,empirical_min,empirical_max,bound,margin"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert "T21_log_lower" in names and "T21_log_upper" in names
    assert "A2_abs" in names  # unbounded functionals get empty bound columns
    row = [ln for ln in lines[1:] if ln.startswith("A2_abs")][0]
    assert row.endswith(",,")


def test_verify_csv_rejected():
    assert main(["verify", "--format", "csv"]) == 1


def test_csv_rejected_before_any_work(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("work done before rejecting --format csv")

    for name in ("check_extremals", "extremal_member", "build_member",
                 "full_report"):
        monkeypatch.setattr(cli, name, never)
    for argv in (["verify"], ["extremal", "f1"], ["report", "--extremal", "g1"],
                 ["coeffs", "--class", "F", "--schwarz", "0.5"]):
        assert main(argv + ["--format", "csv"]) == 1
        assert "--format" in capsys.readouterr().err
    monkeypatch.undo()
    code, env = invoke("report", "--extremal", "g1", "--format", "json")
    assert code == 0 and env["payload"]["extremal"] == "g1"


def test_optimize_refinement_past_float_range_exits_zero():
    code, env = invoke("optimize", "--objective", "ChiF", "--resolution", "100",
                       "--refine", "400")
    assert code == 0
    assert env["payload"]["results"][0]["value"] == pytest.approx(7 / 8, abs=1e-12)


def test_usage_errors_exit_one(capsys):
    assert main(["optimize", "--objective", "Bogus"]) == 1
    assert main(["coeffs", "--class", "F", "--schwarz", "nope"]) == 1
    assert main(["coeffs", "--class", "F"]) == 1
    assert main(["extremal", "f9"]) == 1
    assert main(["report", "--class", "F", "--c", "-0.5:0.1"]) == 1   # ambiguous
    err = capsys.readouterr().err
    assert "ozaki:" in err
    # an empty data option is data that does not parse, not a missing option
    for argv in (["coeffs", "--class", "F", "--schwarz="],
                 ["report", "--class", "F", "--caratheodory", ""]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "ozaki: cannot parse complex entry ''; expected re or re:im\n"


def test_commands_in_one_process_share_no_values():
    # the parser is built once per process; each parse starts from defaults
    _, env = invoke("verify", "--class", "F", "--tol", "0.001")
    assert env["payload"]["tolerance"] == 0.001
    _, env = invoke("verify")
    assert env["payload"]["tolerance"] == 1e-12
    assert env["payload"]["entry_count"] == 13
    _, env = invoke("sample", "--class", "G", "--samples", "10", "--no-extremals")
    assert env["payload"]["include_extremals"] is False
    _, env = invoke("sample", "--class", "G", "--samples", "10")
    assert env["payload"]["include_extremals"] is True
    assert main(["coeffs", "--class", "F"]) == 1
    code, env = invoke("coeffs", "--class", "F", "--schwarz", "1")
    assert code == 0 and env["payload"]["a4"] == 2.5
    assert "seed" not in env   # sample's --seed does not carry over


def test_invalid_input_exit_one(capsys):
    # Schwarz prefix violating the coefficient bounds
    assert main(["coeffs", "--class", "F", "--schwarz", "2"]) == 1
    assert "ozaki:" in capsys.readouterr().err


def test_main_prints_envelope(capsys):
    assert main(["extremal", "g2", "--order", "5"]) == 0
    out = capsys.readouterr().out
    env = json.loads(out)
    assert env["payload"]["coefficients"][3] == pytest.approx(-1 / 6)


def test_seventeen_digit_floats():
    code, text = run(["report", "--extremal", "g2"])
    assert code == 0
    env = json.loads(text)
    # -1/144 round-trips exactly through the printed representation
    assert env["payload"]["T21_log"] == -1 / 144


# every string, lone surrogates included
_text = st.text(st.characters(exclude_categories=()), max_size=12)
_floats = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                              -1e308, 0.1]))
_leaves = (st.none() | st.booleans() | st.integers() | _floats
           | _floats.map(np.float64) | _text)
_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_text, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_json_writer_matches_the_recursive_oracle(value):
    assert cli.emit(value, "json") == _jsonval(value, 0) + "\n"


@pytest.mark.parametrize("bad,error", [
    (float("nan"), ValueError), (float("inf"), ValueError),
    (float("-inf"), ValueError), (np.float64("nan"), ValueError),
    (1 + 2j, TypeError)])
def test_json_writer_rejects_what_the_oracle_rejects(bad, error):
    value = {"payload": {"ok": [1.0, "x"], "bad": [0.5, bad]}}
    with pytest.raises(error):
        _jsonval(value, 0)
    with pytest.raises(error):
        cli.emit(value, "json")


def test_repeat_same_command_byte_identical():
    argv = ["sample", "--class", "G", "--samples", "4000", "--seed", "11"]
    assert run(argv) == run(argv)


def test_sample_rejects_order_option(capsys):
    """Sampled members read only a2..a4, so sample takes no --order."""
    assert main(["sample", "--class", "F", "--samples", "10", "--order", "12"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "ozaki: unrecognized arguments: --order 12\n"


def test_subprocess_determinism_and_thread_invariance():
    import os
    cmd = [sys.executable, "-m", "ozaki.cli", "sample", "--class", "G",
           "--samples", "20000", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and first.stdout == second.stdout
    env = dict(os.environ, OZAKI_THREADS="3")
    third = subprocess.run(cmd, capture_output=True, env=env)
    assert third.stdout == first.stdout


@pytest.mark.parametrize("argv", [
    ("report", "--class", "F", "--schwarz", "-0.3:0.1,.2"),
    ("report", "--class", "G", "--caratheodory", "-.5:0.25,0.1"),
    ("coeffs", "--class", "F", "--schwarz", "-0.3:0.1"),
    ("coeffs", "--class", "G", "--caratheodory", "-0.5"),
    ("report", "--class", "F", "--schw", "-0.3:0.1"),
    ("coeffs", "--class", "F", "--ca", "-0.5:0.1"),
    ("report", "--class", "G", "--s", "-0.3:0.1,0.2"),
])
def test_negative_leading_value_space_and_equals_forms(argv):
    """The spaced form, abbreviated or not, reads like '--<full name>=value'."""
    name = next(n for n in ("--schwarz", "--caratheodory")
                if n.startswith(argv[-2]))
    spaced = invoke(*argv)
    joined = invoke(*argv[:-2], f"{name}={argv[-1]}")
    assert spaced[0] == joined[0] == 0
    assert spaced[1].pop("command_echo") == " ".join(argv)   # echoed as typed
    joined[1].pop("command_echo")
    assert spaced[1] == joined[1]


@pytest.mark.parametrize("data", [
    ("--class", "G", "--schwarz", "1e-308"),
    ("--class", "F", "--schwarz", "1e-320"),
    ("--class", "F", "--caratheodory", "1e-320"),
])
def test_member_with_tiny_a2_is_accepted(data, capsys):
    """|a2| below 1/DBL_MAX: the phase that makes a2 real must stay finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["report", *data]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["payload"]["T21_log"] == 0


@pytest.mark.parametrize("data", [
    ("--class", "G", "--schwarz", "0.3:0.1,-0.2,0.05"),
    ("--class", "F", "--caratheodory", "0.5:0.2,-0.1"),
    ("--extremal", "g2"),
])
def test_report_values_do_not_depend_on_order(data):
    """report echoes --order but reads only a2..a4, which do not change with
    the order the member is carried to."""
    payloads = []
    for order in (4, 8, 40):
        code, env = invoke("report", *data, "--order", str(order))
        assert code == 0 and env["payload"].pop("order") == order
        payloads.append(env["payload"])
    assert payloads[0] == payloads[1] == payloads[2]


def test_report_rejects_class_conflicting_with_extremal(capsys):
    assert main(["report", "--class", "G", "--extremal", "f1"]) == 1
    assert "conflicts with --extremal" in capsys.readouterr().err
    assert main(["report", "--class", "F", "--extremal", "f1"]) == 0


def test_report_rejects_extremal_with_schwarz(capsys):
    assert main(["report", "--extremal", "f1", "--schwarz", "0.3"]) == 1
    assert "not allowed with" in capsys.readouterr().err


def test_report_rejects_schwarz_with_caratheodory(capsys):
    assert main(["report", "--class", "F", "--schwarz", "0.3",
                 "--caratheodory", "0.2"]) == 1
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # p1 = 2 forces p = (1+z)/(1-z), so p3 must be 2
    ("report", "--class", "F", "--caratheodory", "2,2,-2"),
    ("report", "--class", "G", "--caratheodory", "-1.6,0.5"),
    # passes the c1..c3 prefix bounds, but (c1, c2, c3) = (-0.63, -0.5, 0)
    # violates |c3(1-|c1|^2) + conj(c1) c2^2| <= (1-|c1|^2)^2 - |c2|^2
    ("report", "--class", "F", "--schwarz", "-0.63,-0.5"),
])
def test_non_member_input_exits_one(argv, capsys):
    assert main(list(argv)) == 1
    assert "Caratheodory-Toeplitz criterion" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("report", "--class", "F", "--caratheodory", "2,2,2,2"),
    ("report", "--class", "G", "--caratheodory", "0:0,2:0,0:0"),
    # c1..c3 of the Schwarz function z(0.5 - z)/(1 - 0.5z), at any order
    ("report", "--class", "F", "--schwarz", "0.5,-0.75,-0.375"),
    ("report", "--class", "G", "--schwarz", "0.5,-0.75,-0.375", "--order", "12"),
])
def test_boundary_caratheodory_prefix_accepted(argv, capsys):
    assert main(list(argv)) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


@pytest.mark.parametrize("overshoot, code", [(1e-11, 0), (1e-6, 1)])
def test_schwarz_and_caratheodory_sources_share_one_rule(overshoot, code, capsys):
    """w = cz and p = (1 + cz)/(1 - cz), p_k = 2c^k, are one function given
    two ways; |c| just above 1 is inside the 1e-9 band at 1e-11 and not at
    1e-6, whichever way it is given."""
    c = 1.0 + overshoot
    p = ",".join(repr(2.0 * c ** k) for k in (1, 2, 3))
    assert main(["report", "--class", "F", "--schwarz", repr(c)]) == code
    assert main(["report", "--class", "F", "--caratheodory", p]) == code


@pytest.mark.parametrize("data", [
    ("--schwarz", "1e200"), ("--schwarz", "1e155"), ("--schwarz", "inf"),
    ("--schwarz", "0:1e200"), ("--schwarz", "nan"),
    ("--caratheodory", "nan"), ("--caratheodory", "inf"),
])
def test_non_finite_input_exits_one(data, capsys):
    """Non-finite data, given or from overflow, fails the membership rule
    with its own message and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["report", "--class", "F", *data]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert "Caratheodory-Toeplitz criterion" in out.err


@pytest.mark.parametrize("argv", [
    ("verify", "--tol", "-1"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "inf"),
    ("sample", "--class", "G", "--samples", "100", "--tol", "0"),
    ("sample", "--class", "G", "--samples", "100", "--tol", "nan"),
    ("sample", "--class", "G", "--samples", "100", "--tol", "inf"),
])
def test_invalid_tolerance_exits_one(argv, capsys):
    assert main(list(argv)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "tol" in out.err and out.err.count("\n") == 1


def test_verify_zero_tolerance_accepted():
    # every witness residual is exactly zero
    code, env = invoke("verify", "--tol", "0")
    assert code == 0 and env["payload"]["failures"] == 0


# ----------------------------------------------------------------------
# envelope shapes

REPORT_FIELDS = ["a2", "a3", "a4", "A2", "A3", "A4", "gamma1", "gamma2",
                 "Gamma1", "Gamma2", "Gamma3", "S3", "S4", "T21_log",
                 "diff_A", "diff_Gamma"]


def test_report_payload_key_order():
    assert [f.name for f in dataclasses.fields(FunctionalReport)] == REPORT_FIELDS
    _, env = invoke("report", "--class", "G", "--schwarz", "0.3:0.1,0.2")
    assert list(env["payload"]) == ["label", "source", "input", "order",
                                    *REPORT_FIELDS]
    _, env = invoke("report", "--extremal", "f2")
    assert list(env["payload"]) == ["label", "extremal", "order", *REPORT_FIELDS]


@pytest.mark.parametrize("label, count", [("all", 13), ("F", 7), ("G", 6)])
def test_verify_entries_follow_ledger_order(label, count):
    _, env = invoke("verify", "--class", label)
    entries = env["payload"]["entries"]
    wanted = [e for e in LEDGER if label in ("all", e.label.value)]
    assert env["payload"]["entry_count"] == len(entries) == len(wanted) == count
    assert [(e["label"], e["functional"], e["kind"],
             [(c["side"], c["witness"]) for c in e["checks"]])
            for e in entries] == [
        (e.label.value, e.functional, e.kind,
         [(c.side, c.witness) for c in e.checks]) for e in wanted]


def test_verify_reports_a_shifted_residual(monkeypatch):
    real = cli.check_extremals

    def shifted(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows[3] = dataclasses.replace(rows[3], residual=rows[3].residual + 1e-9)
        return rows

    monkeypatch.setattr(cli, "check_extremals", shifted)
    code, env = invoke("verify", "--class", "all")
    assert code == 2
    assert env["status"] == "bound_violation"
    p = env["payload"]
    assert p["failures"] == 1
    assert p["max_abs_residual"] == pytest.approx(1e-9, rel=1e-3)
    assert [c["ok"] for e in p["entries"] for c in e["checks"]].count(False) == 1


# ----------------------------------------------------------------------
# one argparse pass: the subcommand's parser agrees with the full parser

PARSE_CORPUS = [
    ("extremal", "g2", "--order", "6"),
    ("coeffs", "--class", "F", "--schwarz", "0.3:0.1,0.2"),
    ("coeffs", "--class", "G", "--caratheodory=0.5,0.1:0.2", "--order", "5"),
    ("report", "--extremal", "f2"),
    ("report", "--class", "F", "--sch", "0.3:0.1,0.2"),
    ("report", "--class=G", "--schwarz=-0.3:0.1,0.2"),
    ("report", "--class", "F", "--schwarz", "-0.3:0.1", "--order", "12"),
    ("report", "--cl", "G", "--ca", "-0.5:0.1"),
    ("verify", "--class", "G", "--tol", "1e-9"),
    ("optimize", "--objective", "NG", "--resolution", "40", "--refine", "0",
     "--format", "csv"),
    ("sample", "--class", "G", "--samples", "50", "--seed", "3", "--no-ext"),
    ("-h",),
    ("report", "-h"),
    # usage errors
    (),
    ("bogus",),
    ("rep", "--extremal", "f1"),
    ("--", "report", "--extremal", "f1"),
    ("--class", "F", "report"),
    ("report", "--extremal", "f1", "--bogus"),
    ("report", "--extremal", "f1", "extra"),
    ("report", "--class", "H", "--schwarz", "0.1"),
    ("report", "--extremal", "f9"),
    ("coeffs", "--schwarz", "0.1"),
    ("coeffs", "--class", "F", "--schwarz", "0.1", "--caratheodory", "0.1"),
    ("report", "--class", "F", "--schwarz", "0.1", "--order", "four"),
    ("report", "--class", "F", "--c", "-0.5:0.1"),
    ("sample", "--class", "F", "--samples", "1.5"),
    ("verify", "--order"),
]


def _outcome(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:   # help exits from inside the parser
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda a: " ".join(a) or "(empty)")
def test_subcommand_parser_agrees_with_full_parser(argv, capsys, monkeypatch):
    fast = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parse", parse_with_full_parser)
    assert fast == _outcome(argv, capsys)


def test_only_lines_without_a_subcommand_reach_the_full_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full parser used")
    monkeypatch.setattr(cli._build_parser(), "parse_args", refuse)
    args = cli._parse(["report", "--class", "F", "--sch", "-0.3:0.1"])
    assert (args.subcommand, args.label, args.schwarz) == ("report", "F", "-0.3:0.1")
    for argv in ([], ["--", "report"], ["bogus"]):
        with pytest.raises(AssertionError, match="full parser used"):
            cli._parse(argv)
