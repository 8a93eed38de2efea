"""Tests for the command line interface via run_command."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from heegnerlab import modparam
from heegnerlab.cli import build_parser, jsonify, run_command
from heegnerlab.errors import FiberIncomplete, PrecisionUnachievable

README = Path(__file__).resolve().parent.parent / "README.md"
# the text each README example printed before every subcommand returned its
# payload and lines to run_command
README_TEXT = Path(__file__).resolve().parent / "readme_cli_text.json"
# the exact stdout of independence (text and --json: the README example, a
# relation with an unrecognized field, an inadmissible field, two without a
# relation) and of point --json on three curves
OUTPUT_PINS = Path(__file__).resolve().parent / "cli_output_pins.json"


def run_json(capsys, args):
    code = run_command(args + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassgroup:
    def test_h_of_minus_23(self, capsys):
        code, doc = run_json(capsys, ["classgroup", "--disc", "-23"])
        assert code == 0
        assert doc["order"] == 3
        assert doc["structure"] == [3]
        assert {"a": 1, "b": 1, "c": 6} in doc["forms"]

    def test_text_output(self, capsys):
        assert run_command(["classgroup", "--disc", "-23"]) == 0
        out = capsys.readouterr().out
        assert "h = 3" in out

    def test_bad_discriminant_exits_1(self, capsys):
        assert run_command(["classgroup", "--disc", "-3000001"]) in (1,)


class TestRingClass:
    def test_minus_4_conductor_5(self, capsys):
        code, doc = run_json(
            capsys, ["ring-class", "--disc", "-4", "--conductor", "5"]
        )
        assert code == 0
        assert doc["ring_class_number"] == 2
        assert doc["odd_part"] == 1

    def test_minus_7_conductor_3(self, capsys):
        code, doc = run_json(
            capsys, ["ring-class", "--disc", "-7", "--conductor", "3"]
        )
        assert code == 0
        assert doc["ring_class_number"] == 4


class TestHeegnerList:
    def test_fiber_size_matches_class_number(self, capsys):
        code, doc = run_json(
            capsys, ["heegner-list", "--disc", "-83", "--level", "37"]
        )
        assert code == 0
        assert len(doc["points"]) == 3
        for p in doc["points"]:
            assert p["form"]["a"] % 37 == 0

    def test_inadmissible_exits_1(self, capsys):
        assert run_command(["heegner-list", "--disc", "-20", "--level", "37"]) == 1
        assert "error" in capsys.readouterr().err


class TestCoeffs:
    def test_37a_coefficients(self, capsys):
        code, doc = run_json(
            capsys, ["coeffs", "--curve", "37a", "--terms", "12"]
        )
        assert code == 0
        assert doc["coefficients"] == [1, -2, -3, 2, -2, 6, -1, 0, 6, 4, -5, -6]

    def test_unknown_curve_exits_1(self, capsys):
        assert run_command(["coeffs", "--curve", "11a", "--terms", "5"]) == 1


class TestPoint:
    def test_37a_minus_7_trace(self, capsys):
        code, doc = run_json(capsys, ["point", "--curve", "37a", "--disc", "-7"])
        assert code == 0
        assert doc["orbit_size"] == 1
        rec = doc["recognized"]
        assert rec["kind"] == "rational"
        assert rec["value"] == [{"num": "0", "den": "1"}, {"num": "0", "den": "1"}]

    def test_49a_minus_31_quadratic(self, capsys):
        code, doc = run_json(capsys, ["point", "--curve", "49a", "--disc", "-31"])
        assert code == 0
        assert doc["orbit_size"] == 3
        rec = doc["recognized"]
        assert rec["kind"] == "quadratic"
        assert rec["value"][0]["sqrt_of"] == -31
        # the residual is an error measure: five significant digits
        mantissa = rec["residual"].split("e")[0]
        assert len(mantissa.replace(".", "").lstrip("0")) <= 5

    def test_49a_minus_19_residual_keeps_its_magnitude(self, capsys):
        # below 2^-prec, where a coordinate part would print as noise 0.0
        code, doc = run_json(capsys, ["point", "--curve", "49a", "--disc", "-19"])
        assert code == 0
        assert 0 < float(doc["recognized"]["residual"]) < 2.0**-190

    def test_49a_minus_48_twist_point(self, capsys):
        # x = -1 is rational, y = 1/2 + 1/2 sqrt(-3)
        code, doc = run_json(capsys, ["point", "--curve", "49a", "--disc", "-48"])
        assert code == 0
        rec = doc["recognized"]
        assert rec["kind"] == "quadratic"
        assert rec["value"][0] == {"num": "-1", "den": "1"}
        assert rec["value"][1]["sqrt_of"] == -3


    def test_other_domain_errors_of_recognition_exit_1(self, capsys,
                                                        monkeypatch):
        # point reports a failed recognition in its output; any other
        # domain error is an error of the request
        def uncertified(tr):
            raise PrecisionUnachievable("no certificate")

        monkeypatch.setattr(modparam, "recognize_trace", uncertified)
        assert run_command(["point", "--curve", "37a", "--disc", "-7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "no certificate" in captured.err


    def test_incomplete_fiber_exits_1(self, capsys, monkeypatch):
        def incomplete(D, N):
            raise FiberIncomplete("forced")

        monkeypatch.setattr(modparam, "heegner_fiber", incomplete)
        assert run_command(["point", "--curve", "37a", "--disc", "-7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "forced" in captured.err


class TestNoiseDigits:
    def test_noise_part_prints_zero(self, capsys):
        # the real trace of 37a D = -108 has an imaginary part near 1e-96
        argv = ["point", "--curve", "37a", "--disc", "-108", "--prec", "300"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["trace"]["is_real"]
        for v in doc["trace"]["xy"] + [doc["trace"]["z"]]:
            assert v["im"] == "0.0" and v["re"] != "0.0"
        assert run_command(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        trace = [line for line in lines if line.startswith("trace ")]
        assert len(trace) == 2
        assert all(line.endswith(" + 0.0j)") for line in trace)

    def test_threshold(self):
        # a part is noise at magnitude <= 2^-prec max(1, |v|)
        with mp.workprec(300):
            for scale in (1, 2**40):
                at = mp.mpc(scale, mp.ldexp(scale, -200))
                above = mp.mpc(scale, mp.ldexp(scale, -199))
                assert jsonify(at, 200)["im"] == "0.0"
                assert jsonify(above, 200)["im"] != "0.0"
            assert jsonify(mp.ldexp(1, -200), 200)["re"] == "0.0"
            assert jsonify(mp.ldexp(1, -199), 200)["re"] != "0.0"


@pytest.mark.parametrize("command", sorted(json.loads(OUTPUT_PINS.read_text())))
def test_output_is_byte_identical_to_its_pin(capsys, command):
    want = json.loads(OUTPUT_PINS.read_text())[command]
    assert run_command(command.split()) == 0
    assert capsys.readouterr().out == want


def test_jsonify_refuses_a_value_without_a_json_form():
    # a value outside the schema raises instead of turning into its str
    for v, name in (({1, 2}, "set"), (object(), "object"),
                    ({"k": [frozenset()]}, "frozenset")):
        with pytest.raises(TypeError, match=f"^no JSON form for {name}$"):
            jsonify(v, 200)


class TestOrbitDegreeAndTorsion:
    def test_orbit_degree(self, capsys):
        code, doc = run_json(
            capsys,
            ["orbit-degree", "--curve", "37a", "--disc", "-83", "--mul", "1"],
        )
        assert code == 0
        assert doc["orbit_degree"] == 3

    def test_torsion_32a(self, capsys):
        code, doc = run_json(capsys, ["torsion", "--curve", "32a"])
        assert code == 0
        assert doc["order"] == 4
        assert doc["structure"] == [2, 2]


class TestIndependence:
    def test_relation_pipeline(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "independence",
                "--curve",
                "37a",
                "--discs",
                "-7,-11",
                "--bound",
                "20",
            ],
        )
        assert code == 0
        assert doc["verdict"] == "relation_found_verified"
        assert doc["relation"]["coefficients"] == [1, 1]

    def test_quadratic_recognition_text(self, capsys):
        # an exact point over Q(sqrt(D)) prints as CurvePoint does, not as
        # a dataclass repr, in text and in --json
        argv = ["independence", "--curve", "49a", "--discs", "-19,-31",
                "--bound", "4"]
        want = ["quadratic (1/2 + -1/2*sqrt(-19), -5/2 + -1/2*sqrt(-19))",
                "quadratic (-19/32 + 3/32*sqrt(-31), -45/128 + -3/128*sqrt(-31))"]
        assert run_command(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.strip() for line in lines
                if line.strip().startswith("quadratic")] == want
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert [e["recognition"] for e in doc["entries"]] == want

    def test_bound_outside_1_to_50_exits_1(self, capsys):
        # refused before any orbit, even with one field and no search
        argv = ["independence", "--curve", "37a", "--discs", "-7"]
        for bound in ("0", "51", "100"):
            assert run_command(argv + ["--bound", bound]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "B must be in 1..50" in captured.err

    def test_inadmissible_entry_flagged(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "independence",
                "--curve",
                "37a",
                "--discs",
                "-7,-20",
                "--bound",
                "5",
            ],
        )
        assert code == 0
        assert doc["entries"][1]["admissible"] is False
        assert doc["entries"][1]["error"] == "HeegnerConditionFailed"


class TestPlumbing:
    def test_usage_error_exits_2(self, capsys):
        assert run_command(["classgroup"]) == 2
        assert run_command(["no-such-command"]) == 2
        assert run_command([]) == 2

    @pytest.mark.parametrize("prec", ["0", "20", "52", "1001", "2000"])
    def test_precision_outside_53_to_1000_exits_2(self, capsys, prec):
        # at --prec 0 heegner-list printed every tau as 0.0 and exited 0
        for argv in (["heegner-list", "--disc", "-83", "--level", "37"],
                     ["point", "--curve", "37a", "--disc", "-7"]):
            assert run_command(argv + ["--prec", prec]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "53..1000" in captured.err

    @pytest.mark.parametrize("prec", ["53", "1000"])
    def test_precision_range_ends_are_accepted(self, capsys, prec):
        argv = ["heegner-list", "--disc", "-83", "--level", "37"]
        code, doc = run_json(capsys, argv + ["--prec", prec])
        assert code == 0
        assert {p["tau"]["prec_bits"] for p in doc["points"]} == {int(prec)}

    def test_global_flags_before_subcommand(self, capsys):
        code = run_command(["--json", "classgroup", "--disc", "-23"])
        assert code == 0
        json.loads(capsys.readouterr().out)

    def test_json_output_is_deterministic(self, capsys):
        argv = ["point", "--curve", "37a", "--disc", "-7", "--json"]
        run_command(argv)
        out1 = capsys.readouterr().out
        run_command(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_module_runs_as_a_script(self, capsys):
        # python -m heegnerlab.cli was a silent no-op: exit 0, no output
        src = str(Path(__file__).resolve().parent.parent / "src")
        argv = ["classgroup", "--disc", "-23", "--json"]

        def run_module(args):
            return subprocess.run(
                [sys.executable, "-m", "heegnerlab.cli", *args],
                capture_output=True, env={**os.environ, "PYTHONPATH": src},
                timeout=60)

        proc = run_module(argv)
        assert run_command(argv) == 0
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out.encode() != b""
        usage = run_module(["classgroup"])
        assert usage.returncode == 2 and b"usage:" in usage.stderr

    def test_import_leaves_sympy_unloaded(self):
        # `import heegnerlab` loads every layer, so a tracer installed right
        # after it finds them all, and binds only submodules
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import json, sys, types, heegnerlab; "
                "print(json.dumps([m for m in sys.modules "
                "if m.startswith('heegnerlab.')])); "
                "print(json.dumps([k for k, v in vars(heegnerlab).items() "
                "if not k.startswith('__') "
                "and not isinstance(v, types.ModuleType)])); "
                "import heegnerlab.cli; print(json.dumps(sorted(m for m in ("
                "'sympy', 'dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
                "if m in sys.modules)))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        loaded, bound, unwanted = proc.stdout.splitlines()
        layers = {"analysis", "lattice", "modparam", "qform", "heegner",
                  "ellcurve", "arith", "db"}
        assert {f"heegnerlab.{m}" for m in layers} <= set(json.loads(loaded))
        assert json.loads(bound) == []
        # no sympy; and the records need no dataclasses, whose import would
        # pull in inspect, ast, dis and tokenize at every CLI start
        assert json.loads(unwanted) == []


_GLOBAL = {
    "--json": (False, None, "JSON output"),
    "--database": (False, None, "curve database path"),
    "--prec": (False, "_precision", "working precision in bits (default 200)"),
}
# the interface as eight add_parser blocks declared it: subcommand -> (help,
# {flag: (required, type name, help)}), flags in usage order
INTERFACE = {
    "classgroup": ("reduced forms and group structure", {
        **_GLOBAL, "--disc": (True, "int", None)}),
    "ring-class": ("class number of a non-maximal order", {
        **_GLOBAL, "--disc": (True, "int", None),
        "--conductor": (True, "int", None)}),
    "heegner-list": ("fiber representatives and tau values", {
        **_GLOBAL, "--disc": (True, "int", None),
        "--level": (True, "int", None)}),
    "coeffs": ("q-expansion coefficients", {
        **_GLOBAL, "--curve": (True, None, None),
        "--terms": (True, "int", None)}),
    "point": ("orbit, trace, and recognition", {
        **_GLOBAL, "--curve": (True, None, None),
        "--disc": (True, "int", None)}),
    "orbit-degree": ("distinct conjugates of n*P", {
        **_GLOBAL, "--curve": (True, None, None),
        "--disc": (True, "int", None), "--mul": (True, "int", None)}),
    "torsion": ("rational torsion subgroup", {
        **_GLOBAL, "--curve": (True, None, None)}),
    "independence": ("full dependence-search report", {
        **_GLOBAL, "--curve": (True, None, None),
        "--discs": (True, None, "comma-separated discriminants"),
        "--bound": (True, "int", None)}),
}


def test_parser_reproduces_the_interface():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {c.dest: c.help for c in sub._choices_actions}
    got = {}
    for name, parser in sub.choices.items():
        flags = {}
        for a in parser._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            (flag,) = a.option_strings
            flags[flag] = (a.required, getattr(a.type, "__name__", None), a.help)
        got[name] = (helps[name], flags)
    assert got == INTERFACE
    assert list(got) == list(INTERFACE)
    for name, (_, flags) in got.items():
        assert list(flags) == list(INTERFACE[name][1]), name


def readme_cli_lines():
    return [line.split()[1:] for line in README.read_text().splitlines()
            if line.startswith("heegnerlab ")]


class TestReadme:
    def test_cli_block_has_every_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {argv[0] for argv in readme_cli_lines()} == set(sub.choices)

    @pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
    def test_cli_example_runs(self, capsys, argv):
        code, _ = run_json(capsys, argv)
        assert code == 0

    @pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
    def test_cli_example_text_is_unchanged(self, capsys, argv):
        want = json.loads(README_TEXT.read_text())[" ".join(argv)]
        assert run_command(argv) == 0
        assert capsys.readouterr().out == want
