"""Command surface: exit codes, machine output, config validation, round-trip."""

import json
import math
import os
import subprocess
import sys

import pytest

import levbounds
from levbounds import kernel, reference
from levbounds.cli import SECTION_FIELDS, _search_spec, main
from levbounds.oracle import crosscheck_report
from levbounds.proportions import kappa_bound, c1_value

from search_helpers import hold_shapes


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


REFERENCE_CONFIG = {
    "theta": 1.0,
    "section4": {"p1_shape": ["-0.158", "0.25"], "p2_shape": ["0.492", "0.075"],
                 "r": 1.154, "R": 0.617},
    "section5": {"p_shape": ["-0.482", "-0.392", "-0.262"], "q_linear": "-0.673",
                 "q_sym": ["0.369", "-4.635"], "R": 0.746, "delta": 0.771},
}


def hold_config_shapes(cfg: dict) -> dict:
    """cfg with every shape entry of its search held by a [v, v] bound."""
    spec = hold_shapes(_search_spec(cfg))
    cfg["search"]["bounds"] = {name: list(b) for name, b in spec.scalar_bounds.items()}
    return cfg


def machine_values(output: str) -> dict:
    values = {}
    for line in output.strip().splitlines():
        if "=" in line and not line.startswith("{"):
            key, _, value = line.partition("=")
            try:
                values[key] = float(value)
            except ValueError:
                pass
    return values


class TestReproduce:
    def test_default_passes(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert "FAIL" not in out
        assert "note:" in out

    def test_machine_output(self, capsys):
        assert main(["reproduce", "--machine"]) == 0
        values = machine_values(capsys.readouterr().out)
        assert set(values) == {"c", "nu", "c1", "kappa", "d_uncond", "s_uncond",
                               "d_grh", "s_grh"}
        assert values["c"] == pytest.approx(1.230108, rel=5e-4)
        assert values["kappa"] == pytest.approx(0.93828, abs=5e-4)

    def test_override_marks_rows_not_applicable(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section4"]["R"] = 0.3
        assert main(["reproduce", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "N/A" in out
        assert "PASS" not in out

    def test_corrupted_reference_fails(self, capsys, monkeypatch):
        corrupted = dict(reference.REFERENCE_CONSTANTS)
        corrupted["kappa"] = 0.5
        monkeypatch.setattr(reference, "REFERENCE_CONSTANTS", corrupted)
        assert main(["reproduce"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_out_file_duplicates_machine_lines(self, tmp_path, capsys):
        out_file = tmp_path / "rep.txt"
        assert main(["reproduce", "--machine", "--out", str(out_file)]) == 0
        stdout_values = machine_values(capsys.readouterr().out)
        file_values = machine_values(out_file.read_text())
        assert stdout_values == file_values

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        out_file = tmp_path / "no_such_dir" / "rep.txt"
        assert main(["reproduce", "--machine", "--out", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write --out {str(out_file)!r}" in err

    def test_module_entry_point_prints_what_main_prints(self, capsys):
        # python -m levbounds runs __main__.py, which no other test imports
        src = os.path.dirname(os.path.dirname(levbounds.__file__))
        run = subprocess.run([sys.executable, "-m", "levbounds", "reproduce", "--machine"],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert main(["reproduce", "--machine"]) == 0
        assert run.returncode == 0, run.stderr
        assert run.stdout == capsys.readouterr().out

    def test_seventeen_significant_digits(self, capsys):
        main(["reproduce", "--machine"])
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("c=")][0]
        mantissa = line.split("=")[1].replace("-", "").replace(".", "")
        mantissa = mantissa.split("e")[0].lstrip("0")
        assert len(mantissa) >= 16


class TestEval:
    def test_eval_c(self, tmp_path, capsys):
        code = main(["eval", "--which", "c", "--config",
                     write_config(tmp_path, REFERENCE_CONFIG), "--machine"])
        assert code == 0
        values = machine_values(capsys.readouterr().out)
        assert values["c"] == pytest.approx(1.2301085737954217, rel=1e-12)

    def test_eval_c1(self, tmp_path, capsys):
        code = main(["eval", "--which", "c1", "--config",
                     write_config(tmp_path, REFERENCE_CONFIG), "--machine"])
        assert code == 0
        values = machine_values(capsys.readouterr().out)
        assert values["c1"] == pytest.approx(1.0471158196303351, rel=1e-12)

    def test_eval_bounds_with_synthetic_constants(self, tmp_path, capsys):
        cfg = {"constants": {"c": 1.0, "c1": 1.0, "R4": 0.617, "R5": 0.746}}
        code = main(["eval", "--which", "bounds", "--config",
                     write_config(tmp_path, cfg), "--machine"])
        assert code == 0
        values = machine_values(capsys.readouterr().out)
        assert values["d_uncond"] == 1.0
        assert values["s_uncond"] == 1.0
        assert values["d_grh"] == 1.0
        assert values["s_grh"] == 1.0

    def test_eval_bounds_refuses_a_constant_below_one(self, tmp_path, capsys):
        # c1 = 0.5 once exited 0 and printed kappa = 1.99 and d_uncond = 1.343
        cfg = {"constants": {"c": 1.2, "c1": 0.5, "R4": 0.6, "R5": 0.7}}
        code = main(["eval", "--which", "bounds", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "evaluation error: c1 must be at least 1, got 0.5\n"

    def test_eval_bounds_from_sections(self, tmp_path, capsys):
        code = main(["eval", "--which", "bounds", "--config",
                     write_config(tmp_path, REFERENCE_CONFIG), "--machine"])
        assert code == 0
        values = machine_values(capsys.readouterr().out)
        assert values["nu"] == pytest.approx(0.16783, abs=1e-4)
        assert values["kappa"] == pytest.approx(0.93828, abs=5e-4)
        assert values["d_uncond"] == pytest.approx(0.80131, abs=1e-4)
        assert values["s_grh"] == pytest.approx(0.66434, abs=1e-4)

    def test_eval_bounds_prints_the_reproduce_table(self, tmp_path, capsys):
        # both commands read one bounds table, so the lines agree byte for byte
        assert main(["reproduce", "--machine"]) == 0
        reproduced = capsys.readouterr().out
        assert main(["eval", "--which", "bounds", "--machine", "--config",
                     write_config(tmp_path, REFERENCE_CONFIG)]) == 0
        evaluated = capsys.readouterr().out
        assert len(evaluated.splitlines()) == 8
        assert evaluated == reproduced

    @pytest.mark.parametrize("which", ["c", "c1"])
    @pytest.mark.parametrize("coeff, R4, R5", [("1e100", 300, 300), ("1e200", 0.617, 0.746),
                                               ("1e200", 300, 300)])
    def test_square_past_binary64_is_an_evaluation_error(self, tmp_path, capsys,
                                                         coeff, R4, R5, which):
        # a leading coefficient of 1e100 at R = 300, or of 1e200 at the
        # reference R or at R = 300, puts each square past binary64: each
        # constant reads inf and fails loudly, and nothing on the way warns
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section4"].update(p1_shape=[coeff, "0.25"], R=R4)
        cfg["section5"].update(p_shape=[coeff, "-0.392", "-0.262"], R=R5)
        assert main(["eval", "--which", which, "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"evaluation error: {which} evaluated to inf\n"

    def test_eval_human_output(self, tmp_path, capsys):
        code = main(["eval", "--which", "c", "--config",
                     write_config(tmp_path, REFERENCE_CONFIG)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("c = 1.2301")

    def test_raw_twist_polynomial_violating_symmetry_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        del cfg["section5"]["q_linear"]
        del cfg["section5"]["q_sym"]
        cfg["section5"]["q_poly"] = ["1", "0.5", "0.25"]
        code = main(["eval", "--which", "c1", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "Q'(x) = Q'(1-x)" in capsys.readouterr().err

    def test_raw_twist_polynomial_accepted_when_valid(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        del cfg["section5"]["q_linear"]
        del cfg["section5"]["q_sym"]
        # expansion of the reference twist shape
        cfg["section5"]["q_poly"] = ["1", "-0.673", "0.1845", "-1.668",
                                     "2.3175", "-0.927"]
        code = main(["eval", "--which", "c1", "--config",
                     write_config(tmp_path, cfg), "--machine"])
        assert code == 0
        values = machine_values(capsys.readouterr().out)
        assert values["c1"] == pytest.approx(1.0471158196303351, rel=1e-12)

    def test_missing_config_file(self, capsys):
        assert main(["eval", "--which", "c", "--config", "/nonexistent.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["eval", "--which", "c", "--config", str(path)]) == 2

    def test_missing_field_diagnostic_names_field(self, tmp_path, capsys):
        cfg = {"section4": {"p1_shape": [], "p2_shape": []}}
        assert main(["eval", "--which", "c", "--config",
                     write_config(tmp_path, cfg)]) == 2
        assert "section4" in capsys.readouterr().err


# one bad value for each section, and the error that names it
BAD_VALUES = {
    "section4": ({"r": "abc"}, "section4.r: not a number, got 'abc'"),
    "section5": ({"delta": True}, "section5.delta: not a number, got True"),
    "search": ({"bounds": {"R": "x"}}, "search.bounds.R: expected [lo, hi], got 'x'"),
    "constants": ({"c": "abc"}, "constants.c: not a number, got 'abc'"),
}


class TestConfigKeys:
    @pytest.mark.parametrize("section, key, command", [
        ("section4", "p1_shap", ["eval", "--which", "c"]),
        ("section5", "delt", ["eval", "--which", "c1"]),
        ("search", "budjet", ["optimize"]),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key, command):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "minimize_nu", "budget": 5}
        cfg[section][key] = ["0.1"]
        code = main(command + ["--config", write_config(tmp_path, cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert section in err and repr(key) in err

    @pytest.mark.parametrize("section, key, which", [("section4", "p2_shape", "c"),
                                                     ("section5", "p_shape", "c1"),
                                                     ("section5", "q_linear", "c1")])
    def test_missing_shape_rejected(self, tmp_path, capsys, section, key, which):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        del cfg[section][key]
        code = main(["eval", "--which", which, "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    def test_misspelt_shape_no_longer_evaluates(self, tmp_path, capsys):
        # a typo once fell back to P1(x) = x and printed c = 1.237059
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section4"]["p1_shap"] = cfg["section4"].pop("p1_shape")
        code = main(["eval", "--which", "c", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert "c = " not in captured.out
        assert "'p1_shap'" in captured.err

    def test_shape_and_poly_together_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section4"]["p1_poly"] = ["0", "0.842", "0.408", "-0.25"]
        code = main(["eval", "--which", "c", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_poly_alone_accepted(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section4"]["p1_poly"] = ["0", "0.842", "0.408", "-0.25"]
        del cfg["section4"]["p1_shape"]
        code = main(["eval", "--which", "c", "--config",
                     write_config(tmp_path, cfg), "--machine"])
        assert code == 0
        values = machine_values(capsys.readouterr().out)
        assert values["c"] == pytest.approx(1.2301085737954217, rel=1e-12)

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        # a misspelt theta once evaluated c at the default theta = 1
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["thetta"] = cfg.pop("theta")
        code = main(["eval", "--which", "c", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert "c = " not in captured.out
        assert "config error" in captured.err and "'thetta'" in captured.err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        code = main(["reproduce", "--config", write_config(tmp_path, [1.0])])
        assert code == 2
        assert "expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [["abc", "0.7"], ["0.5", None], ["0.5", True]])
    def test_non_numeric_bound_is_a_config_error(self, tmp_path, capsys, pair):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "minimize_nu", "budget": 5, "bounds": {"R": pair}}
        code = main(["optimize", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "config error: search.bounds.R" in capsys.readouterr().err

    def test_bound_name_outside_vector_is_a_config_error(self, tmp_path, capsys):
        # a misspelt bound once ran the search with R frozen and exited 0
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "minimize_nu", "budget": 5,
                         "bounds": {"RR": [0.5, 1.0]}}
        code = main(["optimize", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert "best objective" not in captured.out
        assert "config error: search: " in captured.err and "'RR'" in captured.err

    def test_nan_delta_is_a_config_error(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section5"]["delta"] = "nan"
        code = main(["eval", "--which", "c1", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "delta" in err

    @pytest.mark.parametrize("command", [["reproduce"], ["selfcheck"],
                                         ["eval", "--which", "c", "--config", "x.json"],
                                         ["optimize", "--config", "x.json"]])
    def test_no_command_takes_seed(self, command, capsys):
        # optimize once took --seed, which changed nothing
        with pytest.raises(SystemExit) as info:
            main(command + ["--seed", "3"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err


    @pytest.mark.parametrize("section, command", [
        ("search", ["reproduce"]), ("constants", ["reproduce"]),
        ("search", ["selfcheck"]), ("constants", ["selfcheck"]),
        ("section5", ["eval", "--which", "c"]), ("search", ["eval", "--which", "c"]),
        ("constants", ["eval", "--which", "c"]),
        ("section4", ["eval", "--which", "c1"]), ("search", ["eval", "--which", "c1"]),
        ("constants", ["eval", "--which", "c1"]),
        ("section4", ["eval", "--which", "bounds"]), ("section5", ["eval", "--which", "bounds"]),
        ("search", ["eval", "--which", "bounds"]),
        ("section4", ["optimize"]), ("section5", ["optimize"]), ("constants", ["optimize"]),
    ], ids=lambda x: x if isinstance(x, str) else "-".join(x[::2]))
    @pytest.mark.parametrize("fault", ["unknown key", "not an object", "bad value"])
    def test_a_section_the_command_does_not_read_is_checked(self, tmp_path, capsys, section,
                                                            command, fault):
        # a section that the command reads no value of once went unchecked:
        # "constants": {"bogus": 1, "c": "abc"} let eval --which c exit 0,
        # and then "constants": {"c": "abc"} still did.  bounds reads no
        # section that all four constants replace, and optimize no section
        # but its target's
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        target = "maximize_kappa" if section == "section4" else "minimize_nu"
        cfg["search"] = {"target": target, "budget": 1}
        cfg["constants"] = ({"c": 1.2, "c1": 1.1, "R4": 0.6, "R5": 0.7}
                            if command[-1] == "bounds" else {})
        assert main([*command, "--config", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        if fault == "unknown key":
            cfg[section]["bogus"] = 1
            allowed = ", ".join(SECTION_FIELDS[section])
            message = f"{section}: unknown field 'bogus' (allowed: {allowed})"
        elif fault == "not an object":
            cfg[section] = [1]
            message = f"{section}: expected an object, got [1]"
        else:
            value, message = BAD_VALUES[section]
            cfg[section].update(value)
        code = main([*command, "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize("where, command", [
        ("theta", ["eval", "--which", "c"]),
        ("section4.r", ["eval", "--which", "c"]),
        ("section4.R", ["eval", "--which", "bounds"]),
        ("section5.R", ["eval", "--which", "c1"]),
        ("section5.delta", ["eval", "--which", "bounds"]),
        ("constants.c", ["eval", "--which", "bounds"]),
        ("search.bounds.R", ["optimize"])], ids=lambda x: x if isinstance(x, str) else x[-1])
    @pytest.mark.parametrize("text", [" 0.5 ", "1_154e-3"], ids=["spaces", "underscore"])
    def test_a_scalar_given_as_a_string_is_refused(self, tmp_path, capsys, where, command, text):
        # "theta": " 0.5 " and "r": "1_154e-3" once evaluated as 0.5 and
        # 1.154, and eval --which bounds exited 0: a scalar is a JSON number
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "minimize_nu", "budget": 1, "bounds": {"R": [0.3, 1.2]}}
        cfg["constants"] = {"c": 1.2}
        section, _, key = where.rpartition(".")
        if section == "search.bounds":
            cfg["search"]["bounds"]["R"] = [text, 1.2]
            message = f"expected [lo, hi], got [{text!r}, 1.2]"
        else:
            (cfg[section] if section else cfg)[key] = text
            message = f"not a number, got {text!r}"
        code = main([*command, "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {where}: {message}\n"

    @pytest.mark.parametrize("constants, key", [
        ({"c": "abc", "c1": 1.0, "R4": 0.617, "R5": 0.746}, "constants.c"),
        ({"c": 1.0, "c1": 1.0, "R4": None, "R5": 0.746}, "constants.R4"),
        ({"c": 1.1, "c1": 1.0, "R4": True, "R5": 0.7}, "constants.R4"),
        ({"c": True, "c1": 1.0, "R4": 0.617, "R5": 0.746}, "constants.c"),
        ({"c": 1.0, "c1": "nan", "R4": 0.617, "R5": 0.746}, "constants.c1"),
    ])
    def test_non_numeric_constant_is_a_config_error(self, tmp_path, capsys,
                                                     constants, key):
        # a non-numeric constant once exited as an evaluation error naming no key
        cfg = {"constants": constants}
        code = main(["eval", "--which", "bounds", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert f"config error: {key}: not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("section4, message", [
        ([1], "section4: expected an object"),
        ({"R": 0.6, "rr": 3}, "section4: unknown field 'rr'"),
    ])
    def test_bounds_fallback_section_is_checked(self, tmp_path, capsys,
                                                section4, message):
        # R4 once fell back to section4 unchecked: a list crashed with a
        # TypeError traceback (exit 1), and a stray key was ignored
        cfg = {"constants": {"c": 1.1, "c1": 1.0}, "section4": section4,
               "section5": {"R": 0.7}}
        code = main(["eval", "--which", "bounds", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert "nu = " not in captured.out
        assert f"config error: {message}" in captured.err

    @pytest.mark.parametrize("section, key, value, which, message", [
        (None, "theta", True, "c", "theta: not a number"),
        ("section4", "r", True, "c", "section4.r: not a number"),
        ("section4", "R", True, "c", "section4.R: not a number"),
        ("section5", "R", True, "c1", "section5.R: not a number"),
        ("section5", "delta", True, "c1", "section5.delta: not a number"),
        ("section5", "q_linear", True, "c1", "section5.q_linear: expected a decimal"),
        ("section5", "q_linear", [1], "c1", "section5.q_linear: expected a decimal"),
        ("section5", "q_linear", "nan", "c1", "section5.q_linear: expected a decimal"),
        ("section4", "R", 1e-7, "c", "section4: R must be >= 1e-06"),
        ("section4", "p1_shape", ["1e400", "0.25"], "c",
         "section4.p1_shape: expected an array of decimals"),
        ("section4", "R", 400, "c", "section4: R must be <= 300.0, got 400.0"),
        ("section5", "R", 400, "c1", "section5: R must be <= 300.0, got 400.0"),
        ("section4", "R", 1e9, "c", "section4: R must be <= 300.0, got 1000000000.0"),
    ])
    def test_section_value_of_wrong_type_rejected(self, tmp_path, capsys, monkeypatch, section,
                                                  key, value, which, message):
        # true once read as 1 (section4.R: true printed c = 1.455863658397),
        # and a bad q_linear, a tiny or huge R or a coefficient past the binary64
        # range exited as an evaluation error naming no key.  No node rows are
        # built for a rejected config, so a check on R moved after evaluation
        # fails here instead of asking for 1.4e5 t-nodes at R = 1e9
        monkeypatch.setattr(kernel, "_node_rows",
                            lambda *args: pytest.fail(f"node rows built at {args}"))
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        (cfg[section] if section else cfg)[key] = value
        code = main(["eval", "--which", which, "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"{which} = " not in captured.out
        assert f"config error: {message}" in captured.err

    @pytest.mark.parametrize("faults, command, message", [
        (("theta", "section4.r"), ["eval", "--which", "c"], "theta: not a number"),
        (("theta", "section4.r"), ["eval", "--which", "bounds"], "theta: not a number"),
        (("theta", "section4.r"), ["selfcheck"], "theta: not a number"),
        (("theta", "section4.r"), ["optimize"], "theta: not a number"),
        (("section4.r", "section5.delta"), ["eval", "--which", "bounds"],
         "section4.r: not a number"),
    ])
    def test_first_fault_in_read_order_is_reported(self, tmp_path, capsys, faults,
                                                   command, message):
        # each test above has one fault; this pins which of two is reported
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "minimize_nu", "budget": 1}  # read by optimize only
        for fault in faults:
            section, _, key = fault.rpartition(".")
            (cfg[section] if section else cfg)[key] = True
        code = main([*command, "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}, got True\n"

    def test_unknown_constant_rejected(self, tmp_path, capsys):
        # a stray key was once ignored, and the bounds came from the sections
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["constants"] = {"cc": 3}
        code = main(["eval", "--which", "bounds", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert "nu = " not in captured.out
        assert "config error: constants: unknown field 'cc'" in captured.err

    def test_non_object_constants_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["constants"] = [1, 2]
        code = main(["eval", "--which", "bounds", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "config error: constants: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("budget", True), ("budget", 2000.0)])
    def test_search_scalar_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        # true once meant 1, and 2000.0 failed with a message naming no key
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "maximize_kappa", "budget": 1}
        cfg["search"][key] = value
        code = main(["optimize", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert "best objective" not in captured.out
        assert f"config error: search.{key}: expected" in captured.err

    @pytest.mark.parametrize("key, value", [
        ("restarts", True), ("seed", 1.5), ("seed", "7"), ("seed", -3),
        ("seed", 0), ("restarts", 4), ("vary_shapes", True), ("vary_shapes", False),
        ("vary_shapes", "false"), ("vary_shapes", 0),
    ])
    def test_retired_search_key_rejected(self, tmp_path, capsys, key, value):
        # seed and restarts were once accepted and changed nothing; a [v, v]
        # bound now holds a shape entry, as vary_shapes: false did
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "maximize_kappa", "budget": 1}
        cfg["search"][key] = value
        code = main(["optimize", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert "best objective" not in captured.out
        assert captured.err == (f"config error: search: unknown field {key!r} "
                                f"(allowed: target, bounds, budget)\n")


class TestOptimize:
    def test_budget_one_echoes_seed(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "maximize_kappa", "budget": 1}
        hold_config_shapes(cfg)
        code = main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"])
        assert code == 0
        values = machine_values(capsys.readouterr().out)
        assert values["best_objective"] == pytest.approx(0.93828, abs=5e-4)
        assert values["evaluations_used"] == 1.0

    def test_round_trip_of_emitted_fragment(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "maximize_kappa", "budget": 120,
                         "bounds": {"R": [0.6, 0.9], "delta": [0.6, 0.95]}}
        code = main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"])
        assert code == 0
        out = capsys.readouterr().out
        values = machine_values(out)
        fragment = json.loads([l for l in out.splitlines() if l.startswith("{")][-1])
        sec5 = fragment["section5"]
        from levbounds.cli import _section_params
        params = _section_params({"section5": sec5}, "section5", 1.0)
        again = kappa_bound(c1_value(params), params.R)
        assert again == pytest.approx(values["best_objective"], abs=1e-12)

    def test_fixed_shape_entry_stays_in_the_fragment(self, tmp_path, capsys):
        # a [v, v] bound holds p1_shape[0] at its start through the search
        cfg = {"section4": {**REFERENCE_CONFIG["section4"], "p1_shape": ["-0.1", "0.25"]},
               "search": {"target": "minimize_nu", "budget": 2000,
                          "bounds": {"r": [0.5, 2.0], "R": [0.3, 1.2],
                                     "p1_shape[0]": [-0.1, -0.1]}}}
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        fragment = json.loads(next(l for l in lines if l.startswith("{")))
        assert fragment["section4"]["p1_shape"][0] == "-0.1"
        assert not any(l.startswith("failures.") for l in lines)

    def test_missing_search_section(self, tmp_path, capsys):
        assert main(["optimize", "--config",
                     write_config(tmp_path, REFERENCE_CONFIG)]) == 2

    @staticmethod
    def optimize_and_reevaluate(tmp_path, capsys, cfg):
        """optimize --machine on cfg, then eval --which bounds on its fragment
        (the other section from cfg); the machine values of both runs."""
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 0
        out = capsys.readouterr().out
        fragment = json.loads(out.splitlines()[-1])
        again = {**{k: v for k, v in cfg.items() if k != "search"}, **fragment}
        assert main(["eval", "--which", "bounds", "--machine",
                     "--config", write_config(tmp_path, again, "again.json")]) == 0
        return machine_values(out), machine_values(capsys.readouterr().out)

    def test_nu_fragment_reevaluates_exactly(self, tmp_path, capsys):
        # a raw p2 polynomial in, shape coefficients out, one of them bounded
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        del cfg["section4"]["p2_shape"]
        cfg["section4"]["p2_poly"] = ["0", "1.492", "-0.417", "-0.075"]
        cfg["search"] = {"target": "minimize_nu", "budget": 150,
                         "bounds": {"p1_shape[0]": [-0.5, 0.5], "r": [0.5, 2.0],
                                    "R": [0.3, 1.2]}}
        found, again = self.optimize_and_reevaluate(tmp_path, capsys, cfg)
        assert found["best_objective"] < 0.16783
        assert again["nu"] == found["best_objective"]

    def test_kappa_fragment_reevaluates_exactly(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "maximize_kappa", "budget": 120,
                         "bounds": {"R": [0.6, 0.9], "delta": [0.6, 0.95]}}
        found, again = self.optimize_and_reevaluate(tmp_path, capsys, cfg)
        assert found["best_objective"] > 0.93828
        assert again["kappa"] == found["best_objective"]

    def test_delta_pinned_on_zero_keeps_the_last_twist(self, tmp_path, capsys):
        # delta starts at -0.02 under bounds [-1, 1.2], and its side-of-zero
        # row pins it at 0, where q = v / delta cannot be written: q keeps
        # its values from the last step with delta nonzero, here the start's.
        # The twist was once divided by the unpinned delta, about 1e-17, and
        # q_sym printed as ["-1.37e+18", "8.57e+18"]
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section5"]["delta"] = -0.02
        cfg["search"] = {"target": "maximize_kappa", "budget": 2000,
                         "bounds": {"R": [0.4, 1.2], "delta": [-1, 1.2]}}
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 0
        fragment = json.loads(capsys.readouterr().out.splitlines()[-1])["section5"]
        entries = [x for value in fragment.values()
                   for x in (value if isinstance(value, list) else [value])]
        assert all(math.isfinite(float(x)) for x in entries)
        assert fragment["delta"] == 0.0
        start = REFERENCE_CONFIG["section5"]
        assert (fragment["q_linear"], fragment["q_sym"]) == (start["q_linear"], start["q_sym"])

    def test_out_file_ends_with_the_fragment(self, tmp_path, capsys):
        # --out once left the fragment out
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "maximize_kappa", "budget": 5,
                         "bounds": {"delta": [0.6, 0.95]}}
        hold_config_shapes(cfg)
        out_file = tmp_path / "opt.txt"
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine",
                     "--out", str(out_file)]) == 0
        stdout = capsys.readouterr().out
        assert out_file.read_text() == stdout
        fragment = json.loads(out_file.read_text().splitlines()[-1])
        assert list(fragment["section5"]) == ["p_shape", "q_linear", "q_sym", "R", "delta"]
        assert fragment["section5"]["q_linear"] == "-0.673"

    def test_start_point_that_fails_to_evaluate(self, tmp_path, capsys):
        # once a traceback with exit 1 that hid the cause
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section4"]["p1_shape"] = ["1e200", "0"]
        cfg["search"] = {"target": "minimize_nu", "budget": 50}
        code = main(["optimize", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert capsys.readouterr().err == ("evaluation error: objective failed at the "
                                           "initial point: c evaluated to inf\n")



# the reference twist's q_sym, then entries up to twelve: the first n give
# derivatives to order 2n + 2, so seven make the order-16 twist
TWIST_ENTRIES = ["0.369", "-4.635", "0.1", "-0.2", "0.05", "0.3", "-0.1",
                 "0.2", "-0.3", "0.1", "0.05", "-0.1"]
# the Cauchy route's c1 reads 4.1e-9 (order 22) and 7.8e-8 (order 26) from
# the 40-digit value at R = 5, against selfcheck's 1e-9, while the engine's
# is within 5e-15; at R = 100 they read 1.0e-9 and 1.4e-9, too close to call
CAUCHY_PAST_ORDER_16 = pytest.mark.xfail(
    strict=True, reason="the oracle's torus radius loses c1 past order 16 at R = 5, so "
                        "selfcheck FAILs a correct c1 (ROADMAP item 14)")


class TestSelfcheck:
    def test_default_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_config_driven(self, tmp_path, capsys):
        assert main(["selfcheck", "--config",
                     write_config(tmp_path, REFERENCE_CONFIG)]) == 0

    @pytest.mark.parametrize("section, R", [("section5", 0.175), ("section5", 0.35),
                                            ("section4", 0.0025)])
    def test_stencil_on_singular_line_passes(self, tmp_path, capsys, section, R):
        # 2R a multiple of a step of the finite-difference stencils the
        # oracle once used put grid points on a + b = 0; these configs then
        # exited 2 as evaluation errors
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg[section]["R"] = R
        assert main(["selfcheck", "--config", write_config(tmp_path, cfg)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("section, R, order", [
        ("section4", 1e-6, 6), ("section5", 1e-6, 6), ("section5", 5.0, 6),
        ("section4", 300.0, 6), ("section5", 300.0, 6),
        ("section5", 5.0, 16), ("section5", 100.0, 16),
        ("section5", 5.0, 18), ("section5", 100.0, 18),
        pytest.param("section5", 5.0, 22, marks=CAUCHY_PAST_ORDER_16),
        pytest.param("section5", 5.0, 26, marks=CAUCHY_PAST_ORDER_16),
    ])
    def test_large_R_passes(self, tmp_path, capsys, section, R, order):
        # R = 1e-6 is the smallest R the engine accepts, and order is the
        # highest derivative c1's Cauchy route takes.  section5 R = 5 once
        # printed FAIL for c1 against the finite differences this oracle
        # replaced (rel delta 1.7e-3, tol 1e-4)
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg[section]["R"] = R
        cfg["section5"]["q_sym"] = TWIST_ENTRIES[:order // 2 - 1]
        assert main(["selfcheck", "--machine", "--config", write_config(tmp_path, cfg)]) == 0
        values = machine_values(capsys.readouterr().out)
        for kind, suffix in (("node_rows", "_vs_exact_moments"), ("moment", "_vs_quadrature")):
            checks = [k[:-len(".rel_delta")] for k in values
                      if k.startswith(f"check[{kind}[") and k.endswith(f"]{suffix}].rel_delta")]
            assert len(checks) == 20
            assert all(f"{k}.margin" in values for k in checks)
        assert values["all_passed"] == 1.0
        assert values["check[c1_vs_Cauchy_integrals].rel_delta"] <= 1e-9
        assert values["check[c_vs_Cauchy_integrals].rel_delta"] <= 1e-9

    def test_shape_rows_that_end_in_zero(self, tmp_path, capsys):
        # p1_shape, p_shape and q_sym end in "0" and delta is 0: every check
        # passes, and c1 vs Cauchy integrals reads the same bits as with the
        # zeros trimmed
        trimmed = json.loads(json.dumps(REFERENCE_CONFIG))
        trimmed["section5"]["delta"] = 0
        zeros = json.loads(json.dumps(trimmed))
        for section, key in (("section4", "p1_shape"), ("section5", "p_shape"),
                             ("section5", "q_sym")):
            zeros[section][key].append("0")
        c1_lines = []
        for cfg in (zeros, trimmed):
            assert main(["selfcheck", "--machine", "--config", write_config(tmp_path, cfg)]) == 0
            out = capsys.readouterr().out
            assert machine_values(out)["all_passed"] == 1.0
            c1_lines.append([l for l in out.splitlines()
                             if l.startswith("check[c1_vs_Cauchy_integrals]")])
        assert len(c1_lines[0]) == 2
        assert c1_lines[0] == c1_lines[1]

    def test_machine_mode_reports_all_passed(self, capsys):
        assert main(["selfcheck", "--machine"]) == 0
        values = machine_values(capsys.readouterr().out)
        assert values["all_passed"] == 1.0

    def test_machine_mode_prints_each_margin_after_its_rel_delta(self, capsys):
        # margin = tolerance / rel_delta, inf for an exact match; >= 1 passes
        report = crosscheck_report(reference.section_four_reference(),
                                   reference.section_five_reference())
        assert main(["selfcheck", "--machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = machine_values("\n".join(lines))
        keys = [line.partition("=")[0] for line in lines]
        assert len(keys) == 2 * len(report.checks) + 1
        zero = 0
        for i, check in enumerate(report.checks):
            key = f"check[{check.name.replace(' ', '_')}]"
            assert keys[2 * i:2 * i + 2] == [f"{key}.rel_delta", f"{key}.margin"]
            margin = values[f"{key}.margin"]
            if check.rel_delta == 0:
                zero += 1
                assert margin == math.inf
            else:
                assert margin == check.tolerance / check.rel_delta
            assert (margin >= 1) == check.passed
        assert zero >= 1


def test_reproduce_and_selfcheck_import_no_test_dependency():
    # the runtime needs numpy only; mpmath, hypothesis and pytest are test
    # extras, and the references no command runs live in the tests
    code = ("import contextlib, io, sys\n"
            "from levbounds import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['reproduce']) == 0 and cli.main(['selfcheck']) == 0\n"
            "loaded = {'mpmath', 'hypothesis', 'pytest', 'kernel_reference', 'search_helpers'}"
            " & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(levbounds.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


class TestOptimizeAccounting:
    @pytest.mark.parametrize("bounds, message", [
        ({"R": [-1, 1.2], "r": [-2, 2]}, "bounds for 'R' must be >= 1e-06, got (-1.0, 1.2)"),
        ({"r": [-2, 2]}, "bounds for 'r' must be > 0, got (-2.0, 2.0)"),
    ])
    def test_bounds_outside_the_domain_are_config_errors(self, tmp_path, capsys,
                                                         bounds, message):
        # these once exited 0, every invalid point scored as a penalty
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "minimize_nu", "bounds": bounds}
        assert main(["optimize", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "best objective" not in captured.out
        assert captured.err == f"config error: search: {message}\n"

    @pytest.mark.parametrize("target, blocks", [("minimize_nu", {"cond.mollifier"}),
                                                ("maximize_kappa",
                                                 {"cond.mollifier", "cond.twist"})])
    def test_machine_output_counts_solves_and_conditions(self, tmp_path, capsys,
                                                         target, blocks):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": target, "bounds": {"R": [0.4, 1.2]}}
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 0
        values = machine_values(capsys.readouterr().out)
        assert values["inner_solves"] >= values["evaluations_used"] - 1
        assert values["fallbacks"] == 0.0
        assert {k for k in values if k.startswith("cond.")} == blocks
        assert not any(k.startswith("failures.") for k in values)

    def test_fallbacks_printed(self, tmp_path, capsys):
        # degrees (9, 3) at delta = 1: the joint Hessian fails the condition
        # gate (the mollifier block alone reaches 5e10), and the per-block
        # sweeps that replace it are counted in both outputs
        cfg = {"section5": {"p_shape": ["-0.482", "-0.392", "-0.262"] + ["0"] * 6,
                            "q_linear": "-0.673", "q_sym": ["0.369", "-4.635", "0"],
                            "R": 0.746, "delta": 1.0},
               "search": {"target": "maximize_kappa", "budget": 2000,
                          "bounds": {"R": [0.3, 1.5]}}}
        path = write_config(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--machine"]) == 0
        values = machine_values(capsys.readouterr().out)
        assert values["fallbacks"] > 0
        assert not any(k.startswith("failures.") for k in values)
        assert values["best_objective"] >= 0.84589339720
        assert main(["optimize", "--config", path]) == 0
        out = capsys.readouterr().out
        assert f"\nfallbacks        {values['fallbacks']:.0f}\n" in out
        assert "\nfailures         none\n" in out

    @pytest.mark.parametrize("target, bounds", [
        ("minimize_nu", {"r": [0.5, 2.0], "R": [0.3, 1.2]}),
        ("maximize_kappa", {"R": [0.4, 1.2], "delta": [0.4, 1.2]})])
    def test_r_slope_printed(self, tmp_path, capsys, target, bounds):
        # the criterion-8 searches end where the R slope is about 1e-10
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": target, "budget": 2000, "bounds": bounds}
        path = write_config(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--machine"]) == 0
        slope = machine_values(capsys.readouterr().out)[f"dR.{target}"]
        assert abs(slope) <= 1e-6
        assert main(["optimize", "--config", path]) == 0
        assert f"\nR slope          {slope:.3e}\n" in capsys.readouterr().out

    def test_pinned_bounds_printed(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section4"]["r"] = 0.7
        cfg["search"] = {"target": "minimize_nu", "bounds": {"r": [0.5, 1.0], "R": [0.3, 1.2]}}
        path = write_config(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--machine"]) == 0
        values = machine_values(capsys.readouterr().out)
        assert {k: v for k, v in values.items() if k.startswith("pinned.")} == {"pinned.r": 1.0}
        # one shadow price per pinned entry: raising r's bound lowers nu
        assert [k for k in values if k.startswith("shadow.")] == ["shadow.r"]
        assert values["shadow.r"] < 0.0
        assert main(["optimize", "--config", path]) == 0
        assert "\npinned bounds    r 1.0\n" in capsys.readouterr().out
        cfg["search"]["bounds"] = {"R": [0.3, 1.2]}
        assert main(["optimize", "--config", write_config(tmp_path, cfg)]) == 0
        assert "\npinned bounds    none\n" in capsys.readouterr().out

    def test_pinned_delta_is_priced_by_the_central_difference(self, tmp_path, capsys):
        # the price of the pinned delta is d kappa / d bound: the central
        # difference of the best kappa over delta's upper bound 0.6 +- 0.001
        cfg = {"section5": dict(REFERENCE_CONFIG["section5"]),
               "search": {"target": "maximize_kappa", "budget": 2000,
                          "bounds": {"R": [0.4, 1.2], "delta": [0.4, 0.6]}}}
        found = {}
        for hi, start in ((0.6, 0.6), (0.601, 0.6), (0.599, 0.599)):
            cfg["section5"]["delta"] = start
            cfg["search"]["bounds"]["delta"] = [0.4, hi]
            assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 0
            found[hi] = machine_values(capsys.readouterr().out)
            assert found[hi]["pinned.delta"] == hi
        assert found[0.6]["fallbacks"] == 0
        assert found[0.6]["inner_solves"] <= 20
        slope = (found[0.601]["best_objective"] - found[0.599]["best_objective"]) / 0.002
        assert abs(slope / found[0.6]["shadow.delta"] - 1) <= 1e-5

    def test_twist_held_at_delta_zero_is_not_reported_pinned(self, tmp_path, capsys):
        # q_sym[0] stays at its start, its lower bound, because the twist
        # cannot move at delta = 0; it was once printed as pinned there
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["section5"]["delta"] = 0.0
        cfg["search"] = {"target": "maximize_kappa",
                         "bounds": {"R": [0.4, 1.2], "delta": [0.0, 0.0],
                                    "q_sym[0]": [0.369, 1.0]}}
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 0
        out = capsys.readouterr().out
        assert [l for l in out.splitlines() if l.startswith("pinned.")] == ["pinned.R=1.2"]

    def test_machine_output_counts_failures_by_class(self, tmp_path, capsys,
                                                     fail_solves_above):
        failed = fail_solves_above(0.6)  # below the optimum, R = 0.6165
        cfg = json.loads(json.dumps(REFERENCE_CONFIG))
        cfg["search"] = {"target": "minimize_nu", "bounds": {"R": [0.4, 1.2]}, "budget": 9}
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 0
        values = machine_values(capsys.readouterr().out)
        assert 0 < len(failed) < 8
        assert values["failures.IllPosedSolveError"] == len(failed)
        assert values["evaluations_used"] == 9.0

    def test_search_whose_steps_all_failed_exits_2(self, tmp_path, capsys):
        # degree (6, 5) at delta = 1: every twist block is ill-conditioned;
        # this once exited 0 and printed the start point's kappa 0.4874243
        cfg = {"section5": {"p_shape": ["-0.482", "-0.392", "-0.262", "0", "0", "0"],
                            "q_linear": "-0.673", "q_sym": ["0.369", "-4.635", "0", "0", "0"],
                            "R": 0.746, "delta": 1.0},
               "search": {"target": "maximize_kappa", "budget": 2000,
                          "bounds": {"R": [0.3, 1.5]}}}
        assert main(["optimize", "--config", write_config(tmp_path, cfg), "--machine"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("evaluation error: all 27 search steps failed, "
                                       "the first with IllPosedSolveError: twist block at R = ")
