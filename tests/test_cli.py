"""Command-line behavior: formats, exit codes, determinism, round-trips."""
import csv
import io
import json
import re
import subprocess
import sys
import time

import pytest

import infoeval.cli as cli
import infoeval.measures as measures
from infoeval import (
    SINGULAR, CanonicalKind, CanonicalModel, InvariantViolation, MeasureId, evaluate,
)
from infoeval.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestEval:
    def test_markdown_golden(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "reject_tradeoff", "--measure", "NI2"
        )
        assert code == 0
        assert err == ""
        assert out == (
            "| model | NI2 |\n"
            "| --- | --- |\n"
            "| C_D | 0.586 |\n"
            "| C_E | 0.393 |\n"
        )

    def test_singular_prints_as_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "binary_models", "--measures", "NI20"
        )
        assert code == 0
        assert "| M3 | S |" in out
        assert "| M6 | S |" in out
        assert "| M5 | 0.741 |" in out

    @pytest.mark.parametrize("value", [object(), "S", 1.5, None],
                             ids=["object", "str", "float", "None"])
    def test_json_default_serialises_only_singular(self, value):
        assert cli._singular_as_s(SINGULAR) == "S"
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._singular_as_s(value)

    def test_json_round_trips_at_emitted_precision(self, capsys, binary_models):
        code, out, _ = run_cli(
            capsys, "eval", "binary_models", "--measures", "all",
            "--format", "json", "--round", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert [entry["name"] for entry in payload] == list(binary_models)
        for entry in payload:
            matrix = binary_models[entry["name"]]
            for token, emitted in entry["measures"].items():
                value = evaluate(MeasureId.from_token(token), matrix).value
                if emitted == "S":
                    assert value is cli.SINGULAR
                else:
                    assert emitted == round(value, 3)

    def test_csv_round_trips_at_emitted_precision(self, capsys, binary_models):
        code, out, _ = run_cli(
            capsys, "eval", "binary_models", "--measures", "mi",
            "--format", "csv", "--round", "4",
        )
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["model"] + [f"NI{k}" for k in range(1, 10)]
        for row in rows:
            matrix = binary_models[row[0]]
            for token, cell in zip(header[1:], row[1:]):
                value = evaluate(MeasureId.from_token(token), matrix).value
                assert float(cell) == round(value, 4)

    def test_raw_precision_round_trips_exactly(self, capsys, binary_models):
        code, out, _ = run_cli(
            capsys, "eval", "binary_models", "--measures", "NI2",
            "--precision", "raw", "--format", "csv",
        )
        assert code == 0
        _, *rows = list(csv.reader(io.StringIO(out)))
        for name, cell in rows:
            assert float(cell) == evaluate(MeasureId.NI2, binary_models[name]).value

    def test_binary_only_measures_blank_for_three_classes(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "three_class_models", "--measures", "performance",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        for entry in payload:
            assert entry["measures"]["Precision"] is None
            assert entry["measures"]["F1"] is None
            assert entry["measures"]["CR"] is not None

    def test_multiple_inputs_and_global_default_names(self, capsys, tmp_path):
        one = tmp_path / "one.json"
        one.write_text(json.dumps([[[8, 1], [1, 8]], [[9, 0], [0, 9]]]))
        two = tmp_path / "two.json"
        two.write_text(json.dumps({"name": "mine", "matrix": [[7, 2], [2, 7]]}))
        code, out, _ = run_cli(
            capsys, "eval", str(one), str(two), "--measures", "NI1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2].startswith("| M1 |")
        assert lines[3].startswith("| M2 |")
        assert lines[4].startswith("| mine |")

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("pred_1, pred_2, reject\n90, 0, 0\n1, 9, 0\n")
        code, out, _ = run_cli(capsys, "eval", str(path), "--measures", "NI2")
        assert code == 0
        assert "| M1 | 0.831 |" in out


class TestAllRejectMatrix:
    def _write(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(json.dumps([[[0, 0, 5], [0, 0, 5]], [[4, 0, 1], [1, 4, 0]]]))
        return str(path)

    def test_eval_performance(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "eval", self._write(tmp_path),
                                 "--measures", "perf", "--format", "json")
        assert (code, err) == (0, "")
        rates = json.loads(out)[0]["measures"]
        assert rates["A"] == 0.0
        assert rates["E"] == 0.0
        assert rates["Rej"] == 1.0

    def test_rank_accuracy(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "rank", self._write(tmp_path),
                                 "--measures", "A", "--format", "json")
        assert (code, err) == (0, "")
        (ranking,) = json.loads(out)["rankings"]
        assert [(e["value"], e["letter"]) for e in ranking["models"]] == [
            (0.0, "B"), (0.889, "A"),
        ]


class TestRank:
    def test_measure_singular_for_every_model_is_ungraded(self, capsys):
        code, out, err = run_cli(
            capsys, "rank", "reject_tradeoff", "--measures", "information",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        rankings = {r["measure"]: r["models"] for r in json.loads(out)["rankings"]}
        assert len(rankings) == 24
        for measure in ("NI17", "NI19", "NI20"):
            assert [(e["value"], e["letter"]) for e in rankings[measure]] == [
                ("S", None), ("S", None),
            ]
        assert [e["letter"] for e in rankings["NI2"]] == ["A", "B"]

    def test_markdown_sections(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "binary_models", "--measures", "NI2,NI3"
        )
        assert code == 0
        assert out.startswith("## NI2\n")
        assert "## NI3" in out
        assert "| M4 | 0.997 | A |" in out

    def test_default_measure_is_ni2(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "binary_models")
        assert code == 0
        assert out.startswith("## NI2\n")
        assert "## NI1" not in out

    def test_singular_has_empty_letter(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "binary_models", "--measures", "NI20"
        )
        assert code == 0
        assert "| M6 | S |  |" in out

    def test_csv_long_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "binary_models", "--measures", "NI2",
            "--format", "csv",
        )
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["measure", "model", "value", "letter"]
        assert rows[0] == ["NI2", "M1", "0.831", "D"]

    def test_json_letters(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "three_class_models", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rounding"] == 3
        (ranking,) = payload["rankings"]
        letters = [entry["letter"] for entry in ranking["models"]]
        assert letters == ["F", "E", "D", "F", "C", "B", "E", "C", "A"]


class TestTheorems:
    def test_json_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorems", "binary_models", "--format", "json"
        )
        assert code == 0
        records = {entry["name"]: entry for entry in json.loads(out)}
        assert records["M5"]["mi_local_minimum"] is True
        assert records["M5"]["blocks"] == [1]
        assert records["M6"]["divergence_maximum"] is True
        assert records["M6"]["canonical"] is None
        m1 = records["M1"]["canonical"]
        assert m1["kind"] == "small-class-error"
        assert (m1["c1"], m1["c2"], m1["d"]) == (90, 10, 1)
        assert m1["delta_I"] == pytest.approx(-0.079, abs=5e-4)
        assert m1["consistent"] is True
        assert m1["predicted_order"][0] == "large-class-reject"

    def test_markdown_table(self, capsys):
        code, out, _ = run_cli(capsys, "theorems", "binary_models")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| model | mi_local_minimum |")
        assert "| M4 | false |  | false | large-class-reject |" in out


class TestOmegaAndSweep:
    def test_omega_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "--n", "100", "--d", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 100, "d": 1, "omega": 0.942, "sign_changes": 1}

    def test_omega_markdown(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "--n", "100", "--d", "2", "--round", "4"
        )
        assert code == 0
        assert "| 100 | 2 | 0.9190 | 1 |" in out

    def test_sweep_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "100", "--d", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        shares = [point["p1"] for point in payload["points"]]
        assert shares == [round(0.5 + k * 0.05, 3) for k in range(1, 10)]
        for point in payload["points"]:
            assert point["small_class_error"] < point["large_class_error"] < 0

    def test_sweep_step_too_large(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "100", "--d", "1",
                                 "--step", "0.6")
        assert code == 1
        assert "no grid points" in err

    def test_omega_bad_domain(self, capsys):
        code, _, err = run_cli(capsys, "omega", "--n", "10", "--d", "5")
        assert code == 1
        assert "n > 2d" in err

    @pytest.mark.parametrize("command", ["omega", "sweep"])
    @pytest.mark.parametrize("option, n, d", [
        ("--n", 10**400, 1),
        ("--n", 2**255, 1),
        ("--d", 2**255 - 1, 2**255),
    ], ids=["n=1e400", "n=2**255", "d=2**255"])
    def test_counts_must_be_below_2_to_the_255(self, capsys, command, option, n, d):
        # a larger int does not convert to a float inside the cost formulas
        code, out, err = usage_error(capsys, command, "--n", str(n), "--d", str(d))
        assert (code, out) == (1, "")
        assert f"argument {option}: must be positive and below 2**255, got " in err

    def test_largest_counts_still_compute(self, capsys):
        big = str(2**255 - 1)
        assert run_cli(capsys, "sweep", "--n", big, "--d", big, "--step", "0.2")[0] == 0
        assert run_cli(capsys, "omega", "--n", big, "--d", str(2**253))[0] == 0

    def test_tiny_step_fails_before_building_a_grid(self, capsys):
        start = time.perf_counter()
        code, out, err = usage_error(capsys, "sweep", "--n", "100", "--d", "1", "--step", "1e-9")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, "")
        assert ("argument --step: must be at least 5e-06 (at most 100000 grid points), "
                "got 1e-9") in err

    def test_smallest_step_is_accepted(self):
        parser = cli._build_parser()
        args = parser.parse_args(["sweep", "--n", "100", "--d", "1", "--step", "5e-06"])
        assert args.step == 5e-06


class TestErrorsAndExitCodes:
    def test_missing_input(self, capsys):
        code, out, err = run_cli(capsys, "eval", "nowhere.json")
        assert code == 1
        assert "no such file" in err
        assert out == ""

    def test_unknown_measure(self, capsys):
        code, _, err = run_cli(capsys, "eval", "binary_models",
                               "--measures", "NI99")
        assert code == 1
        assert "unknown measure" in err

    def test_malformed_json_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[[1, 2,\n")
        code, _, err = run_cli(capsys, "eval", str(bad))
        assert code == 1
        assert "malformed JSON" in err

    @pytest.mark.parametrize("command", ["eval", "rank", "theorems"])
    @pytest.mark.parametrize("text, message", [
        ("[" * 50000 + "]" * 50000, "input is nested too deeply"),
        (f"[[{10**164}, 1, 0], [1, 1, 0]]", f"total count {10**164 + 3} is too large"),
        (f"[[{10**330}, 1, 0], [1, 1, 0]]", f"total count {10**330 + 3} is too large"),
    ], ids=["nested", "1e164", "1e330"])
    def test_input_beyond_float_range(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "big.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: {message}")

    def test_theorems_error_names_the_model(self, capsys, tmp_path):
        # n/d above about 3.679e11 puts omega above the scan grid's end
        path = tmp_path / "huge.json"
        path.write_text("[[300000000000, 1, 0], [0, 100000000000, 0]]")
        code, out, err = run_cli(capsys, "theorems", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: M1: no sign change of the cost gap on (0.500001, 0.999999)"
            " for n=400000000001, d=1\n"
        )

    def test_rank_needs_two_models(self, capsys, tmp_path):
        single = tmp_path / "single.json"
        single.write_text("[[9, 0], [0, 9]]")
        code, _, err = run_cli(capsys, "rank", str(single))
        assert code == 1
        assert "at least 2 models" in err

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise InvariantViolation("NI1 = 1.5 is outside [0, 1]")

        monkeypatch.setattr(cli, "evaluate_all", explode)
        code, _, err = run_cli(capsys, "eval", "binary_models")
        assert code == 2
        assert "invariant violation" in err

    def test_invariant_violation_names_the_model(self, capsys, monkeypatch, tmp_path):
        # the second model gets I = 5 bits over H(T) = 1 bit, so NI1 = 5
        calls = []

        def second_breaks(d):
            calls.append(d)
            return 5.0 if len(calls) == 2 else real(d)

        real = measures.mutual_information
        monkeypatch.setattr(measures, "mutual_information", second_breaks)
        batch = tmp_path / "batch.json"
        batch.write_text('[{"name": "first", "matrix": [[9, 1], [2, 8]]},'
                         ' {"name": "second", "matrix": [[7, 3, 1], [0, 9, 2]]}]')
        code, out, err = run_cli(capsys, "eval", str(batch), "--measures", "NI1")
        assert (code, out) == (2, "")
        assert err == (
            "invariant violation: NI1 = 5.0 is outside [0, 1]"
            " in model 'second', counts [[7, 3, 1], [0, 9, 2]]\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (("eval", "binary_models", "--round", "q"), "--round: invalid int value: 'q'"),
        (("omega", "--n", "abc", "--d", "1"), "--n: invalid int value: 'abc'"),
        (("omega", "--n", "100", "--d", "x"), "--d: invalid int value: 'x'"),
        (("sweep", "--n", "100", "--d", "1", "--step", "zz"),
         "--step: invalid float value: 'zz'"),
    ], ids=["round", "n", "d", "step"])
    def test_conversion_errors_exit_1(self, capsys, argv, message):
        code, out, err = usage_error(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {message}\n")

    def test_usage_errors_exit_1(self, capsys):
        for argv in ([], ["eval"], ["eval", "x", "--format", "yaml"],
                     ["eval", "x", "--round", "13"], ["omega", "--n", "100"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1
            capsys.readouterr()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("eval", "binary_models", "--measures", "all"),
        ("rank", "three_class_models", "--measures", "information"),
        ("theorems", "binary_models", "--format", "json"),
        ("sweep", "--n", "100", "--d", "1", "--format", "csv"),
    ])
    def test_reruns_are_byte_identical(self, capsys, argv):
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_console_script_matches_in_process(self, capsys):
        argv = ["eval", "binary_models", "--measures", "all"]
        _, out, _ = run_cli(capsys, *argv)
        result = subprocess.run(
            [sys.executable, "-m", "infoeval.cli", *argv],
            capture_output=True, text=True, check=True,
        )
        assert result.stdout == out


class TestInputEncoding:
    @pytest.mark.parametrize("suffix, text", [
        (".csv", "90,3,2\n1,8,1\n"),
        (".json", '[{"name": "café", "matrix": [[90, 3, 2], [1, 8, 1]]}]'),
    ], ids=["csv", "json"])
    @pytest.mark.parametrize("command", ["eval", "rank", "theorems"])
    def test_utf8_with_and_without_byte_order_mark(self, capsys, tmp_path, suffix, text,
                                                    command):
        outputs = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            path = tmp_path / f"{name}{suffix}"
            path.write_bytes((prefix + text).encode("utf-8"))
            outputs.append(run_cli(capsys, command, str(path), str(path)))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


class TestMarkdownEscape:
    @pytest.mark.parametrize("command, row", [
        ("eval", "| a\\|b | 0.561 |"),
        ("rank", "| a\\|b | 0.561 | A |"),
        ("theorems", "| a\\|b | false |  | false |  |  |  |  |  |  |  |  |"),
    ], ids=["eval", "rank", "theorems"])
    def test_pipe_in_a_name_is_escaped(self, capsys, tmp_path, command, row):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps([
            {"name": "a|b", "matrix": [[90, 3, 2], [1, 8, 1]]},
            {"name": "c", "matrix": [[80, 3, 2], [1, 8, 1]]},
        ]))
        extra = [] if command == "theorems" else ["--measures", "NI2"]
        code, out, _ = run_cli(capsys, command, str(path), *extra)
        assert code == 0
        assert row in out.splitlines()
        # a reader splits cells at each "|" that is not escaped
        table = [line for line in out.splitlines() if line.startswith("|")]
        assert len({len(re.findall(r"(?<!\\)\|", line)) for line in table}) == 1

    def test_csv_and_json_keep_the_pipe(self, capsys, tmp_path):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps([{"name": "a|b", "matrix": [[90, 3, 2], [1, 8, 1]]}]))
        _, out, _ = run_cli(capsys, "eval", str(path), "--measures", "NI2", "--format", "csv")
        assert out == "model,NI2\na|b,0.561\n"
        _, out, _ = run_cli(capsys, "eval", str(path), "--measures", "NI2", "--format", "json")
        assert json.loads(out)[0]["name"] == "a|b"


class TestFixtureResolution:
    def test_stem_with_suffix(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "binary_models.json", "--measures", "NI1"
        )
        assert code == 0
        assert "| M1 |" in out

    def test_environment_override(self, capsys, tmp_path, monkeypatch):
        custom = tmp_path / "mine.json"
        custom.write_text(json.dumps([{"name": "Q", "matrix": [[3, 1], [1, 3]]}]))
        monkeypatch.setenv("INFOEVAL_FIXTURES", str(tmp_path))
        code, out, _ = run_cli(capsys, "eval", "mine", "--measures", "NI1")
        assert code == 0
        assert "| Q |" in out


class TestCrossoverAtFourD:
    def test_omega_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "omega", "--n", "8", "--d", "2",
                                 "--format", "json", "--precision", "raw")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["sign_changes"] == 1
        assert payload["omega"] == pytest.approx(0.75, abs=1e-9)

    def test_theorems_on_quad_exits_0(self, capsys, tmp_path):
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps([
            [[35, 25, 0], [0, 40, 0]],
            [[60, 0, 0], [25, 15, 0]],
            [[60, 0, 0], [0, 15, 25]],
            [[35, 0, 25], [0, 40, 0]],
        ]))
        code, out, err = run_cli(capsys, "theorems", str(quad), "--format", "json")
        assert code == 0, err
        records = json.loads(out)
        assert all(r["canonical"]["consistent"] for r in records)
        assert {r["canonical"]["kind"] for r in records} == {
            "small-class-error", "large-class-error",
            "small-class-reject", "large-class-reject",
        }


class TestCrossoverNearTheScanEnd:
    def test_theorems_on_quad_is_consistent(self, capsys, tmp_path):
        # p1 = 0.99999806 lies 2.2e-8 below omega = 0.99999808198
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps([
            CanonicalModel(kind, 10**11 - 194000, 194000, 1).matrix().counts
            for kind in CanonicalKind
        ]))
        code, out, err = run_cli(capsys, "theorems", str(quad), "--format", "json")
        assert code == 0, err
        records = json.loads(out)
        assert len(records) == 4
        assert all(r["canonical"]["consistent"] for r in records)
