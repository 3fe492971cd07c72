"""Command-line behavior: formats, exit codes, determinism, round-trips."""
import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from goldens import run

import infoeval.cli as cli
import infoeval.measures as measures
from infoeval import (
    SINGULAR, CanonicalKind, CanonicalModel, InvariantViolation, MeasureId, evaluate, fixtures,
)
from infoeval.cli import main

RAW_ALL = ("--measures", "all", "--format", "json", "--precision", "raw")
GOLDEN_BINARY = Path(__file__).parent / "golden" / "eval_binary_models.json"


class TestEval:
    def test_markdown_golden(self):
        code, out, err = run("eval", "reject_tradeoff", "--measure", "NI2")
        assert code == 0
        assert err == ""
        assert out == (
            "| model | NI2 |\n"
            "| --- | --- |\n"
            "| C_D | 0.586 |\n"
            "| C_E | 0.393 |\n"
        )

    def test_singular_prints_as_s(self):
        code, out, _ = run("eval", "binary_models", "--measures", "NI20")
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

    def test_json_round_trips_at_emitted_precision(self, binary_models):
        code, out, _ = run("eval", "binary_models", "--measures", "all", "--format", "json",
                           "--round", "3")
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

    def test_csv_round_trips_at_emitted_precision(self, binary_models):
        code, out, _ = run("eval", "binary_models", "--measures", "mi", "--format", "csv",
                           "--round", "4")
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["model"] + [f"NI{k}" for k in range(1, 10)]
        for row in rows:
            matrix = binary_models[row[0]]
            for token, cell in zip(header[1:], row[1:]):
                value = evaluate(MeasureId.from_token(token), matrix).value
                assert float(cell) == round(value, 4)

    def test_raw_precision_round_trips_exactly(self, binary_models):
        code, out, _ = run("eval", "binary_models", "--measures", "NI2", "--precision", "raw",
                           "--format", "csv")
        assert code == 0
        _, *rows = list(csv.reader(io.StringIO(out)))
        for name, cell in rows:
            assert float(cell) == evaluate(MeasureId.NI2, binary_models[name]).value

    def test_binary_only_measures_blank_for_three_classes(self):
        code, out, _ = run("eval", "three_class_models", "--measures", "performance",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for entry in payload:
            assert entry["measures"]["Precision"] is None
            assert entry["measures"]["F1"] is None
            assert entry["measures"]["CR"] is not None

    def test_multiple_inputs_and_global_default_names(self, tmp_path):
        one = tmp_path / "one.json"
        one.write_text(json.dumps([[[8, 1], [1, 8]], [[9, 0], [0, 9]]]))
        two = tmp_path / "two.json"
        two.write_text(json.dumps({"name": "mine", "matrix": [[7, 2], [2, 7]]}))
        code, out, _ = run("eval", str(one), str(two), "--measures", "NI1")
        assert code == 0
        lines = out.splitlines()
        assert lines[2].startswith("| M1 |")
        assert lines[3].startswith("| M2 |")
        assert lines[4].startswith("| mine |")

    def test_csv_input(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("pred_1, pred_2, reject\n90, 0, 0\n1, 9, 0\n")
        code, out, _ = run("eval", str(path), "--measures", "NI2")
        assert code == 0
        assert "| M1 | 0.831 |" in out


class TestAllRejectMatrix:
    def _write(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(json.dumps([[[0, 0, 5], [0, 0, 5]], [[4, 0, 1], [1, 4, 0]]]))
        return str(path)

    def test_eval_performance(self, tmp_path):
        code, out, err = run("eval", self._write(tmp_path), "--measures", "perf",
                             "--format", "json")
        assert (code, err) == (0, "")
        rates = json.loads(out)[0]["measures"]
        assert rates["A"] == 0.0
        assert rates["E"] == 0.0
        assert rates["Rej"] == 1.0

    def test_rank_accuracy(self, tmp_path):
        code, out, err = run("rank", self._write(tmp_path), "--measures", "A", "--format", "json")
        assert (code, err) == (0, "")
        (ranking,) = json.loads(out)["rankings"]
        assert [(e["value"], e["letter"]) for e in ranking["models"]] == [
            (0.0, "B"), (0.889, "A"),
        ]


class TestRank:
    def test_measure_singular_for_every_model_is_ungraded(self):
        code, out, err = run("rank", "reject_tradeoff", "--measures", "information",
                             "--format", "json")
        assert (code, err) == (0, "")
        rankings = {r["measure"]: r["models"] for r in json.loads(out)["rankings"]}
        assert len(rankings) == 24
        for measure in ("NI17", "NI19", "NI20"):
            assert [(e["value"], e["letter"]) for e in rankings[measure]] == [
                ("S", None), ("S", None),
            ]
        assert [e["letter"] for e in rankings["NI2"]] == ["A", "B"]

    def test_markdown_sections(self):
        code, out, _ = run("rank", "binary_models", "--measures", "NI2,NI3")
        assert code == 0
        assert out.startswith("## NI2\n")
        assert "## NI3" in out
        assert "| M4 | 0.997 | A |" in out

    def test_default_measure_is_ni2(self):
        code, out, _ = run("rank", "binary_models")
        assert code == 0
        assert out.startswith("## NI2\n")
        assert "## NI1" not in out

    def test_singular_has_empty_letter(self):
        code, out, _ = run("rank", "binary_models", "--measures", "NI20")
        assert code == 0
        assert "| M6 | S |  |" in out

    def test_csv_long_format(self):
        code, out, _ = run("rank", "binary_models", "--measures", "NI2", "--format", "csv")
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["measure", "model", "value", "letter"]
        assert rows[0] == ["NI2", "M1", "0.831", "D"]

    def test_json_letters(self):
        code, out, _ = run("rank", "three_class_models", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rounding"] == 3
        (ranking,) = payload["rankings"]
        letters = [entry["letter"] for entry in ranking["models"]]
        assert letters == ["F", "E", "D", "F", "C", "B", "E", "C", "A"]


class TestTheorems:
    def test_json_records(self):
        code, out, _ = run("theorems", "binary_models", "--format", "json")
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

    def test_markdown_table(self):
        code, out, _ = run("theorems", "binary_models")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| model | mi_local_minimum |")
        assert "| M4 | false |  | false | large-class-reject |" in out


class TestOmegaAndSweep:
    def test_omega_json(self):
        code, out, _ = run("omega", "--n", "100", "--d", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 100, "d": 1, "omega": 0.942, "sign_changes": 1}

    def test_omega_markdown(self):
        code, out, _ = run("omega", "--n", "100", "--d", "2", "--round", "4")
        assert code == 0
        assert "| 100 | 2 | 0.9190 | 1 |" in out

    def test_sweep_grid(self):
        code, out, _ = run("sweep", "--n", "100", "--d", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        shares = [point["p1"] for point in payload["points"]]
        assert shares == [round(0.5 + k * 0.05, 3) for k in range(1, 10)]
        for point in payload["points"]:
            assert point["small_class_error"] < point["large_class_error"] < 0

    def test_sweep_step_too_large(self):
        code, out, err = run("sweep", "--n", "100", "--d", "1", "--step", "0.6")
        assert code == 1
        assert "no grid points" in err

    def test_sweep_stops_where_the_small_class_holds_d(self):
        code, out, _ = run("sweep", "--n", "100", "--d", "10", "--format", "json")
        assert code == 0
        shares = [point["p1"] for point in json.loads(out)["points"]]
        assert shares == [round(0.5 + k * 0.05, 3) for k in range(1, 9)]  # up to 0.9, c2 = d
        code, out, _ = run("sweep", "--n", "100", "--d", "1", "--step", "0.01", "--format", "json")
        assert code == 0
        shares = [point["p1"] for point in json.loads(out)["points"]]
        assert len(shares) == 49 and shares[-1] == 0.99

    def test_sweep_without_a_model_exits_1(self):
        # c2 = 10 < d at p1 = 0.9, the only grid point
        code, out, err = run("sweep", "--n", "100", "--d", "40", "--step", "0.2")
        assert (code, out) == (1, "")
        assert err == ("error: step 0.2 leaves no grid points inside (0.5, 1) "
                       "where the small class holds d = 40 samples\n")

    def test_omega_bad_domain(self):
        code, _, err = run("omega", "--n", "10", "--d", "5")
        assert code == 1
        assert "n > 2d" in err

    @pytest.mark.parametrize("n, d", [(2, 1), (1, 5), (2**255 - 1, 2**255 - 1)],
                             ids=["n=2d", "n<d", "n=d=2**255-1"])
    def test_sweep_needs_n_above_2d(self, n, d):
        # with n <= 2d every grid point moves more samples than c2 holds
        code, out, err = run("sweep", "--n", str(n), "--d", str(d))
        assert (code, out, err) == (1, "", f"error: need n > 2d > 0, got n={n}, d={d}\n")

    @pytest.mark.parametrize("command", ["omega", "sweep"])
    @pytest.mark.parametrize("n, d, message", [
        (10**400, 1, f"need n below 2**255, got n={10**400}"),
        (2**255, 1, f"need n below 2**255, got n={2**255}"),
        (2**255 - 1, 2**255, f"need n > 2d > 0, got n={2**255 - 1}, d={2**255}"),
    ], ids=["n=1e400", "n=2**255", "d=2**255"])
    def test_counts_must_be_below_2_to_the_255(self, command, n, d, message):
        # a larger int does not convert to a float inside the cost formulas
        code, out, err = run(command, "--n", str(n), "--d", str(d))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_largest_counts_still_compute(self):
        big = str(2**255 - 1)
        assert run("sweep", "--n", big, "--d", str(2**253), "--step", "0.2")[0] == 0
        assert run("omega", "--n", big, "--d", str(2**253))[0] == 0

    def test_tiny_step_fails_before_building_a_grid(self):
        start = time.perf_counter()
        code, out, err = run("sweep", "--n", "100", "--d", "1", "--step", "1e-9")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, "")
        assert err == ("error: step must be at least 5e-06 (at most 100000 grid points), "
                       "got 1e-09\n")


class TestErrorsAndExitCodes:
    def test_missing_input(self):
        code, out, err = run("eval", "nowhere.json")
        assert code == 1
        assert "no such file" in err
        assert out == ""

    def test_unknown_measure(self):
        code, _, err = run("eval", "binary_models", "--measures", "NI99")
        assert code == 1
        assert "unknown measure" in err

    def test_malformed_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[[1, 2,\n")
        code, _, err = run("eval", str(bad))
        assert code == 1
        assert "malformed JSON" in err

    @pytest.mark.parametrize("command", ["eval", "rank", "theorems"])
    @pytest.mark.parametrize("text, message", [
        ("[" * 50000 + "]" * 50000, "input is nested too deeply"),
        (f"[[{10**164}, 1, 0], [1, 1, 0]]", f"total count {10**164 + 3} is too large"),
        (f"[[{10**330}, 1, 0], [1, 1, 0]]", f"total count {10**330 + 3} is too large"),
    ], ids=["nested", "1e164", "1e330"])
    def test_input_beyond_float_range(self, tmp_path, command, text, message):
        path = tmp_path / "big.json"
        path.write_text(text)
        code, out, err = run(command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: {message}")

    def test_binary_only_measure_names_the_model(self):
        code, out, err = run("rank", "three_class_models", "--measures", "F1")
        assert (code, out) == (1, "")
        assert err == (
            "error: F1 needs a 2-class matrix, got 3 classes"
            " in model 'M7', counts [[80, 0, 0, 0], [0, 15, 0, 0], [1, 0, 4, 0]]\n"
        )

    def test_rank_needs_two_models(self, tmp_path):
        single = tmp_path / "single.json"
        single.write_text("[[9, 0], [0, 9]]")
        code, _, err = run("rank", str(single))
        assert code == 1
        assert "at least 2 models" in err

    def test_invariant_violation_exits_2(self, monkeypatch):
        def explode(*args, **kwargs):
            raise InvariantViolation("NI1 = 1.5 is outside [0, 1]")

        monkeypatch.setattr(cli, "evaluate_all", explode)
        code, _, err = run("eval", "binary_models")
        assert code == 2
        assert "invariant violation" in err

    def test_invariant_violation_names_the_model(self, monkeypatch, tmp_path):
        # the second model gets I = 5 bits over H(T) = 1 bit, so NI1 = 5
        calls = []

        def second_breaks(rows, n, row_totals, col_totals):
            calls.append(rows)
            h_joint, i, i_m = real(rows, n, row_totals, col_totals)
            return (h_joint, 5.0, i_m) if len(calls) == 2 else (h_joint, i, i_m)

        real = measures._information_terms
        monkeypatch.setattr(measures, "_information_terms", second_breaks)
        batch = tmp_path / "batch.json"
        batch.write_text('[{"name": "first", "matrix": [[9, 1], [2, 8]]},'
                         ' {"name": "second", "matrix": [[7, 3, 1], [0, 9, 2]]}]')
        code, out, err = run("eval", str(batch), "--measures", "NI1")
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
    def test_conversion_errors_exit_1(self, argv, message):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {message}\n")

    @pytest.mark.parametrize("digits, cell", [
        ("0", "| M1 | 1 |"), ("12", "| M1 | 0.830648012540 |"),
    ], ids=["0", "12"])
    def test_round_accepts_0_to_12(self, digits, cell):
        code, out, err = run("eval", "binary_models", "--measures", "NI2", "--round", digits)
        assert (code, err) == (0, "")
        assert cell in out.splitlines()

    def test_usage_errors_exit_1(self, capsys):
        for argv in ([], ["eval"], ["eval", "x", "--format", "yaml"],
                     ["eval", "x", "--round", "13"], ["eval", "x", "--round", "-1"],
                     ["omega", "--n", "100"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1
            capsys.readouterr()


class TestFailedWrite:
    """A result that cannot be written exits 1 with one error line."""

    @staticmethod
    def run_cli_process(stdout, buffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "infoeval.cli", "eval", "binary_models"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_pipe(self, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            result = self.run_cli_process(write_end, buffered)
        finally:
            os.close(write_end)
        # no traceback, and no "Exception ignored" from the flush at exit
        assert (result.returncode, result.stderr) == (1, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_full_device(self, buffered):
        with open("/dev/full", "w") as full:
            result = self.run_cli_process(full, buffered)
        assert (result.returncode, result.stderr) == (
            1, "error: [Errno 28] No space left on device\n")

    def test_closed_pipe_in_process(self, capsys, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["eval", "binary_models"]) == 1
            # stdout's descriptor now leads to devnull, so what is left flushes
            stream.write("more")
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_unencodable_name(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "named.json"
        path.write_text('{"name": "caf\\u00e9", "matrix": [[5, 1], [2, 7]]}')
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as reader, open(write_end, "w", encoding="ascii") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["eval", str(path)]) == 1
            stream.close()
            assert reader.read() == b""
        err = capsys.readouterr().err
        assert err.startswith("error: 'ascii' codec can't encode character '\\xe9'")
        assert err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("eval", "binary_models", "--measures", "all"),
        ("rank", "three_class_models", "--measures", "information"),
        ("theorems", "binary_models", "--format", "json"),
        ("sweep", "--n", "100", "--d", "1", "--format", "csv"),
    ])
    def test_reruns_are_byte_identical(self, argv):
        code_a, out_a, _ = run(*argv)
        code_b, out_b, _ = run(*argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_console_script_matches_in_process(self):
        argv = ["eval", "binary_models", "--measures", "all"]
        _, out, _ = run(*argv)
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
    def test_utf8_with_and_without_byte_order_mark(self, tmp_path, suffix, text, command):
        outputs = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            path = tmp_path / f"{name}{suffix}"
            path.write_bytes((prefix + text).encode("utf-8"))
            outputs.append(run(command, str(path), str(path)))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


class TestMarkdownEscape:
    @pytest.mark.parametrize("command, row", [
        ("eval", "| a\\|b | 0.561 |"),
        ("rank", "| a\\|b | 0.561 | A |"),
        ("theorems", "| a\\|b | false |  | false |  |  |  |  |  |  |  |  |"),
    ], ids=["eval", "rank", "theorems"])
    def test_pipe_in_a_name_is_escaped(self, tmp_path, command, row):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps([
            {"name": "a|b", "matrix": [[90, 3, 2], [1, 8, 1]]},
            {"name": "c", "matrix": [[80, 3, 2], [1, 8, 1]]},
        ]))
        extra = [] if command == "theorems" else ["--measures", "NI2"]
        code, out, _ = run(command, str(path), *extra)
        assert code == 0
        assert row in out.splitlines()
        # a reader splits cells at each "|" that is not escaped
        table = [line for line in out.splitlines() if line.startswith("|")]
        assert len({len(re.findall(r"(?<!\\)\|", line)) for line in table}) == 1

    @pytest.mark.parametrize("command", ["eval", "rank", "theorems"])
    def test_line_break_in_a_name_prints_as_br(self, tmp_path, command):
        names = ["a\nb", "c\rd", "e\r\nf", "g\vh\x85i\u2028", "j|k\n"]
        path = tmp_path / "breaks.json"
        path.write_text(json.dumps([
            {"name": name, "matrix": [[90 - k, 3, 2], [1, 8, 1]]} for k, name in enumerate(names)
        ]))
        extra = [] if command == "theorems" else ["--measures", "NI2"]
        code, out, _ = run(command, str(path), *extra)
        assert code == 0
        # "\n" ends each line, and no other line boundary is left
        lines = out.split("\n")[:-1]
        assert out.splitlines() == lines
        table = [line for line in lines if line.startswith("|")]
        assert [line.split(" | ")[0] for line in table[2:]] == [
            "| a<br>b", "| c<br>d", "| e<br>f", "| g<br>h<br>i<br>", "| j\\|k<br>",
        ]
        assert len({len(re.findall(r"(?<!\\)\|", line)) for line in table}) == 1

    def test_csv_and_json_keep_the_pipe(self, tmp_path):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps([{"name": "a|b", "matrix": [[90, 3, 2], [1, 8, 1]]}]))
        _, out, _ = run("eval", str(path), "--measures", "NI2", "--format", "csv")
        assert out == "model,NI2\na|b,0.561\n"
        _, out, _ = run("eval", str(path), "--measures", "NI2", "--format", "json")
        assert json.loads(out)[0]["name"] == "a|b"

    @pytest.mark.parametrize("command, column", [("eval", 0), ("rank", 1), ("theorems", 0)])
    def test_csv_quotes_a_cell_that_holds_a_separator(self, tmp_path, command, column):
        # csv.writer before Python 3.13 left a bare "\r" unquoted
        names = ["a,b", 'c"d', "e\rf", "g\nh", "i\r\nj", '"']
        path = tmp_path / "separators.json"
        path.write_text(json.dumps([
            {"name": name, "matrix": [[90 - k, 3, 2], [1, 8, 1]]} for k, name in enumerate(names)
        ]))
        extra = [] if command == "theorems" else ["--measures", "NI2"]
        code, out, _ = run(command, str(path), *extra, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert [row[column] for row in rows] == names
        assert {len(row) for row in rows} == {len(header)}
        if command == "eval":
            assert out.splitlines()[1:3] == ['"a,b",0.561', '"c""d",0.560']


class TestFixtureResolution:
    def test_stem_with_suffix(self):
        code, out, _ = run("eval", "binary_models.json", "--measures", "NI1")
        assert code == 0
        assert "| M1 |" in out

    def test_environment_override(self, tmp_path, monkeypatch):
        custom = tmp_path / "mine.json"
        custom.write_text(json.dumps([{"name": "Q", "matrix": [[3, 1], [1, 3]]}]))
        monkeypatch.setenv("INFOEVAL_FIXTURES", str(tmp_path))
        code, out, _ = run("eval", "mine", "--measures", "NI1")
        assert code == 0
        assert "| Q |" in out

    def test_stdin_pipe(self):
        text = fixtures.resolve("binary_models").read_text()
        result = subprocess.run(
            [sys.executable, "-m", "infoeval.cli", "eval", "/dev/stdin", *RAW_ALL],
            input=text, capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == GOLDEN_BINARY.read_text()

    def test_named_pipe(self, tmp_path):
        fifo = tmp_path / "models"
        os.mkfifo(fifo)
        text = fixtures.resolve("binary_models").read_text()

        def feed():
            with open(fifo, "w") as pipe:
                pipe.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        code, out, err = run("eval", str(fifo), *RAW_ALL)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (code, err) == (0, "")
        assert out == GOLDEN_BINARY.read_text()

    def test_directory_and_device_are_not_inputs(self, tmp_path):
        # a device is not read: /dev/zero or /dev/urandom would never end
        for name in (str(tmp_path), os.devnull):
            code, out, err = run("eval", name)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {name}: no such file or bundled fixture; available: ")


class TestCrossoverAtFourD:
    def test_omega_exits_0(self):
        code, out, err = run("omega", "--n", "8", "--d", "2",
                             "--format", "json", "--precision", "raw")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["sign_changes"] == 1
        assert payload["omega"] == pytest.approx(0.75, abs=1e-9)

    def test_theorems_on_quad_exits_0(self, tmp_path):
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps([
            [[35, 25, 0], [0, 40, 0]],
            [[60, 0, 0], [25, 15, 0]],
            [[60, 0, 0], [0, 15, 25]],
            [[35, 0, 25], [0, 40, 0]],
        ]))
        code, out, err = run("theorems", str(quad), "--format", "json")
        assert code == 0, err
        records = json.loads(out)
        assert all(r["canonical"]["consistent"] for r in records)
        assert {r["canonical"]["kind"] for r in records} == {
            "small-class-error", "large-class-error",
            "small-class-reject", "large-class-reject",
        }


class TestCrossoverNearTheScanEnd:
    def test_theorems_on_quad_is_consistent(self, tmp_path):
        # p1 = 0.99999806 lies 2.2e-8 below omega = 0.99999808198
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps([
            CanonicalModel(kind, 10**11 - 194000, 194000, 1).matrix().counts
            for kind in CanonicalKind
        ]))
        code, out, err = run("theorems", str(quad), "--format", "json")
        assert code == 0, err
        records = json.loads(out)
        assert len(records) == 4
        assert all(r["canonical"]["consistent"] for r in records)


def canonical_record(tmp_path, rows):
    """``theorems``' canonical block for one matrix; the call must exit 0."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(rows))
    code, out, err = run("theorems", str(path), "--format", "json", "--precision", "raw")
    assert (code, err) == (0, "")
    (record,) = json.loads(out)
    return record["canonical"]


class TestCrossoverPastTheScanEnd:
    """n/d above about 3.679e11 puts omega between the scan's end and 1."""

    @pytest.mark.parametrize("rows", [
        [[300000000000, 1, 0], [0, 100000000000, 0]],
        [[1152921504606846975, 1, 0], [0, 576460752303423488, 0]],
    ], ids=["4e11", "1.7e18"])
    def test_theorems_exits_0(self, tmp_path, rows):
        assert 0.5 < canonical_record(tmp_path, rows)["omega"] < 1.0

    def test_theorems_is_consistent(self, tmp_path):
        canonical = canonical_record(tmp_path, [[300000000000, 1, 0], [0, 100000000000, 0]])
        assert (canonical["omega"], canonical["consistent"]) == (0.9999990409914473, True)

    def test_omega_at_the_largest_n(self):
        code, out, err = run("omega", "--n", str(2**255 - 1), "--d", "1",
                             "--format", "json", "--precision", "raw")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        # the exact share rounds to 1: omega is the largest float below it
        assert (payload["omega"], payload["sign_changes"]) == (0.9999999999999999, 1)
