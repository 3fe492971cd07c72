"""Tests of the benchmark's own parts: tracer arithmetic, the reference
checker, the input generator and the speed calibration.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``;
the repository's own test run does not collect them.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class _Clock:
    """A clock that advances by a scripted step on every reading."""

    def __init__(self, steps):
        self.now, self.steps = 0, iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_summarize_subtracts_child_spans_from_self_time():
    spans = [
        ["outer", -1, 0, 100, False, None],
        ["inner", 0, 10, 40, False, None],
        ["inner", 0, 50, 70, True, None],
        ["leaf", 2, 55, 60, False, None],
    ]
    names = tracing.summarize(spans)["names"]
    assert names["outer"] == [1, 100, 50, 0]
    assert names["inner"] == [2, 50, 45, 1]
    assert names["leaf"] == [1, 5, 5, 0]


def test_wrapped_calls_record_nested_spans_and_escaped_errors():
    tracer = tracing.Tracer(clock=_Clock([1, 2, 3, 4, 5, 6]))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner = tracer.wrap("m.inner", inner)

    def outer(x):
        try:
            inner(-x)
        except ValueError:
            pass
        return inner(x)

    outer = tracer.wrap("m.outer", outer)
    assert outer(3) == 3
    summary = tracer.drain()["names"]
    # clock reads 1 (outer), 3 / 6 (inner 1), 10 / 15 (inner 2), 21 (outer)
    assert summary["m.outer"] == [1, 20, 20 - 3 - 5, 0]
    assert summary["m.inner"] == [2, 8, 8, 1]
    assert tracer.spans == []


def test_install_wraps_lookups_and_uninstall_restores_them():
    from infoeval import analysis, cli, measures

    before = (cli.main, cli.evaluate_all, measures.cross_entropy, analysis.evaluate)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert cli.evaluate_all is not before[1]
        assert analysis.evaluate is not before[3]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["omega", "--n", "100", "--d", "1"]) == 0
    finally:
        undo()
    assert (cli.main, cli.evaluate_all, measures.cross_entropy, analysis.evaluate) == before
    names = tracer.drain()["names"]
    assert names["cli.main"][0] == 1
    assert names["analysis.crossover_analysis"][0] == 1
    assert names["analysis.crossover_gap"][0] > 1000


def _program_output(call, tmp_path):
    from infoeval import cli

    path = tmp_path / "input.json"
    path.write_text(call.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.with_input(call.argv, str(path))) == 0
    return out.getvalue()


def test_checker_accepts_program_eval_output_and_rejects_a_corrupted_value(tmp_path):
    call = workloads.make_call("eval_small", 3, 0)
    models = list(call.models)
    expected = reference.group_measures(models)
    text = _program_output(call, tmp_path)
    assert reference.check_eval(models, text, expected) is None
    payload = json.loads(text)
    payload[1]["measures"]["NI12"] = (
        0.5 if payload[1]["measures"]["NI12"] == "S" else payload[1]["measures"]["NI12"] + 1e-7
    )
    assert "NI12" in reference.check_eval(models, json.dumps(payload), expected)


def test_checker_rejects_a_wrong_rank_letter(tmp_path):
    k = next(k for k in range(50)
             if workloads.make_call("rank_wide", 5, k).meta["m"] == 5)
    call = workloads.make_call("rank_wide", 5, k)
    models = list(call.models)
    text = _program_output(call, tmp_path)
    expected = reference.group_measures(models)
    assert reference.check_rank(models, text, expected) is None
    payload = json.loads(text)
    entry = payload["rankings"][1]["models"][0]
    entry["letter"] = "Z"
    assert "letter" in reference.check_rank(models, json.dumps(payload), expected)


def test_checker_rejects_wrong_delta_and_omega(tmp_path):
    call = workloads.make_call("theorems_canonical", 2, 0)
    models = list(call.models)
    text = _program_output(call, tmp_path)
    assert reference.check_theorems(models, text) is None
    for key, bump in (("delta_I", 1e-6), ("omega", 1e-4)):
        payload = json.loads(text)
        payload[2]["canonical"][key] += bump
        assert reference.check_theorems(models, json.dumps(payload)) is not None


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for workload in workloads.BATCH_WORKLOADS:
        first = [workloads.make_call(workload, 7, k).text for k in range(12)]
        again = [workloads.make_call(workload, 7, k).text for k in range(12)]
        other = [workloads.make_call(workload, 8, k).text for k in range(12)]
        assert first == again
        assert first != other


def test_generator_keeps_m_strata_and_shared_row_totals():
    calls = [workloads.make_call("rank_wide", 4, k) for k in range(20)]
    mix = workloads.properties(calls)["m_mix"]
    assert mix == {"5": 0.25, "10": 0.4, "20": 0.25, "50": 0.1}
    for call in calls:
        totals = {tuple(sum(row) for row in model["matrix"]) for model in call.models}
        assert len(totals) == 1


def test_workload_streams_skip_known_defect_inputs():
    quads = [workloads.make_call("theorems_canonical", 1, k) for k in range(2000)]
    assert workloads.properties(quads)["n_eq_4d_quads"] == 0
    for k in range(200):
        models = workloads.make_call("rank_wide", 1, k).models
        assert any(all(row[-1] == 0 for row in model["matrix"]) for model in models)
    assert ("rank", "reject_tradeoff", "--measures", "information") not in workloads.FIXTURE_COMMANDS


def test_defect_probes_reproduce_each_known_defect():
    probes = workloads.DEFECT_PROBES
    group = probes["rank_all_reject_group"].models
    assert all(any(row[-1] > 0 for row in model["matrix"]) for model in group)
    meta = probes["theorems_n_eq_4d"].meta
    assert meta["c1"] + meta["c2"] == 4 * meta["d"]
    assert probes["omega_n8_d2"].argv[:5] == ("omega", "--n", "8", "--d", "2")


def test_normalized_scales_each_call_by_its_neighbourhood_calibration():
    cals = [speed.NOMINAL_NS] * 5 + [2 * speed.NOMINAL_NS] * 20
    times = speed.normalized([1000] * 25, cals)
    assert times[0] == 1000
    assert times[-1] == 500
    # a single slow calibration among fast neighbours does not move a call
    spike = [speed.NOMINAL_NS] * 9
    spike[4] = 3 * speed.NOMINAL_NS
    assert speed.normalized([1000] * 9, spike)[4] == 1000
