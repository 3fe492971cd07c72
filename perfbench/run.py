"""infoeval benchmark: four closed-loop CLI workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of eval_small, rank_wide, theorems_canonical,
cli_fixtures, or ``all``.  With ``--trace 0`` a run times the closed
loop and prints the end-to-end metrics; with ``--trace 1`` it runs
untraced and traced passes over a fixed prefix of the input stream and
prints the per-layer metrics.  ``--workload all`` runs every workload
untraced and, with ``--trace 1``, traced as well, then times the
indicative layer table.  Every output is checked against the numpy/scipy
reference in reference.py after the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LOOP = HERE / "loop.py"
PROBE = HERE / "probe.py"
TRACER = HERE / "tracer.py"

# A p95 needs at least 10 samples beyond it.
MIN_OK_CALLS = 200
SETUP_PROBES = 9
LOOP_CAP_SECONDS = 110
TRACE_CALLS = {"eval_small": 40, "rank_wide": 20, "theorems_canonical": 40, "cli_fixtures": 13}

END_TO_END = (
    ("models_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, source function, kind); kind picks the per-model value
PER_LAYER = (
    ("cli.main.self_us", "cli.main", "self_us"),
    ("confusion.parse_matrices.self_us", "confusion.parse_matrices", "self_us"),
    ("confusion.distributions.calls", "confusion.distributions", "calls"),
    ("measures.evaluate_all.self_us", "measures.evaluate_all", "self_us"),
    ("measures.evaluate.self_us", "measures.evaluate", "self_us"),
    ("measures.performance_summary.self_us", "measures.performance_summary", "self_us"),
    ("infocore.shannon_entropy.calls", "infocore.shannon_entropy", "calls"),
    ("infocore.mutual_information.calls", "infocore.mutual_information", "calls"),
    ("infocore.modified_mutual_information.calls", "infocore.modified_mutual_information", "calls"),
    ("infocore.joint_entropy.calls", "infocore.joint_entropy", "calls"),
    ("infocore.cross_entropy.calls", "infocore.cross_entropy", "calls"),
    ("infocore.divergence.calls", "infocore.divergence", "calls"),
    ("infocore.self_us", "infocore.", "self_us"),
    ("ranking.rank.calls", "ranking.rank", "calls"),
    ("ranking.rank.self_us", "ranking.rank", "self_us"),
    ("analysis.crossover_analysis.calls", "analysis.crossover_analysis", "calls"),
    ("analysis.crossover_gap.calls", "analysis.crossover_gap", "per_solve"),
    ("analysis.crossover_analysis.self_us", "analysis.crossover_analysis", "self_us"),
    ("analysis.rank_canonical.self_us", "analysis.rank_canonical", "self_us"),
    ("analysis.classify_canonical.self_us", "analysis.classify_canonical", "self_us"),
    ("analysis.detect_mi_local_minimum.self_us", "analysis.detect_mi_local_minimum", "self_us"),
    ("analysis.detect_divergence_maximum.self_us", "analysis.detect_divergence_maximum", "self_us"),
    ("cli.main.errors", "cli.main", "errors"),
    ("confusion.parse_matrices.errors", "confusion.parse_matrices", "errors"),
    ("measures.evaluate_all.errors", "measures.evaluate_all", "errors"),
    ("measures.performance_summary.errors", "measures.performance_summary", "errors"),
    ("ranking.rank.errors", "ranking.rank", "errors"),
    ("analysis.crossover_analysis.errors", "analysis.crossover_analysis", "errors"),
    ("analysis.rank_canonical.errors", "analysis.rank_canonical", "errors"),
    ("failed_share", None, "failed_share"),
    ("known_defect_probes.failed", None, "probes_failed"),
    ("trace_overhead_share", None, "overhead"),
)
_UNITS = {"self_us": "us", "calls": "count", "per_solve": "count", "errors": "count",
          "failed_share": "share", "probes_failed": "count", "overhead": "share"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, loop crashed)."""


def _python(args, timeout):
    # a fixed string-hash seed keeps dict layouts, and so timings, alike across runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args))} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def setup_times() -> list[float]:
    """Import seconds of infoeval.cli in fresh interpreters, at nominal speed.

    Each probe is scaled by the bare-interpreter calibrations on either
    side of it (see speed.py).  A first probe warms up.
    """
    _python([PROBE, SRC], 60)  # compiles bytecode, warms the file cache
    cals = [speed.calibrate_spawn()]
    times = []
    for _ in range(SETUP_PROBES):
        cpu_ns = int(_python([PROBE, SRC], 60))
        cals.append(speed.calibrate_spawn())
        times.append(cpu_ns * speed.SPAWN_NOMINAL_NS / ((cals[-2] + cals[-1]) / 2) / 1e9)
    return times


def run_loop(workload, seed, seconds, trace, tmp) -> tuple[list[dict], dict]:
    results = tmp / "results.jsonl"
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "root": str(ROOT), "src": str(SRC), "tracer": str(TRACER), "tmp": str(tmp),
        "results": str(results), "min_ok_calls": MIN_OK_CALLS,
        "cap_seconds": LOOP_CAP_SECONDS, "trace_calls": TRACE_CALLS[workload],
    }
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec))
    _python([LOOP, "run", spec_path], LOOP_CAP_SECONDS + 60)
    records, summary = [], None
    with open(results) as handle:
        for line in handle:
            record = json.loads(line)
            if "summary" in record:
                summary = record["summary"]
            else:
                records.append(record)
    if summary is None:
        raise BenchError("loop wrote no summary")
    return records, summary


def _fixture_models(name) -> list[dict]:
    data = json.loads((SRC / "infoeval" / "fixtures" / f"{name}.json").read_text())
    return [entry if isinstance(entry, dict) else {"matrix": entry} for entry in data]


def call_models(call) -> list[dict]:
    if call.text is not None:
        return list(call.models)
    if call.meta["command"] in ("eval", "rank", "theorems"):
        return _fixture_models(call.argv[1])
    return []


def check_output(call, out, expected) -> str | None:
    import reference

    command = call.argv[0]
    models = call_models(call)
    try:
        if command == "eval":
            return reference.check_eval(models, out, expected)
        if command == "rank":
            return reference.check_rank(models, out, expected)
        if command == "theorems":
            return reference.check_theorems(models, out)
        options = dict(zip(call.argv[1::2], call.argv[2::2]))
        n, d = int(options["--n"]), int(options["--d"])
        if command == "omega":
            return reference.check_omega(out, n, d)
        return reference.check_sweep(out, n, d, float(options["--step"]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def judge(workload, seed, records) -> dict:
    """Classify every call; reference-check each distinct output once."""
    import numpy as np
    import reference

    verdicts: dict[str, str | None] = {}
    outcome = {"ok": [], "failures": {}, "wrong": 0, "inputs_match": True}
    calls, expected = {}, {}
    for record in records:
        k = record["k"]
        if k not in calls:
            calls[k] = workloads.make_call(workload, seed, k)
            if calls[k].argv[0] in ("eval", "rank"):
                expected[k] = reference.group_measures(call_models(calls[k]))
        call = calls[k]
        if record["sha"] != _sha(call.text or ""):
            outcome["inputs_match"] = False
        if record["exc"] is not None:
            reason = f"escaped {_shape(record['exc'])}"
        elif record["rc"] != 0:
            lines = record["err"].strip().splitlines() or [""]
            reason = f"exit {record['rc']}: {_shape(lines[-1])}"
        else:
            key = record.get("out_sha") or _sha(record["out"])
            if key not in verdicts:
                verdicts[key] = ("differs from the untraced pass" if record.get("out") is None
                                 else check_output(call, record["out"], expected.get(k)))
            reason = verdicts[key] and f"wrong output: {verdicts[key]}"
            if reason:
                outcome["wrong"] += 1
        if reason:
            outcome["failures"][reason] = outcome["failures"].get(reason, 0) + 1
        else:
            outcome["ok"].append(record)
    outcome["calls"] = calls
    ni = [values[:, :24] for values, _ in expected.values()]
    outcome["singular_ni_share"] = (
        round(sum(int(np.isnan(v).sum()) for v in ni) / sum(v.size for v in ni), 4) if ni else 0.0
    )
    return outcome


def _shape(message):
    """A failure message with its numbers blanked, for counting by kind."""
    return re.sub(r"\d[\d.e+-]*", "#", message)[:120]


def _sha(text):
    import hashlib

    return hashlib.sha1(text.encode()).hexdigest()


def _nominal(workload):
    return speed.SPAWN_NOMINAL_NS if workload == "cli_fixtures" else speed.NOMINAL_NS


def _normalize(records, workload):
    """Add each call's CPU time at nominal speed (see speed.py) as "norm"."""
    times = speed.normalized([r["cpu"] for r in records], [r["cal"] for r in records],
                             _nominal(workload))
    for record, norm in zip(records, times):
        record["norm"] = norm


def _percentile(values, q):
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def second_seed(workload, seed) -> dict:
    """Properties of the next seed's inputs, and whether they differ.

    Same-seed determinism is checked on every call instead: judge()
    regenerates each input and compares it with what the loop ran.
    """
    calls = [workloads.make_call(workload, seed + 1, k) for k in range(20)]
    mine = [workloads.make_call(workload, seed, k).text for k in range(20)]
    differs = workload == "cli_fixtures" or mine != [call.text for call in calls]
    return dict(workloads.properties(calls), differs=differs)


def end_to_end(workload, seed, seconds, tmp) -> dict:
    setup = setup_times()
    records, summary = run_loop(workload, seed, seconds, False, tmp)
    outcome = judge(workload, seed, records)
    ok = outcome["ok"]
    if not ok:
        raise BenchError(f"no call succeeded: {outcome['failures']}")
    _normalize(records, workload)
    models_ok = sum(len(call_models(outcome["calls"][r["k"]])) for r in ok)
    ms = [r["norm"] / 1e6 for r in ok]
    values = {
        "models_per_s": models_ok / (sum(r["norm"] for r in records) / 1e9),
        "call_p50_ms": _percentile(ms, 0.50),
        "call_p95_ms": _percentile(ms, 0.95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": summary["rss_mb"],
    }
    other = second_seed(workload, seed)
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "correct": outcome["wrong"] == 0 and outcome["inputs_match"] and other["differs"],
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "failures": outcome["failures"],
        "inputs_match": outcome["inputs_match"],
        "ok_calls": len(ok),
        "raw_ms": {
            f"{clock}_{q}": _percentile([r[key] / 1e6 for r in ok], level)
            for clock, key in (("wall", "ns"), ("cpu", "cpu"))
            for q, level in (("p50", 0.5), ("p95", 0.95))
        },
        "inputs": dict(workloads.properties(list(outcome["calls"].values())),
                       singular_ni_share=outcome["singular_ni_share"]),
        "second_seed": other,
    }


def field(name_map, source, index):
    """One column of a tracer summary; a name ending in "." sums a module."""
    if source.endswith("."):
        return sum(row[index] for key, row in name_map.items() if key.startswith(source))
    return name_map.get(source, [0, 0, 0, 0])[index]


def _self_us(names, factors, source, units):
    """Median over traced passes of self time per unit, at nominal speed."""
    return statistics.median(
        field(n, source, 2) * f for n, f in zip(names, factors)) / units / 1e3


def probe_defects(records) -> dict:
    """Why each known-defect probe failed, or None where it passed."""
    import reference

    verdicts = {}
    for record in records:
        call = workloads.DEFECT_PROBES[record["probe"]]
        if record["exc"] is not None:
            verdicts[record["probe"]] = f"escaped {record['exc'][:120]}"
        elif record["rc"] != 0:
            lines = record["err"].strip().splitlines() or [""]
            verdicts[record["probe"]] = f"exit {record['rc']}: {lines[-1][:120]}"
        else:
            expected = (reference.group_measures(call_models(call))
                        if call.argv[0] in ("eval", "rank") else None)
            wrong = check_output(call, record["out"], expected)
            verdicts[record["probe"]] = wrong and f"wrong output: {wrong}"
    if set(verdicts) != set(workloads.DEFECT_PROBES):
        raise BenchError(f"defect probes missing: {set(workloads.DEFECT_PROBES) - set(verdicts)}")
    return verdicts


def per_layer(workload, seed, seconds, tmp) -> dict:
    records, summary = run_loop(workload, seed, seconds, True, tmp)
    probes = probe_defects([r for r in records if "probe" in r])
    records = [r for r in records if "probe" not in r]
    outcome = judge(workload, seed, records)
    _normalize(records, workload)
    for index, one in enumerate(summary["passes"]):
        mine = [r for r in records if r["trace_pass"] == index]
        one["norm"] = sum(r["norm"] for r in mine)
        one["factor"] = _nominal(workload) / statistics.median(r["cal"] for r in mine)
    calls = [outcome["calls"][k] for k in range(summary["calls"])]
    units = sum(len(call_models(call)) for call in calls) if workload != "cli_fixtures" else len(calls)
    passes = summary["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    names = [p["summary"]["names"] for p in traced]
    factors = [p["factor"] for p in traced]
    counts_repeat = all(
        {k: v[0] for k, v in n.items()} == {k: v[0] for k, v in names[0].items()} for n in names
    )
    failed_share = (len(records) - len(outcome["ok"])) / len(records)

    values = {}
    for metric, source, kind in PER_LAYER:
        if kind == "self_us":
            values[metric] = _self_us(names, factors, source, units)
        elif kind == "calls":
            values[metric] = field(names[0], source, 0) / units
        elif kind == "errors":
            values[metric] = field(names[0], source, 3) / units
        elif kind == "per_solve":
            solves = field(names[0], "analysis.crossover_analysis", 0)
            values[metric] = field(names[0], source, 0) / solves if solves else 0.0
        elif kind == "failed_share":
            values[metric] = failed_share
        elif kind == "probes_failed":
            values[metric] = sum(reason is not None for reason in probes.values())
        else:
            values[metric] = (statistics.median(p["norm"] for p in traced)
                              / statistics.median(p["norm"] for p in untraced) - 1.0)
    table = {}
    for name in sorted(set().union(*names)):
        table[name] = [field(names[0], name, 0) / units,
                       _self_us(names, factors, name, units),
                       field(names[0], name, 3)]
    buckets = {}
    for bucket in traced[0]["summary"]["buckets"]:
        rows = [p["summary"]["buckets"][bucket] for p in traced]
        buckets[bucket] = statistics.median(r[1] / r[0] * f for r, f in zip(rows, factors)) / 1e3
    return {
        "metrics": {metric: {"value": values[metric], "unit": _UNITS[kind]}
                    for metric, _, kind in PER_LAYER},
        "correct": outcome["wrong"] == 0 and outcome["inputs_match"] and counts_repeat,
        "attempted": len(records),
        "failed": len(records) - len(outcome["ok"]),
        "failures": outcome["failures"],
        "passes": f"{len(traced)} traced + {len(untraced)} untraced over {len(calls)} calls",
        "per_unit": "call" if workload == "cli_fixtures" else "model",
        "table": table,
        "buckets": buckets,
        "counts_repeat": counts_repeat,
        "probes": probes,
    }


def layer_table() -> dict:
    out = _python([LOOP, "table", SRC], 120)
    return json.loads(out)


def _print_result(workload, seed, result, trace):
    print(f"== {workload}  seed {seed}  closed loop, 1 caller  "
          f"({'traced passes' if trace else 'timed loop'})")
    print(f"calls attempted {result['attempted']}, failed {result['failed']}, "
          f"outputs correct: {result['correct']}")
    for reason, count in sorted(result["failures"].items()):
        print(f"  failure x{count}: {reason}")
    if "inputs" in result:
        print(f"successful calls {result['ok_calls']}; unnormalized ms: "
              + ", ".join(f"{k} {v:.3f}" for k, v in result["raw_ms"].items()))
        print(f"inputs: {json.dumps(result['inputs'])}")
        print(f"inputs regenerated byte-identical: {result['inputs_match']}; "
              f"seed + 1: {json.dumps(result['second_seed'])}")
    if trace:
        print(f"{result['passes']}; per-layer values per {result['per_unit']}; "
              f"call counts repeat: {result['counts_repeat']}")
        print(f"  {'function':48} {'calls':>10} {'self_us':>10} {'errors':>7}")
        for name, (calls, self_us, errors) in result["table"].items():
            print(f"  {name:48} {calls:10.3f} {self_us:10.2f} {errors:7d}")
        for bucket, us in sorted(result["buckets"].items()):
            print(f"  {bucket:48} {us:10.1f} us per call (inclusive)")
        print("known-defect probes (not workload calls; each run once, untraced):")
        for name, reason in result["probes"].items():
            print(f"  {name:28} {reason or 'passes'}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44} {metric['value']:14.6g} {metric['unit']}")


def run_one(workload, seed, seconds, trace, tmp) -> dict:
    if trace:
        return per_layer(workload, seed, seconds, tmp)
    return end_to_end(workload, seed, seconds, tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one CPU for the loop, its children and the calibration that scales them
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "infoeval" / "cli.py").is_file():
        print(f"perfbench: no infoeval sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace, tmp)
            _print_result(args.workload, args.seed, result, args.trace)
            final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        else:
            final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in workloads.WORKLOADS:
                for trace in (0, 1)[: args.trace + 1]:
                    result = run_one(workload, args.seed, args.seconds, trace, tmp)
                    _print_result(workload, args.seed, result, trace)
                    final["correct"] &= result["correct"]
                    final["attempted"] += result["attempted"]
                    final["failed"] += result["failed"]
                    for name, metric in result["metrics"].items():
                        final["metrics"][f"{workload}.{name}"] = metric
            table = layer_table()
            print("== indicative layer table (untraced, median CPU time per call at nominal speed)")
            for name, us in table.items():
                print(f"  {name:44} {us:12.1f} us")
        print(json.dumps(final))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
