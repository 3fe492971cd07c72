"""The process that runs a workload's closed loop (one caller, one call
at a time).  It is a fresh interpreter that imports neither numpy nor
scipy, so its peak RSS is infoeval's plus a small loop.

Modes::

    loop.py run SPEC.json             timed loop or traced passes
    loop.py table SRC                 time the indicative layer table

Results go to the JSON-lines file named in the spec: one record per
call, then a summary record.  Outputs are checked by run.py afterwards.
"""
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import speed
import tracer as tracing
import workloads


_RSS_MARK = "perfbench-vmhwm-kb "

# `python -m infoeval.cli ARGS` that also reports its own peak RSS on the
# last stderr line (the parent cannot: see _Runner.own_peak_rss_mb)
_CLI_CHILD = (
    "import atexit, runpy, sys\n"
    "def report():\n"
    "    for line in open('/proc/self/status'):\n"
    "        if line.startswith('VmHWM:'):\n"
    f"            sys.stderr.write('\\n{_RSS_MARK}' + line.split()[1] + '\\n')\n"
    "atexit.register(report)\n"
    "runpy.run_module('infoeval.cli', run_name='__main__', alter_sys=True)\n"
)


class _Runner:
    def __init__(self, spec):
        self.spec = spec
        self.root = spec["root"]
        self.tmp = spec["tmp"]
        self.results = open(spec["results"], "w")
        env = dict(os.environ)
        env.pop("INFOEVAL_FIXTURES", None)
        env["PYTHONPATH"] = spec["src"] + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.env = env
        self.child_rss_mb = 0.0

    def close(self):
        self.results.close()

    def record(self, **fields):
        self.results.write(json.dumps(fields) + "\n")

    def _sha(self, text):
        return hashlib.sha1(text.encode()).hexdigest()

    def in_process(self, cli, argv):
        """One cli.main call with stdout/stderr captured; (rc, out, err, exc, ns)."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        exc = None
        cpu = time.thread_time_ns()
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 1
        except Exception as error:  # an escaped exception is a failed call
            rc, exc = None, f"{type(error).__name__}: {error}"
        ns = time.perf_counter_ns() - start
        self.cpu_ns = time.thread_time_ns() - cpu
        sys.stdout, sys.stderr = saved
        return rc, out.getvalue(), err.getvalue(), exc, ns

    def spawn(self, argv, traced_agg=None):
        if traced_agg is None:
            command = [sys.executable, "-c", _CLI_CHILD, *argv]
        else:
            command = [sys.executable, self.spec["tracer"], self.spec["src"], traced_agg, *argv]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter_ns()
        done = subprocess.run(command, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=60)
        ns = time.perf_counter_ns() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_ns = int(1e9 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime))
        err = done.stderr
        if traced_agg is None:
            head, mark, rss_kb = err.rstrip("\n").rpartition(_RSS_MARK)
            if mark:
                err = head
                self.child_rss_mb = max(self.child_rss_mb, int(rss_kb) / 1024.0)
        return done.returncode, done.stdout, err, None, ns

    def call(self, cli, call, path, traced_agg=None):
        """One calibrated call; sets cpu_ns and cal_ns.

        A child interpreter is calibrated by one bare interpreter before
        it, an in-process call by a kernel run on each side.
        """
        argv = workloads.with_input(call.argv, path)
        if cli is None:
            self.cal_ns = speed.calibrate_spawn()
            return self.spawn(argv, traced_agg)
        before = speed.calibrate()
        result = self.in_process(cli, argv)
        self.cal_ns = (before + speed.calibrate()) // 2
        return result

    def write_input(self, call, path):
        if call.text is not None:
            with open(path, "w") as handle:
                handle.write(call.text)

    def timed(self, cli):
        spec = self.spec
        workload, seed = spec["workload"], spec["seed"]
        path = os.path.join(self.tmp, "input.json")
        budget_ns = int(spec["seconds"] * 1e9)
        cap = time.monotonic() + spec["cap_seconds"]
        timed_ns = ok = k = 0  # timed_ns: CPU time, which sets the run length
        block = workloads.BLOCK[workload]
        while (timed_ns < budget_ns or ok < spec["min_ok_calls"] or k % block) \
                and time.monotonic() < cap:
            call = workloads.make_call(workload, seed, k)
            self.write_input(call, path)
            rc, out, err, exc, ns = self.call(cli, call, path)
            timed_ns += self.cpu_ns
            ok += rc == 0 and exc is None
            self.record(k=k, rc=rc, ns=ns, cpu=self.cpu_ns, cal=self.cal_ns, exc=exc,
                        err=err[-400:], sha=self._sha(call.text or ""), out=out)
            k += 1
        own_rss = self.own_peak_rss_mb()
        return {"calls": k, "rss_mb": own_rss if cli else self.child_rss_mb}

    @staticmethod
    def own_peak_rss_mb():
        """VmHWM, this process's own peak RSS.

        ru_maxrss would not do: it keeps the spawning process's
        high-water mark across exec.
        """
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/self/status")

    def traced(self, cli):
        spec = self.spec
        calls = [workloads.make_call(spec["workload"], spec["seed"], k)
                 for k in range(spec["trace_calls"])]
        paths = []
        for k, call in enumerate(calls):
            paths.append(os.path.join(self.tmp, f"input_{k}.json"))
            self.write_input(call, paths[-1])
        agg_path = os.path.join(self.tmp, "agg.json")
        deadline = time.monotonic() + spec["seconds"]
        cap = time.monotonic() + spec["cap_seconds"]
        passes = []
        # whole untraced/traced pairs, at least one, until the deadline
        while len(passes) % 2 or not passes or (
                time.monotonic() < deadline and time.monotonic() < cap):
            traced = len(passes) % 2 == 1
            tracer = tracing.Tracer()
            summary = {}
            uninstall = tracing.install(tracer) if traced and cli else None
            try:
                for k, call in enumerate(calls):
                    agg = agg_path if traced and cli is None else None
                    rc, out, err, exc, ns = self.call(cli, call, paths[k], agg)
                    if traced:
                        if cli is None:
                            with open(agg_path) as handle:
                                part = json.load(handle)
                        else:
                            part = tracer.drain()
                        tracing.merge(summary, part)
                    self.record(k=k, rc=rc, ns=ns, cpu=self.cpu_ns, cal=self.cal_ns,
                                exc=exc, err=err[-400:], sha=self._sha(calls[k].text or ""),
                                out=out if not passes else None,
                                out_sha=self._sha(out), trace_pass=len(passes))
            finally:
                if uninstall:
                    uninstall()
            passes.append({"traced": traced, "summary": summary if traced else None})
        self.probe_defects()
        return {"calls": len(calls), "passes": passes}

    def probe_defects(self):
        """Each known-defect probe once, in-process and untraced."""
        from infoeval import cli

        path = os.path.join(self.tmp, "probe.json")
        for name, call in workloads.DEFECT_PROBES.items():
            self.write_input(call, path)
            rc, out, err, exc, ns = self.call(cli, call, path)
            self.record(probe=name, rc=rc, exc=exc, err=err[-400:], out=out)


def _median_us(fn, repeats):
    """Median CPU time of fn() at nominal speed (see speed.py), in us."""
    samples = []
    for _ in range(repeats):
        before = speed.calibrate()
        start = time.thread_time_ns()
        fn()
        cpu_ns = time.thread_time_ns() - start
        cal_ns = (before + speed.calibrate()) / 2
        samples.append(cpu_ns * speed.NOMINAL_NS / cal_ns / 1e3)
    samples.sort()
    return samples[len(samples) // 2]


def _table(src):
    """Untraced per-call times of the layers in the ROADMAP's indicative table."""
    sys.path.insert(0, src)
    from infoeval import analysis, measures
    from infoeval.confusion import AugmentedConfusionMatrix

    rng = random.Random("layer-table")
    table = {}
    for m in (2, 3, 5, 10, 20, 50):
        totals = workloads.class_totals(rng, m, 100 * m, 2.0)
        matrix = AugmentedConfusionMatrix(workloads.model_rows(rng, totals, False))
        table[f"measures.evaluate_all m={m}"] = _median_us(
            lambda: measures.evaluate_all(matrix), 41)
        if m == 2:
            table["measures.evaluate NI2 m=2"] = _median_us(
                lambda: measures.evaluate(measures.MeasureId.NI2, matrix), 41)
    table["analysis.crossover_omega n=100 d=1"] = _median_us(
        lambda: analysis.crossover_omega(100, 1), 21)
    table["analysis.rank_canonical 90 10 1"] = _median_us(
        lambda: analysis.rank_canonical(90, 10, 1), 21)
    print(json.dumps(table))


def _run(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    runner = _Runner(spec)
    try:
        cli = None
        if spec["workload"] != "cli_fixtures":
            from infoeval import cli
        summary = runner.traced(cli) if spec["trace"] else runner.timed(cli)
        runner.record(summary=summary)
    finally:
        runner.close()


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "run" and len(argv) == 2:
        _run(argv[1])
    elif mode == "table" and len(argv) == 2:
        _table(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv[1:])
