"""CPU-speed calibration, so timings hold still on a shared machine.

On a virtual machine that shares physical cores with other tenants, the
same pure-Python work takes up to ~2x longer CPU time while a
neighbour is busy, in spells of seconds or less.  The loop therefore
runs a fixed calibration kernel before and after every in-process
call, and a call's CPU time is scaled by NOMINAL_NS / (calibration time around the
call).  Normalized times read as "CPU time on a machine where the
kernel takes NOMINAL_NS", close to this machine's uncontended speed.

A new interpreter (a CLI child, a set-up probe) slows down unlike the
kernel: it is mostly loading and unmarshalling modules.  Its CPU time
is scaled by SPAWN_NOMINAL_NS over the CPU time of a bare interpreter
that imports two standard-library packages (calibrate_spawn).  On the
2-vCPU machine this was built on, windowed medians of a CLI call's CPU
time varied by 8 % (coefficient of variation) scaled by the kernel and
by 2.6 % scaled by the bare interpreter.
"""
import math
import sys
import time

NOMINAL_NS = 250_000
SPAWN_NOMINAL_NS = 20_000_000
_SPAWN = ("-I", "-S", "-c", "import argparse, json")
WINDOW = 1  # neighbouring calls on each side whose calibrations are pooled


def _kernel():
    # the mix infoeval's hot paths use: float maths, tuples, dicts, calls
    table = {}
    total = 0.0
    for i in range(1, 400):
        p = i / 400.0
        pair = (p, 1.0 - p)
        total += sum(x * math.log2(x) for x in pair if x > 0.0)
        table[i % 31] = table.get(i % 31, 0.0) + total
    return total


def calibrate() -> int:
    """CPU nanoseconds of one kernel run."""
    start = time.thread_time_ns()
    _kernel()
    return time.thread_time_ns() - start


def calibrate_spawn() -> int:
    """CPU nanoseconds (user + system) of one bare interpreter run."""
    # imported here: a set-up probe must not preload what infoeval imports
    import resource
    import subprocess

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, *_SPAWN], check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int(1e9 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime))


def smoothed(cals: list) -> list:
    """Median calibration over each call and WINDOW neighbours per side."""
    return [median(cals[max(0, i - WINDOW): i + WINDOW + 1]) for i in range(len(cals))]


def median(values):
    # not statistics.median: a set-up probe must not preload what infoeval imports
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def normalized(cpu_ns: list, cals: list, nominal: int = NOMINAL_NS) -> list:
    """Per-call CPU times scaled to the nominal speed."""
    return [ns * nominal / cal for ns, cal in zip(cpu_ns, smoothed(cals))]
