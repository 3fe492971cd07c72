"""Print the CPU nanoseconds of importing infoeval.cli.

Usage: ``python3 perfbench/probe.py SRC``.  Run in a fresh interpreter
that has loaded nothing infoeval imports, so the figure is the set-up
cost a user pays; run.py scales several probes to nominal speed and
takes their median as setup_s.
"""
import sys
import time


def main(src):
    sys.path.insert(0, src)
    start = time.thread_time_ns()
    import infoeval.cli  # noqa: F401  (the set-up being measured)
    print(time.thread_time_ns() - start)


if __name__ == "__main__":
    main(sys.argv[1])
