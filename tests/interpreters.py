"""Run tier-1 under other Python interpreters that have no test packages.

The pure-Python test packages of the interpreter running this script
(pytest, hypothesis and what they import) are found through
``importlib.util.find_spec`` and linked, with their ``dist-info``
directories, into a temporary directory.  Tier-1 then runs under each
interpreter given, with that directory and ``src`` on ``PYTHONPATH``::

    python tests/interpreters.py /path/to/python3.12 /path/to/python3.13

Nothing is installed.  For each interpreter the script prints the
passed, failed and collection-error counts, and the modules that did
not collect (those that import numpy or scipy, which are not linked).
It exits 1 if a test failed or an interpreter could not run tier-1.
Standard library only; pytest does not collect this file.
"""
import importlib.metadata
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# top-level modules of the shared test packages; pytest 9's
# _pytest/compat.py imports py, and hypothesis's pytest plugin is the
# _hypothesis_pytestplugin module
MODULES = (
    "pytest", "_pytest", "py", "pluggy", "iniconfig", "packaging", "pygments",
    "hypothesis", "_hypothesis_pytestplugin", "_hypothesis_ftz_detector",
    "_hypothesis_globals", "attr", "attrs", "sortedcontainers", "typing_extensions",
)
# their distributions; pytest finds the hypothesis plugin by its entry point
DISTRIBUTIONS = (
    "pytest", "pluggy", "iniconfig", "packaging", "pygments", "hypothesis",
    "attrs", "sortedcontainers", "typing_extensions",
)
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def link_test_packages(target: Path) -> None:
    """Symlink each module's package directory or file, and each dist-info."""
    for name in MODULES:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            raise SystemExit(f"{sys.executable} cannot find {name}")
        origin = Path(spec.origin)
        source = origin.parent if spec.submodule_search_locations else origin
        (target / source.name).symlink_to(source)
    for name in DISTRIBUTIONS:
        dist = importlib.metadata.distribution(name)
        (info,) = {f.parts[0] for f in dist.files if f.parts[0].endswith(".dist-info")}
        (target / info).symlink_to(Path(dist.locate_file(info)))


def counts(summary: str) -> dict:
    """passed, failed and error counts from pytest's last line."""
    found = dict.fromkeys(("passed", "failed", "errors"), 0)
    for number, word in re.findall(r"(\d+) (passed|failed|errors?)\b", summary):
        found["errors" if word.startswith("error") else word] = int(number)
    return found


def run_tier1(interpreter: str, packages: Path) -> tuple[dict, list] | None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(packages))))
    done = subprocess.run([interpreter, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"{interpreter}: tier-1 did not run (exit {done.returncode})")
        print(done.stderr or done.stdout, end="")
        return None
    uncollected = [line.split()[1] for line in lines if line.startswith("ERROR ")]
    return counts(lines[-1]), uncollected


def main(interpreters: list) -> int:
    if not interpreters:
        print(__doc__)
        return 1
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        link_test_packages(Path(tmp))
        for interpreter in interpreters:
            version = subprocess.run([interpreter, "-c", "import sys; print(sys.version.split()[0])"],
                                     capture_output=True, text=True).stdout.strip()
            result = run_tier1(interpreter, Path(tmp))
            if result is None:
                ok = False
                continue
            found, uncollected = result
            ok = ok and found["failed"] == 0
            print(f"{interpreter} ({version}): {found['passed']} passed, {found['failed']} failed, "
                  f"{found['errors']} collection errors: {' '.join(uncollected) or 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
