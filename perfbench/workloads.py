"""Seeded input generator for the four benchmark workloads.

Pure standard library, so the process that runs the timed loop can
import it without numpy.  ``make_call(workload, seed, k)`` returns the
k-th call of a workload's stream; the same (workload, seed, k) always
yields byte-identical input text, and calls are generated on demand so
a run never repeats an input (a cache inside the program only helps
where real inputs share work).

Why each workload exists:

* ``eval_small``: ``eval --measures all`` over 20-model groups with
  m in {2, 3}, the class counts of every table in the paper.  Kernels
  are cheap at this size, so per-call overhead (argument parsing, JSON
  decode and validation, measure dispatch, rendering) dominates.
* ``rank_wide``: ``rank --measures information`` over 8-model groups
  that share one test set, m in {5, 10, 20, 50}.  The O(m^2) kernels
  and the per-(model, measure) context rebuilds dominate.  Every group
  holds at least one reject-free model, so no group hits known
  defect (c) below.
* ``theorems_canonical``: ``theorems`` on one canonical quad per call,
  the four single departures of one (c1, c2, d).  The cross-over solve
  dominates.  The draw skips n = 4d, which hits the omega defect below.
* ``cli_fixtures``: subprocess runs of ``python -m infoeval.cli`` on
  the bundled fixtures plus ``omega`` and ``sweep``; the only workload
  that pays interpreter start-up and the package import on every call.
  ``rank reject_tradeoff`` is left out: it hits defect (c).

No workload call fails, so a run's failure count is 0 whatever its
length and seed.  The known defects are not hidden: ``DEFECT_PROBES``
holds one fixed call per defect, the traced run makes each of them
once and reports how many still fail (``known_defect_probes.failed``):

* (c) ``rank`` exits 1, "all values are Singular; nothing to rank",
  when every model of a group rejects (NI17 is Singular for all);
* at n = 4d the cost gap is 0 exactly on the scan grid point 0.75,
  ``crossover_analysis`` reports two crossings and ``omega`` and
  ``theorems`` exit 1 (``infoeval omega --n 8 --d 2``).
"""
from __future__ import annotations

import json
import math
import random
from typing import NamedTuple

WORKLOADS = ("eval_small", "rank_wide", "theorems_canonical", "cli_fixtures")
BATCH_WORKLOADS = WORKLOADS[:3]

OUTPUT_OPTIONS = ("--format", "json", "--precision", "raw")

EVAL_GROUP = 20
RANK_GROUP = 8
REJECT_FREE_SHARE = 1.0 / 3.0

# m strata per block of calls: every block holds these m values in a
# seeded order, so the m mix of a run does not drift with the seed.
_EVAL_M_BLOCK = (2,) * 5 + (3,) * 5
_RANK_M_BLOCK = (5,) * 5 + (10,) * 8 + (20,) * 5 + (50,) * 2

CANONICAL_KINDS = (
    "small-class-error",
    "large-class-error",
    "small-class-reject",
    "large-class-reject",
)

FIXTURES = (
    "binary_models",
    "class_share_study",
    "reject_tradeoff",
    "three_class_models",
)

FIXTURE_COMMANDS = tuple(
    argv
    for name in FIXTURES
    for argv in (
        ("eval", name),
        ("rank", name, "--measures", "information"),
        ("theorems", name),
    )
    if argv[:2] != ("rank", "reject_tradeoff")  # known defect (c)
) + (
    ("omega", "--n", "100", "--d", "1"),
    ("sweep", "--n", "100", "--d", "1", "--step", "0.01"),
)

# Calls per stratum block; a timed run ends on a block boundary so
# every run holds whole blocks of the mix.
BLOCK = {
    "eval_small": len(_EVAL_M_BLOCK),
    "rank_wide": len(_RANK_M_BLOCK),
    "theorems_canonical": 1,
    "cli_fixtures": len(FIXTURE_COMMANDS),
}


class Call(NamedTuple):
    """One CLI invocation of a workload.

    ``argv`` holds the literal ``INPUT`` where the input file path
    goes; ``text`` is the input file content (None for fixture calls);
    ``models`` the generated matrices, ``meta`` what the checker needs.
    """

    argv: tuple[str, ...]
    text: str | None
    models: tuple[dict, ...]
    meta: dict


def _rng(*parts) -> random.Random:
    # str seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def _stratum(block: tuple[int, ...], workload: str, seed: int, k: int) -> int:
    order = list(block)
    _rng(workload, seed, "block", k // len(block)).shuffle(order)
    return order[k % len(block)]


def class_totals(rng: random.Random, m: int, n: int, skew_hi: float) -> list[int]:
    """Zipf-like skewed class totals, largest class first, each >= 2."""
    s = rng.uniform(0.5, skew_hi)
    weights = [(i + 1) ** -s for i in range(m)]
    total = sum(weights)
    return [max(2, round(n * w / total)) for w in weights]


def _split(rng: random.Random, amount: int, slots: int) -> list[int]:
    """Split ``amount`` over ``slots`` with sparse random weights."""
    weights = [rng.random() ** 3 for _ in range(slots)]
    total = sum(weights)
    shares = [amount * w / total for w in weights]
    parts = [math.floor(x) for x in shares]
    order = sorted(range(slots), key=lambda j: parts[j] - shares[j])
    for j in order[: amount - sum(parts)]:
        parts[j] += 1
    return parts


def model_rows(rng: random.Random, totals: list[int], reject_free: bool) -> list[list[int]]:
    m = len(totals)
    quality = rng.uniform(0.55, 0.97)
    rows = []
    for i, tot in enumerate(totals):
        rate = min(1.0, max(0.3, quality + rng.uniform(-0.1, 0.1)))
        correct = max(1, round(tot * rate))
        rest = tot - correct
        rejects = 0 if reject_free else round(rest * rng.uniform(0.2, 0.8))
        errors = _split(rng, rest - rejects, m - 1) if m > 1 else []
        row = errors[:i] + [correct] + errors[i:] + [rejects]
        rows.append(row)
    return rows


def _group_call(workload: str, seed: int, k: int) -> Call:
    rng = _rng(workload, seed, k)
    if workload == "eval_small":
        m = _stratum(_EVAL_M_BLOCK, workload, seed, k)
        size, argv = EVAL_GROUP, ("eval", "INPUT", "--measures", "all")
        n = round(math.exp(rng.uniform(math.log(100), math.log(5000))))
        totals = class_totals(rng, m, n, 3.0)
    else:
        m = _stratum(_RANK_M_BLOCK, workload, seed, k)
        size, argv = RANK_GROUP, ("rank", "INPUT", "--measures", "information")
        n = round(math.exp(rng.uniform(math.log(20 * m), math.log(200 * m))))
        totals = class_totals(rng, m, n, 2.0)
    reject_free = [rng.random() < REJECT_FREE_SHARE for _ in range(size)]
    if workload == "rank_wide" and not any(reject_free):
        reject_free[rng.randrange(size)] = True  # an all-reject group hits defect (c)
    models = [
        {"name": f"G{k}M{j + 1}", "matrix": model_rows(rng, totals, free)}
        for j, free in enumerate(reject_free)
    ]
    return Call(argv + OUTPUT_OPTIONS, json.dumps(models), tuple(models), {"m": m})


def canonical_rows(kind: str, c1: int, c2: int, d: int) -> list[list[int]]:
    return {
        "small-class-error": [[c1, 0, 0], [d, c2 - d, 0]],
        "large-class-error": [[c1 - d, d, 0], [0, c2, 0]],
        "small-class-reject": [[c1, 0, 0], [0, c2 - d, d]],
        "large-class-reject": [[c1 - d, 0, d], [0, c2, 0]],
    }[kind]


def _quad_call(seed: int, k: int) -> Call:
    rng = _rng("theorems_canonical", seed, k)
    n = round(math.exp(rng.uniform(math.log(20), math.log(2000))))
    c2 = rng.randint(2, (n - 1) // 2)
    d = rng.randint(1, c2 - 1)
    while n == 4 * d:  # hits the n = 4d omega defect
        d = rng.randint(1, c2 - 1)
    return _quad(n - c2, c2, d)


def _quad(c1: int, c2: int, d: int) -> Call:
    models = tuple(
        {"name": kind, "matrix": canonical_rows(kind, c1, c2, d)}
        for kind in CANONICAL_KINDS
    )
    meta = {"m": 2, "c1": c1, "c2": c2, "d": d}
    return Call(("theorems", "INPUT") + OUTPUT_OPTIONS, json.dumps(list(models)), models, meta)


def _fixture_call(seed: int, k: int) -> Call:
    return _fixture(FIXTURE_COMMANDS[(seed + k) % len(FIXTURE_COMMANDS)])


def _fixture(argv: tuple[str, ...]) -> Call:
    return Call(argv + OUTPUT_OPTIONS, None, (), {"command": argv[0]})


def _all_reject_group() -> Call:
    rng = _rng("defect-probe")
    totals = class_totals(rng, 10, 1000, 2.0)
    models = [
        {"name": f"R{j + 1}", "matrix": model_rows(rng, totals, False)}
        for j in range(RANK_GROUP)
    ]
    argv = ("rank", "INPUT", "--measures", "information") + OUTPUT_OPTIONS
    return Call(argv, json.dumps(models), tuple(models), {"m": 10})


# One fixed call per known defect; each fails today.  A call that
# succeeds after a fix must still pass the output check.
DEFECT_PROBES = {
    "rank_all_reject_group": _all_reject_group(),
    "rank_reject_tradeoff": _fixture(("rank", "reject_tradeoff", "--measures", "information")),
    "theorems_n_eq_4d": _quad(60, 40, 25),
    "omega_n8_d2": _fixture(("omega", "--n", "8", "--d", "2")),
}


def make_call(workload: str, seed: int, k: int) -> Call:
    """The k-th call of a workload's stream for a seed."""
    if workload in ("eval_small", "rank_wide"):
        return _group_call(workload, seed, k)
    if workload == "theorems_canonical":
        return _quad_call(seed, k)
    if workload == "cli_fixtures":
        return _fixture_call(seed, k)
    raise ValueError(f"unknown workload {workload!r}")


def with_input(argv: tuple[str, ...], path: str) -> list[str]:
    return [path if arg == "INPUT" else arg for arg in argv]


def properties(calls: list[Call]) -> dict:
    """Measured input properties of a list of generated calls."""
    models = [model for call in calls for model in call.models]
    mix: dict[int, int] = {}
    reject_free = 0
    for model in models:
        rows = model["matrix"]
        mix[len(rows)] = mix.get(len(rows), 0) + 1
        reject_free += all(row[-1] == 0 for row in rows)
    quads = [call.meta for call in calls if "c1" in call.meta]
    return {
        "calls": len(calls),
        "models": len(models),
        "m_mix": {str(m): round(c / len(models), 4) for m, c in sorted(mix.items())}
        if models else {},
        "reject_free_share": round(reject_free / len(models), 4) if models else 0.0,
        "n_eq_4d_quads": sum(q["c1"] + q["c2"] == 4 * q["d"] for q in quads),
    }
