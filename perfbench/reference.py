"""Independent numpy/scipy reference for every output the benchmark checks.

Nothing here imports infoeval.  Measures are recomputed from the
generated counts with ``scipy.special.entr`` and
``scipy.special.rel_entr``; canonical costs are recomputed as
differences of the modified mutual information of explicit matrices,
not from the closed forms the program uses.

Singular values are NaN in the reference arrays.  Each ``check_*``
function returns None when an output agrees and a short reason when it
does not.
"""
from __future__ import annotations

import json

import numpy as np
from scipy.special import entr, rel_entr

from workloads import CANONICAL_KINDS, canonical_rows

NI_KEYS = tuple(f"NI{k}" for k in range(1, 25))
PERF_KEYS = ("CR", "E", "Rej", "A", "Precision", "Recall", "F1")
ALL_KEYS = NI_KEYS + PERF_KEYS

VALUE_TOL = 1e-9      # absolute, for values in [0, 1] and costs in bits
GAP_TOL = 1e-8        # |gap(omega)| after a solve to 1e-12 / 1e-10
UNIT_TOL = 1e-9       # snap band of the unit interval
ZERO_TOL = 1e-12      # 0/0 policy of the MI ratios
LN2 = np.log(2.0)


def _entropy_bits(p):
    return entr(p).sum(axis=1) / LN2


def _kl_bits(p, q):
    return rel_entr(p, q).sum(axis=1) / LN2


def _ratio(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, np.where(np.abs(num) <= ZERO_TOL, 0.0, np.nan))


def _chi2(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, (p - q) ** 2 / q, np.where(p > 0, np.inf, 0.0))
    return terms.sum(axis=1)


def _cross_entropy(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log2(q), 0.0)
    return terms.sum(axis=1)


def _mi_parts(counts):
    c = np.asarray(counts, dtype=float)
    n = c.sum(axis=(1, 2))
    joint = c / n[:, None, None]
    pt = c.sum(axis=2) / n[:, None]
    py = c.sum(axis=1) / n[:, None]
    terms = rel_entr(joint, pt[:, :, None] * py[:, None, :]) / LN2
    return joint, pt, py, terms


def modified_mi(counts) -> np.ndarray:
    """I_M for a batch (N, m, m+1) of count or continuous matrices."""
    _, pt, _, terms = _mi_parts(counts)
    return terms[:, :, : pt.shape[1]].sum(axis=(1, 2))


def measures(counts) -> tuple[np.ndarray, np.ndarray]:
    """(values, absent) of shape (N, 31) in ALL_KEYS order.

    Values are NaN where Singular; ``absent`` marks the binary-only
    rates of matrices with more than two classes.
    """
    c = np.asarray(counts, dtype=float)
    size, m, _ = c.shape
    joint, pt, py, terms = _mi_parts(c)
    i = terms.sum(axis=(1, 2))
    i_m = terms[:, :, :m].sum(axis=(1, 2))
    h_t = _entropy_bits(pt)
    h_y = _entropy_bits(py)
    h_ty = _entropy_bits(joint.reshape(size, -1))

    ni = np.empty((size, 24))
    ni[:, 0] = i / h_t
    ni[:, 1] = i_m / h_t
    ni[:, 2] = _ratio(i, h_y)
    ni[:, 3] = 0.5 * (i / h_t + ni[:, 2])
    ni[:, 4] = 2.0 * i / (h_t + h_y)
    ni[:, 5] = _ratio(i, np.sqrt(h_t * h_y))
    ni[:, 6] = i / h_ty
    ni[:, 7] = i / np.maximum(h_t, h_y)
    ni[:, 8] = _ratio(i, np.minimum(h_t, h_y))

    p = np.concatenate([pt, np.zeros((size, 1))], axis=1)
    q = py
    kl_pq, kl_qp = _kl_bits(p, q), _kl_bits(q, p)
    dot = (p * q).sum(axis=1)
    overlap = np.sqrt(p * q).sum(axis=1)
    mid = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        divergences = [
            ((p - q) ** 2).sum(axis=1),
            np.where(dot > 0, np.log2((p * p).sum(axis=1) * (q * q).sum(axis=1) / dot**2), np.nan),
            kl_pq,
            np.where(overlap > 0, -np.log2(overlap), np.nan),
            _chi2(p, q),
            ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=1),
            np.abs(p - q).sum(axis=1),
            kl_pq + kl_qp,
            _kl_bits(p, mid) + _kl_bits(q, mid),
            _chi2(p, q) + _chi2(q, p),
            np.where(np.isinf(kl_pq) | np.isinf(kl_qp) | (kl_pq + kl_qp == 0),
                     np.nan, kl_pq * kl_qp / (kl_pq + kl_qp)),
        ]
    for k, div in enumerate(divergences):
        ni[:, 9 + k] = np.exp(-np.where(np.isinf(div), np.nan, div))

    forward, backward = _cross_entropy(p, q), _cross_entropy(q, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ni[:, 20] = np.where(np.isinf(forward), 0.0, h_t / forward)
        ni[:, 21] = np.where(np.isinf(backward), 0.0, h_y / backward)
        ni[:, 22] = 0.5 * (ni[:, 20] + ni[:, 21])
        ni[:, 23] = np.where(np.isinf(forward) | np.isinf(backward), 0.0,
                             (h_t + h_y) / (forward + backward))
    inside = (ni >= -UNIT_TOL) & (ni <= 1.0 + UNIT_TOL)
    ni = np.where(inside, np.clip(ni, 0.0, 1.0), ni)

    n = c.sum(axis=(1, 2))
    correct = np.trace(c[:, :, :m], axis1=1, axis2=2)
    rejected = c[:, :, m].sum(axis=1)
    errors = n - correct - rejected
    perf = np.full((size, 7), np.nan)
    perf[:, 0] = correct / n
    perf[:, 1] = errors / n
    perf[:, 2] = rejected / n
    with np.errstate(divide="ignore", invalid="ignore"):
        perf[:, 3] = correct / (correct + errors)
    absent = np.zeros((size, 31), dtype=bool)
    if m == 2:
        c11, c13, c21 = c[:, 0, 0], c[:, 0, 2], c[:, 1, 0]
        predicted_first = c11 + c21
        accepted_first = c[:, 0].sum(axis=1) - c13
        with np.errstate(divide="ignore", invalid="ignore"):
            precision = np.where(predicted_first > 0, c11 / predicted_first, 0.0)
            recall = np.where(accepted_first > 0, c11 / accepted_first, 0.0)
            both = precision + recall
            f1 = np.where(both > 0, 2.0 * precision * recall / both, 0.0)
        perf[:, 4], perf[:, 5], perf[:, 6] = precision, recall, f1
    else:
        absent[:, 28:] = True
    return np.concatenate([ni, perf], axis=1), absent


def _same(program, expected, tol=VALUE_TOL) -> bool:
    """A printed value agrees with a reference value (NaN: Singular)."""
    if np.isnan(expected):
        return program == "S"
    return isinstance(program, (int, float)) and not isinstance(program, bool) \
        and abs(program - expected) <= tol


def _agree(program: list, values: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """Vectorized _same over a flat list of printed values."""
    singular = np.array([v == "S" for v in program])
    missing = np.array([v is None for v in program])
    numbers = np.array([v if type(v) is float else np.nan for v in program])
    close = np.abs(numbers - values) <= VALUE_TOL
    return np.where(absent, missing, np.where(np.isnan(values), singular, close))


def letters(values, rounding: int) -> list[str | None]:
    """Dense letter ranking (A best) of rounded values; NaN gets None."""
    rounded = [None if np.isnan(v) else round(float(v), rounding) for v in values]
    order = sorted({r for r in rounded if r is not None}, reverse=True)
    return [None if r is None else _letter(order.index(r)) for r in rounded]


def _letter(position: int) -> str:
    label, position = "", position + 1
    while position:
        position, rem = divmod(position - 1, 26)
        label = chr(ord("A") + rem) + label
    return label


def group_measures(models):
    """measures() of a call's models (which share one class count)."""
    return measures(np.array([model["matrix"] for model in models], dtype=float))


def check_eval(models, text, expected) -> str | None:
    """``expected`` is group_measures(models)."""
    payload = json.loads(text)
    if len(payload) != len(models):
        return f"eval printed {len(payload)} models, expected {len(models)}"
    values, absent = expected
    for row, (model, entry) in enumerate(zip(models, payload)):
        if model.get("name") and entry["name"] != model["name"]:
            return f"model {row + 1} named {entry['name']!r}, expected {model['name']!r}"
        if tuple(entry["measures"]) != ALL_KEYS:
            return f"{entry['name']}: measure keys {list(entry['measures'])}"
    printed = [v for entry in payload for v in entry["measures"].values()]
    agree = _agree(printed, values.ravel(), absent.ravel()).reshape(values.shape)
    if not agree.all():
        row, col = np.argwhere(~agree)[0]
        got = payload[row]["measures"][ALL_KEYS[col]]
        return f"{payload[row]['name']} {ALL_KEYS[col]} = {got!r}, reference {values[row, col]!r}"
    return None


def check_rank(models, text, expected) -> str | None:
    """``expected`` is group_measures(models)."""
    payload = json.loads(text)
    rounding = payload["rounding"]
    values, _ = expected
    rankings = payload["rankings"]
    if [r["measure"] for r in rankings] != list(NI_KEYS):
        return f"rank measures {[r['measure'] for r in rankings]}"
    for col, ranking in enumerate(rankings):
        column = values[:, col]
        want = letters(column, rounding)
        entries = ranking["models"]
        if len(entries) != len(models):
            return f"{ranking['measure']}: {len(entries)} models ranked"
        for row, entry in enumerate(entries):
            if not _same(entry["value"], column[row]):
                return f"{ranking['measure']} {entry['name']} = {entry['value']!r}, reference {column[row]!r}"
            if entry["letter"] != want[row]:
                return f"{ranking['measure']} {entry['name']} letter {entry['letter']!r}, reference {want[row]!r}"
    return None


def crossover_gap(p1, n, d) -> float:
    """Large-class-error cost minus small-class-reject cost at share p1.

    Written from the paper's closed forms, not from I_M differences: at
    the cross-over the small class (1 - p1) n can hold fewer than d
    samples, where the reject departure's matrix has a negative cell.
    """
    x = (1.0 - p1) * n
    error = (x * np.log2(x / (x + d)) + d * np.log2(d / (x + d))) / n
    reject = d / n * np.log2(x / n)
    return float(error - reject)


def departure_costs(p1, n, d) -> np.ndarray:
    """(N, 4) I_M changes of the four departures, in CANONICAL_KINDS order."""
    p1 = np.atleast_1d(np.asarray(p1, dtype=float))
    c1, c2 = p1 * n, (1.0 - p1) * n
    z = np.zeros_like(p1)
    rest = np.maximum(c2 - d, 0.0)

    def batch(row1, row2):
        return np.stack([np.stack(row1, -1), np.stack(row2, -1)], 1)

    perfect = modified_mi(batch([c1, z, z], [z, c2, z]))
    departures = [
        batch([c1, z, z], [z + d, rest, z]),
        batch([c1 - d, z + d, z], [z, c2, z]),
        batch([c1, z, z], [z, rest, z + d]),
        batch([c1 - d, z, z + d], [z, c2, z]),
    ]
    return np.stack([modified_mi(dep) - perfect for dep in departures], axis=1)


def _canonical(matrix):
    """(kind, c1, c2, d) when a 2-class matrix is a canonical departure."""
    if len(matrix) != 2:
        return None
    c1, c2 = sum(matrix[0]), sum(matrix[1])
    moved = (matrix[1][0], matrix[0][1], matrix[1][2], matrix[0][2])
    for kind, d in zip(CANONICAL_KINDS, moved):
        if d > 0 and c1 > c2 > d and canonical_rows(kind, c1, c2, d) == [list(r) for r in matrix]:
            return kind, c1, c2, d
    return None


def _mi_minimum_blocks(matrix) -> list[int]:
    c = np.asarray(matrix, dtype=float)
    m = c.shape[0]
    blocks = []
    for i in range(m - 1):
        block = c[i:i + 2, i:i + 2]
        outside = c[i:i + 2].sum() - block.sum() + c[:, i:i + 2].sum() - block.sum()
        if (block > 0).all() and np.linalg.matrix_rank(block) == 1 and outside == 0:
            blocks.append(i + 1)
    return blocks


def check_theorems(models, text) -> str | None:
    payload = json.loads(text)
    if len(payload) != len(models):
        return f"theorems printed {len(payload)} records, expected {len(models)}"
    for model, record in zip(models, payload):
        matrix = model["matrix"]
        name = record["name"]
        blocks = _mi_minimum_blocks(matrix)
        if record["blocks"] != blocks or record["mi_local_minimum"] != bool(blocks):
            return f"{name}: blocks {record['blocks']}, reference {blocks}"
        rows = np.asarray(matrix)
        equal = (rows[:, -1].sum() == 0) and (rows.sum(axis=1) == rows[:, :-1].sum(axis=0)).all()
        if record["divergence_maximum"] != bool(equal):
            return f"{name}: divergence_maximum {record['divergence_maximum']}"
        canonical = _canonical(matrix)
        got = record["canonical"]
        if canonical is None:
            if got is not None:
                return f"{name}: classified as {got['kind']}, reference none"
            continue
        if got is None:
            return f"{name}: not classified, reference {canonical[0]}"
        kind, c1, c2, d = canonical
        if (got["kind"], got["c1"], got["c2"], got["d"]) != canonical:
            return f"{name}: canonical {got['kind']} {got['c1']} {got['c2']} {got['d']}, reference {canonical}"
        n = c1 + c2
        perfect = modified_mi(np.array([[[c1, 0, 0], [0, c2, 0]]], dtype=float))
        delta = (modified_mi(np.array([matrix], dtype=float)) - perfect)[0]
        if not _same(got["delta_I"], delta):
            return f"{name}: delta_I {got['delta_I']!r}, reference {delta!r}"
        if not _same(got["p1"], c1 / n, tol=1e-12):
            return f"{name}: p1 {got['p1']!r}, reference {c1 / n!r}"
        message = _check_omega(got["omega"], n, d)
        if message:
            return f"{name}: {message}"
    return None


def _check_omega(omega, n, d) -> str | None:
    if not isinstance(omega, float) or not 0.5 < omega < 1.0:
        return f"omega {omega!r} outside (0.5, 1)"
    gap = abs(crossover_gap(omega, n, d))
    if gap > GAP_TOL:
        return f"|gap(omega={omega!r})| = {gap:.3g}"
    return None


def check_omega(text, n, d) -> str | None:
    payload = json.loads(text)
    if (payload["n"], payload["d"], payload["sign_changes"]) != (n, d, 1):
        return f"omega echoed n={payload['n']} d={payload['d']} sign_changes={payload['sign_changes']}"
    return _check_omega(payload["omega"], n, d)


def check_sweep(text, n, d, step) -> str | None:
    payload = json.loads(text)
    points = payload["points"]
    grid = []
    k = 1
    while 0.5 + k * step < 1.0 - 1e-12:
        grid.append(0.5 + k * step)
        k += 1
    if [p["p1"] for p in points] != grid:
        return f"sweep grid has {len(points)} points, reference {len(grid)}"
    costs = departure_costs(grid, n, d)
    fields = ("small_class_error", "large_class_error", "small_class_reject", "large_class_reject")
    for row, point in enumerate(points):
        for col, field in enumerate(fields):
            if not _same(point[field], costs[row, col]):
                return f"sweep p1={point['p1']} {field} = {point[field]!r}, reference {costs[row, col]!r}"
    return None
