"""Seeded inputs, items and oracles of the four golay2d benchmark workloads.

A workload is a cycle of items.  The classes in a cycle (kind, alphabet and
shape of each item) are fixed by the tables below; the seed chooses the order
of the cycle and the content of every item: permutations, linear
coefficients, mutations, random arrays and the shifts that are spot-checked.
Fixing the classes keeps the cost of a cycle the same for every seed, so runs
with different seeds measure the same amount of work.

Every library call goes through a module attribute (``verify.is_gcap``, never
a name bound at import time), so the traced run sees it.  Every check is made
by code in this file: the library is never its own oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
from dataclasses import asdict, dataclass
from math import factorial
from typing import Callable

import numpy as np

from golay2d import boolfunc, cli, constructions, papr, verify

WORKLOADS = ("verify-large", "papr-scan", "census", "cli-files")

# (kind, q, n, m, negative control) for arrays of 2^n x 2^m.  Every fourth
# item of a cycle is a negative control, so a quarter of the classes are.
# One 64x64 pair takes about half of a cycle of about one second.
VERIFY_CLASSES = (
    ("gcap-general", 2, 6, 6, False),
    ("gcap-general", 4, 4, 4, True),
    ("gcap-basic", 8, 5, 5, False),
    ("gcap-basic", 2, 4, 5, False),
    ("gcas", 4, 4, 5, False),
    ("gcas", 8, 4, 4, False),
    ("mate", 2, 4, 4, False),
    ("mate", 4, 4, 4, True),
)
SMOKE_VERIFY_CLASSES = (
    ("gcap-general", 2, 2, 2, False),
    ("gcap-basic", 4, 2, 3, False),
    ("gcas", 8, 3, 2, False),
    ("mate", 4, 2, 2, True),
)
GCAS_BLOCKS = 2

# (kind, q, n, m): first arrays of pair constructions, 32x32 to 128x128.
PAPR_CLASSES = (
    ("gcap-general", 2, 7, 7),
    ("gcap-general", 4, 6, 6),
    ("gcap-general", 8, 5, 6),
    ("gcap-general", 2, 5, 6),
    ("gcap-general", 4, 5, 6),
    ("gcap-general", 8, 5, 5),
    ("gcap-general", 2, 5, 5),
    ("gcap-basic", 4, 6, 7),
    ("gcap-basic", 8, 6, 6),
    ("gcap-basic", 2, 5, 6),
    ("gcap-basic", 4, 5, 6),
    ("gcap-basic", 4, 5, 5),
    ("gcap-basic", 8, 5, 5),
)
SMOKE_PAPR_CLASSES = (("gcap-general", 2, 2, 3), ("gcap-basic", 4, 3, 2))
PAPR_SLACK = 1e-9

# ("enumerate", q, n, m) streams and ("search", q, L1, L2) brute-force searches.
# Most items are tiny streams of 16 to 256 specs; a run holds a few hundred.
_TINY_STREAMS = (
    ("enumerate", 2, 0, 2), ("enumerate", 2, 1, 1), ("enumerate", 2, 2, 0),
    ("enumerate", 2, 0, 3), ("enumerate", 2, 1, 2), ("enumerate", 2, 2, 1),
    ("enumerate", 2, 3, 0), ("enumerate", 4, 0, 2), ("enumerate", 4, 1, 1),
    ("enumerate", 4, 2, 0),
)
CENSUS_TASKS = _TINY_STREAMS + (
    ("enumerate", 2, 1, 3), ("enumerate", 2, 2, 2), ("enumerate", 2, 3, 1),
    ("enumerate", 4, 1, 2), ("enumerate", 4, 2, 1),
    ("search", 2, 2, 4), ("search", 4, 2, 2),
)
SMOKE_CENSUS_TASKS = (("enumerate", 2, 1, 1), ("enumerate", 4, 0, 2), ("search", 2, 2, 4))
# Number of ordered complementary pairs an exhaustive search must find.
PINNED_PAIRS = {(2, 2, 4): 192, (4, 2, 2): 512}
SEARCH_SPOT_CHECKS = 4

# (kind, q, n, m, gen format) for arrays written by `golay2d gen`.
CLI_SPECS = (
    ("gcap-general", 2, 3, 3, "csv"),
    ("gcap-basic", 4, 2, 3, "json"),
    ("gcap-basic", 8, 5, 5, "json"),
    ("gcap-general", 4, 5, 5, "csv"),
)
SMOKE_CLI_SPECS = (("gcap-general", 4, 2, 2, "json"),)
# (q, L1, L2) of random arrays whose shapes no construction produces.
CLI_RANDOM = ((2, 5, 12), (4, 40, 48))
SMOKE_CLI_RANDOM = ((4, 3, 5),)
CLI_SPOT_SHIFTS = 8


@dataclass
class Item:
    """One unit of timed work: ``run`` calls the library, ``check`` judges it.

    ``check`` returns None for a correct output and a message otherwise; it
    runs outside the item's timing.
    """

    label: str
    inputs: object
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    cycle: list[Item]
    warmup: Item
    cleanup: Callable[[], None] = lambda: None


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> Workload:
    """Generate the inputs of a workload from its seed."""
    rng = np.random.default_rng(seed)
    if name == "verify-large":
        return _verify_large(rng, SMOKE_VERIFY_CLASSES if smoke else VERIFY_CLASSES)
    if name == "papr-scan":
        return _papr_scan(rng, SMOKE_PAPR_CLASSES if smoke else PAPR_CLASSES)
    if name == "census":
        return _census(rng, SMOKE_CENSUS_TASKS if smoke else CENSUS_TASKS)
    if name == "cli-files":
        specs, shapes = (SMOKE_CLI_SPECS, SMOKE_CLI_RANDOM) if smoke else (CLI_SPECS, CLI_RANDOM)
        return _cli_files(rng, specs, shapes, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Seeded specs and the benchmark's own oracles
# ---------------------------------------------------------------------------

def _perm(rng, size):
    return tuple(int(v) + 1 for v in rng.permutation(size))


def _coeffs(rng, q, size):
    return tuple(int(v) for v in rng.integers(0, q, size))


def _spec(rng, kind, q, n, m):
    if kind == "gcap-basic":
        return constructions.GcapBasicSpec(
            q, n, m, _perm(rng, m), _perm(rng, n), _coeffs(rng, q, m),
            _coeffs(rng, q, n), int(rng.integers(q)))
    if kind == "gcas":
        order = _perm(rng, n + m)
        cuts = sorted(int(v) for v in rng.choice(np.arange(1, n + m), GCAS_BLOCKS - 1, replace=False))
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n + m])]
        return constructions.GcasSpec(q, n, m, blocks, _coeffs(rng, q, n + m), int(rng.integers(q)))
    return constructions.GcapGeneralSpec(
        q, n, m, _perm(rng, n + m), _coeffs(rng, q, n + m), int(rng.integers(q)))


def _spec_json(spec) -> dict:
    """The spec in the JSON schema `golay2d gen` reads."""
    doc = asdict(spec)
    if isinstance(spec, constructions.GcapBasicSpec):
        doc["lambda"] = doc.pop("lam")
    return doc


def _papr_bounds(spec) -> tuple[float, float]:
    """2^v row and column bounds: v counts maximal runs of path positions on the other axis."""
    if isinstance(spec, constructions.GcapBasicSpec):
        return 2.0, 2.0

    def runs(positions):
        return sum(1 for p in positions if p - 1 not in positions)

    columns = {pos for pos, v in enumerate(spec.pi, 1) if v > spec.n}
    rows = {pos for pos, v in enumerate(spec.pi, 1) if v <= spec.n}
    return 2.0 ** runs(columns), 2.0 ** runs(rows)


def _counts_at(c, d, q, u1, u2):
    """Exponent counts of sum xi^(c[g+u1, i+u2] - d[g, i]) by direct bincount."""
    L1, L2 = c.shape
    g0, g1 = max(0, -u1), min(L1, L1 - u1)
    i0, i1 = max(0, -u2), min(L2, L2 - u2)
    diff = (c[g0 + u1:g1 + u1, i0 + u2:i1 + u2] - d[g0:g1, i0:i1]) % q
    return np.bincount(diff.ravel(), minlength=q)


def _as_complex(counts, q) -> complex:
    return complex(np.dot(counts, np.exp(2j * np.pi * np.arange(q) / q)))


def _complementary(arrays, q) -> bool:
    """Autocorrelations sum to zero at every nonzero shift (floating point, small sizes)."""
    L1, L2 = arrays[0].shape
    for u1 in range(-(L1 - 1), L1):
        for u2 in range(-(L2 - 1), L2):
            if (u1, u2) != (0, 0):
                total = sum(_as_complex(_counts_at(a, a, q, u1, u2), q) for a in arrays)
                if abs(total) > 1e-9:
                    return False
    return True


def _mutate_corner(arr, delta):
    entries = arr.entries.copy()
    entries[0, 0] = (entries[0, 0] + delta) % arr.q
    return boolfunc.QaryArray(arr.q, entries)


def _seeded_shifts(rng, L1, L2, count):
    return [(int(rng.integers(-(L1 - 1), L1)), int(rng.integers(-(L2 - 1), L2)))
            for _ in range(count)] + [(L1 - 1, L2 - 1), (0, 0)]


# ---------------------------------------------------------------------------
# verify-large
# ---------------------------------------------------------------------------

def _verify_item(rng, kind, q, n, m, negative) -> Item:
    spec = _spec(rng, kind, q, n, m)
    L1, L2 = 1 << n, 1 << m
    corner = (L1 - 1, L2 - 1)
    delta = int(rng.integers(1, q))
    # The mutated cell (0, 0) meets the opposite corner only at shift
    # (L1-1, L2-1), so that shift provably violates the identity.  For mates
    # the shifted array is the main pair's, so the mate pair's first array is
    # the one mutated.
    max_violations = (2 * L1 - 1) * (2 * L2 - 1) if negative else verify.DEFAULT_MAX_VIOLATIONS

    def run():
        if kind == "mate":
            pair = constructions.construct_gcap_general(spec)
            c2, d2 = constructions.construct_mate(spec)
            if negative:
                c2 = _mutate_corner(c2, delta)
            return verify.is_mate(pair, (c2, d2), max_violations)
        if kind == "gcas":
            arrays = list(constructions.construct_gcas(spec))
        elif kind == "gcap-basic":
            arrays = list(constructions.construct_gcap_basic(spec))
        else:
            arrays = list(constructions.construct_gcap_general(spec))
        if negative:
            arrays[0] = _mutate_corner(arrays[0], delta)
        if kind == "gcas":
            return verify.is_gcas(arrays, max_violations)
        return verify.is_gcap(arrays[0], arrays[1], max_violations)

    members = 1 << GCAS_BLOCKS if kind == "gcas" else 2
    expected_center = 0 if kind == "mate" else members * L1 * L2

    def check(result):
        if negative:
            if result.passed:
                return "negative control passed"
            if corner not in [shift for shift, _ in result.violations]:
                return f"corner mutation not reported at shift {corner}"
            return None
        if not result.passed or result.violations or result.notes:
            return f"check failed: {len(result.violations)} violations, notes {result.notes}"
        center = _as_complex(result.center_value.counts, q)
        if result.expected_center != expected_center or abs(center - expected_center) > 1e-6:
            return f"center {result.center_value!r}, expected {expected_center}"
        return None

    label = f"{kind}/q{q}/{L1}x{L2}" + ("/negative" if negative else "")
    inputs = {"kind": kind, "spec": _spec_json(spec), "negative": negative, "delta": delta}
    return Item(label, inputs, run, check)


def _verify_large(rng, classes) -> Workload:
    positives = [c for c in classes if not c[-1]]
    negatives = [c for c in classes if c[-1]]
    if 4 * len(negatives) != len(classes):
        raise ValueError("a quarter of the verify classes must be negative controls")
    pos_order = [positives[i] for i in rng.permutation(len(positives))]
    neg_order = [negatives[i] for i in rng.permutation(len(negatives))]
    ordered = [neg_order.pop() if i % 4 == 3 else pos_order.pop() for i in range(len(classes))]
    cycle = [_verify_item(rng, *c) for c in ordered]
    return Workload(cycle, _cheapest(cycle, ordered, lambda c: c[2] + c[3]))


def _cheapest(cycle, classes, size):
    """The warm-up item: the first item of the smallest class, whatever the seed."""
    smallest = min(classes, key=lambda c: (size(c), c))
    return cycle[classes.index(smallest)]


# ---------------------------------------------------------------------------
# papr-scan
# ---------------------------------------------------------------------------

def _papr_item(rng, kind, q, n, m) -> Item:
    spec = _spec(rng, kind, q, n, m)
    build_pair = constructions.construct_gcap_basic if kind == "gcap-basic" else constructions.construct_gcap_general
    c = build_pair(spec)[0]
    row_bound, col_bound = _papr_bounds(spec)
    # A lower bound on each PAPR: the largest of 4*L uniform samples.
    z = np.exp(2j * np.pi * c.entries / q)
    row_floor = (np.abs(np.fft.fft(z, 4 * c.L2, axis=1)) ** 2).max(axis=1) / c.L2
    col_floor = (np.abs(np.fft.fft(z, 4 * c.L1, axis=0)) ** 2).max(axis=0) / c.L1

    def run():
        return papr.papr_report(c, spec)

    def check(report):
        if (report.row_bound, report.col_bound) != (row_bound, col_bound):
            return f"bounds {(report.row_bound, report.col_bound)}, expected {(row_bound, col_bound)}"
        for axis, values, bound, floor in (
            ("row", report.per_row, row_bound, row_floor),
            ("column", report.per_col, col_bound, col_floor),
        ):
            values = np.asarray(values)
            if values.shape != floor.shape:
                return f"{len(values)} {axis} values, expected {len(floor)}"
            if (values > bound * (1 + PAPR_SLACK)).any():
                return f"{axis} PAPR {values.max()} exceeds bound {bound}"
            if (values < floor * (1 - PAPR_SLACK)).any():
                return f"{axis} PAPR below its sampled value"
        return None

    return Item(f"{kind}/q{q}/{c.L1}x{c.L2}", {"kind": kind, "spec": _spec_json(spec)}, run, check)


def _papr_scan(rng, classes) -> Workload:
    ordered = [classes[i] for i in rng.permutation(len(classes))]
    cycle = [_papr_item(rng, *c) for c in ordered]
    return Workload(cycle, _cheapest(cycle, ordered, lambda c: c[2] + c[3]))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _enumerate_item(q, n, m) -> Item:
    raw = factorial(n + m) * q ** (n + m + 1)
    distinct = factorial(n + m) // 2 * q ** (n + m + 1)

    def run():
        # The same stream and deduplication as `golay2d enumerate`.
        count, seen = 0, set()
        for spec, _ in constructions.enumerate_general_gcaps(q, n, m):
            count += 1
            seen.add(constructions.general_gcap_function(spec))
        return count, len(seen), constructions.count_general_gcaps(q, n, m)

    def check(out):
        if out != (raw, distinct, distinct):
            return f"raw/distinct/formula {out}, expected {(raw, distinct, distinct)}"
        return None

    return Item(f"enumerate/q{q}/n{n}m{m}", {"task": "enumerate", "q": q, "n": n, "m": m}, run, check)


def _search_item(rng, q, L1, L2) -> Item:
    n, m = L1.bit_length() - 1, L2.bit_length() - 1
    constructed = {
        (c.entries.tobytes(), d.entries.tobytes())
        for _, (c, d) in constructions.enumerate_general_gcaps(q, n, m)
    }
    expected = PINNED_PAIRS[(q, L1, L2)]
    spot = [int(v) for v in rng.integers(0, expected, SEARCH_SPOT_CHECKS)]

    def run():
        return verify.brute_force_gcaps(q, L1, L2)

    def check(pairs):
        if len(pairs) != PINNED_PAIRS[(q, L1, L2)]:
            return f"{len(pairs)} pairs, expected {PINNED_PAIRS[(q, L1, L2)]}"
        found = {(c.entries.tobytes(), d.entries.tobytes()) for c, d in pairs}
        if len(found) != len(pairs):
            return "duplicate pairs"
        if not constructed <= found:
            return f"{len(constructed - found)} constructed pairs missing"
        for i in spot:
            c, d = pairs[i]
            if c.entries.shape != (L1, L2) or not _complementary([c.entries, d.entries], q):
                return f"pair {i} is not complementary"
        return None

    return Item(f"search/q{q}/{L1}x{L2}", {"task": "search", "q": q, "L1": L1, "L2": L2, "spot": spot}, run, check)


def _census(rng, tasks) -> Workload:
    ordered = [tasks[i] for i in rng.permutation(len(tasks))]
    cycle = [
        _enumerate_item(*t[1:]) if t[0] == "enumerate" else _search_item(rng, *t[1:])
        for t in ordered
    ]

    def size(t):
        return t[1] ** (t[2] + t[3]) if t[0] == "enumerate" else t[1] ** (t[2] * t[3])

    return Workload(cycle, _cheapest(cycle, ordered, size))


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------

_CELL_COMPLEX = re.compile(r"([+-]?[0-9.]+(?:e[+-]?[0-9]+)?)([+-][0-9.]+(?:e[+-]?[0-9]+)?)i")


def _parse_cell(cell: str) -> complex:
    match = _CELL_COMPLEX.fullmatch(cell)
    if match:
        return complex(float(match.group(1)), float(match.group(2)))
    return complex(float(cell))


def _read_array(path):
    """(q, entries) of an array file written by `golay2d gen`."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["q"], np.array(doc["entries"])
    header, *rows = text.splitlines()
    q = int(header.removeprefix("# q="))
    return q, np.array([[int(x) for x in row.split(",")] for row in rows])


def _write_csv_array(path, q, entries):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# q={q}\n" + "".join(",".join(map(str, row)) + "\n" for row in entries))


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_item(label, argv, check_fn, inputs) -> Item:
    """An item that calls the CLI; check_fn(code, stdout, stderr) judges the call."""
    return Item(label, {"argv": inputs}, lambda: _call_cli(argv), lambda result: check_fn(*result))


def _expect_code(code, want, err):
    if code != want:
        return f"exit code {code}, expected {want}: {err.strip()[:200]}"
    return None


def _check_table_file(path, c, d, q, shifts, fmt):
    """Spot-check an exported correlation table against direct bincounts."""
    L1, L2 = c.shape
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        doc = json.loads(text)
        if (doc["q"], doc["L1"], doc["L2"]) != (q, L1, L2):
            return "table JSON header mismatch"
        for u1, u2 in shifts:
            got = doc["counts"][u1 + L1 - 1][u2 + L2 - 1]
            if got != _counts_at(c, d, q, u1, u2).tolist():
                return f"counts at {(u1, u2)}: {got}"
        return None
    header, *rows = text.splitlines()
    if header != f"# q={q} L1={L1} L2={L2}" or len(rows) != 2 * L1 - 1:
        return "table CSV header or row count mismatch"
    cells = [row.split(",") for row in rows]
    if any(len(row) != 2 * L2 - 1 for row in cells):
        return "table CSV column count mismatch"
    for u1, u2 in shifts:
        want = _as_complex(_counts_at(c, d, q, u1, u2), q)
        got = _parse_cell(cells[u1 + L1 - 1][u2 + L2 - 1])
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            return f"cell at {(u1, u2)}: {got}, expected {want}"
    return None


def _cli_spec_items(rng, index, kind, q, n, m, fmt, workdir) -> list[Item]:
    spec = _spec(rng, kind, q, n, m)
    build_pair = constructions.construct_gcap_basic if kind == "gcap-basic" else constructions.construct_gcap_general
    c, d = (a.entries for a in build_pair(spec))
    L1, L2 = c.shape
    prefix = os.path.join(workdir, f"s{index}")
    spec_path = prefix + "_spec.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(_spec_json(spec), fh)
    c_path, d_path = f"{prefix}_c.{fmt}", f"{prefix}_d.{fmt}"
    mutated_path = prefix + "_cmut.csv"
    _write_csv_array(mutated_path, q, _mutate_corner(boolfunc.QaryArray(q, c), int(rng.integers(1, q))).entries)
    auto_path, cross_path = prefix + "_auto.csv", prefix + "_cross.json"
    auto_shifts = _seeded_shifts(rng, L1, L2, CLI_SPOT_SHIFTS)
    cross_shifts = _seeded_shifts(rng, L1, L2, CLI_SPOT_SHIFTS)
    row_bound, col_bound = _papr_bounds(spec)
    corner = [L1 - 1, L2 - 1]

    def check_gen(code, out, err):
        for path, want in ((c_path, c), (d_path, d)):
            got_q, got = _read_array(path)
            if got_q != q or not np.array_equal(got, want):
                return f"{os.path.basename(path)} differs from the constructed array"
        return _expect_code(code, 0, err)

    def check_verify(code, out, err):
        if (problem := _expect_code(code, 0, err)) or not json.loads(out)["passed"]:
            return problem or "pair did not pass"
        return None

    def check_mutated(code, out, err):
        if problem := _expect_code(code, 1, err):
            return problem
        doc = json.loads(out)
        if doc["passed"] or corner not in [v["shift"] for v in doc["violations"]]:
            return f"corner mutation not reported at shift {corner}"
        return None

    def check_missing(code, out, err):
        if (problem := _expect_code(code, 2, err)) or not err.startswith("error:"):
            return problem or f"no error message for a missing file: {err!r}"
        return None

    def check_papr(code, out, err):
        if problem := _expect_code(code, 0, err):
            return problem
        doc = json.loads(out)
        if (doc["row_bound"], doc["col_bound"]) != (row_bound, col_bound):
            return "PAPR bounds differ from 2^v"
        if len(doc["per_row"]) != L1 or len(doc["per_col"]) != L2:
            return "PAPR report has the wrong number of rows or columns"
        if max(doc["per_row"]) > row_bound * (1 + PAPR_SLACK) or max(doc["per_col"]) > col_bound * (1 + PAPR_SLACK):
            return "PAPR exceeds its bound"
        return None

    shifts = (2 * L1 - 1) * (2 * L2 - 1)
    calls = [
        ("gen", ["gen", kind, "--spec", spec_path, "--out", prefix, "--format", fmt], check_gen),
        ("verify", ["verify", "gcap", c_path, d_path], check_verify),
        ("verify-mutated", ["verify", "gcap", mutated_path, d_path, "--max-violations", str(shifts)], check_mutated),
        ("verify-missing", ["verify", "gcap", c_path, prefix + "_missing.csv"], check_missing),
        ("corr-csv", ["corr", c_path, "--out", auto_path],
         lambda code, out, err: _expect_code(code, 0, err) or _check_table_file(auto_path, c, c, q, auto_shifts, "csv")),
        ("corr-cross-json", ["corr", c_path, d_path, "--cross", "--format", "json", "--out", cross_path],
         lambda code, out, err: _expect_code(code, 0, err) or _check_table_file(cross_path, c, d, q, cross_shifts, "json")),
        ("papr", ["papr", c_path, "--spec", spec_path, "--json"], check_papr),
    ]
    spec_inputs = {"kind": kind, "spec": _spec_json(spec), "format": fmt, "shifts": [auto_shifts, cross_shifts]}
    items = [
        _cli_item(f"{name}/{kind}/q{q}/{L1}x{L2}", argv, check_fn,
                  [os.path.basename(a) for a in argv])
        for name, argv, check_fn in calls
    ]
    items[0].inputs["spec"] = spec_inputs
    return items


def _cli_random_items(rng, index, q, L1, L2, workdir) -> list[Item]:
    a = rng.integers(0, q, (L1, L2))
    b = rng.integers(0, q, (L1, L2))
    prefix = os.path.join(workdir, f"r{index}")
    a_path, b_path = prefix + "_a.csv", prefix + "_b.csv"
    _write_csv_array(a_path, q, a)
    _write_csv_array(b_path, q, b)
    auto_path, cross_path = prefix + "_auto.json", prefix + "_cross.csv"
    auto_shifts = _seeded_shifts(rng, L1, L2, CLI_SPOT_SHIFTS)
    cross_shifts = _seeded_shifts(rng, L1, L2, CLI_SPOT_SHIFTS)
    items = [
        _cli_item(f"corr-json/random/q{q}/{L1}x{L2}",
                  ["corr", a_path, "--format", "json", "--out", auto_path],
                  lambda code, out, err: _expect_code(code, 0, err) or _check_table_file(auto_path, a, a, q, auto_shifts, "json"),
                  ["corr", "a", "--format", "json"]),
        _cli_item(f"corr-cross-csv/random/q{q}/{L1}x{L2}",
                  ["corr", a_path, b_path, "--cross", "--out", cross_path],
                  lambda code, out, err: _expect_code(code, 0, err) or _check_table_file(cross_path, a, b, q, cross_shifts, "csv"),
                  ["corr", "a", "b", "--cross"]),
    ]
    items[0].inputs["arrays"] = [a.tolist(), b.tolist(), auto_shifts, cross_shifts]
    return items


def _cli_files(rng, specs, shapes, workdir) -> Workload:
    os.environ.pop(cli.OVERSAMPLE_ENV, None)
    os.makedirs(workdir, exist_ok=True)
    cycle = []
    for i in rng.permutation(len(specs)):
        cycle += _cli_spec_items(rng, int(i), *specs[i], workdir)
    for i in rng.permutation(len(shapes)):
        cycle += _cli_random_items(rng, int(i), *shapes[i], workdir)
    # The warm-up is `gen` of the smallest spec, which later items of its spec read.
    smallest = min(range(len(specs)), key=lambda i: specs[i][2] + specs[i][3])
    kind, q, n, m, _ = specs[smallest]
    warmup = next(it for it in cycle if it.label == f"gen/{kind}/q{q}/{1 << n}x{1 << m}")
    return Workload(cycle, warmup, lambda: shutil.rmtree(workdir, ignore_errors=True))
