"""Serialization: JSON function/spec/array schemas, CSV arrays, correlation tables.

Array CSV carries a leading '# q=<int>' line so the alphabet travels with the
data; rows follow row-major as comma-separated integers.  Correlation CSV has
one row per u1 from -(L1-1) to L1-1 and one column per u2 ascending; cells
print as plain integers whenever the value is exactly a rational integer,
as 'a+bi' with integer parts when it is exactly a Gaussian integer, and as
12-significant-digit floats otherwise.  Integer and Gaussian-integer cells
re-parse to exact values; float cells do not, so JSON (which stores the raw
exponent-count vectors) is the lossless interchange format for every q.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .boolfunc import GeneralizedBooleanFunction, QaryArray, _int, _ints
from .constructions import GcapBasicSpec, GcapGeneralSpec, GcasSpec
from .correlation import CorrelationTable, CorrelationValue, _complex_values, reduction_matrix
from .papr import PaprReport
from .verify import VerificationResult

__all__ = [
    "function_to_json_dict",
    "function_from_json_dict",
    "array_to_csv",
    "array_from_csv",
    "array_to_json_dict",
    "array_from_json_dict",
    "load_array",
    "save_array",
    "format_correlation_value",
    "parse_correlation_value",
    "correlation_table_to_csv",
    "correlation_table_from_csv",
    "correlation_table_to_json_dict",
    "correlation_table_from_json_dict",
    "parse_construction_spec",
    "spec_to_json_dict",
    "papr_report_to_json_dict",
    "verification_to_json_dict",
    "GEN_KINDS",
]

GEN_KINDS = ("gcap-basic", "gcap-general", "mate", "gcas", "gdj", "gcs1d")


# ---------------------------------------------------------------------------
# Boolean functions
# ---------------------------------------------------------------------------

def function_to_json_dict(f: GeneralizedBooleanFunction) -> dict:
    return {
        "q": f.q,
        "n": f.n,
        "m": f.m,
        "terms": [{"coeff": c, "vars": list(vs)} for c, vs in f.terms],
        "constant": f.constant,
    }


def function_from_json_dict(d: dict) -> GeneralizedBooleanFunction:
    try:
        terms = [(t["coeff"], t["vars"]) for t in d.get("terms", [])]
        return GeneralizedBooleanFunction(
            d["q"], d["n"], d["m"], terms, constant=d.get("constant", 0)
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed function spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------

def array_to_csv(arr: QaryArray) -> str:
    lines = [f"# q={arr.q}"]
    lines += [",".join(map(str, row)) for row in arr.entries.tolist()]
    return "\n".join(lines) + "\n"


def _csv_rows(text: str, q: int | None, what: str, convert) -> tuple[int, list[list]]:
    """The alphabet and the converted cells of an array or table CSV.

    A '# q=' comment sets q from the whole token after 'q=', which must be
    a plain integer; blank lines are skipped.  Each cell becomes
    convert(cell, q), and every data line must have as many cells as the
    first one.  The message of any rejected header, width or cell names its
    1-based line number.
    """
    rows = []
    first = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        header = line.startswith("#")
        cells = line.split(",")
        if not header:
            if first is None:
                first = (lineno, len(cells))
            elif len(cells) != first[1]:
                raise ValueError(
                    f"{what} CSV line {lineno} has {len(cells)} entries, "
                    f"but line {first[0]} has {first[1]}"
                )
        try:
            if not header:
                rows.append([convert(cell, q) for cell in cells])
            elif match := re.search(r"\bq\s*=\s*(\S*)", line):
                token = match.group(1)
                # _int names a token that is not a plain integer, as it does any string.
                q = int(token) if _INT_CELL.fullmatch(token) else _int(token, "q")
        except ValueError as exc:
            raise ValueError(f"{what} CSV line {lineno}: {exc}") from None
    if q is None:
        raise ValueError(f"{what} CSV has no '# q=' header and no q was supplied")
    return q, rows


def array_from_csv(text: str, q: int | None = None) -> QaryArray:
    q, rows = _csv_rows(text, q, "array", lambda cell, _: int(cell))
    return QaryArray(q, rows)


def array_to_json_dict(arr: QaryArray) -> dict:
    return {"q": arr.q, "entries": arr.entries.tolist()}


def array_from_json_dict(d: dict) -> QaryArray:
    try:
        rows = [_ints(row, f"entries[{g}]") for g, row in enumerate(d["entries"])]
        return QaryArray(d["q"], rows)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed array JSON: {exc}") from exc


def load_array(path, q: int | None = None) -> QaryArray:
    """Read an array file; JSON when the content starts with '{', else CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return array_from_json_dict(json.loads(text))
    return array_from_csv(text, q=q)


def save_array(arr: QaryArray, path, fmt: str = "csv"):
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(array_to_csv(arr))
        elif fmt == "json":
            json.dump(array_to_json_dict(arr), fh)
            fh.write("\n")
        else:
            raise ValueError(f"unknown array format {fmt!r}")


# ---------------------------------------------------------------------------
# Correlation values and tables
# ---------------------------------------------------------------------------

_INT_CELL = re.compile(r"[+-]?\d+")
_GAUSS_CELL = re.compile(r"([+-]?\d+)([+-]\d+)i")


def _format_cells(q: int, counts: np.ndarray) -> list[str]:
    """The cell text of each count vector of an (N, q) int64 array.

    Which cells are Gaussian integers and which are real is decided for all
    cells at once from the counts: a cell is the Gaussian integer a + b*i
    nearest its complex value exactly when the reduced counts agree (when 4
    does not divide q, sqrt(-1) is no exponent and only b = 0 can), and it is
    real exactly when its reduced counts equal those of its conjugate, whose
    exponents are e -> -e mod q.  The complex values come from one
    vectorised pass in to_complex's summation order.
    """
    reduction = reduction_matrix(q)
    reduced = counts @ reduction
    z = _complex_values(q, counts)
    a = np.rint(z.real).astype(np.int64)
    b = np.rint(z.imag).astype(np.int64)
    nearest = np.outer(a, reduction[0])
    if q % 4 == 0:
        nearest += np.outer(b, reduction[q // 4])
    gaussian = (reduced == nearest).all(axis=1) & ((b == 0) | (q % 4 == 0))
    real = (reduced == counts[:, -np.arange(q) % q] @ reduction).all(axis=1)
    cells = []
    for ak, bk, zk, is_gaussian, is_real in zip(
        a.tolist(), b.tolist(), z.tolist(), gaussian.tolist(), real.tolist()
    ):
        if is_gaussian:
            cells.append(str(ak) if bk == 0 else f"{ak}{bk:+d}i")
        elif is_real:
            cells.append(f"{zk.real:.12g}")
        else:
            cells.append(f"{zk.real:.12g}{zk.imag:+.12g}i")
    return cells


def format_correlation_value(v: CorrelationValue) -> str:
    """An integer, an exact 'a+bi', or 12-digit floats; see the module docstring.

    The counts of v must fit in int64, as those of every table do.
    """
    return _format_cells(v.q, np.array([v.counts], dtype=np.int64))[0]


def parse_correlation_value(cell: str, q: int) -> CorrelationValue:
    cell = cell.strip()
    if _INT_CELL.fullmatch(cell):
        return CorrelationValue.from_int(int(cell), q)
    match = _GAUSS_CELL.fullmatch(cell)
    if match:
        return CorrelationValue.from_gaussian(int(match.group(1)), int(match.group(2)), q)
    raise ValueError(
        f"cell {cell!r} is not an exact integer or Gaussian integer; "
        "use the JSON table format for such values"
    )


def correlation_table_to_csv(table: CorrelationTable) -> str:
    """The table as CSV, each cell formatted as format_correlation_value would."""
    cells = _format_cells(table.q, table.counts.reshape(-1, table.q))
    width = 2 * table.L2 - 1
    lines = [f"# q={table.q} L1={table.L1} L2={table.L2}"]
    lines += [",".join(cells[k:k + width]) for k in range(0, len(cells), width)]
    return "\n".join(lines) + "\n"


def correlation_table_from_csv(text: str, q: int | None = None) -> CorrelationTable:
    q, rows = _csv_rows(text, q, "table", lambda cell, q: parse_correlation_value(cell, q).counts)
    if not rows or len(rows) % 2 == 0 or len(rows[0]) % 2 == 0:
        raise ValueError("table CSV must have odd row and column counts")
    return CorrelationTable(q, (len(rows) + 1) // 2, (len(rows[0]) + 1) // 2, rows)


def correlation_table_to_json_dict(table: CorrelationTable) -> dict:
    return {"q": table.q, "L1": table.L1, "L2": table.L2, "counts": table.counts.tolist()}


def correlation_table_from_json_dict(d: dict) -> CorrelationTable:
    try:
        return CorrelationTable(d["q"], d["L1"], d["L2"], d["counts"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed table JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Construction specs
# ---------------------------------------------------------------------------

# kind -> (spec class, required keys, optional keys); the 1-D kinds have n = 0.
_SPEC_KEYS = {
    "gcap-basic": (GcapBasicSpec, ("q", "n", "m", "pi1", "pi2"), ("p", "lambda", "p0")),
    "gcap-general": (GcapGeneralSpec, ("q", "n", "m", "pi"), ("p", "p0")),
    "mate": (GcapGeneralSpec, ("q", "n", "m", "pi"), ("p", "p0")),
    "gcas": (GcasSpec, ("q", "n", "m", "blocks"), ("p", "p0")),
    "gdj": (GcapGeneralSpec, ("q", "m", "pi"), ("p", "p0")),
    "gcs1d": (GcasSpec, ("q", "m", "blocks"), ("p", "p0")),
}


def parse_construction_spec(kind: str, d: dict):
    """Validate a spec dict for the given kind and return its spec dataclass.

    gdj is a GcapGeneralSpec and gcs1d a GcasSpec, both with n = 0.
    """
    if kind not in _SPEC_KEYS:
        raise ValueError(f"unknown construction kind {kind!r}; choose from {GEN_KINDS}")
    if not isinstance(d, dict):
        raise ValueError(f"{kind} spec must be a JSON object, got {d!r}")
    cls, required, optional = _SPEC_KEYS[kind]
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown keys for {kind} spec: {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{kind} spec is missing keys: {missing}")
    fields = {"lam" if key == "lambda" else key: value for key, value in d.items()}
    return cls(**{"n": 0, **fields})


def spec_to_json_dict(spec) -> dict:
    if isinstance(spec, GcapGeneralSpec):
        return {"q": spec.q, "n": spec.n, "m": spec.m, "pi": list(spec.pi),
                "p": list(spec.p), "p0": spec.p0}
    if isinstance(spec, GcapBasicSpec):
        return {"q": spec.q, "n": spec.n, "m": spec.m, "pi1": list(spec.pi1),
                "pi2": list(spec.pi2), "p": list(spec.p),
                "lambda": list(spec.lam), "p0": spec.p0}
    if isinstance(spec, GcasSpec):
        return {"q": spec.q, "n": spec.n, "m": spec.m,
                "blocks": [list(b) for b in spec.blocks],
                "p": list(spec.p), "p0": spec.p0}
    raise TypeError(f"cannot serialize {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def papr_report_to_json_dict(report: PaprReport) -> dict:
    return {
        "per_row": list(report.per_row),
        "per_col": list(report.per_col),
        "row_bound": report.row_bound,
        "col_bound": report.col_bound,
        "oversampling": report.oversampling,
    }


def verification_to_json_dict(result: VerificationResult) -> dict:
    return {
        "passed": result.passed,
        "expected_center": result.expected_center,
        "center": format_correlation_value(result.center_value),
        "violations": [
            {"shift": [u1, u2], "value": [z.real, z.imag]}
            for (u1, u2), z in result.violations
        ],
        "truncated": result.truncated,
        "notes": list(result.notes),
    }
