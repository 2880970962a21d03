"""Command-line front end.

Subcommands: gen (build arrays from a spec file), verify (exact definition
checks), corr (correlation table export), papr (row/column PAPR report),
enumerate (exhaust the general pair construction and cross-check the distinct
count), search (brute-force oracle listing of all complementary pairs at a
size).  Exit codes: 0 success or pass, 1 failed verification or count
disagreement, 2 input error.  GOLAY2D_OVERSAMPLE overrides the default PAPR
oversampling factor of the papr subcommand; the others ignore it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import __version__
from . import formats
from .boolfunc import _at_least, _require_uniform, require_even_q
from .constructions import (
    DEFAULT_ENUM_BUDGET,
    _raw_spec_count,
    construct_gcap_basic,
    construct_gcap_general,
    construct_gcas,
    construct_mate,
    count_general_gcaps,
    enumerate_general_gcaps,
    gcs_1d,
    gdj_pair,
)
from .correlation import auto_correlation_table, cross_correlation_table
from .papr import DEFAULT_OVERSAMPLING, _check_oversampling, _require_spec_fits, papr_report
from .verify import (
    DEFAULT_MAX_VIOLATIONS,
    DEFAULT_PAIR_BUDGET,
    _require_one_row,
    brute_force_gcaps,
    is_gcap,
    is_gcas,
    is_gcs,
    is_mate,
)

OVERSAMPLE_ENV = "GOLAY2D_OVERSAMPLE"


def _default_oversampling() -> int:
    """The papr oversampling factor set by GOLAY2D_OVERSAMPLE; an error names the variable."""
    raw = os.environ.get(OVERSAMPLE_ENV)
    if raw is None:
        return DEFAULT_OVERSAMPLING
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{OVERSAMPLE_ENV} must be an integer, got {raw!r}") from exc
    try:
        return _check_oversampling(value)
    except ValueError as exc:
        raise ValueError(f"{OVERSAMPLE_ENV}: {exc}") from exc


def _load_spec(path, parse) -> tuple:
    """The JSON document of a spec file and parse(document); an error names the file once.

    A parse that builds arrays from the spec and cannot allocate them is
    such an error too: the spec asked for arrays too large to hold.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc, parse(doc)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_arrays(paths, q) -> list:
    """The arrays of the files; a bad --q is named once, before any file is read.

    --q sets the alphabet of a headerless CSV; a file that carries its own q
    must agree with it, or the file is named with both values.
    """
    if q is not None:
        try:
            require_even_q(q)
        except ValueError as exc:
            raise ValueError(f"--q: {exc}") from exc
    arrays = []
    for path in paths:
        arr = formats.load_array(path, q=q)
        if q not in (None, arr.q):
            raise ValueError(f"{path}: file has q={arr.q}, but --q is {q}")
        arrays.append(arr)
    return arrays


@contextlib.contextmanager
def _naming(*paths):
    """Name the files at fault after the text of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{exc} ({' vs '.join(map(str, paths))})") from None


def _require_same(paths, arrays):
    """Every array shares the first one's q and shape; a mismatch names both files."""
    for path, arr in zip(paths[1:], arrays[1:]):
        with _naming(paths[0], path):
            _require_uniform([arrays[0], arr])


def _write_pair(fh, c, d, record=None):
    """Write one JSON line: the fields of record, then the entries of c and d."""
    fh.write(json.dumps({**(record or {}), "c": formats.array_to_json_dict(c)["entries"],
                         "d": formats.array_to_json_dict(d)["entries"]}) + "\n")


def _emit(text: str, out_path=None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    # Built per call, so that names patched on this module are the ones called.
    names, build = {
        "gcap-basic": (("c", "d"), construct_gcap_basic),
        "gcap-general": (("c", "d"), construct_gcap_general),
        "mate": (("cprime", "dprime"), construct_mate),
        "gcas": (None, construct_gcas),
        "gdj": (("a", "b"), lambda s: gdj_pair(s.q, s.m, s.pi, s.p, s.p0)),
        "gcs1d": (None, lambda s: gcs_1d(s.q, s.m, s.blocks, s.p, s.p0)),
    }[args.kind]
    spec_dict, arrays = _load_spec(
        args.spec, lambda doc: build(formats.parse_construction_spec(args.kind, doc)))
    paths = [f"{args.out}_{name}.{args.format}" for name in names or map(str, range(len(arrays)))]
    for arr, path in zip(arrays, paths):
        formats.save_array(arr, path, fmt=args.format)
    first = arrays[0]
    print(f"gen {args.kind}: q={first.q}, {len(arrays)} array(s) of size {first.L1}x{first.L2}")
    for path in paths:
        print(f"  wrote {path}")
    if args.cite:
        params = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
        print(f"cite: golay2d {__version__} {args.kind} {params}")
    return 0


def cmd_verify(args) -> int:
    # (file count, None for any; count message suffix; check), built per call like cmd_gen's.
    count, suffix, check = {
        "gcap": (2, "", lambda a, **kw: is_gcap(*a, **kw)),
        "mate": (4, ": c d cprime dprime", lambda a, **kw: is_mate(a[:2], a[2:], **kw)),
        "gcas": (None, "", is_gcas),
        "gcs": (None, "", is_gcs),
    }[args.kind]
    arrays = _load_arrays(args.files, args.q)
    if count not in (None, len(arrays)):
        raise ValueError(f"verify {args.kind} needs exactly {count} array files{suffix}")
    if args.kind == "gcs":
        for path, arr in zip(args.files, arrays):
            with _naming(path):
                _require_one_row(arr)
    _require_same(args.files, arrays)
    result = check(arrays, max_violations=args.max_violations)
    print(json.dumps(formats.verification_to_json_dict(result)))
    return 0 if result.passed else 1


def cmd_corr(args) -> int:
    # Built per call, like cmd_gen's table.
    count, usage, correlate = {
        True: (2, "corr --cross needs exactly 2 array files", cross_correlation_table),
        False: (1, "corr needs exactly 1 array file (or 2 with --cross)", auto_correlation_table),
    }[args.cross]
    if len(args.files) != count:
        raise ValueError(usage)
    arrays = _load_arrays(args.files, args.q)
    _require_same(args.files, arrays)
    table = correlate(*arrays)
    if args.format == "csv":
        _emit(formats.correlation_table_to_csv(table), args.out)
    else:
        _emit(json.dumps(formats.correlation_table_to_json_dict(table)) + "\n", args.out)
    return 0


def cmd_papr(args) -> int:
    [arr] = _load_arrays([args.file], args.q)
    spec = None
    if args.spec:
        _, spec = _load_spec(args.spec, formats.parse_pair_spec)
        with _naming(args.spec, args.file):
            _require_spec_fits(arr, spec)
    oversampling = args.oversample if args.oversample is not None else _default_oversampling()
    report = papr_report(arr, spec=spec, oversampling=oversampling)
    if args.json:
        print(json.dumps(formats.papr_report_to_json_dict(report)))
        return 0
    for title, label, bound, values in (("rows", "row", report.row_bound, report.per_row),
                                        ("columns", "col", report.col_bound, report.per_col)):
        bound = "-" if bound is None else f"{bound:g}"
        print(f"{title} (bound {bound}):")
        for index, value in enumerate(values):
            print(f"  {label} {index}: {value:.6f}")
    print(f"max row {report.max_row:.6f}, max col {report.max_col:.6f}, "
          f"oversampling {report.oversampling}")
    return 0


def cmd_enumerate(args) -> int:
    budget = _at_least(args.budget, 0, "budget")
    formula = count_general_gcaps(args.q, args.n, args.m)
    raw = _raw_spec_count(args.q, args.n, args.m)
    if raw > budget:
        print(f"formula: {formula}")
        print(f"enumeration skipped: {raw} raw specs exceed budget {budget}")
        return 0
    # The report is printed once the stream has run, so a failing run prints none of it,
    # and a stream that cannot start opens no dump file.
    stream = enumerate_general_gcaps(args.q, args.n, args.m, budget=budget)
    with open(args.dump, "w", encoding="utf-8") if args.dump else contextlib.nullcontext() as dump:
        # First arrays of one shape, keyed by their bytes: an array has
        # exactly one ANF, so distinct arrays are distinct functions.
        seen = set()
        count = 0
        for spec, (c, d) in stream:
            count += 1
            seen.add(c.entries.tobytes())
            if dump:
                _write_pair(dump, c, d, formats.spec_to_json_dict(spec))
    print(f"formula: {formula}")
    print(f"raw specs: {count}")
    print(f"distinct arrays: {len(seen)}")
    if len(seen) != formula:
        print("disagreement between enumeration and formula", file=sys.stderr)
        return 1
    print("agreement: yes")
    return 0


def cmd_search(args) -> int:
    pairs = brute_force_gcaps(args.q, args.L1, args.L2, budget=args.budget)
    # The file is written before the report, so a run that cannot write it prints none of it.
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for c, d in pairs:
                _write_pair(fh, c, d)
    print(f"complementary pairs found: {len(pairs)}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="golay2d",
        description="Build and exactly verify 2-D complementary array pairs, sets, and mates.",
    )
    parser.add_argument("--version", action="version", version=f"golay2d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build arrays from a JSON spec file")
    p.add_argument("kind", choices=formats.GEN_KINDS)
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cite", action="store_true",
                   help="print a reproducibility tag (kind, version, parameters)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run an exact definition check on array files")
    p.add_argument("kind", choices=("gcap", "gcas", "mate", "gcs"))
    p.add_argument("files", nargs="+")
    p.add_argument("--q", type=int, default=None, help="alphabet for headerless CSV")
    p.add_argument("--max-violations", type=int, default=DEFAULT_MAX_VIOLATIONS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corr", help="export a correlation table")
    p.add_argument("files", nargs="+")
    p.add_argument("--cross", action="store_true", help="cross-correlate two arrays")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("papr", help="report row/column PAPRs with bounds")
    p.add_argument("file")
    p.add_argument("--spec", default=None, help="gcap-basic, gcap-general or gdj spec JSON for bounds")
    p.add_argument("--oversample", type=int, default=None,
                   help=f"PAPR oversampling factor (default ${OVERSAMPLE_ENV} or {DEFAULT_OVERSAMPLING})")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_papr)

    p = sub.add_parser("enumerate", help="exhaust the general pair construction and count")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    p.add_argument("--dump", default=None, help="write the stream as JSON lines")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search", help="brute-force all complementary pairs at a size")
    p.add_argument("q", type=int)
    p.add_argument("L1", type=int)
    p.add_argument("L2", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--out", default=None, help="write pairs as JSON lines")
    p.set_defaults(func=cmd_search)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses; build_parser makes a fresh one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
