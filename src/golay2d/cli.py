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
from .boolfunc import _at_least, require_even_q
# gdj_pair and gcs_1d are unused here but stay bound: bench/tracing.py wraps them by name.
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
from .papr import DEFAULT_OVERSAMPLING, _check_oversampling, papr_report
from .verify import (
    DEFAULT_MAX_VIOLATIONS,
    DEFAULT_PAIR_BUDGET,
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
    """The arrays of the files; a bad --q is named once, before any file is read."""
    if q is not None:
        try:
            require_even_q(q)
        except ValueError as exc:
            raise ValueError(f"--q: {exc}") from exc
    return [formats.load_array(path, q=q) for path in paths]


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
        "gdj": (("a", "b"), construct_gcap_general),
        "gcs1d": (None, construct_gcas),
    }[args.kind]
    spec_dict, arrays = _load_spec(
        args.spec, lambda doc: build(formats.parse_construction_spec(args.kind, doc)))
    outputs = list(zip(names or map(str, range(len(arrays))), arrays))

    ext = args.format
    paths = []
    for name, arr in outputs:
        path = f"{args.out}_{name}.{ext}"
        formats.save_array(arr, path, fmt=args.format)
        paths.append(path)
    first = outputs[0][1]
    print(f"gen {args.kind}: q={first.q}, {len(outputs)} array(s) of size {first.L1}x{first.L2}")
    for path in paths:
        print(f"  wrote {path}")
    if args.cite:
        params = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
        print(f"cite: golay2d {__version__} {args.kind} {params}")
    return 0


def cmd_verify(args) -> int:
    arrays = _load_arrays(args.files, args.q)
    if args.kind == "gcap":
        if len(arrays) != 2:
            raise ValueError("verify gcap needs exactly 2 array files")
        result = is_gcap(arrays[0], arrays[1], max_violations=args.max_violations)
    elif args.kind == "mate":
        if len(arrays) != 4:
            raise ValueError("verify mate needs exactly 4 array files: c d cprime dprime")
        result = is_mate((arrays[0], arrays[1]), (arrays[2], arrays[3]),
                         max_violations=args.max_violations)
    elif args.kind == "gcas":
        result = is_gcas(arrays, max_violations=args.max_violations)
    else:
        result = is_gcs(arrays, max_violations=args.max_violations)
    print(json.dumps(formats.verification_to_json_dict(result)))
    return 0 if result.passed else 1


def cmd_corr(args) -> int:
    if args.cross:
        if len(args.files) != 2:
            raise ValueError("corr --cross needs exactly 2 array files")
        table = cross_correlation_table(*_load_arrays(args.files, args.q))
    else:
        if len(args.files) != 1:
            raise ValueError("corr needs exactly 1 array file (or 2 with --cross)")
        table = auto_correlation_table(*_load_arrays(args.files, args.q))
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
    oversampling = args.oversample if args.oversample is not None else _default_oversampling()
    report = papr_report(arr, spec=spec, oversampling=oversampling)
    if args.json:
        print(json.dumps(formats.papr_report_to_json_dict(report)))
        return 0
    bound = "-" if report.row_bound is None else f"{report.row_bound:g}"
    print(f"rows (bound {bound}):")
    for g, value in enumerate(report.per_row):
        print(f"  row {g}: {value:.6f}")
    bound = "-" if report.col_bound is None else f"{report.col_bound:g}"
    print(f"columns (bound {bound}):")
    for i, value in enumerate(report.per_col):
        print(f"  col {i}: {value:.6f}")
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
                record = formats.spec_to_json_dict(spec)
                record["c"] = formats.array_to_json_dict(c)["entries"]
                record["d"] = formats.array_to_json_dict(d)["entries"]
                dump.write(json.dumps(record) + "\n")
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
    print(f"complementary pairs found: {len(pairs)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for c, d in pairs:
                fh.write(json.dumps({
                    "c": formats.array_to_json_dict(c)["entries"],
                    "d": formats.array_to_json_dict(d)["entries"],
                }) + "\n")
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
    except (ValueError, ArithmeticError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
