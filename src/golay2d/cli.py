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
import json
import os
import sys

from . import __version__
from . import formats
from .boolfunc import _at_least
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
    general_gcap_function,
)
from .correlation import auto_correlation_table, cross_correlation_table
from .papr import DEFAULT_OVERSAMPLING, papr_report
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
    raw = os.environ.get(OVERSAMPLE_ENV)
    if raw is None:
        return DEFAULT_OVERSAMPLING
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{OVERSAMPLE_ENV} must be an integer, got {raw!r}") from exc


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out_path=None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    spec_dict = _load_json(args.spec)
    parsed = formats.parse_construction_spec(args.kind, spec_dict)
    # Built per call, so that names patched on this module are the ones called.
    names, build = {
        "gcap-basic": (("c", "d"), construct_gcap_basic),
        "gcap-general": (("c", "d"), construct_gcap_general),
        "mate": (("cprime", "dprime"), construct_mate),
        "gcas": (None, construct_gcas),
        "gdj": (("a", "b"), construct_gcap_general),
        "gcs1d": (None, construct_gcas),
    }[args.kind]
    arrays = build(parsed)
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
    arrays = [formats.load_array(path, q=args.q) for path in args.files]
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
        c = formats.load_array(args.files[0], q=args.q)
        d = formats.load_array(args.files[1], q=args.q)
        table = cross_correlation_table(c, d)
    else:
        if len(args.files) != 1:
            raise ValueError("corr needs exactly 1 array file (or 2 with --cross)")
        table = auto_correlation_table(formats.load_array(args.files[0], q=args.q))
    if args.format == "csv":
        _emit(formats.correlation_table_to_csv(table), args.out)
    else:
        _emit(json.dumps(formats.correlation_table_to_json_dict(table)) + "\n", args.out)
    return 0


def cmd_papr(args) -> int:
    arr = formats.load_array(args.file, q=args.q)
    spec = None
    if args.spec:
        spec_dict = _load_json(args.spec)
        basic = isinstance(spec_dict, dict) and "pi1" in spec_dict
        spec = formats.parse_construction_spec("gcap-basic" if basic else "gcap-general", spec_dict)
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
    print(f"formula: {formula}")
    if raw > budget:
        print(f"enumeration skipped: {raw} raw specs exceed budget {budget}")
        return 0
    dump = open(args.dump, "w", encoding="utf-8") if args.dump else None
    try:
        seen = set()
        count = 0
        for spec, (c, d) in enumerate_general_gcaps(args.q, args.n, args.m, budget=args.budget):
            count += 1
            seen.add(general_gcap_function(spec))
            if dump:
                record = formats.spec_to_json_dict(spec)
                record["c"] = formats.array_to_json_dict(c)["entries"]
                record["d"] = formats.array_to_json_dict(d)["entries"]
                dump.write(json.dumps(record) + "\n")
    finally:
        if dump:
            dump.close()
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
    p.add_argument("--spec", default=None, help="construction spec JSON for bounds")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
