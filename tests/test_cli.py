import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from golay2d import QaryArray, construct_gcap_general, construct_mate, count_general_gcaps
from golay2d import cli, constructions, correlation, formats
from golay2d.cli import build_parser, main
from golay2d.constructions import DEFAULT_ENUM_BUDGET
from golay2d.verify import DEFAULT_MAX_VIOLATIONS, DEFAULT_PAIR_BUDGET

import golden
from helpers import random_general_spec


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GENERAL_DOC = {"q": 2, "n": 2, "m": 3, "pi": [3, 4, 2, 1, 5]}
BASIC_DOC = {
    "q": 4, "n": 2, "m": 3, "pi1": [3, 1, 2], "pi2": [1, 2],
    "p": [1, 0, 0], "lambda": [0, 0], "p0": 0,
}
GCAS_DOC = {"q": 2, "n": 2, "m": 3, "blocks": [[4, 2, 5], [1, 3]]}


def test_gen_then_verify_gcap(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", GENERAL_DOC)
    out = str(tmp_path / "pair")
    assert main(["gen", "gcap-general", "--spec", spec, "--out", out]) == 0
    c = formats.load_array(tmp_path / "pair_c.csv")
    d = formats.load_array(tmp_path / "pair_d.csv")
    assert np.array_equal(c.entries, golden.GENERAL_Q2_C)
    assert np.array_equal(d.entries, golden.GENERAL_Q2_D)
    capsys.readouterr()
    assert main(["verify", "gcap", str(tmp_path / "pair_c.csv"), str(tmp_path / "pair_d.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["center"] == "64"


def test_gen_all_kinds_round_trip(tmp_path, capsys):
    cases = [
        ("gcap-basic", BASIC_DOC, "gcap", ["_c", "_d"]),
        ("gcap-general", GENERAL_DOC, "gcap", ["_c", "_d"]),
        ("mate", GENERAL_DOC, "gcap", ["_cprime", "_dprime"]),
        ("gcas", GCAS_DOC, "gcas", ["_0", "_1", "_2", "_3"]),
        ("gdj", {"q": 2, "m": 2, "pi": [1, 2]}, "gcs", ["_a", "_b"]),
        ("gcs1d", {"q": 2, "m": 3, "blocks": [[1, 2], [3]]}, "gcs", ["_0", "_1", "_2", "_3"]),
    ]
    for kind, doc, verify_kind, suffixes in cases:
        spec = write_spec(tmp_path, f"{kind}.json", doc)
        prefix = str(tmp_path / kind.replace("-", "_"))
        assert main(["gen", kind, "--spec", spec, "--out", prefix]) == 0
        files = [f"{prefix}{s}.csv" for s in suffixes]
        capsys.readouterr()
        assert main(["verify", verify_kind, *files]) == 0, (kind, verify_kind)
        capsys.readouterr()


def test_gen_mate_files_match_reference(tmp_path):
    spec = write_spec(tmp_path, "spec.json", GENERAL_DOC)
    prefix = str(tmp_path / "m")
    assert main(["gen", "mate", "--spec", spec, "--out", prefix]) == 0
    cp = formats.load_array(f"{prefix}_cprime.csv")
    dp = formats.load_array(f"{prefix}_dprime.csv")
    assert np.array_equal(cp.entries, golden.MATE_Q2_CPRIME)
    assert np.array_equal(dp.entries, golden.MATE_Q2_DPRIME)


def test_gen_cite_tag(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", GENERAL_DOC)
    assert main(["gen", "gcap-general", "--spec", spec,
                 "--out", str(tmp_path / "x"), "--cite"]) == 0
    out = capsys.readouterr().out
    assert "cite: golay2d" in out and "gcap-general" in out


def test_gen_bad_spec_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"q": 2, "n": 1, "m": 1, "pi": [1, 1]})
    assert main(["gen", "gcap-general", "--spec", spec, "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, doc, message", [
    ("gcap-general", {**GENERAL_DOC, "pi": None}, "pi must"),
    ("gcap-general", {**GENERAL_DOC, "p": 3}, "p must"),
    ("gcas", {**GCAS_DOC, "blocks": [1, 2, 3]}, "blocks[0] must"),
    ("gcap-general", {**GENERAL_DOC, "n": 1.5}, "n must"),
    ("gcap-general", {**GENERAL_DOC, "n": 1, "m": 1, "pi": "21"}, "pi must"),
    ("gcap-general", {**GENERAL_DOC, "p": [1.5, 0, 0, 0, 0]}, "p must"),
    ("gcap-general", {**GENERAL_DOC, "p0": 2.7}, "p0 must"),
    ("gcap-general", {**GENERAL_DOC, "n": True}, "n must"),
    ("gcap-general", {**GENERAL_DOC, "q": None}, "q must"),
    ("gcap-basic", {**BASIC_DOC, "lambda": "00"}, "lambda must"),
    ("gdj", [1, 2], "gdj spec must be a JSON object"),
])
def test_gen_mistyped_spec_field_exits_2(tmp_path, capsys, kind, doc, message):
    spec = write_spec(tmp_path, "spec.json", doc)
    assert main(["gen", kind, "--spec", spec, "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line_error(captured.err).startswith(f"error: {spec}: {message}")


def test_verify_mate_and_failure_paths(tmp_path, capsys):
    spec = golden.general_q2_spec()
    c, d = construct_gcap_general(spec)
    cp, dp = construct_mate(spec)
    paths = []
    for name, arr in (("c", c), ("d", d), ("cp", cp), ("dp", dp)):
        path = tmp_path / f"{name}.csv"
        formats.save_array(arr, path)
        paths.append(str(path))
    assert main(["verify", "mate", *paths]) == 0
    capsys.readouterr()
    assert main(["verify", "gcap", paths[0], paths[0]]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"] and report["violations"]
    assert main(["verify", "gcap", paths[0], str(tmp_path / "missing.csv")]) == 2
    assert main(["verify", "mate", paths[0], paths[1]]) == 2


def test_corr_matches_reference_table(tmp_path, capsys):
    c, _ = construct_gcap_general(golden.general_q2_spec())
    path = tmp_path / "c.csv"
    formats.save_array(c, path)
    assert main(["corr", str(path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    got = [[int(cell) for cell in line.split(",")] for line in lines]
    assert got == golden.AUTO_GENERAL_C


def test_corr_cross_matches_reference(tmp_path, capsys):
    spec = golden.general_q2_spec()
    c, _ = construct_gcap_general(spec)
    cp, _ = construct_mate(spec)
    pc, pcp = tmp_path / "c.csv", tmp_path / "cp.csv"
    formats.save_array(c, pc)
    formats.save_array(cp, pcp)
    out = tmp_path / "cross.csv"
    assert main(["corr", str(pc), str(pcp), "--cross", "--out", str(out)]) == 0
    table = formats.correlation_table_from_csv(out.read_text())
    for r, u1 in enumerate(range(-3, 4)):
        for col, u2 in enumerate(range(-7, 8)):
            assert table.value(u1, u2) == golden.CROSS_C_CPRIME[r][col]


def test_corr_json_round_trip(tmp_path, capsys):
    from golay2d import auto_correlation_table

    c, _ = construct_gcap_general(golden.general_q2_spec())
    path = tmp_path / "c.csv"
    formats.save_array(c, path)
    assert main(["corr", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert formats.correlation_table_from_json_dict(doc) == auto_correlation_table(c)


def test_corr_single_cell(tmp_path, capsys):
    path = tmp_path / "one.csv"
    formats.save_array(QaryArray(2, [[0]]), path)
    assert main(["corr", str(path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines == ["1"]


def test_corr_argument_errors(tmp_path, capsys):
    path = tmp_path / "c.csv"
    formats.save_array(QaryArray(2, [[0, 1]]), path)
    assert main(["corr", str(path), str(path)]) == 2
    assert main(["corr", str(path), "--cross"]) == 2
    capsys.readouterr()
    for doc, message in (('{"q": 4.0, "entries": [[0, 1]]}', "q must be an integer"),
                         ('{"q": 4, "entries": [[true, 1]]}', "entries[0] must be"),
                         ('{"q": 4, "entries": [[0, 1], [0]]}', "entries must be a rectangular array")):
        path.write_text(doc)
        assert main(["corr", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in _one_line_error(captured.err)


def test_papr_json_report(tmp_path, capsys):
    spec_path = write_spec(tmp_path, "spec.json", GENERAL_DOC)
    c, _ = construct_gcap_general(golden.general_q2_spec())
    arr_path = tmp_path / "c.csv"
    formats.save_array(c, arr_path)
    assert main(["papr", str(arr_path), "--spec", spec_path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["row_bound"] == 4.0 and report["col_bound"] == 2.0
    assert max(report["per_row"]) == pytest.approx(3.4427, abs=1e-3)
    assert all(v == pytest.approx(1.7698, abs=1e-3) for v in report["per_col"])


def test_papr_human_table(tmp_path, capsys):
    c, _ = construct_gcap_general(golden.general_q2_spec())
    arr_path = tmp_path / "c.csv"
    formats.save_array(c, arr_path)
    assert main(["papr", str(arr_path)]) == 0
    out = capsys.readouterr().out
    assert "rows (bound -)" in out and "max row" in out


def test_papr_env_oversampling(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GOLAY2D_OVERSAMPLE", "64")
    arr_path = tmp_path / "c.csv"
    formats.save_array(QaryArray(2, [[0, 0, 0, 1]]), arr_path)
    assert main(["papr", str(arr_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["oversampling"] == 64


def test_enumerate_agreement(monkeypatch, capsys):
    assert main(["enumerate", "2", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "formula: 8" in out and "distinct arrays: 8" in out and "agreement: yes" in out
    # a count that disagrees with the stream exits 1 and says so
    monkeypatch.setattr(cli, "count_general_gcaps", lambda q, n, m: 9)
    assert main(["enumerate", "2", "1", "1"]) == 1
    captured = capsys.readouterr()
    assert "formula: 9" in captured.out and "agreement" not in captured.out
    assert captured.err == "disagreement between enumeration and formula\n"


def test_enumerate_over_budget_skips(capsys):
    assert main(["enumerate", "4", "2", "3", "--budget", "1000"]) == 0
    out = capsys.readouterr().out
    assert "formula: 245760" in out and "enumeration skipped" in out


def test_enumerate_past_one_block_exits_2_before_allocating(tmp_path, monkeypatch, capsys):
    # 2^33 cells per array: within the budget the stream must refuse it
    # before it allocates anything, here its bit planes.
    def no_planes(n, m):
        raise AssertionError("the stream allocated bit planes")

    monkeypatch.setattr(constructions, "_bit_planes", no_planes)
    dump = tmp_path / "stream.jsonl"
    argv = ["enumerate", "2", "3", "30", "--budget", str(1 << 200), "--dump", str(dump)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not dump.exists()
    assert "n + m = 33" in _one_line_error(captured.err)
    # Over the budget the formula and the skip notice still come first.
    assert main(["enumerate", "2", "3", "30", "--budget", "1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"formula: {count_general_gcaps(2, 3, 30)}"
    assert out[1].startswith("enumeration skipped:") and len(out) == 2


def test_enumerate_negative_sizes_and_budget_exit_2(capsys):
    for argv, name in (
        (["enumerate", "2", "-1", "3"], "n must be at least 0"),
        (["enumerate", "2", "3", "-1"], "m must be at least 0"),
        (["enumerate", "2", "1", "1", "--budget", "-5"], "budget must be at least 0"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "formula:" not in captured.out and "skipped" not in captured.out
        assert name in _one_line_error(captured.err)


def test_enumerate_dump(tmp_path, capsys):
    dump = tmp_path / "stream.jsonl"
    assert main(["enumerate", "2", "1", "1", "--dump", str(dump)]) == 0
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(records) == 16
    assert all({"pi", "p", "p0", "c", "d"} <= set(r) for r in records)


def test_search_counts_and_dump(tmp_path, capsys):
    out = tmp_path / "pairs.jsonl"
    assert main(["search", "2", "1", "2", "--out", str(out)]) == 0
    assert "complementary pairs found: 8" in capsys.readouterr().out
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {"c": [[0, 0]], "d": [[0, 1]]} in records
    assert main(["search", "2", "2", "2", "--budget", "10"]) == 2


def test_search_unwritable_out_prints_no_report(tmp_path, capsys):
    # The pairs file is written before the report, so a path that cannot
    # be written leaves stdout empty rather than holding a partial report.
    out = tmp_path / "missing" / "pairs.jsonl"
    assert main(["search", "2", "1", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line_error(captured.err) == f"error: [Errno 2] No such file or directory: '{out}'"
    good = tmp_path / "pairs.jsonl"
    assert main(["search", "2", "1", "2", "--out", str(good)]) == 0
    assert capsys.readouterr().out == f"complementary pairs found: 8\nwrote {good}\n"


def test_outputs_deterministic(tmp_path):
    spec = write_spec(tmp_path, "spec.json", GENERAL_DOC)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["gen", "gcap-general", "--spec", spec, "--out", out1]) == 0
    assert main(["gen", "gcap-general", "--spec", spec, "--out", out2]) == 0
    assert (tmp_path / "a_c.csv").read_bytes() == (tmp_path / "b_c.csv").read_bytes()
    assert (tmp_path / "a_d.csv").read_bytes() == (tmp_path / "b_d.csv").read_bytes()


def _one_line_error(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


def test_verify_negative_max_violations_exits_2(tmp_path, capsys):
    c, d = construct_gcap_general(golden.general_q2_spec())
    paths = [str(tmp_path / "c.csv"), str(tmp_path / "d.csv")]
    formats.save_array(c, paths[0])
    formats.save_array(d, paths[1])
    assert main(["verify", "gcap", *paths, "--max-violations", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_violations" in _one_line_error(captured.err)


def test_bad_oversample_env_only_affects_papr(tmp_path, monkeypatch, capsys):
    c, d = construct_gcap_general(golden.general_q2_spec())
    paths = [str(tmp_path / "c.csv"), str(tmp_path / "d.csv")]
    formats.save_array(c, paths[0])
    formats.save_array(d, paths[1])
    for value, message in (
        ("lots", "GOLAY2D_OVERSAMPLE must be an integer, got 'lots'"),
        ("3", "GOLAY2D_OVERSAMPLE: oversampling must be at least 4, got 3"),
        ("0", "GOLAY2D_OVERSAMPLE: oversampling must be at least 4, got 0"),
        ("1048577", "GOLAY2D_OVERSAMPLE: oversampling must be at most 1048576, got 1048577"),
        ("1099511627776", "GOLAY2D_OVERSAMPLE: oversampling must be at most 1048576, got 1099511627776"),
    ):
        monkeypatch.setenv("GOLAY2D_OVERSAMPLE", value)
        assert main(["verify", "gcap", *paths]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert main(["papr", paths[0], "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err) == f"error: {message}"
        assert main(["papr", paths[0], "--json", "--oversample", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["oversampling"] == 8


def test_search_nonpositive_size_exits_2(capsys):
    assert main(["search", "2", "0", "4"]) == 2
    assert "L1" in _one_line_error(capsys.readouterr().err)
    assert main(["search", "2", "2", "-1"]) == 2
    assert "L2" in _one_line_error(capsys.readouterr().err)
    assert main(["search", "2", "1", "1", "--budget", "-1"]) == 2
    assert "budget must be at least 0, got -1" in _one_line_error(capsys.readouterr().err)


def test_out_of_memory_exits_2(monkeypatch, capsys):
    # An input too large to hold is an input error, not a failed check.
    # numpy's MemoryError names the shape it could not allocate; it is
    # raised here without a real allocation.
    message = "Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type int64"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    def out_of_memory_stream(*args, **kwargs):
        # A generator: the error comes once the stream is iterated.
        raise MemoryError(message)
        yield

    for name, fake, argv in (
        ("brute_force_gcaps", out_of_memory, ["search", "2", "5", "8", "--budget", str(1 << 80)]),
        ("enumerate_general_gcaps", out_of_memory_stream, ["enumerate", "2", "1", "1"]),
    ):
        monkeypatch.setattr(cli, name, fake)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err) == f"error: {message}"


def test_gen_out_of_memory_names_the_spec(tmp_path, monkeypatch, capsys):
    # A spec too large to build names its file, as any other bad spec does;
    # the bit planes raise here without a real allocation.
    message = "Unable to allocate 56.0 GiB for an array with shape (28, 16384, 16384)"

    def out_of_memory(n, m):
        raise MemoryError(message)

    monkeypatch.setattr(constructions, "_bit_planes", out_of_memory)
    spec = write_spec(tmp_path, "spec.json", GENERAL_DOC)
    assert main(["gen", "gcap-general", "--spec", spec, "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not list(tmp_path.glob("x_*"))
    assert _one_line_error(captured.err) == f"error: {spec}: {message}"


def test_gen_oversized_construction_exits_2(tmp_path, monkeypatch, capsys):
    # Refused by its cell count before the bit planes, which raise here.
    def no_planes(n, m):
        raise AssertionError("gen made bit planes")

    monkeypatch.setattr(constructions, "_bit_planes", no_planes)
    for kind, doc in (
        ("gcap-general", {"q": 2, "n": 11, "m": 11, "pi": list(range(1, 23))}),
        ("gcas", {"q": 4, "n": 0, "m": 12, "blocks": [[v] for v in range(1, 13)]}),
    ):
        spec = write_spec(tmp_path, "spec.json", doc)
        assert main(["gen", kind, "--spec", spec, "--out", str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not list(tmp_path.glob("x_*"))
        message = _one_line_error(captured.err)
        assert message.startswith(f"error: {spec}: construction too large: ")
        assert message.endswith("cells, over the limit of 4194304")


def test_uncertified_check_and_table_exit_2(tmp_path, monkeypatch, capsys):
    # Without a certified error bound neither a check above 128 cells nor
    # a table of one is decided: each exits 2 naming the shape and q.
    c, d = construct_gcap_general(random_general_spec(np.random.default_rng(7), q=4, n=4, m=4))
    entries = c.entries.copy()
    entries[-1, -1] = (entries[-1, -1] + 1) % 4
    paths = [str(tmp_path / "c.csv"), str(tmp_path / "d.csv")]
    formats.save_array(QaryArray(4, entries), paths[0])
    formats.save_array(d, paths[1])
    monkeypatch.setattr(correlation, "_count_error_bound", lambda *args: 1.0)
    for argv in (["verify", "gcap", *paths], ["corr", paths[0]]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = _one_line_error(captured.err)
        assert "16x16 q=4" in message and "a-priori error bound 1," in message


def test_ragged_csv_names_the_line(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# q=4\n0,1,2\n3,0\n")
    good = tmp_path / "good.csv"
    formats.save_array(QaryArray(4, [[0, 1, 2], [3, 0, 1]]), good)
    assert main(["verify", "gcap", str(ragged), str(good)]) == 2
    message = _one_line_error(capsys.readouterr().err)
    assert "line 3" in message and "inhomogeneous" not in message
    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("# q=2\n0,x\n")
    assert main(["verify", "gcap", str(bad_cell), str(good)]) == 2
    message = _one_line_error(capsys.readouterr().err)
    assert "line 2" in message and "'x'" in message
    for header in ("4.5", "4abc"):
        bad_cell.write_text(f"# q={header}\n0,1\n")
        assert main(["corr", str(bad_cell)]) == 2
        message = _one_line_error(capsys.readouterr().err)
        assert message == f"error: {bad_cell}: array CSV line 1: q must be an integer, got '{header}'"
    with pytest.raises(ValueError, match=r"^table CSV line 2: cell 'x'"):
        formats.correlation_table_from_csv("# q=2 L1=1 L2=2\n1,x,1\n")


def test_file_input_errors_exit_2(tmp_path, capsys):
    # a file that does not decode or parse is named; a wrong file count is too
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("# q=4\n0,1\n2,3\n")
    bad.write_text("# q=4\n0,1\n2,5\n")
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"q": 4,, }')
    listed = tmp_path / "listed.json"
    listed.write_text("[[0, 1]]\n")
    header_only, no_entries = tmp_path / "header_only.csv", tmp_path / "no_entries.json"
    header_only.write_text("# q=4\n")
    no_entries.write_text('{"q": 4, "entries": []}\n')
    bare = tmp_path / "bare.csv"
    bare.write_text("0,1\n1,0\n")
    json_array = tmp_path / "array.json"
    json_array.write_text('{"q": 4, "entries": [[0, 1], [2, 3]]}\n')
    binary, wide = tmp_path / "binary.csv", tmp_path / "wide.csv"
    binary.write_text("# q=2\n0,1\n1,0\n")
    wide.write_text("# q=4\n0,1,2\n2,3,0\n")
    bool_q = write_spec(tmp_path, "bool_q.json", {"q": True, "n": 1, "m": 1, "pi": [1, 2]})
    gdj = write_spec(tmp_path, "gdj.json", {"q": 2, "m": 2, "pi": [1, 2]})
    square = write_spec(tmp_path, "square.json", {"q": 4, "n": 1, "m": 1, "pi": [1, 2]})
    row, short = tmp_path / "row.csv", tmp_path / "short.csv"
    row.write_text("# q=4\n0,1,2\n")
    short.write_text("# q=4\n3,1\n")
    missing_dir = tmp_path / "missing"
    decode_error = f"{malformed}: Expecting property name"
    # a bad --q is named before any file is read, with or without a q header
    bad_q = "--q: alphabet size q must be an even integer >= 2, got "
    for argv, message in (
        (["verify", "gcap", str(good), str(bad)], f"{bad}: entries must lie in 0..3"),
        (["corr", str(malformed)], decode_error),
        (["corr", str(listed)], f"{listed}: array CSV line 1"),
        (["corr", str(header_only)], f"{header_only}: entries must form a nonempty 2-D array"),
        (["corr", str(no_entries)], f"{no_entries}: entries must form a nonempty 2-D array"),
        (["gen", "gdj", "--spec", str(malformed), "--out", str(tmp_path / "x")], decode_error),
        (["papr", str(good), "--spec", str(malformed)], decode_error),
        (["verify", "gcap", str(good)], "verify gcap needs exactly 2 array files"),
        (["verify", "gcap", *[str(good)] * 3], "verify gcap needs exactly 2 array files"),
        (["verify", "mate", *[str(good)] * 3],
         "verify mate needs exactly 4 array files: c d cprime dprime"),
        (["corr", "--cross", str(good)], "corr --cross needs exactly 2 array files"),
        (["corr", str(good), str(good)], "corr needs exactly 1 array file (or 2 with --cross)"),
        (["verify", "gcap", str(bare), str(bare), "--q", "3"], bad_q + "3"),
        (["verify", "gcap", str(good), str(good), "--q", "0"], bad_q + "0"),
        (["corr", str(good), "--q", "3"], bad_q + "3"),
        (["corr", "--cross", str(bare), str(bare), "--q", "0"], bad_q + "0"),
        (["papr", str(bare), "--q", "0"], bad_q + "0"),
        (["papr", str(good), "--q", "3"], bad_q + "3"),
        # a --q that differs from a file's own q names the file and both values
        (["corr", str(good), "--q", "8"], f"{good}: file has q=4, but --q is 8"),
        (["papr", str(json_array), "--q", "2"], f"{json_array}: file has q=4, but --q is 2"),
        (["verify", "gcap", str(bare), str(good), "--q", "2"], f"{good}: file has q=4, but --q is 2"),
        (["papr", str(good), "--spec", bool_q], f"{bool_q}: q must be an integer, got True"),
        (["verify", "gcap", str(good), str(binary)], "alphabet mismatch: q=4 vs q=2"),
        (["verify", "gcap", str(good), str(wide)], "shape mismatch: 2x2 vs 2x3"),
        (["corr", "--cross", str(good), str(binary)], "alphabet mismatch: q=4 vs q=2"),
        (["corr", "--cross", str(good), str(wide)], "shape mismatch: 2x2 vs 2x3"),
        (["verify", "gcs", str(good)], "sequence input is 2x2, expected one row"),
        # a mismatch names the spec and array files, or the two files that disagree
        (["papr", str(wide), "--spec", square],
         f"spec implies 2x2 but array is 2x3 ({square} vs {wide})"),
        (["papr", str(binary), "--spec", square],
         f"spec has q=4 but array has q=2 ({square} vs {binary})"),
        (["verify", "gcap", str(wide), str(good)], f"shape mismatch: 2x3 vs 2x2 ({wide} vs {good})"),
        (["verify", "gcas", str(good), str(good), str(binary)],
         f"alphabet mismatch: q=4 vs q=2 ({good} vs {binary})"),
        (["verify", "mate", *[str(good)] * 3, str(wide)],
         f"shape mismatch: 2x2 vs 2x3 ({good} vs {wide})"),
        (["corr", "--cross", str(binary), str(good)],
         f"alphabet mismatch: q=2 vs q=4 ({binary} vs {good})"),
        (["verify", "gcs", str(row), str(good)], f"sequence input is 2x2, expected one row ({good})"),
        (["verify", "gcs", str(row), str(short)], f"shape mismatch: 1x3 vs 1x2 ({row} vs {short})"),
        (["gen", "gdj", "--spec", gdj, "--out", str(missing_dir / "x")],
         f"[Errno 2] No such file or directory: '{missing_dir / 'x'}_a.csv'"),
        (["corr", str(good), "--out", str(missing_dir / "t.csv")],
         f"[Errno 2] No such file or directory: '{missing_dir / 't.csv'}'"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err).startswith(f"error: {message}")


def test_q_reads_headerless_csv_and_matching_headers(tmp_path, capsys):
    bare, binary = tmp_path / "bare.csv", tmp_path / "binary.csv"
    bare.write_text("0,1\n1,0\n")
    binary.write_text("# q=2\n0,1\n1,0\n")
    assert main(["corr", str(binary)]) == 0
    expected = capsys.readouterr().out
    for argv in (["corr", str(bare), "--q", "2"], ["corr", str(binary), "--q", "2"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


def test_papr_low_oversample_and_odd_q_exit_2(tmp_path, capsys):
    one = tmp_path / "one.csv"
    formats.save_array(QaryArray(2, [[1]]), one)
    for value, bound in (
        ("2", "at least 4"),
        ("1048577", "at most 1048576"),
        ("1099511627776", "at most 1048576"),
        ("99999999999999999999", "at most 1048576"),
    ):
        assert main(["papr", str(one), "--oversample", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err) == f"error: oversampling must be {bound}, got {value}"
    odd = tmp_path / "odd.csv"
    odd.write_text("# q=3\n0,1,2\n2,1,0\n")
    assert main(["papr", str(odd)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "even" in _one_line_error(captured.err)
    spec = write_spec(tmp_path, "spec.json", 3)
    assert main(["papr", str(one), "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spec must be a JSON object" in _one_line_error(captured.err)


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    assert parser.parse_args(["verify", "gcap", "c.csv", "d.csv"]).max_violations == DEFAULT_MAX_VIOLATIONS
    assert parser.parse_args(["enumerate", "2", "1", "1"]).budget == DEFAULT_ENUM_BUDGET
    assert parser.parse_args(["search", "2", "1", "2"]).budget == DEFAULT_PAIR_BUDGET


def test_python_m_runs_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "golay2d", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("--version")
    assert done.returncode == 0 and done.stdout == "golay2d 0.1.0\n"
    missing = str(tmp_path / "missing.csv")
    done = run("verify", "gcap", missing, missing)
    assert done.returncode == 2 and done.stdout == ""
    assert missing in _one_line_error(done.stderr)
