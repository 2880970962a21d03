"""The in-repo sample files must stay byte-identical to what the CLI emits."""

import filecmp
import json
import pathlib

import pytest

from golay2d.cli import main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

GEN_CASES = [
    ("gcap-basic", "gcap_basic_q4.json", "gcap_basic_q4", ["_c", "_d"]),
    ("gcap-general", "gcap_general_q2.json", "gcap_general_q2", ["_c", "_d"]),
    ("mate", "gcap_general_q2.json", "gcap_general_q2", ["_cprime", "_dprime"]),
    ("gcas", "gcas_q2.json", "gcas_q2", ["_0", "_1", "_2", "_3"]),
    ("gdj", "gdj_q2.json", "gdj_q2", ["_a", "_b"]),
    ("gcs1d", "gcs1d_q2.json", "gcs1d_q2", ["_0", "_1", "_2", "_3"]),
]


@pytest.mark.parametrize("kind,spec,prefix,suffixes", GEN_CASES)
def test_gen_samples_are_current(tmp_path, kind, spec, prefix, suffixes):
    out = str(tmp_path / prefix)
    assert main(["gen", kind, "--spec", str(SAMPLES / spec), "--out", out]) == 0
    for suffix in suffixes:
        regenerated = tmp_path / f"{prefix}{suffix}.csv"
        committed = SAMPLES / f"{prefix}{suffix}.csv"
        assert filecmp.cmp(regenerated, committed, shallow=False), committed.name


@pytest.mark.parametrize(
    "args,name",
    [
        (["corr", "gcap_general_q2_c.csv"], "gcap_general_q2_c_auto.csv"),
        (
            ["corr", "gcap_general_q2_c.csv", "gcap_general_q2_cprime.csv", "--cross"],
            "gcap_general_q2_mate_cross.csv",
        ),
    ],
)
def test_corr_samples_are_current(tmp_path, args, name):
    out = tmp_path / name
    full = [args[0]] + [str(SAMPLES / a) if a.endswith(".csv") else a for a in args[1:]]
    assert main([*full, "--out", str(out)]) == 0
    assert out.read_bytes() == (SAMPLES / name).read_bytes()


def test_sample_specs_parse():
    from golay2d import formats

    kinds = {
        "gcap_basic_q4.json": "gcap-basic",
        "gcap_general_q2.json": "gcap-general",
        "gcas_q2.json": "gcas",
        "gdj_q2.json": "gdj",
        "gcs1d_q2.json": "gcs1d",
    }
    for name, kind in kinds.items():
        doc = json.loads((SAMPLES / name).read_text())
        formats.parse_construction_spec(kind, doc)


@pytest.mark.parametrize(
    "array,spec,bounds",
    [
        ("gcap_basic_q4_c.csv", "gcap_basic_q4.json", (2, 2)),
        ("gcap_general_q2_c.csv", "gcap_general_q2.json", (4, 2)),
        # A gdj spec has no n: the pair is 1 x 2^m.
        ("gdj_q2_a.csv", "gdj_q2.json", (2, 1)),
    ],
)
def test_papr_takes_every_shipped_pair_spec(capsys, array, spec, bounds):
    assert main(["papr", str(SAMPLES / array), "--spec", str(SAMPLES / spec), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["row_bound"], report["col_bound"]) == bounds
    assert max(report["per_row"]) <= bounds[0] and max(report["per_col"]) <= bounds[1]


@pytest.mark.parametrize("array,spec", [("gcas_q2_0.csv", "gcas_q2.json"),
                                        ("gcs1d_q2_0.csv", "gcs1d_q2.json")])
def test_papr_names_the_pair_kinds_for_a_set_spec(capsys, array, spec):
    assert main(["papr", str(SAMPLES / array), "--spec", str(SAMPLES / spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith("fit no pair kind; choose from gcap-basic, gcap-general, gdj")
