import json

import numpy as np
import pytest

from golay2d import (
    CorrelationValue,
    GcapBasicSpec,
    GcapGeneralSpec,
    GcasSpec,
    GeneralizedBooleanFunction,
    QaryArray,
    CorrelationTable,
    auto_correlation_table,
    construct_gcap_general,
    cross_correlation_table,
    is_gcap,
    papr_report,
)
from golay2d import formats

import golden
from helpers import (
    count_value_inits,
    random_array,
    random_basic_spec,
    random_gcas_spec,
    random_general_spec,
)


def test_function_json_round_trip():
    doc = {
        "q": 4, "n": 2, "m": 3,
        "terms": [
            {"coeff": 2, "vars": [1]},
            {"coeff": 1, "vars": [2]},
            {"coeff": 3, "vars": [3, 5]},
            {"coeff": 2, "vars": [4]},
        ],
        "constant": 0,
    }
    f = formats.function_from_json_dict(doc)
    assert np.array_equal(f.to_array().entries, golden.EVAL_DEMO_ARRAY)
    assert formats.function_from_json_dict(formats.function_to_json_dict(f)) == f
    with pytest.raises(ValueError):
        formats.function_from_json_dict({"q": 4, "terms": []})


def test_array_csv_round_trip():
    rng = np.random.default_rng(73)
    for _ in range(10):
        arr = random_array(rng)
        text = formats.array_to_csv(arr)
        assert text.startswith(f"# q={arr.q}\n")
        assert formats.array_from_csv(text) == arr


def test_array_csv_headerless_needs_q():
    text = "0,1\n1,0\n"
    assert formats.array_from_csv(text, q=2) == QaryArray(2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        formats.array_from_csv(text)


def test_array_json_round_trip():
    arr = QaryArray(4, golden.EVAL_DEMO_ARRAY)
    assert formats.array_from_json_dict(formats.array_to_json_dict(arr)) == arr
    with pytest.raises(ValueError, match="malformed array JSON"):
        formats.array_from_json_dict({"q": 4})


def test_save_and_load_array(tmp_path):
    arr = QaryArray(4, golden.EVAL_DEMO_ARRAY)
    for fmt in ("csv", "json"):
        path = tmp_path / f"arr.{fmt}"
        formats.save_array(arr, path, fmt=fmt)
        assert formats.load_array(path) == arr
    with pytest.raises(ValueError, match="unknown array format 'xml'"):
        formats.save_array(arr, tmp_path / "arr.x", fmt="xml")
    assert not (tmp_path / "arr.x").exists()


def test_value_formatting():
    assert formats.format_correlation_value(CorrelationValue.from_int(-3, 2)) == "-3"
    assert formats.format_correlation_value(CorrelationValue.from_int(0, 4)) == "0"
    assert formats.format_correlation_value(CorrelationValue(4, (1, 2, 0, 0))) == "1+2i"
    assert formats.format_correlation_value(CorrelationValue(4, (1, 0, 0, 2))) == "1-2i"
    # q=8: xi + xi^7 = sqrt(2), exactly real but not an integer
    v = CorrelationValue(8, (0, 1, 0, 0, 0, 0, 0, 1))
    assert formats.format_correlation_value(v) == "1.41421356237"


def test_value_parsing():
    assert formats.parse_correlation_value("-3", 2) == -3
    assert formats.parse_correlation_value("1+2i", 4) == CorrelationValue(4, (1, 2, 0, 0))
    assert formats.parse_correlation_value("1-2i", 4) == CorrelationValue(4, (1, 0, 0, 2))
    with pytest.raises(ValueError):
        formats.parse_correlation_value("1.5", 2)
    with pytest.raises(ValueError):
        formats.parse_correlation_value("1+2i", 2)


def test_table_csv_round_trip_binary():
    c, _ = construct_gcap_general(golden.general_q2_spec())
    table = auto_correlation_table(c)
    text = formats.correlation_table_to_csv(table)
    assert formats.correlation_table_from_csv(text) == table
    # layout: one row per u1 ascending, so the first data row starts with
    # the corner value at (-(L1-1), -(L2-1))
    first_row = text.splitlines()[1].split(",")
    assert first_row[0] == "1" and len(first_row) == 15
    with pytest.raises(ValueError, match="odd row and column counts"):
        formats.correlation_table_from_csv("# q=2\n1,0,1\n0,4,0\n")


def test_table_csv_round_trip_quaternary():
    rng = np.random.default_rng(79)
    arr = random_array(rng, q=4, L1=2, L2=4)
    table = auto_correlation_table(arr)
    text = formats.correlation_table_to_csv(table)
    assert formats.correlation_table_from_csv(text) == table


def test_table_json_round_trip_any_q():
    rng = np.random.default_rng(83)
    for q in (2, 4, 6, 8):
        arr = random_array(rng, q=q, L1=2, L2=3)
        table = auto_correlation_table(arr)
        doc = formats.correlation_table_to_json_dict(table)
        again = formats.correlation_table_from_json_dict(json.loads(json.dumps(doc)))
        assert again == table


def test_spec_parsing_all_kinds():
    general = formats.parse_construction_spec(
        "gcap-general", {"q": 2, "n": 2, "m": 3, "pi": [3, 4, 2, 1, 5]}
    )
    assert general == golden.general_q2_spec()
    basic = formats.parse_construction_spec(
        "gcap-basic",
        {"q": 4, "n": 2, "m": 3, "pi1": [3, 1, 2], "pi2": [1, 2],
         "p": [1, 0, 0], "lambda": [0, 0], "p0": 0},
    )
    assert basic == golden.basic_q4_spec()
    gcas = formats.parse_construction_spec(
        "gcas", {"q": 2, "n": 2, "m": 3, "blocks": [[4, 2, 5], [1, 3]]}
    )
    assert gcas == golden.gcas_q2_spec()
    gdj = formats.parse_construction_spec("gdj", {"q": 2, "m": 2, "pi": [1, 2]})
    assert gdj == GcapGeneralSpec(2, 0, 2, (1, 2))
    gcs1d = formats.parse_construction_spec(
        "gcs1d", {"q": 2, "m": 3, "blocks": [[1, 2], [3]]}
    )
    assert gcs1d == GcasSpec(2, 0, 3, ((1, 2), (3,)))


def test_spec_parsing_errors():
    with pytest.raises(ValueError):
        formats.parse_construction_spec("gcap-general", {"q": 2, "n": 1, "m": 1})
    with pytest.raises(ValueError):
        formats.parse_construction_spec(
            "gcap-general", {"q": 2, "n": 1, "m": 1, "pi": [1, 2], "bogus": 1}
        )
    with pytest.raises(ValueError):
        formats.parse_construction_spec("nope", {})


def test_pair_spec_takes_the_one_pair_kind_its_keys_fit():
    docs = {
        "gcap-general": {"q": 2, "n": 2, "m": 3, "pi": [3, 4, 2, 1, 5]},
        "gcap-basic": {"q": 4, "n": 2, "m": 3, "pi1": [3, 1, 2], "pi2": [1, 2],
                       "p": [1, 0, 0], "lambda": [0, 0], "p0": 0},
        "gdj": {"q": 2, "m": 2, "pi": [1, 2], "p0": 1},
    }
    for kind, doc in docs.items():
        assert formats.parse_pair_spec(doc) == formats.parse_construction_spec(kind, doc)
    for doc in ({"q": 2, "n": 2, "m": 3, "blocks": [[4, 2, 5], [1, 3]]},
                {"q": 2, "m": 3, "blocks": [[1, 2], [3]]},
                {"q": 2, "n": 1, "m": 1},
                {"q": 2, "n": 1, "m": 1, "pi": [1, 2], "bogus": 1}):
        with pytest.raises(ValueError, match=r"fit no pair kind; choose from "
                                             r"gcap-basic, gcap-general, gdj$"):
            formats.parse_pair_spec(doc)
    with pytest.raises(ValueError, match="must be a JSON object"):
        formats.parse_pair_spec([1, 2])


def test_spec_json_round_trip():
    rng = np.random.default_rng(137)
    specs = [golden.general_q2_spec(), golden.basic_q4_spec(), golden.gcas_q2_spec()]
    for _ in range(20):
        specs += [random_general_spec(rng), random_basic_spec(rng), random_gcas_spec(rng)]
    for m in (2, 3):
        specs += [random_general_spec(rng, n=0, m=m), random_gcas_spec(rng, n=0, m=m)]
    for spec in specs:
        doc = formats.spec_to_json_dict(spec)
        kind = (
            "gcap-general" if isinstance(spec, GcapGeneralSpec)
            else "gcap-basic" if isinstance(spec, GcapBasicSpec)
            else "gcas"
        )
        assert formats.parse_construction_spec(kind, json.loads(json.dumps(doc))) == spec
    with pytest.raises(TypeError, match="cannot serialize object"):
        formats.spec_to_json_dict(object())
    assert formats.GEN_KINDS == ("gcap-basic", "gcap-general", "mate", "gcas", "gdj", "gcs1d")


def test_report_json_dicts():
    c, d = construct_gcap_general(golden.general_q2_spec())
    rep = formats.papr_report_to_json_dict(papr_report(c, spec=golden.general_q2_spec()))
    assert rep["row_bound"] == 4.0 and len(rep["per_row"]) == 4
    ver = formats.verification_to_json_dict(is_gcap(c, d))
    assert ver["passed"] and ver["center"] == "64" and ver["violations"] == []
    bad = formats.verification_to_json_dict(is_gcap(c, c))
    assert not bad["passed"] and bad["violations"]


def test_ragged_array_csv_names_first_bad_line():
    with pytest.raises(ValueError, match=r"line 4 has 2 entries, but line 2 has 3"):
        formats.array_from_csv("# q=4\n0,1,2\n\n3,0\n1,1,1\n")
    with pytest.raises(ValueError, match=r"line 2 has 3 entries, but line 1 has 2"):
        formats.array_from_csv("0,1\n1,0,1\n", q=2)


def test_table_json_is_the_count_tensor():
    rng = np.random.default_rng(7)
    arr = random_array(rng, q=6, L1=3, L2=5)
    table = auto_correlation_table(arr)
    assert formats.correlation_table_to_json_dict(table)["counts"] == table.counts.tolist()
    with pytest.raises(ValueError):
        formats.correlation_table_from_json_dict({"q": 6, "L1": 3, "L2": 5, "counts": [[[1]]]})
    with pytest.raises(ValueError, match="malformed table JSON"):
        formats.correlation_table_from_json_dict({"q": 2})


def _per_cell_csv(table) -> str:
    width = 2 * table.L2 - 1
    cells = [formats.format_correlation_value(value) for _, value in table.items()]
    lines = [f"# q={table.q} L1={table.L1} L2={table.L2}"]
    lines += [",".join(cells[k:k + width]) for k in range(0, len(cells), width)]
    return "\n".join(lines) + "\n"


def test_table_csv_matches_per_cell_formatting():
    rng = np.random.default_rng(101)
    for q in (2, 4, 6, 8, 12):
        for _ in range(6):
            L1, L2 = (int(v) for v in rng.integers(1, 10, 2))
            c = QaryArray(q, rng.integers(0, q, (L1, L2)))
            d = QaryArray(q, rng.integers(0, q, (L1, L2)))
            # arbitrary signed counts reach values no correlation of arrays this small takes
            noise = rng.integers(-3, 4, (2 * L1 - 1, 2 * L2 - 1, q))
            for table in (
                auto_correlation_table(c),
                cross_correlation_table(c, d),
                CorrelationTable(q, L1, L2, noise),
            ):
                assert formats.correlation_table_to_csv(table) == _per_cell_csv(table)


def test_csv_export_builds_no_values(monkeypatch):
    rng = np.random.default_rng(47)
    c = QaryArray(8, rng.integers(0, 8, (7, 9)))
    d = QaryArray(8, rng.integers(0, 8, (7, 9)))
    tables = [auto_correlation_table(c), cross_correlation_table(c, d)]
    calls = count_value_inits(monkeypatch)
    texts = [formats.correlation_table_to_csv(table) for table in tables]
    assert calls == []
    assert any("i" in cell for cell in texts[1].split(",")), "no non-Gaussian cell"

