import re

import numpy as np
import pytest

from golay2d import (
    CorrelationTable,
    CorrelationValue,
    GeneralizedBooleanFunction,
    QaryArray,
    auto_correlation_table,
    brute_force_gcaps,
    cross_correlation,
    enumerate_general_gcaps,
    formats,
    function_from_array,
    is_gcap,
    papr_sequence,
    z_role,
)
from golay2d.boolfunc import _bit_planes

import golden
from helpers import random_array


def test_z_role_row_and_column():
    assert z_role(1, 2, 3).label == "y1"
    assert z_role(3, 2, 3).label == "x1"
    assert z_role(5, 2, 3).label == "x3"
    role = z_role(2, 2, 3)
    assert (role.index, role.axis, role.axis_index) == (2, "y", 2)


def test_z_role_covers_all_variables_bijectively():
    for n in range(4):
        for m in range(4):
            if n + m == 0:
                continue
            labels = {z_role(l, n, m).label for l in range(1, n + m + 1)}
            assert labels == {f"y{i}" for i in range(1, n + 1)} | {
                f"x{j}" for j in range(1, m + 1)
            }


def test_z_role_out_of_range():
    with pytest.raises(ValueError):
        z_role(0, 2, 3)
    with pytest.raises(ValueError):
        z_role(6, 2, 3)


def test_eval_demo_function():
    f = GeneralizedBooleanFunction(4, 2, 3, golden.EVAL_DEMO_TERMS)
    assert f.evaluate(0, 0) == 0
    assert f.evaluate(0, 5) == 3
    assert np.array_equal(f.to_array().entries, golden.EVAL_DEMO_ARRAY)
    assert f.to_string() == "2*z1 + z2 + 3*z3*z5 + 2*z4"
    assert f.to_string("xy") == "2*y1 + y2 + 3*x1*x3 + 2*x2"


def test_eval_zero_function():
    f = GeneralizedBooleanFunction(2, 1, 2)
    for g in range(2):
        for i in range(4):
            assert f.evaluate(g, i) == 0


def test_eval_index_errors():
    f = GeneralizedBooleanFunction(4, 2, 3, golden.EVAL_DEMO_TERMS)
    with pytest.raises(ValueError):
        f.evaluate(4, 0)
    with pytest.raises(ValueError):
        f.evaluate(0, 8)
    with pytest.raises(ValueError):
        f.evaluate(-1, 0)


def test_degree_one_arrays():
    f = GeneralizedBooleanFunction(2, 1, 1, [(1, (1,))])
    assert np.array_equal(f.to_array().entries, [[0, 0], [1, 1]])
    f = GeneralizedBooleanFunction(2, 1, 1, [(1, (2,))])
    assert np.array_equal(f.to_array().entries, [[0, 1], [0, 1]])


def test_row_variable_arrays_constant_within_rows():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        q = int(rng.choice((2, 4, 6)))
        l = int(rng.integers(1, n + m + 1))
        arr = GeneralizedBooleanFunction(q, n, m, [(1, (l,))]).to_array().entries
        if l <= n:
            assert (arr == arr[:, :1]).all()
        else:
            assert (arr == arr[:1, :]).all()


def test_canonical_form_merges_and_drops():
    f = GeneralizedBooleanFunction(4, 1, 1, [(3, (1, 2)), (1, (2, 1)), (2, (1,)), (3, (1,))])
    assert f.terms == ((1, (1,)),)  # 3+1 = 0 mod 4 drops the pair term; 2+3 = 1 survives
    g = GeneralizedBooleanFunction(4, 1, 1, [(4, (1,))])
    assert g.terms == ()
    h = GeneralizedBooleanFunction(4, 1, 1, [(3, ()), (1, (1,))], constant=2)
    assert h.constant == 1 and h.terms == ((1, (1,)),)


def test_duplicate_variables_in_monomial_collapse():
    # binary variables are idempotent, so z1*z1 == z1
    f = GeneralizedBooleanFunction(4, 1, 1, [(3, (1, 1))])
    g = GeneralizedBooleanFunction(4, 1, 1, [(3, (1,))])
    assert f == g and hash(f) == hash(g)


def test_equality_and_hash():
    a = GeneralizedBooleanFunction(4, 2, 3, golden.EVAL_DEMO_TERMS, constant=1)
    b = GeneralizedBooleanFunction(4, 2, 3, list(reversed(golden.EVAL_DEMO_TERMS)), constant=1)
    assert a == b and hash(a) == hash(b)
    assert a != GeneralizedBooleanFunction(4, 2, 3, golden.EVAL_DEMO_TERMS, constant=2)


def test_odd_q_rejected():
    with pytest.raises(ValueError):
        GeneralizedBooleanFunction(3, 1, 1)
    with pytest.raises(ValueError):
        QaryArray(5, [[0, 1]])


def test_variable_index_out_of_range():
    with pytest.raises(ValueError):
        GeneralizedBooleanFunction(2, 1, 1, [(1, (3,))])


def test_array_validation():
    with pytest.raises(ValueError):
        QaryArray(2, [[0, 2]])
    with pytest.raises(ValueError):
        QaryArray(2, [0, 1])
    with pytest.raises(ValueError):
        QaryArray(2, [[]])
    with pytest.raises(ValueError):
        QaryArray(2, [[0.5, 1.0]])


def test_array_round_trip_pointwise():
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = int(rng.choice((2, 4, 6, 8)))
        n, m = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        if n + m == 0:
            continue
        nterms = int(rng.integers(0, 6))
        terms = []
        for _ in range(nterms):
            size = int(rng.integers(1, n + m + 1))
            vs = rng.choice(np.arange(1, n + m + 1), size=size, replace=False)
            terms.append((int(rng.integers(0, q)), tuple(int(v) for v in vs)))
        f = GeneralizedBooleanFunction(q, n, m, terms, constant=int(rng.integers(0, q)))
        arr = f.to_array()
        assert arr.L1 == 1 << n and arr.L2 == 1 << m
        for g in range(arr.L1):
            for i in range(arr.L2):
                assert arr.entries[g, i] == f.evaluate(g, i)


def test_constant_offset_adds_entrywise():
    f = GeneralizedBooleanFunction(4, 2, 3, golden.EVAL_DEMO_TERMS)
    shifted = f.add_constant(3).to_array()
    assert np.array_equal(shifted.entries, (f.to_array().entries + 3) % 4)


def test_transposition_duality():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        q = 4
        arr = random_array(rng, q=q, L1=1 << n, L2=1 << m)
        f = function_from_array(arr, n, m)
        # swap row and column roles: y_l becomes x_l, x_j becomes y_j
        remap = lambda v: v + m if v <= n else v - n
        swapped = GeneralizedBooleanFunction(
            q, m, n, [(c, tuple(remap(v) for v in vs)) for c, vs in f.terms], f.constant
        )
        assert np.array_equal(swapped.to_array().entries, arr.entries.T)


def test_function_from_array_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n, m = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        if n + m == 0:
            continue
        q = int(rng.choice((2, 4, 8)))
        arr = random_array(rng, q=q, L1=1 << n, L2=1 << m)
        f = function_from_array(arr, n, m)
        assert np.array_equal(f.to_array().entries, arr.entries)


def test_function_from_array_shape_check():
    with pytest.raises(ValueError):
        function_from_array(QaryArray(2, [[0, 1, 0]]), 0, 2)


def test_sequence_view():
    seq = QaryArray.from_sequence(4, (1, 1, 1, 3))
    assert seq.L1 == 1 and seq.sequence() == (1, 1, 1, 3)
    with pytest.raises(ValueError):
        QaryArray(2, [[0, 1], [1, 0]]).sequence()


def test_array_equality_and_hash():
    a = QaryArray(2, [[0, 1], [1, 0]])
    b = QaryArray(2, [[0, 1], [1, 0]])
    c = QaryArray(4, [[0, 1], [1, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_bit_planes_follow_evaluate():
    for n, m in ((0, 1), (1, 0), (2, 3), (3, 1)):
        planes = _bit_planes(n, m)
        assert planes.shape == (n + m, 1 << n, 1 << m) and planes.dtype == bool
        for l in range(1, n + m + 1):
            z = GeneralizedBooleanFunction(2, n, m, [(1, (l,))])
            for g in range(1 << n):
                for i in range(1 << m):
                    assert planes[l - 1, g, i] == z.evaluate(g, i)


def test_array_owns_a_read_only_copy():
    source = np.array([[0, 1], [2, 3]], dtype=np.int32)
    for entries in (source, source.astype(np.int64), source.tolist(), tuple(source.tolist())):
        arr = QaryArray(4, entries)
        assert arr.entries.dtype == np.int64 and not arr.entries.flags.writeable
        assert not np.shares_memory(arr.entries, source)
    owned = source.astype(np.int64)
    arr = QaryArray(4, owned)
    owned[0, 0] = 3
    assert arr.entries[0, 0] == 0 and owned.flags.writeable


def test_stacked_arrays_are_checked_read_only_views():
    block = np.arange(12, dtype=np.int64).reshape(3, 2, 2) % 4
    arrays = QaryArray._stack(4, block)
    assert [a.entries.tolist() for a in arrays] == block.tolist()
    assert arrays[1] == QaryArray(4, block[1])
    assert not block.flags.writeable
    assert all(np.shares_memory(a.entries, block) and not a.entries.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="0..3"):
        QaryArray._stack(4, np.full((2, 1, 1), 4, dtype=np.int64))
    with pytest.raises(ValueError, match="int64"):
        QaryArray._stack(4, np.zeros((2, 1, 1), dtype=np.int32))
    with pytest.raises(ValueError, match="3-D"):
        QaryArray._stack(4, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="3-D"):
        QaryArray._stack(4, np.zeros((0, 2, 2), dtype=np.int64))


_PAIR = QaryArray(2, [[0, 1]])

# (field named in the message, call that puts the value x where an integer goes)
_INTEGER_FIELDS = [
    ("n", lambda x: GeneralizedBooleanFunction(2, x, 1)),
    ("m", lambda x: GeneralizedBooleanFunction(2, 1, x)),
    ("coeff", lambda x: GeneralizedBooleanFunction(4, 1, 1, [(x, (1,))])),
    ("vars", lambda x: GeneralizedBooleanFunction(4, 1, 1, [(1, (1, x))])),
    ("constant", lambda x: GeneralizedBooleanFunction(4, 1, 1, constant=x)),
    ("sequence", lambda x: QaryArray.from_sequence(4, [0, x])),
    ("counts", lambda x: CorrelationValue(2, [x, 0])),
    ("L1", lambda x: CorrelationTable(2, x, 1, [[[1, 0]]])),
    ("L2", lambda x: CorrelationTable(2, 1, x, [[[1, 0]]])),
    ("sequence", lambda x: papr_sequence([0, x], 4)),
    ("q", lambda x: formats.array_from_json_dict({"q": x, "entries": [[0, 1]]})),
    ("entries[0]", lambda x: formats.array_from_json_dict({"q": 4, "entries": [[x, 1]]})),
    ("q", lambda x: formats.correlation_table_from_json_dict({"q": x, "L1": 1, "L2": 1, "counts": [[[1, 0]]]})),
    ("q", lambda x: formats.function_from_json_dict({"q": x, "n": 1, "m": 1})),
    ("L1", lambda x: brute_force_gcaps(2, x, 1)),
    ("n", lambda x: enumerate_general_gcaps(2, x, 1)),
    ("max_violations", lambda x: is_gcap(_PAIR, _PAIR, max_violations=x)),
]
_SQUARE = QaryArray(2, [[0, 1], [1, 1]])
# Index, shift and size arguments of lookups, as (test id, field, call): the
# id names the call, because a bare field name such as "m" is taken above.
_INDEX_FIELDS = [
    ("evaluate.g", "g", lambda x: GeneralizedBooleanFunction(2, 1, 1).evaluate(x, 0)),
    ("evaluate.i", "i", lambda x: GeneralizedBooleanFunction(2, 1, 1).evaluate(0, x)),
    ("function_from_array.n", "n", lambda x: function_from_array(_SQUARE, x, 1)),
    ("function_from_array.m", "m", lambda x: function_from_array(_SQUARE, 1, x)),
    ("z_role.l", "l", lambda x: z_role(x, 1, 1)),
    ("z_role.n", "n", lambda x: z_role(1, x, 1)),
    ("z_role.m", "m", lambda x: z_role(1, 1, x)),
    ("value.u1", "u1", lambda x: auto_correlation_table(_SQUARE).value(x, 0)),
    ("value.u2", "u2", lambda x: auto_correlation_table(_SQUARE).value(0, x)),
    ("cross_correlation.u1", "u1", lambda x: cross_correlation(_SQUARE, _SQUARE, x, 0)),
    ("cross_correlation.u2", "u2", lambda x: cross_correlation(_SQUARE, _SQUARE, 0, x)),
]


@pytest.mark.parametrize("value", [1.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "field, call",
    _INTEGER_FIELDS + [(field, call) for _, field, call in _INDEX_FIELDS],
    ids=[f for f, _ in _INTEGER_FIELDS] + [key for key, _, _ in _INDEX_FIELDS],
)
def test_every_outside_integer_is_checked_by_name(field, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be "):
        call(value)
