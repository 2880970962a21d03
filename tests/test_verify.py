import numpy as np
import pytest

from golay2d import (
    QaryArray,
    brute_force_gcaps,
    construct_gcap_general,
    construct_mate,
    enumerate_general_gcaps,
    gcs_1d,
    gdj_pair,
    is_gcap,
    is_gcas,
    is_gcs,
    is_mate,
)

import golden
from helpers import random_general_spec


def test_is_gcs_on_sequence_pair():
    result = is_gcs(gdj_pair(2, 2, (1, 2)))
    assert result.passed and result.center_value == 8


def test_is_gcs_detects_doubled_sidelobes():
    result = is_gcs([(0, 0), (0, 0)], q=2)
    assert not result.passed
    assert ((0, 1), (2 + 0j)) in result.violations
    assert result.center_value == 4 and result.expected_center == 4


def test_is_gcs_on_four_member_set():
    result = is_gcs(gcs_1d(2, 3, ((1, 2), (3,))))
    assert result.passed and result.center_value == 32


def test_is_gcs_input_normalization():
    with pytest.raises(ValueError):
        is_gcs([(0, 0, 0, 1)])
    with pytest.raises(ValueError):
        is_gcs([QaryArray(2, [[0, 1], [0, 1]])])
    with pytest.raises(ValueError):
        is_gcs([(0, 0), (0, 0, 0)], q=2)
    raw = is_gcs([(0, 0, 0, 1), (0, 1, 0, 0)], q=2)
    wrapped = is_gcs(gdj_pair(2, 2, (1, 2)))
    assert raw == wrapped


def test_is_gcap_reference_pair():
    c, d = construct_gcap_general(golden.general_q2_spec())
    result = is_gcap(c, d)
    assert result.passed and result.center_value == 64


def test_is_gcap_rejects_duplicated_array():
    c, _ = construct_gcap_general(golden.general_q2_spec())
    result = is_gcap(c, c)
    assert not result.passed
    assert ((-3, -7), (2 + 0j)) in result.violations


def test_is_gcap_minimal_pair():
    result = is_gcap(QaryArray(2, [[0, 0]]), QaryArray(2, [[0, 1]]))
    assert result.passed and result.center_value == 4


def test_is_gcap_shape_mismatch():
    with pytest.raises(ValueError):
        is_gcap(QaryArray(2, [[0, 0]]), QaryArray(2, [[0], [1]]))


def test_is_mate_reference_pairs():
    spec = golden.general_q2_spec()
    result = is_mate(construct_gcap_general(spec), construct_mate(spec))
    assert result.passed and result.expected_center == 0
    assert result.center_value.is_zero()


def test_is_mate_pair_against_itself():
    pair = construct_gcap_general(golden.general_q2_spec())
    result = is_mate(pair, pair)
    assert not result.passed
    assert ((0, 0), (64 + 0j)) in result.violations


def test_is_mate_flags_non_complementary_inputs():
    c, d = construct_gcap_general(golden.general_q2_spec())
    result = is_mate((c, c), (c, d))
    assert not result.passed
    assert any("first pair" in note for note in result.notes)


def test_is_gcas_reference_set():
    arrays = construct_gcas_reference()
    result = is_gcas(arrays)
    assert result.passed and result.center_value == 128


def construct_gcas_reference():
    from golay2d import construct_gcas

    return construct_gcas(golden.gcas_q2_spec())


def test_is_gcas_dropping_a_member_fails():
    arrays = construct_gcas_reference()
    assert not is_gcas(arrays[:-1]).passed


def test_gcap_as_two_member_set():
    c, d = construct_gcap_general(golden.general_q2_spec())
    assert is_gcas([c, d]) == is_gcap(c, d)


def test_sequence_check_reduces_to_single_row_set():
    seqs = gcs_1d(2, 3, ((3, 1, 2),))
    assert is_gcs(seqs) == is_gcas(seqs)


def test_violation_cap_and_truncation():
    zeros = QaryArray(2, [[0] * 8])
    result = is_gcap(zeros, zeros, max_violations=4)
    assert not result.passed and len(result.violations) == 4 and result.truncated


def test_brute_force_minimal_size():
    pairs = brute_force_gcaps(2, 1, 2)
    assert (QaryArray(2, [[0, 0]]), QaryArray(2, [[0, 1]])) in pairs
    assert len(pairs) == 8
    for c, d in pairs:
        assert is_gcap(c, d).passed


def test_brute_force_contains_all_constructions():
    oracle = {(c, d) for c, d in brute_force_gcaps(2, 2, 2)}
    for _, pair in enumerate_general_gcaps(2, 1, 1):
        assert pair in oracle


def test_brute_force_contains_all_constructions_2x4():
    oracle = {(c, d) for c, d in brute_force_gcaps(2, 2, 4)}
    for _, pair in enumerate_general_gcaps(2, 1, 2):
        assert pair in oracle


def test_brute_force_closures():
    pairs = brute_force_gcaps(2, 2, 2)
    as_set = {(c, d) for c, d in pairs}
    for c, d in pairs:
        assert (d, c) in as_set
        flipped = (
            QaryArray(2, (1 - c.entries) % 2),
            QaryArray(2, (1 - d.entries) % 2),
        )
        assert flipped in as_set


def test_brute_force_deterministic_lexicographic():
    pairs = brute_force_gcaps(2, 1, 2)
    keys = [tuple(c.entries.ravel()) + tuple(d.entries.ravel()) for c, d in pairs]
    assert keys == sorted(keys)
    assert pairs == brute_force_gcaps(2, 1, 2)


def test_brute_force_budget():
    # 2x2 binary arrays give 2^8 = 256 ordered pairs
    with pytest.raises(ValueError):
        brute_force_gcaps(2, 2, 2, budget=255)
    assert len(brute_force_gcaps(2, 2, 2, budget=256)) > 0


def test_corner_mutation_fails_at_the_opposite_corner():
    rng = np.random.default_rng(17)
    for q, n, m in ((2, 2, 3), (4, 3, 2), (8, 2, 2)):
        c, d = construct_gcap_general(random_general_spec(rng, q=q, n=n, m=m))
        L1, L2 = c.L1, c.L2
        entries = c.entries.copy()
        entries[0, 0] = (entries[0, 0] + 1) % q
        result = is_gcap(QaryArray(q, entries), d, max_violations=(2 * L1 - 1) * (2 * L2 - 1))
        assert not result.passed and not result.truncated
        shifts = [shift for shift, _ in result.violations]
        assert (L1 - 1, L2 - 1) in shifts and (1 - L1, 1 - L2) in shifts
        assert (0, 0) not in shifts


def test_violations_follow_row_major_order():
    c, _ = construct_gcap_general(golden.general_q2_spec())
    every = is_gcap(c, c, max_violations=10_000)
    shifts = [shift for shift, _ in every.violations]
    assert shifts == sorted(shifts) and not every.truncated
    capped = is_gcap(c, c, max_violations=3)
    assert capped.violations == every.violations[:3] and capped.truncated


def test_max_violations_zero_and_negative():
    c, d = construct_gcap_general(golden.general_q2_spec())
    passing = is_gcap(c, d, max_violations=0)
    assert passing.passed and not passing.truncated
    failing = is_gcap(c, c, max_violations=0)
    assert not failing.passed and failing.truncated and failing.violations == ()
    for check in (
        lambda: is_gcap(c, d, max_violations=-1),
        lambda: is_gcas([c, d], max_violations=-1),
        lambda: is_gcs(gdj_pair(2, 2, (1, 2)), max_violations=-1),
        lambda: is_mate((c, d), (c, d), max_violations=-1),
    ):
        with pytest.raises(ValueError, match="max_violations"):
            check()


def test_brute_force_rejects_nonpositive_sizes():
    with pytest.raises(ValueError, match="L1"):
        brute_force_gcaps(2, 0, 4)
    with pytest.raises(ValueError, match="L2"):
        brute_force_gcaps(2, 2, -1)
