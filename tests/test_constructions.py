import itertools

import numpy as np
import pytest

from golay2d import (
    GcapBasicSpec,
    GcapGeneralSpec,
    GcasSpec,
    GeneralizedBooleanFunction,
    construct_gcap_basic,
    construct_gcap_general,
    construct_gcas,
    construct_mate,
    count_general_gcaps,
    enumerate_general_gcaps,
    gcs_1d,
    gdj_pair,
    is_gcap,
    is_gcas,
    is_gcs,
    is_mate,
    basic_as_general_spec,
)
from golay2d import constructions
from golay2d.constructions import general_gcap_function

import golden
from helpers import random_basic_spec, random_gcas_spec, random_general_spec


def test_gdj_pair_binary():
    a, b = gdj_pair(2, 2, (1, 2))
    assert a.sequence() == (0, 0, 0, 1)
    assert b.sequence() == (0, 1, 0, 0)
    assert is_gcs([a, b]).passed


def test_gdj_pair_quaternary_with_constant():
    a, _ = gdj_pair(4, 2, (1, 2), (0, 0), 1)
    assert a.sequence() == (1, 1, 1, 3)


def test_gdj_pair_random_all_pass():
    rng = np.random.default_rng(23)
    for _ in range(25):
        q = int(rng.choice((2, 4, 8)))
        m = int(rng.integers(2, 5))
        pi = tuple(int(v) for v in rng.permutation(m) + 1)
        p = tuple(int(v) for v in rng.integers(0, q, m))
        a, b = gdj_pair(q, m, pi, p, int(rng.integers(0, q)))
        assert is_gcs([a, b]).passed


def test_gdj_pair_validation():
    with pytest.raises(ValueError):
        gdj_pair(2, 1, (1,))
    with pytest.raises(ValueError):
        gdj_pair(2, 2, (1, 3))


def test_gcs_1d_single_block_is_gdj():
    pair = gdj_pair(2, 3, (2, 1, 3), (1, 0, 1), 1)
    seqs = gcs_1d(2, 3, ((2, 1, 3),), (1, 0, 1), 1)
    assert seqs == pair


def test_gcs_1d_two_blocks():
    seqs = gcs_1d(2, 3, ((1, 2), (3,)))
    assert len(seqs) == 4
    result = is_gcs(seqs)
    assert result.passed and result.center_value == 32


def test_gcs_1d_set_size_and_validation():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        order = [int(v) for v in rng.permutation(m) + 1]
        k = int(rng.integers(1, m + 1))
        cuts = sorted(rng.choice(np.arange(1, m), size=k - 1, replace=False)) if k > 1 else []
        blocks, start = [], 0
        for cut in list(cuts) + [m]:
            blocks.append(tuple(order[start:cut]))
            start = cut
        seqs = gcs_1d(2, m, tuple(blocks))
        assert len(seqs) == 1 << k
        assert is_gcs(seqs).passed
    with pytest.raises(ValueError):
        gcs_1d(2, 3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        gcs_1d(2, 3, ((1, 2),))


def test_basic_pair_reproduces_reference():
    c, d = construct_gcap_basic(golden.basic_q4_spec())
    assert np.array_equal(c.entries, golden.BASIC_Q4_C)
    assert np.array_equal(d.entries, golden.BASIC_Q4_D)
    assert is_gcap(c, d).passed


def test_basic_pair_constant_shift():
    spec = golden.basic_q4_spec()
    shifted = GcapBasicSpec(spec.q, spec.n, spec.m, spec.pi1, spec.pi2, spec.p, spec.lam, 2)
    c, d = construct_gcap_basic(spec)
    c2, d2 = construct_gcap_basic(shifted)
    assert np.array_equal(c2.entries, (c.entries + 2) % 4)
    assert np.array_equal(d2.entries, (d.entries + 2) % 4)


def test_basic_pair_random_all_pass():
    rng = np.random.default_rng(31)
    for _ in range(25):
        c, d = construct_gcap_basic(random_basic_spec(rng))
        assert is_gcap(c, d).passed


def test_basic_pair_minimum_sizes():
    c, d = construct_gcap_basic(GcapBasicSpec(2, 1, 1, (1,), (1,)))
    assert (c.L1, c.L2) == (2, 2)
    assert is_gcap(c, d).passed
    with pytest.raises(ValueError):
        GcapBasicSpec(2, 0, 2, (1, 2), ())


def test_general_pair_reproduces_reference():
    c, d = construct_gcap_general(golden.general_q2_spec())
    assert np.array_equal(c.entries, golden.GENERAL_Q2_C)
    assert np.array_equal(d.entries, golden.GENERAL_Q2_D)
    assert is_gcap(c, d).passed


def test_general_pair_random_all_pass():
    rng = np.random.default_rng(37)
    for _ in range(25):
        c, d = construct_gcap_general(random_general_spec(rng))
        assert is_gcap(c, d).passed


def test_general_pair_pure_1d_matches_gdj():
    spec = GcapGeneralSpec(4, 0, 3, (3, 1, 2), (1, 2, 3), 2)
    assert construct_gcap_general(spec) == gdj_pair(4, 3, (3, 1, 2), (1, 2, 3), 2)


def test_general_with_split_ordering_matches_basic_first_array():
    # when the first n positions hold exactly the row variables, the first
    # array coincides with a basic-construction array whose sub-permutations
    # are reversed (the companion offsets differ, landing on different axes)
    rng = np.random.default_rng(41)
    for _ in range(10):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        q = int(rng.choice((2, 4)))
        pi2 = [int(v) for v in rng.permutation(n) + 1]
        pi1 = [int(v) for v in rng.permutation(m) + 1]
        p = [int(v) for v in rng.integers(0, q, n + m)]
        general = GcapGeneralSpec(
            q, n, m, tuple(pi2) + tuple(n + v for v in pi1), tuple(p)
        )
        basic = GcapBasicSpec(
            q, n, m,
            tuple(reversed(pi1)), tuple(reversed(pi2)),
            tuple(p[n:]), tuple(p[:n]),
        )
        c_general, _ = construct_gcap_general(general)
        c_basic, _ = construct_gcap_basic(basic)
        assert c_general == c_basic


def test_basic_pair_embeds_in_general_family():
    rng = np.random.default_rng(43)
    for _ in range(20):
        basic = random_basic_spec(rng)
        c, d = construct_gcap_basic(basic)
        c2, d2 = construct_gcap_general(basic_as_general_spec(basic))
        assert c == c2 and d == d2


def test_mate_reproduces_reference():
    spec = golden.general_q2_spec()
    cp, dp = construct_mate(spec)
    assert np.array_equal(cp.entries, golden.MATE_Q2_CPRIME)
    assert np.array_equal(dp.entries, golden.MATE_Q2_DPRIME)
    assert is_gcap(cp, dp).passed
    assert is_mate(construct_gcap_general(spec), (cp, dp)).passed


def test_mate_symmetry():
    rng = np.random.default_rng(47)
    for _ in range(10):
        spec = random_general_spec(rng)
        pair = construct_gcap_general(spec)
        mate = construct_mate(spec)
        assert is_mate(pair, mate).passed == is_mate(mate, pair).passed is True


def test_gcas_reproduces_reference_in_order():
    arrays = construct_gcas(golden.gcas_q2_spec())
    assert len(arrays) == 4
    for got, want in zip(arrays, golden.GCAS_Q2_ARRAYS):
        assert np.array_equal(got.entries, want)
    result = is_gcas(arrays)
    assert result.passed and result.center_value == 128


def test_gcas_single_block_is_general_pair():
    spec = GcasSpec(4, 1, 2, ((3, 1, 2),), (1, 0, 2), 3)
    pair = construct_gcap_general(GcapGeneralSpec(4, 1, 2, (3, 1, 2), (1, 0, 2), 3))
    assert construct_gcas(spec) == pair


def test_gcas_random_all_pass():
    rng = np.random.default_rng(53)
    for _ in range(15):
        spec = random_gcas_spec(rng)
        arrays = construct_gcas(spec)
        assert len(arrays) == 1 << spec.k
        assert is_gcas(arrays).passed


def test_gcas_validation():
    with pytest.raises(ValueError):
        GcasSpec(2, 2, 3, ((1, 2), (4, 5)))
    with pytest.raises(ValueError):
        GcasSpec(2, 2, 3, ((1, 2, 3), (), (4, 5)))
    # a malformed field of either spec kind is named
    for make, message in (
        (lambda: GcasSpec(2, 1, 1, "12"), "blocks must be a list of index lists"),
        (lambda: GcapGeneralSpec(4, 1, 1, (1, 2), p=(1,)), "p must have length 2, got 1"),
    ):
        with pytest.raises(ValueError, match=message):
            make()
    # numpy integers and arrays pass as their Python values.
    spec = GcasSpec(np.int64(2), np.int8(2), 3, [np.array([4, 2, 5]), (1, 3)], np.zeros(5, int), np.int32(0))
    assert spec == golden.gcas_q2_spec() and type(spec.blocks[0][0]) is int


def test_no_construction_evaluates_a_function(monkeypatch):
    def evaluated(self):
        raise AssertionError("a construction evaluated a function")

    monkeypatch.setattr(GeneralizedBooleanFunction, "to_array", evaluated)
    general = GcapGeneralSpec(4, 1, 2, (2, 3, 1), (1, 0, 3), 2)
    construct_gcap_general(general)
    construct_mate(general)
    construct_gcap_basic(GcapBasicSpec(2, 1, 2, (2, 1), (1,), (1, 0), (1,), 1))
    construct_gcas(GcasSpec(2, 1, 2, ((2,), (3, 1))))
    gdj_pair(2, 3, (3, 1, 2))
    gcs_1d(4, 3, ((1, 3), (2,)))
    assert sum(1 for _ in enumerate_general_gcaps(2, 1, 1)) == 16


def test_oversized_constructions_are_refused_before_allocating(monkeypatch):
    # Past 2^22 cells of members a construction is refused before it makes
    # its bit planes, which raise here instead of allocating.
    def no_planes(n, m):
        raise AssertionError(f"bit planes of n = {n}, m = {m} were made")

    monkeypatch.setattr(constructions, "_bit_planes", no_planes)
    general = GcapGeneralSpec(2, 11, 11, range(1, 23))
    quarters = [range(k, 21, 4) for k in range(1, 5)]
    for build, members, size in (
        (lambda: construct_gcap_general(general), 2, 22),
        (lambda: construct_mate(general), 2, 22),
        (lambda: construct_gcap_basic(GcapBasicSpec(2, 11, 11, range(1, 12), range(1, 12))), 2, 22),
        (lambda: gdj_pair(4, 22, range(1, 23)), 2, 22),
        (lambda: construct_gcas(GcasSpec(2, 10, 10, quarters)), 16, 20),
        (lambda: gcs_1d(2, 12, [[v] for v in range(1, 13)]), 4096, 12),
    ):
        message = f"{members} arrays of 2\\^{size} cells are {members << size} cells, over the limit of 4194304"
        with pytest.raises(ValueError, match=message):
            build()
    # At the limit the construction goes on to its bit planes.
    for build in (
        lambda: construct_gcap_general(GcapGeneralSpec(2, 10, 11, range(1, 22))),
        lambda: gcs_1d(2, 11, [[v] for v in range(1, 12)]),
    ):
        with pytest.raises(AssertionError, match="bit planes"):
            build()


def test_count_formula():
    assert count_general_gcaps(2, 1, 1) == 8
    assert count_general_gcaps(2, 1, 2) == 48
    assert count_general_gcaps(4, 2, 3) == 245760
    # large inputs stay exact (native big integers)
    assert count_general_gcaps(2, 10, 10) % 2 == 0
    with pytest.raises(ValueError):
        count_general_gcaps(2, 1, 0)


def test_enumeration_counts_and_dedup():
    stream = list(enumerate_general_gcaps(2, 1, 1))
    assert len(stream) == 16  # 2! * 2^3 raw specs
    functions = {general_gcap_function(spec) for spec, _ in stream}
    first_arrays = {pair[0] for _, pair in stream}
    assert len(functions) == len(first_arrays) == count_general_gcaps(2, 1, 1) == 8
    for _, (c, d) in stream:
        assert is_gcap(c, d).passed


def test_enumeration_budget():
    with pytest.raises(ValueError):
        enumerate_general_gcaps(2, 1, 1, budget=10)


ENUM_QS = (2, 4, 6, 8)
ENUM_SIZES = ((0, 2), (2, 0), (1, 1), (1, 2), (2, 1))


def _nested_loop_fields(q, n, m):
    """Spec fields in the enumeration order by definition: pi, then p, then p0."""
    return [
        (q, n, m, pi, p, p0)
        for pi in itertools.permutations(range(1, n + m + 1))
        for p in itertools.product(range(q), repeat=n + m)
        for p0 in range(q)
    ]


def test_enumeration_matches_nested_loop_and_construction():
    for q in ENUM_QS:
        # Every pair for q <= 4; every 31st pair (all residues of p0 and p) above.
        stride = 1 if q <= 4 else 31
        for n, m in ENUM_SIZES:
            stream = list(enumerate_general_gcaps(q, n, m))
            fields = [(s.q, s.n, s.m, s.pi, s.p, s.p0) for s, _ in stream]
            assert fields == _nested_loop_fields(q, n, m)
            # The stream validates pi once per permutation and trusts its
            # digits; each spec must still be the validated one, types included.
            assert [s for s, _ in stream] == [GcapGeneralSpec(*f) for f in fields]
            assert {(type(s.pi), type(s.p)) for s, _ in stream} == {(tuple, tuple)}
            assert {type(v) for f in fields for v in (*f[:3], *f[3], *f[4], f[5])} == {int}
            for spec, pair in stream[::stride]:
                assert pair == construct_gcap_general(spec), spec


def test_enumeration_entries_are_read_only():
    for _, (c, d) in enumerate_general_gcaps(4, 1, 2):
        for arr in (c, d):
            assert not arr.entries.flags.writeable
            with pytest.raises(ValueError):
                arr.entries[0, 0] = 1


def _recording(monkeypatch, name):
    """Patch constructions.<name> to record its calls' arguments and results; return the list."""
    calls, original = [], getattr(constructions, name)

    def record(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(constructions, name, record)
    return calls


def test_enumeration_blocks_of_one_spec_give_the_same_stream(monkeypatch):
    default = {
        (q, n, m): list(enumerate_general_gcaps(q, n, m))
        for q, n, m in ((2, 2, 2), (4, 1, 2), (6, 0, 2))
    }
    checked = _recording(monkeypatch, "_checked_block")
    paths = _recording(monkeypatch, "_path_block")
    # At q = 2, n = m = 2 (32 specs a permutation, 32 cells a pair): the
    # shapes of the checked blocks and the permutations of each _path_block
    # call.  3 permutations' pairs fit 3072 cells; 12 pairs split each
    # permutation into blocks of 12, 12 and 8; 1 cell leaves one pair per
    # block, and every part of a permutation shares its one path array.
    layouts = {
        3 * 32 * 32: ([(192, 4, 4)] * 8, [3] * 8),
        12 * 32: ([(24, 4, 4), (24, 4, 4), (16, 4, 4)] * 24, [1] * 24),
        1: ([(2, 4, 4)] * 768, [1] * 24),
    }
    for limit in (*layouts, 100, constructions._BLOCK_POINTS):
        monkeypatch.setattr(constructions, "_BLOCK_POINTS", limit)
        for (q, n, m), stream in default.items():
            checked.clear()
            paths.clear()
            assert list(enumerate_general_gcaps(q, n, m)) == stream
            blocks = [block.shape for (_, block), _ in checked]
            assert all(a * b * c <= max(limit, 2 * b * c) for a, b, c in blocks)
            if (q, n, m) == (2, 2, 2) and limit in layouts:
                assert (blocks, [len(args[2]) for args, _ in paths]) == layouts[limit]
            for spec, pair in stream:
                assert pair == construct_gcap_general(spec), (limit, spec)


def test_each_construction_and_stream_block_is_checked_once(monkeypatch):
    checked = _recording(monkeypatch, "_checked_block")
    built = _recording(monkeypatch, "_member_block")
    general = GcapGeneralSpec(4, 1, 2, (2, 3, 1), (1, 0, 3), 2)
    for build in (
        lambda: construct_gcap_general(general),
        lambda: construct_mate(general),
        lambda: construct_gcap_basic(GcapBasicSpec(2, 1, 2, (2, 1), (1,), (1, 0), (1,), 1)),
        lambda: construct_gcas(GcasSpec(2, 1, 2, ((2,), (3, 1)))),
        lambda: gdj_pair(2, 3, (3, 1, 2)),
        lambda: gcs_1d(4, 3, ((1, 3), (2,))),
    ):
        checked.clear()
        built.clear()
        arrays = build()
        assert len(checked) == len(built) == 1
        assert all(np.shares_memory(arr.entries, checked[0][1]) for arr in arrays)
    # 24 cells hold 3 pairs of q = 2, n = m = 1, against 8 specs a
    # permutation: blocks of 3, 3 and 2 specs for each of 2 permutations.
    monkeypatch.setattr(constructions, "_BLOCK_POINTS", 3 * 8)
    checked.clear()
    built.clear()
    assert sum(1 for _ in enumerate_general_gcaps(2, 1, 1)) == 16
    assert len(checked) == len(built) == 6


def test_enumeration_rejects_digits_past_int64():
    # 20^15 > 2^63: the digits of spec 1 came out as p_1 = 19 instead of 0.
    # At q = 18 the powers fit but the index of the last spec of a
    # permutation, 18^16 - 1, does not.
    for q in (20, 18):
        with pytest.raises(ValueError, match=f"q = {q}, n \\+ m = 15"):
            enumerate_general_gcaps(q, 0, 15, budget=1 << 400)
    spec, _ = next(itertools.islice(enumerate_general_gcaps(14, 0, 15, budget=1 << 400), 1, None))
    assert spec.p == (0,) * 15 and spec.p0 == 1


def test_negative_sizes_are_rejected_by_name():
    with pytest.raises(ValueError, match="n must be at least 0, got -1"):
        count_general_gcaps(2, -1, 3)
    with pytest.raises(ValueError, match="m must be at least 0, got -2"):
        count_general_gcaps(2, 4, -2)
    with pytest.raises(ValueError, match="n must be at least 0"):
        enumerate_general_gcaps(2, -1, 3)
    with pytest.raises(ValueError, match="m must be at least 0"):
        enumerate_general_gcaps(2, 3, -1)
    with pytest.raises(ValueError, match="budget must be at least 0"):
        enumerate_general_gcaps(2, 1, 1, budget=-5)
