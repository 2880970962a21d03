import cmath
from functools import partial

import numpy as np
import pytest

from golay2d import (
    QaryArray,
    auto_correlation_table,
    brute_force_gcaps,
    construct_gcap_basic,
    construct_gcap_general,
    construct_gcas,
    construct_mate,
    count_general_gcaps,
    cross_correlation_table,
    enumerate_general_gcaps,
    gcs_1d,
    gdj_pair,
    is_gcap,
    is_gcas,
    is_gcs,
    is_mate,
)
from golay2d import correlation, verify

import golden
from helpers import (
    assert_same_result,
    count_value_inits,
    random_basic_spec,
    random_gcas_spec,
    random_general_spec,
)


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
    with pytest.raises(ValueError, match="need at least one array"):
        is_gcas([])


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


@pytest.mark.parametrize(
    "q, L1, L2, ordered, distinct",
    [(2, 4, 4, 1536, 384), (2, 2, 8, 1536, 384), (4, 2, 4, 6144, 768)],
)
def test_census_of_all_65536_arrays(q, L1, L2, ordered, distinct):
    # Every ordered complementary pair of the size, found by exhaustive search.
    pairs = brute_force_gcaps(q, L1, L2, budget=q ** (2 * L1 * L2))
    found = {(c.entries.tobytes(), d.entries.tobytes()) for c, d in pairs}
    assert len(pairs) == len(found) == ordered
    n, m = L1.bit_length() - 1, L2.bit_length() - 1
    assert len({first for first, _ in found}) == distinct == count_general_gcaps(q, n, m)
    for _, (c, d) in enumerate_general_gcaps(q, n, m):
        assert (c.entries.tobytes(), d.entries.tobytes()) in found


def test_brute_force_closures():
    for q, L1, L2 in ((2, 2, 2), (2, 2, 4), (2, 4, 2), (4, 2, 2)):
        pairs = brute_force_gcaps(q, L1, L2)
        as_set = {(c, d) for c, d in pairs}
        for c, d in pairs:
            assert (d, c) in as_set
            flipped = (
                QaryArray(q, (1 - c.entries) % q),
                QaryArray(q, (1 - d.entries) % q),
            )
            assert flipped in as_set
        # The pairs are the closure of the construction pairs under two maps
        # of the second array b that keep its autocorrelation, b -> b + k and
        # b -> -reverse(b).  -reverse(b) is already some pair's b + k, so
        # the first map alone closes them.
        stream = list(enumerate_general_gcaps(q, L1.bit_length() - 1, L2.bit_length() - 1))
        shifted = {(c, QaryArray(q, (d.entries + k) % q)) for _, (c, d) in stream for k in range(q)}
        reversed_ = {(c, QaryArray(q, -d.entries[::-1, ::-1] % q)) for _, (c, d) in stream}
        assert reversed_ <= shifted and shifted == as_set, (q, L1, L2)


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


def _corner_mutated(arr):
    entries = arr.entries.copy()
    entries[0, 0] = (entries[0, 0] + 1) % arr.q
    return QaryArray(arr.q, entries)


def _mutated_checks(rng):
    """(check, summed table, expected centre) for mutated pairs, sets and mates."""
    for q, n, m in ((2, 1, 2), (4, 2, 1), (6, 1, 1), (8, 1, 2), (12, 0, 2)):
        spec = random_general_spec(rng, q=q, n=n, m=m)
        c, d = construct_gcap_general(spec)
        cp, dp = construct_mate(spec)
        bad = _corner_mutated(c)
        size = c.L1 * c.L2
        yield (
            lambda cap, bad=bad, d=d: is_gcap(bad, d, cap),
            auto_correlation_table(bad) + auto_correlation_table(d),
            2 * size,
        )
        yield (
            lambda cap, bad=bad, d=d, cp=cp, dp=dp: is_mate((bad, d), (cp, dp), cap),
            cross_correlation_table(bad, cp) + cross_correlation_table(d, dp),
            0,
        )
    for q in (2, 4, 8):
        arrays = construct_gcas(random_gcas_spec(rng, q=q, n=1, m=2))
        arrays = [_corner_mutated(arrays[0])] + list(arrays[1:])
        total = auto_correlation_table(arrays[0])
        for a in arrays[1:]:
            total = total + auto_correlation_table(a)
        yield (
            lambda cap, arrays=arrays: is_gcas(arrays, cap),
            total,
            len(arrays) * arrays[0].L1 * arrays[0].L2,
        )


def test_violation_values_equal_the_per_shift_values():
    rng = np.random.default_rng(29)
    for check, total, expected in _mutated_checks(rng):
        wrong = [
            shift for shift in total.shifts()
            if total.value(*shift) != (expected if shift == (0, 0) else 0)
        ]
        assert wrong
        for cap in (0, 1, 3, len(wrong)):
            result = check(cap)
            assert [shift for shift, _ in result.violations] == wrong[:cap]
            assert result.truncated == (len(wrong) > cap) and not result.passed
            for shift, value in result.violations:
                reference = total.value(*shift).to_complex()
                assert type(value) is complex
                assert (np.array([value.real, value.imag]).view(np.int64).tolist()
                        == np.array([reference.real, reference.imag]).view(np.int64).tolist())


def test_mate_preconditions_request_no_violations(monkeypatch):
    spec = golden.general_q2_spec()
    c, d = construct_gcap_general(spec)
    cp, dp = construct_mate(spec)
    bad = _corner_mutated(c)
    every = (2 * c.L1 - 1) * (2 * c.L2 - 1)
    expected = _check_reference(bad, d, cp, dp, every)
    rows = []
    original = verify._complex_values

    def recording(q, counts):
        rows.append(len(counts))
        return original(q, counts)

    monkeypatch.setattr(verify, "_complex_values", recording)
    result = is_mate((bad, d), (cp, dp), max_violations=every)
    # The two precondition checks list nothing, so only the mate check
    # turns counts into values.
    assert rows == [len(expected[0])]
    assert not result.passed
    assert result.notes == ("first pair fails the complementary-pair condition",)
    assert (result.violations, result.truncated) == expected


def _check_reference(c, d, c2, d2, cap):
    """The mate check's violations and truncation from per-shift values."""
    total = cross_correlation_table(c, c2) + cross_correlation_table(d, d2)
    wrong = [shift for shift in total.shifts() if not total.value(*shift).is_zero()]
    violations = tuple((shift, total.value(*shift).to_complex()) for shift in wrong[:cap])
    return violations, len(wrong) > cap


def test_failing_check_builds_only_the_centre_value(monkeypatch):
    from golay2d import formats

    # every autocorrelation of a constant array is positive, so the pair
    # check fails at every shift but the origin
    c = QaryArray(8, np.zeros((5, 6), dtype=np.int64))
    calls = count_value_inits(monkeypatch)
    result = is_gcap(c, c, max_violations=10_000)
    assert len(result.violations) == 9 * 11 - 1
    formats.verification_to_json_dict(result)
    assert len(calls) == 1


def _checks_above_the_direct_size(rng):
    """Checks of construction pairs, sets and mates of more than 128 cells, all passing."""
    checks = []
    for q, n, m in ((2, 4, 4), (4, 3, 5), (6, 4, 4), (8, 5, 3), (12, 1, 7)):
        spec = random_general_spec(rng, q=q, n=n, m=m)
        pair = construct_gcap_general(spec)
        checks += [
            partial(is_gcap, *pair),
            partial(is_gcap, *construct_gcap_basic(random_basic_spec(rng, q=q, n=n, m=m))),
            partial(is_mate, pair, construct_mate(spec)),
            partial(is_gcas, construct_gcas(random_gcas_spec(rng, q=q, n=n, m=m))),
        ]
    checks.append(partial(is_gcs, gdj_pair(4, 8, tuple(int(v) for v in rng.permutation(8) + 1))))
    return checks


def test_passing_checks_above_the_direct_size_build_no_tensor(monkeypatch):
    # A mate check runs two pair checks on its inputs first; they must pass
    # without tensors too.
    def no_tensor(c, d):
        raise AssertionError("a passing check built a count tensor")

    checks = _checks_above_the_direct_size(np.random.default_rng(43))
    monkeypatch.setattr(correlation, "_count_tensor", no_tensor)
    for check in checks:
        result = check()
        assert result.passed and not result.violations and not result.notes


def _tensor_reference(monkeypatch, check):
    """check() through the count tensors, as if it were of the direct size."""
    built = []
    count_tensor = correlation._count_tensor
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_DIRECT_PAIRS", 1 << 62)
        patch.setattr(correlation, "_count_tensor", lambda c, d: built.append(c) or count_tensor(c, d))
        result = check()
    assert built
    return result


def _no_tensor(c, d):
    raise AssertionError("a check above the direct size built a count tensor")


@pytest.mark.parametrize("q, n, m", [(2, 4, 4), (4, 3, 5), (6, 4, 4), (8, 5, 3), (12, 1, 7)])
def test_zero_violation_failures_above_the_direct_size_build_no_tensor(monkeypatch, q, n, m):
    # A corner change fails the pair at the opposite corner.  The spectral
    # pass's proof of it is the whole answer at every cap: with no
    # violation to list, and with the violations and their exact counts,
    # field for field what the tensors give.
    spec = random_general_spec(np.random.default_rng(59 + q), q=q, n=n, m=m)
    c, d = construct_gcap_general(spec)
    mate = construct_mate(spec)
    entries = c.entries.copy()
    entries[-1, -1] = (entries[-1, -1] + 1) % q
    bad = QaryArray(q, entries)
    every = (2 * c.L1 - 1) * (2 * c.L2 - 1)
    caps = (0, 1, 3, every)
    references = [_tensor_reference(monkeypatch, partial(is_gcap, bad, d, cap)) for cap in caps]
    mate_references = [_tensor_reference(monkeypatch, partial(is_mate, (bad, d), mate, cap)) for cap in caps]
    reference, mate_reference = references[0], mate_references[0]
    assert not reference.passed and reference.truncated and not reference.violations
    assert mate_reference.notes == ("first pair fails the complementary-pair condition",)
    assert not references[-1].truncated and (1 - c.L1, 1 - c.L2) in dict(references[-1].violations)

    monkeypatch.setattr(correlation, "_count_tensor", _no_tensor)
    for cap, reference, mate_reference in zip(caps, references, mate_references):
        result = is_gcap(bad, d, max_violations=cap)
        assert result == reference and result.center_value.counts == reference.center_value.counts
        assert_same_result(result, reference)
        mate_result = is_mate((bad, d), mate, max_violations=cap)
        assert mate_result == mate_reference
        assert mate_result.center_value.counts == mate_reference.center_value.counts
        assert_same_result(mate_result, mate_reference)


def _first_array(check):
    first = check.args[0]
    while not isinstance(first, QaryArray):
        first = first[0]
    return first


def test_uncertified_checks_above_the_direct_size_raise(monkeypatch):
    # With the bound not below 1/2 the spectral pass decides nothing, and
    # no check falls back to the count tensors: pair, set, mate and 1-D
    # set checks raise, naming their shape and q, whatever the cap.
    checks = _checks_above_the_direct_size(np.random.default_rng(47))
    monkeypatch.setattr(correlation, "_count_error_bound", lambda *args: 1.0)
    monkeypatch.setattr(correlation, "_count_tensor", _no_tensor)
    for check in checks:
        a = _first_array(check)
        message = rf"cannot certify the {a.L1}x{a.L2} q={a.q} correlation counts: a-priori error bound 1,"
        for cap in (0, 1, 16, (2 * a.L1 - 1) * (2 * a.L2 - 1)):
            with pytest.raises(ArithmeticError, match=message):
                check(max_violations=cap)


def _invisible_to_sigma_1(rng, q, exponents, shape=(12, 11)):
    """Random cross pairs above the direct size whose summed correlation at the
    corner shift (L1 - 1, L2 - 1) is the sum of xi^e over exponents."""
    pairs = []
    for e in exponents:
        c, d = (rng.integers(0, q, shape) for _ in range(2))
        c[-1, -1] = (d[0, 0] + e) % q
        pairs.append((QaryArray(q, c), QaryArray(q, d)))
    return pairs


def test_every_embedding_feeds_the_violation_list(monkeypatch):
    # sqrt(2) - 1 in Z[xi_8] and sqrt(3) - 2 in Z[xi_12] are nonzero but
    # below 1/2 under sigma_1, so only sigma_3 or sigma_5 shows the corner.
    rng = np.random.default_rng(61)
    for q, exponents in ((8, (1, 7, 4)), (12, (1, 11, 6, 6))):
        pairs = _invisible_to_sigma_1(rng, q, exponents)
        L1, L2 = pairs[0][0].L1, pairs[0][0].L2
        assert (L1 * L2) ** 2 > correlation._DIRECT_PAIRS
        assert abs(sum(cmath.exp(2j * cmath.pi * e / q) for e in exponents)) < 0.5
        every = (2 * L1 - 1) * (2 * L2 - 1)
        reference = _tensor_reference(monkeypatch, lambda: verify._check([(pairs, 0, every)])[0])
        with monkeypatch.context() as patch:
            patch.setattr(correlation, "_count_tensor", _no_tensor)
            result = verify._check([(pairs, 0, every)])[0]
        assert (L1 - 1, L2 - 1) in dict(result.violations) and not result.truncated
        assert_same_result(result, reference)


def test_nan_correlation_raises(monkeypatch):
    # A NaN is neither below nor at least 1/2, so it decides nothing.
    c, d = construct_gcap_general(random_general_spec(np.random.default_rng(71), q=4, n=4, m=4))
    spectra = correlation._spectra
    monkeypatch.setattr(correlation, "_spectra", lambda *args: spectra(*args) * np.nan)
    monkeypatch.setattr(correlation, "_count_tensor", _no_tensor)
    with pytest.raises(ArithmeticError, match=r"16x16 q=4 .* observed distance to integers nan; both must be below 0\.5"):
        is_gcap(c, d)


def test_decisions_certified_without_counts(monkeypatch):
    # With the bound in [1/4, 1/2) the pass still decides: passes and
    # failures that list no violation keep their results and build no
    # tensor.  Counts are not certified, so a check that lists violations
    # raises.
    rng = np.random.default_rng(67)
    passing = _checks_above_the_direct_size(rng)
    spec = random_general_spec(rng, q=8, n=4, m=4)
    c, d = construct_gcap_general(spec)
    entries = c.entries.copy()
    entries[0, 0] = (entries[0, 0] + 3) % 8
    bad = QaryArray(8, entries)
    mate = (bad, construct_mate(spec)[1])
    deciding = [partial(check, max_violations=cap) for check in passing for cap in (0, 1, 16)]
    deciding += [partial(is_gcap, bad, d, 0), partial(is_mate, (bad, d), construct_mate(spec), 0)]
    expected = [check() for check in deciding]
    assert not expected[-2].passed and expected[-2].truncated and not expected[-1].passed
    monkeypatch.setattr(correlation, "_count_error_bound", lambda *args: 0.3)
    monkeypatch.setattr(correlation, "_count_tensor", _no_tensor)
    for check, result in zip(deciding, expected):
        assert_same_result(check(), result)
    message = r"cannot certify the 16x16 q=8 correlation counts: a-priori error bound 0\.3,.* below 0\.25"
    for check in [partial(is_gcap, bad, d, cap) for cap in (1, 16, 961)] + [partial(is_mate, (c, d), mate)]:
        with pytest.raises(ArithmeticError, match=message):
            check()


def test_small_checks_still_count_tables_in_the_verify_module(monkeypatch):
    # Checks of at most 128 cells take the count tensors through the names
    # the verify module binds, whatever the outcome.
    c, d = construct_gcap_general(random_general_spec(np.random.default_rng(53), q=4, n=2, m=3))
    calls = []
    table = verify.auto_correlation_table
    monkeypatch.setattr(verify, "auto_correlation_table", lambda a: calls.append(a) or table(a))
    assert (c.L1, c.L2) == (4, 8)
    assert is_gcap(c, d).passed and calls == [c, d]


def test_binary_half_spectrum_norms_on_thin_arrays(monkeypatch):
    # q = 2 takes rfft2, whose half spectrum of a P1 x 1 transform is the
    # one column that is both first and last: each column must count once
    # in the norm.  Thin random pairs fail as the tensors say; the 1-D
    # pair of length 256, as a row and as a column, passes.
    rng = np.random.default_rng(89)
    for shape in ((256, 1), (1, 256), (128, 2)):
        assert (shape[0] * shape[1]) ** 2 > correlation._DIRECT_PAIRS
        c, d = (QaryArray(2, rng.integers(0, 2, shape)) for _ in range(2))
        every = (2 * shape[0] - 1) * (2 * shape[1] - 1)
        for cap in (0, 1, 16, every):
            reference = _tensor_reference(monkeypatch, partial(is_gcap, c, d, cap))
            assert not reference.passed
            with monkeypatch.context() as patch:
                patch.setattr(correlation, "_count_tensor", _no_tensor)
                assert_same_result(is_gcap(c, d, cap), reference)
    row_pair = gdj_pair(2, 8, tuple(int(v) for v in rng.permutation(8) + 1))
    column_pair = [QaryArray(2, a.entries.T) for a in row_pair]
    grid_pair = construct_gcap_general(random_general_spec(rng, q=2, n=7, m=1))
    monkeypatch.setattr(correlation, "_count_tensor", _no_tensor)
    for pair, shape in ((row_pair, (1, 256)), (column_pair, (256, 1)), (grid_pair, (128, 2))):
        assert pair[0].entries.shape == shape
        result = is_gcap(*pair)
        assert result.passed and not result.violations


def _batch_checks(rng, q, shape):
    """(pairs, expected centre) above the direct size that share arrays: sets and
    cross sums that fail, one cross sum that cancels, a single array against a
    wrong centre, and at q = 8 and 12 a cross sum invisible to sigma_1."""
    a, b, c, d = (QaryArray(q, rng.integers(0, q, shape)) for _ in range(4))
    negated = QaryArray(q, (a.entries + q // 2) % q)
    cells = shape[0] * shape[1]
    checks = [
        ([(a, a), (b, b)], 2 * cells),
        ([(a, b), (c, d)], 0),
        ([(a, b), (negated, b)], 0),
        ([(c, c)], cells + 1),
    ]
    exponents = {8: (1, 7, 4), 12: (1, 11, 6, 6)}.get(q)
    if exponents:
        checks.append((_invisible_to_sigma_1(rng, q, exponents, shape), 0))
    return checks


@pytest.mark.parametrize("q", (2, 4, 6, 8, 12))
def test_a_batch_returns_what_each_check_returns_alone(monkeypatch, q):
    # Each check of a batch gets its own bound, cap and decision: the same
    # result as alone and as through the count tensors, field for field.
    rng = np.random.default_rng(97 + q)
    for shape in ((12, 11), (5, 27)):
        checks = _batch_checks(rng, q, shape)
        every = (2 * shape[0] - 1) * (2 * shape[1] - 1)
        cap_rows = [(cap,) * len(checks) for cap in (0, 1, 16, every)]
        cap_rows.append(tuple(rng.choice([0, 1, 16, every], len(checks)).tolist()))
        for caps in cap_rows:
            batch = [(pairs, expected, cap) for (pairs, expected), cap in zip(checks, caps)]
            references = [_tensor_reference(monkeypatch, partial(verify._check, [check]))[0] for check in batch]
            assert [reference.passed for reference in references][:4] == [False, False, True, False]
            with monkeypatch.context() as patch:
                patch.setattr(correlation, "_count_tensor", _no_tensor)
                results = verify._check(batch)
                alone = [verify._check([check])[0] for check in batch]
            for result, single, reference in zip(results, alone, references):
                assert_same_result(result, single)
                assert_same_result(result, reference)


@pytest.mark.parametrize("q, n, m", [(2, 4, 4), (4, 3, 5), (6, 4, 4), (8, 5, 3), (12, 1, 7)])
def test_mates_with_failing_pairs_agree_with_the_tensors(monkeypatch, q, n, m):
    rng = np.random.default_rng(101 + q)
    spec = random_general_spec(rng, q=q, n=n, m=m)
    c, d = construct_gcap_general(spec)
    c2, d2 = construct_mate(spec)
    bad, bad2 = _corner_mutated(c), _corner_mutated(c2)
    every = (2 * c.L1 - 1) * (2 * c.L2 - 1)
    for pair1, pair2 in (((bad, d), (c2, d2)), ((c, d), (bad2, d2)), ((bad, d), (bad2, d2))):
        for cap in (0, 1, 16, every):
            reference = _tensor_reference(monkeypatch, partial(is_mate, pair1, pair2, cap))
            assert reference.notes and not reference.passed
            with monkeypatch.context() as patch:
                patch.setattr(correlation, "_count_tensor", _no_tensor)
                assert_same_result(is_mate(pair1, pair2, cap), reference)


def _counting_transforms(monkeypatch):
    """Record 'forward' or 'inverse' for each call of numpy's FFTs."""
    calls = []
    for name in ("fft2", "rfft2", "ifft2", "irfft2", "irfft"):
        kind = "inverse" if name.startswith("i") else "forward"
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, original=original, kind=kind, **kwargs:
                            calls.append(kind) or original(*args, **kwargs))
    return calls


def test_passing_checks_above_the_direct_size_take_no_inverse_transform(monkeypatch):
    # A passing check is decided from the norms of its spectra alone, and a
    # mate check transforms its four arrays together once per embedding.
    checks = _checks_above_the_direct_size(np.random.default_rng(103))
    calls = _counting_transforms(monkeypatch)
    for check in checks:
        calls.clear()
        assert check().passed
        assert "inverse" not in calls
        if check.func is is_mate:
            assert len(calls) == len(correlation._embeddings(_first_array(check).q))
