"""Property tests: Hypothesis draws the inputs, derandomized so every run sees the same ones."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from golay2d import (
    GcapBasicSpec,
    GcapGeneralSpec,
    GcasSpec,
    GeneralizedBooleanFunction,
    QaryArray,
    auto_correlation_table,
    brute_force_gcaps,
    construct_gcap_basic,
    construct_gcap_general,
    construct_gcas,
    construct_mate,
    cross_correlation,
    cross_correlation_table,
    enumerate_general_gcaps,
    gdj_pair,
    is_gcap,
    is_gcas,
    is_mate,
    papr,
    papr_report,
    verify,
)
from golay2d.constructions import gcas_function, general_gcap_function
from golay2d.correlation import _DIRECT_PAIRS, _spectral_pass
from golay2d.papr import _paprs

from helpers import assert_same_result, sampled_max


@st.composite
def pair_and_set_specs(draw):
    """A pair spec and a set spec on one variable order: any q, 2 <= n + m <= 6,
    and linear coefficients and constants outside 0..q-1 too."""
    q = draw(st.sampled_from((2, 4, 6, 8, 12)))
    n = draw(st.integers(0, 3))
    m = draw(st.integers(max(0, 2 - n), 3))
    order = draw(st.permutations(range(1, n + m + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n + m - 1))))
    bounds = [0, *cuts, n + m]
    blocks = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    p = draw(st.lists(st.integers(-2 * q, 2 * q), min_size=n + m, max_size=n + m))
    p0 = draw(st.integers(-2 * q, 2 * q))
    return GcapGeneralSpec(q, n, m, order, p, p0), GcasSpec(q, n, m, blocks, p, p0)


def _in_full(spec, paths, extra=()):
    """The path function through the checking constructor, from terms in path order.

    Edges come unsorted and zero linear coefficients are kept, so the
    constructor has to sort, merge and drop them itself.
    """
    half = spec.q // 2
    terms = [(half, (a, b)) for path in paths for a, b in zip(path, path[1:])]
    terms += [(coeff, (l,)) for l, coeff in enumerate(spec.p, start=1)]
    return GeneralizedBooleanFunction(spec.q, spec.n, spec.m, terms + list(extra), spec.p0)


def _assert_same_function(built, reference):
    assert (built.terms, built.constant) == (reference.terms, reference.constant)
    assert built == reference and hash(built) == hash(reference)


@settings(derandomize=True, deadline=None, database=None)
@given(pair_and_set_specs())
def test_path_functions_are_built_canonical(specs):
    pair, gcas = specs
    last = (pair.q // 2, (pair.pi[-1],))
    f = general_gcap_function(pair)
    mate = f.add_term(*last)
    for built, reference in (
        (f, _in_full(pair, [pair.pi])),
        (mate, _in_full(pair, [pair.pi], [last])),
        (gcas_function(gcas), _in_full(gcas, gcas.blocks)),
    ):
        _assert_same_function(built, reference)
    assert construct_mate(pair)[0] == mate.to_array()


@pytest.mark.parametrize("q, n, m", [(2, 2, 2), (4, 1, 2), (6, 0, 2)])
def test_streamed_path_functions_are_built_canonical(q, n, m):
    # Every spec of the stream, many sharing one permutation's edge table.
    for spec, (c, _) in enumerate_general_gcaps(q, n, m):
        f = general_gcap_function(spec)
        _assert_same_function(f, _in_full(spec, [spec.pi]))
        assert f.to_array() == c, spec


@settings(derandomize=True, deadline=None, database=None)
@given(pair_and_set_specs())
# Blocks that are all singletons: a set with no edge at all.
@example((GcapGeneralSpec(4, 1, 2, (2, 1, 3), (1, 2, 3), 5),
          GcasSpec(4, 1, 2, ((2,), (1,), (3,)), (1, 2, 3), 5)))
# n = 0: a 1-D pair and set.
@example((GcapGeneralSpec(2, 0, 3, (3, 1, 2), (1, 0, 1), 1),
          GcasSpec(2, 0, 3, ((3, 1), (2,)), (1, 0, 1), 1)))
def test_members_are_the_arrays_of_their_functions(specs):
    # Each member array, built from the path array and bit planes, is the
    # array of f plus (q/2) on its subset of start variables (and, for the
    # mate, on the last path variable).
    pair, gcas = specs
    half = pair.q // 2

    def subsets(f, starts, t):
        for alpha, s in enumerate(starts):
            if t >> alpha & 1:
                f = f.add_term(half, (s,))
        return f

    f, first, last = general_gcap_function(pair), pair.pi[:1], pair.pi[-1:]
    g, starts = gcas_function(gcas), [block[0] for block in gcas.blocks]
    for built, functions in (
        (construct_gcap_general(pair), [subsets(f, first, t) for t in (0, 1)]),
        (construct_mate(pair), [subsets(subsets(f, last, 1), first, t) for t in (0, 1)]),
        (construct_gcas(gcas), [subsets(g, starts, t) for t in range(1 << gcas.k)]),
    ):
        assert built == tuple(h.to_array() for h in functions)
        assert not any(a.entries.flags.writeable for a in built)


KINDS = ("gcap-general", "gcap-basic", "mate", "gcas")


@st.composite
def construction_specs(draw, kinds=KINDS):
    """(kind, spec) of a construction: any q, n = 0 included (n, m >= 1 for a
    basic pair) and 2 <= n + m <= 8, so on both sides of the direct-count size."""
    q = draw(st.sampled_from((2, 4, 6, 8, 12)))
    kind = draw(st.sampled_from(kinds))
    least = 1 if kind == "gcap-basic" else 0
    n = draw(st.integers(least, 4))
    m = draw(st.integers(max(least, 2 - n), 8 - n))

    def coeffs(size):
        return draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))

    p0 = draw(st.integers(0, q - 1))
    if kind == "gcap-basic":
        pi1, pi2 = (draw(st.permutations(range(1, k + 1))) for k in (m, n))
        return kind, GcapBasicSpec(q, n, m, pi1, pi2, coeffs(m), coeffs(n), p0)
    order = draw(st.permutations(range(1, n + m + 1)))
    if kind == "gcas":
        cuts = sorted(draw(st.sets(st.integers(1, n + m - 1), max_size=3)))
        bounds = [0, *cuts, n + m]
        blocks = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        return kind, GcasSpec(q, n, m, blocks, coeffs(n + m), p0)
    return kind, GcapGeneralSpec(q, n, m, order, coeffs(n + m), p0)


def _pair(kind, spec):
    return (construct_gcap_basic if kind == "gcap-basic" else construct_gcap_general)(spec)


@settings(derandomize=True, deadline=None, database=None)
@given(construction_specs())
def test_every_construction_spec_passes_its_check(case):
    kind, spec = case
    if kind == "gcas":
        result = is_gcas(construct_gcas(spec))
    elif kind == "mate":
        result = is_mate(construct_gcap_general(spec), construct_mate(spec))
    else:
        result = is_gcap(*_pair(kind, spec))
    assert result.passed and result.violations == ()


@settings(derandomize=True, deadline=None, database=None)
@given(construction_specs(("gcap-general", "gcap-basic")), st.data())
def test_every_single_cell_change_breaks_a_pair(case, data):
    # A pair is complementary exactly when |C|^2 + |D|^2 is constant on the
    # torus.  Changing cell x of one array adds a trigonometric polynomial whose
    # coefficient at x - y is nonzero for a cell y with 2x - y off the grid,
    # and every power-of-two shape with more than one cell has such a y.
    pair = list(_pair(*case))
    k = data.draw(st.integers(0, 1))
    q, (L1, L2) = pair[k].q, pair[k].entries.shape
    g, i = data.draw(st.integers(0, L1 - 1)), data.draw(st.integers(0, L2 - 1))
    entries = pair[k].entries.copy()
    entries[g, i] = (entries[g, i] + data.draw(st.integers(1, q - 1))) % q
    pair[k] = QaryArray(q, entries)
    assert not is_gcap(*pair).passed


@st.composite
def phase_rows(draw):
    """One to three Z_q rows of one length up to 128, and an oversampling factor."""
    q = draw(st.sampled_from((2, 4, 6, 8, 12)))
    L = draw(st.integers(1, 128))
    count = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, q - 1), min_size=count * L, max_size=count * L))
    return q, np.array(cells).reshape(count, L), draw(st.sampled_from((4, 5, 16, 256)))


@settings(derandomize=True, deadline=None, database=None)
@given(phase_rows())
def test_long_rows_stay_within_the_sampling_oracle(case):
    # The refined value is at least the best of the R*L samples it started
    # from, and no more than the true peak: a polynomial of degree below L
    # sampled at 4096*L points has max|S| <= max_k |S(t_k)| / cos(pi / 8192).
    q, rows, R = case
    values = _paprs(rows, q, R)
    assert (values >= sampled_max(rows, q, R) * (1 - 1e-12)).all()
    assert (values <= sampled_max(rows, q, 4096) / math.cos(math.pi / 8192) ** 2 * (1 + 1e-12)).all()


@st.composite
def arrays_and_block_limits(draw):
    """A Z_q array with sides 2 to 70, square or not, and block limits that
    cut its rows into several coarse blocks but keep the default candidate
    window (L x 19 entries at R = 256) in one block."""
    q = draw(st.sampled_from((2, 4, 6, 8, 12)))
    L1 = draw(st.integers(2, 70))
    L2 = L1 if draw(st.booleans()) else draw(st.integers(2, 70))
    entries = draw(arrays(np.int64, (L1, L2), elements=st.integers(0, q - 1)))
    longest = max(L1, L2)
    limits = draw(st.lists(st.integers(19 * longest, 64 * longest), min_size=1, max_size=3))
    return QaryArray(q, entries), limits


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(arrays_and_block_limits())
def test_papr_report_bits_do_not_depend_on_the_row_blocks(case):
    # Cutting the rows into other coarse blocks regroups the grid stage's
    # candidates, its candidate chunks and the refinement's chunks; every
    # row still gets the same bits.  Limits below L x 19 split the window
    # itself, which is not bit-stable and is not drawn here.
    arr, limits = case
    reference = papr_report(arr)
    for limit in limits:
        with mock.patch.object(papr, "_BLOCK_POINTS", limit):
            report = papr_report(arr)
        for got, want in ((report.per_row, reference.per_row), (report.per_col, reference.per_col)):
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


@st.composite
def binary_rows(draw):
    """One to three binary rows of one length from 2 to 130, and an oversampling factor."""
    L = draw(st.integers(2, 130))
    count = draw(st.integers(1, 3))
    rows = draw(arrays(np.int64, (count, L), elements=st.integers(0, 1)))
    return rows, draw(st.sampled_from((4, 5, 16, 256)))


@settings(derandomize=True, deadline=None, database=None)
@given(binary_rows())
def test_binary_rows_sample_half_the_circle_without_moving_the_peak(case):
    # Real coefficients take the rfft over t in [0, 1/2]; the same rows as
    # complex coefficients take the ifft over the whole circle.  The mirror
    # peak the half grid may pick refines to the same value.
    rows, R = case
    grid_peaks = papr._grid_peaks
    with mock.patch.object(papr, "_grid_peaks",
                           lambda coeffs, oversampling: grid_peaks(coeffs.astype(complex), oversampling)):
        whole = _paprs(rows, 2, R)
    assert _paprs(rows, 2, R) == pytest.approx(whole, rel=1e-13)


@st.composite
def array_pairs_and_shifts(draw):
    """Two Z_q arrays of one shape and a few shifts.  The shape lies on either
    side of the direct-count threshold, so both count-tensor kernels are drawn."""
    q = draw(st.sampled_from((2, 4, 6, 8, 12)))
    L1 = draw(st.integers(1, 16))
    most = math.isqrt(_DIRECT_PAIRS) // L1
    L2 = draw(st.integers(most + 1, most + 16) if draw(st.booleans()) else st.integers(1, most))
    c, d = (draw(arrays(np.int64, (L1, L2), elements=st.integers(0, q - 1))) for _ in range(2))
    shift = st.tuples(st.integers(1 - L1, L1 - 1), st.integers(1 - L2, L2 - 1))
    return QaryArray(q, c), QaryArray(q, d), draw(st.lists(shift, min_size=1, max_size=8))


@settings(derandomize=True, deadline=None, database=None)
@given(array_pairs_and_shifts())
def test_count_tensors_follow_the_definition(case):
    c, d, shifts = case
    L1, L2 = c.L1, c.L2
    overlap = np.outer(L1 - np.abs(np.arange(1 - L1, L1)), L2 - np.abs(np.arange(1 - L2, L2)))
    for table, other in ((auto_correlation_table(c), c), (cross_correlation_table(c, d), d)):
        for u1, u2 in shifts:
            assert tuple(table.counts[u1 + L1 - 1, u2 + L2 - 1]) == cross_correlation(c, other, u1, u2).counts
        assert np.array_equal(table.counts.sum(axis=2), overlap)


# Non-power-of-two shapes past the direct-count size, and shapes within it.
RANDOM_SHAPES = ((11, 13), (12, 12), (17, 9), (1, 200), (3, 5), (8, 16), (1, 128), (7, 7))


@st.composite
def checks(draw):
    """(kind, arrays) for a pair, set or mate check: construction inputs, each
    with or without one changed cell, or a random pair.  Constructions have
    2^(n+m) cells, past the direct-count size from n + m = 8."""
    q = draw(st.sampled_from((2, 4, 6, 8, 12)))
    kind = draw(st.sampled_from(("pair", "set", "mate", "random")))
    if kind == "random":
        shape = draw(st.sampled_from(RANDOM_SHAPES))
        cells = st.integers(0, q - 1)
        return kind, [QaryArray(q, draw(arrays(np.int64, shape, elements=cells))) for _ in range(2)]
    size = draw(st.integers(8, 9) if draw(st.booleans()) else st.integers(2, 7))
    n = draw(st.integers(0, min(size, 4)))
    m = size - n
    order = draw(st.permutations(range(1, size + 1)))
    p = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    p0 = draw(st.integers(0, q - 1))
    if kind == "set":
        cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=2)))
        bounds = [0, *cuts, size]
        blocks = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        members = list(construct_gcas(GcasSpec(q, n, m, blocks, p, p0)))
    else:
        spec = GcapGeneralSpec(q, n, m, order, p, p0)
        members = list(construct_gcap_general(spec))
        if kind == "mate":
            members += construct_mate(spec)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(members) - 1))
        entries = members[k].entries.copy()
        g, i = draw(st.integers(0, entries.shape[0] - 1)), draw(st.integers(0, entries.shape[1] - 1))
        entries[g, i] = (entries[g, i] + draw(st.integers(1, q - 1))) % q
        members[k] = QaryArray(q, entries)
    return kind, members


def _through_the_tensors():
    """Every check in this context takes the count tensors, as if it were of the direct size."""
    return mock.patch.object(verify, "_DIRECT_PAIRS", 1 << 62)


def _assert_lists_agree(pairs, expected):
    """The check kernel's result at caps 1, 3, the default and every shift is the tensors'."""
    L1, L2 = pairs[0][0].L1, pairs[0][0].L2
    caps = (1, 3, verify.DEFAULT_MAX_VIOLATIONS, (2 * L1 - 1) * (2 * L2 - 1))
    with _through_the_tensors():
        references = [verify._check([(pairs, expected, cap)])[0] for cap in caps]
    for cap, reference in zip(caps, references):
        assert_same_result(verify._check([(pairs, expected, cap)])[0], reference)
    return references[0]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(checks())
def test_spectral_pass_agrees_with_the_tensors(case):
    # The spectral decision equals the exact one on both sides of the
    # direct-count size; the check kernel's violation lists, their values
    # and truncation at every cap, and a checker's result, spectral or
    # not, equal the ones the count tensors alone give, centre counts
    # included.
    kind, members = case
    if kind == "mate":
        c, d, c2, d2 = members
        pairs, expected = [(c, c2), (d, d2)], 0
        check = lambda: is_mate((c, d), (c2, d2))  # noqa: E731
    else:
        pairs = [(a, a) for a in members]
        expected = len(members) * members[0].L1 * members[0].L2
        check = lambda: is_gcas(members) if kind == "set" else is_gcap(*members)  # noqa: E731
    with _through_the_tensors():
        reference = check()
    exact = _assert_lists_agree(pairs, expected).violations == ()
    kept, _, truncated = _spectral_pass([(pairs, expected, 0)])[0]
    assert (not len(kept) and not truncated) == exact
    result = check()
    assert result == reference
    assert result.center_value.counts == reference.center_value.counts


@pytest.mark.parametrize("q", (2, 4, 6, 8, 12))
def test_violation_lists_on_random_arrays_agree_with_the_tensors(q):
    # Shapes that are not powers of two, above the direct-count size:
    # autocorrelation pairs, cross pairs with centre 0, and single arrays,
    # one of them against a wrong centre, so that the origin is listed
    # with its uncentred value.
    rng = np.random.default_rng(71 + q)
    for shape in ((9, 17), (13, 20), (1, 200)):
        assert (shape[0] * shape[1]) ** 2 > _DIRECT_PAIRS
        a, b, c, d = (QaryArray(q, rng.integers(0, q, shape)) for _ in range(4))
        cells = shape[0] * shape[1]
        checks = (([(a, a), (b, b)], 2 * cells), ([(a, b), (c, d)], 0), ([(a, a)], cells), ([(c, c)], cells + 1))
        for pairs, expected in checks:
            assert _assert_lists_agree(pairs, expected).violations


@pytest.mark.parametrize("q, length, m", [(2, 10, 4), (4, 3, 6), (4, 5, 5)])
def test_spectral_pass_passes_outer_sums_at_non_power_of_two_shapes(q, length, m):
    # The autocorrelation of the outer sum s[g] + t[i] is the product of
    # those of s and t, so for a pair (a, b) and a pair (c, d) the four
    # outer sums form a complementary set: a passing input of a shape that
    # is not a power of two, above the direct-count size.
    a, b = (x.entries[0] for x in brute_force_gcaps(q, 1, length)[0])
    c, d = (x.entries[0] for x in gdj_pair(q, m, tuple(range(1, m + 1))))
    members = [QaryArray(q, (s[:, None] + t[None, :]) % q) for s in (a, b) for t in (c, d)]
    L1, L2 = length, 1 << m
    assert (L1 * L2) ** 2 > _DIRECT_PAIRS
    kept, _, truncated = _spectral_pass([([(x, x) for x in members], 4 * L1 * L2, 0)])[0]
    assert not len(kept) and not truncated
    result = is_gcas(members)
    with _through_the_tensors():
        reference = is_gcas(members)
    assert result.passed and reference.passed
    assert_same_result(result, reference)
    entries = members[1].entries.copy()
    entries[L1 // 2, L2 // 3] = (entries[L1 // 2, L2 // 3] + 1) % q
    broken = [members[0], QaryArray(q, entries), *members[2:]]
    for cap in (0, 1, verify.DEFAULT_MAX_VIOLATIONS, (2 * L1 - 1) * (2 * L2 - 1)):
        result = is_gcas(broken, max_violations=cap)
        with _through_the_tensors():
            reference = is_gcas(broken, max_violations=cap)
        assert not reference.passed
        assert_same_result(result, reference)
