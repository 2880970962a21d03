import cmath
import math

import numpy as np
import pytest

from golay2d import (
    CorrelationTable,
    CorrelationValue,
    QaryArray,
    auto_correlation_table,
    construct_gcap_general,
    construct_mate,
    correlation_sum,
    cross_correlation,
    cross_correlation_table,
    cyclotomic_polynomial,
)
from golay2d.correlation import _complex_values, fft_error_bound, reduction_matrix

import golden
from helpers import naive_cross_correlation, random_array


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_is_zero_examples():
    assert CorrelationValue(4, (1, 0, 1, 0)).is_zero()
    assert not CorrelationValue(4, (1, 0, 0, 0)).is_zero()
    full_orbit = CorrelationValue(4, (1, 1, 1, 1))
    assert full_orbit.is_zero()
    assert abs(full_orbit.to_complex()) < 1e-12
    # sum over a proper subgroup orbit: the cube roots of unity inside q=6
    assert CorrelationValue(6, (1, 0, 1, 0, 1, 0)).is_zero()
    assert not CorrelationValue(6, (1, 0, 1, 0, 0, 0)).is_zero()


def test_value_arithmetic_and_equality():
    a = CorrelationValue.from_int(3, 2)
    b = CorrelationValue.from_int(3, 4)
    assert a == b == 3 and hash(a) == hash(b) == hash(3)
    assert (a - CorrelationValue.from_int(3, 2)).is_zero()
    i_unit = CorrelationValue(4, (0, 1, 0, 0))
    assert i_unit.to_complex() == pytest.approx(1j)
    assert i_unit.conjugate().to_complex() == pytest.approx(-1j)
    assert i_unit != 0 and i_unit.as_int() is None
    with pytest.raises(ValueError):
        a + i_unit


def test_to_complex_examples():
    assert CorrelationValue(4, (2, 0, 0, 0)).to_complex() == pytest.approx(2 + 0j)
    assert CorrelationValue(4, (0, 1, 0, 0)).to_complex() == pytest.approx(1j)


def test_counts_length_validation():
    with pytest.raises(ValueError):
        CorrelationValue(4, (1, 0))


def test_center_value_is_array_size():
    rng = np.random.default_rng(3)
    for _ in range(10):
        arr = random_array(rng)
        assert cross_correlation(arr, arr, 0, 0) == arr.L1 * arr.L2


def test_golden_auto_tables():
    c, d = construct_gcap_general(golden.general_q2_spec())
    tc, td = auto_correlation_table(c), auto_correlation_table(d)
    for r, u1 in enumerate(range(-3, 4)):
        for col, u2 in enumerate(range(-7, 8)):
            assert tc.value(u1, u2) == golden.AUTO_GENERAL_C[r][col]
            assert td.value(u1, u2) == golden.AUTO_GENERAL_D[r][col]
    assert tc.value(-3, -7) == 1
    assert tc.value(-2, -3).to_complex() == pytest.approx(6 + 0j)
    assert tc.value(0, 0) == 32


def test_golden_pair_sum_vanishes():
    c, d = construct_gcap_general(golden.general_q2_spec())
    total = auto_correlation_table(c) + auto_correlation_table(d)
    for u1, u2 in total.shifts():
        if (u1, u2) == (0, 0):
            assert total.value(u1, u2) == 64
        else:
            assert total.value(u1, u2).is_zero()


def test_golden_cross_tables():
    spec = golden.general_q2_spec()
    c, d = construct_gcap_general(spec)
    cp, dp = construct_mate(spec)
    t1 = cross_correlation_table(c, cp)
    t2 = cross_correlation_table(d, dp)
    for r, u1 in enumerate(range(-3, 4)):
        for col, u2 in enumerate(range(-7, 8)):
            assert t1.value(u1, u2) == golden.CROSS_C_CPRIME[r][col]
            assert t2.value(u1, u2) == golden.CROSS_D_DPRIME[r][col]
    assert t1.value(1, -3) == -7 and t2.value(1, -3) == 7


def test_correlation_sum():
    c, d = construct_gcap_general(golden.general_q2_spec())
    v = correlation_sum(
        [cross_correlation(c, c, 2, 3), cross_correlation(d, d, 2, 3)]
    )
    assert v.is_zero()
    center = correlation_sum(
        [cross_correlation(c, c, 0, 0), cross_correlation(d, d, 0, 0)]
    )
    assert center == 64
    assert correlation_sum([], q=4).is_zero()
    with pytest.raises(ValueError):
        correlation_sum([])
    with pytest.raises(ValueError):
        correlation_sum([CorrelationValue.zero(2)], q=4)


def test_single_cell_table():
    t = auto_correlation_table(QaryArray(2, [[0]]))
    assert list(t.shifts()) == [(0, 0)]
    assert t.value(0, 0) == 1


def test_autocorrelation_symmetry_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        arr = random_array(rng)
        t = auto_correlation_table(arr)
        for u1, u2 in t.shifts():
            assert t.value(u1, -u2).counts == t.value(-u1, u2).conjugate().counts


def test_cross_agrees_with_naive_complex():
    rng = np.random.default_rng(9)
    for _ in range(15):
        q = int(rng.choice((2, 4, 6, 8)))
        L1, L2 = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        c = random_array(rng, q=q, L1=L1, L2=L2)
        d = random_array(rng, q=q, L1=L1, L2=L2)
        for u1 in range(-(L1 - 1), L1):
            for u2 in range(-(L2 - 1), L2):
                exact = cross_correlation(c, d, u1, u2).to_complex()
                naive = naive_cross_correlation(c, d, u1, u2)
                assert abs(exact - naive) < 1e-9


def test_binary_values_are_rational_integers():
    rng = np.random.default_rng(15)
    for _ in range(10):
        arr = random_array(rng, q=2)
        t = auto_correlation_table(arr)
        for (_, _), v in t.items():
            k = v.as_int()
            assert k is not None and k == v.counts[0] - v.counts[1]


def test_is_zero_matches_numeric_on_random_counts():
    rng = np.random.default_rng(2026)
    qs = (2, 4, 6, 8, 10, 12)
    checked = zeros_seen = 0
    for trial in range(10_000):
        q = qs[trial % len(qs)]
        counts = rng.integers(-64, 65, q)
        if trial % 10 == 0:
            # plant exact zeros: multiples of the full orbit plus opposite pairs
            counts = np.full(q, int(rng.integers(-8, 9)))
            e = int(rng.integers(0, q))
            w = int(rng.integers(-8, 9))
            counts[e] += w
            counts[(e + q // 2) % q] += w
        v = CorrelationValue(q, counts)
        assert v.is_zero() == (abs(v.to_complex()) < 1e-9)
        checked += 1
        zeros_seen += v.is_zero()
    assert checked == 10_000 and zeros_seen >= 1_000


def test_shift_and_shape_errors():
    a = QaryArray(2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        cross_correlation(a, a, 2, 0)
    with pytest.raises(ValueError):
        cross_correlation(a, a, 0, -2)
    with pytest.raises(ValueError):
        cross_correlation(a, QaryArray(2, [[0, 1]]), 0, 0)
    with pytest.raises(ValueError):
        cross_correlation(a, QaryArray(4, [[0, 1], [1, 0]]), 0, 0)
    t = auto_correlation_table(a)
    with pytest.raises(ValueError):
        t.value(2, 0)
    with pytest.raises(ValueError):
        t + auto_correlation_table(QaryArray(2, [[0, 1]]))


TENSOR_QS = (2, 4, 6, 8, 12)


def _assert_tensor_is_direct(table, c, d):
    assert table.counts.shape == (2 * c.L1 - 1, 2 * c.L2 - 1, c.q)
    for u1, u2 in table.shifts():
        direct = cross_correlation(c, d, u1, u2).counts
        assert tuple(table.counts[u1 + c.L1 - 1, u2 + c.L2 - 1]) == direct, (u1, u2)


def test_count_tensor_equals_direct_definition():
    rng = np.random.default_rng(2024)
    # Fixed shapes cover 1-wide, prime and other non-power-of-two sides.
    shapes = [(1, 1), (1, 9), (9, 1), (3, 7), (5, 6), (9, 9)]
    shapes += [tuple(int(v) for v in rng.integers(1, 10, 2)) for _ in range(4)]
    for q in TENSOR_QS:
        for L1, L2 in shapes:
            c = random_array(rng, q=q, L1=L1, L2=L2)
            d = random_array(rng, q=q, L1=L1, L2=L2)
            _assert_tensor_is_direct(auto_correlation_table(c), c, c)
            _assert_tensor_is_direct(cross_correlation_table(c, d), c, d)


def test_count_tensor_uncertified_rounding_raises(monkeypatch):
    arr = random_array(np.random.default_rng(1), q=4, L1=3, L2=5)
    inverse = np.fft.irfft2
    monkeypatch.setattr(np.fft, "irfft2", lambda *args, **kwargs: inverse(*args, **kwargs) + 0.3)
    with pytest.raises(ArithmeticError):
        auto_correlation_table(arr)
    with pytest.raises(ArithmeticError):
        cross_correlation_table(arr, arr)


def test_fft_error_bound_certifies_practical_sizes():
    # 64 x 64 arrays use 128 x 128 transforms.
    assert fft_error_bound(128, 128, 4, 64 * 64) < 1e-6
    assert fft_error_bound(256, 256, 12, 128 * 128) < 1e-5
    assert fft_error_bound(1, 1, 2, 1) < 1e-15
    assert fft_error_bound(1 << 16, 1 << 16, 12, 1 << 30) > 0.25


def test_reduction_matrix():
    assert reduction_matrix(2).tolist() == [[1], [-1]]
    assert reduction_matrix(4).tolist() == [[1, 0], [0, 1], [-1, 0], [0, -1]]
    # x^3 = -1 and x^4 = -x, x^5 = x - 1 modulo x^2 - x + 1
    assert reduction_matrix(6).tolist() == [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]]
    rng = np.random.default_rng(11)
    for q in TENSOR_QS:
        counts = rng.integers(-50, 50, q)
        assert CorrelationValue(q, counts).reduced == tuple(counts @ reduction_matrix(q))
    # Row e is x^e mod Phi_q: phi(q) coefficients, the same number at xi.
    for q in range(2, 65, 2):
        phi = sum(math.gcd(k, q) == 1 for k in range(1, q + 1))
        matrix = reduction_matrix(q)
        assert matrix.shape == (q, phi)
        powers = np.exp(2j * np.pi * np.arange(q) / q)
        assert np.abs(matrix @ powers[:phi] - powers).max() < 1e-9


def test_table_views_sum_and_equality():
    rng = np.random.default_rng(31)
    c = random_array(rng, q=4, L1=3, L2=4)
    d = random_array(rng, q=4, L1=3, L2=4)
    tc, td = auto_correlation_table(c), auto_correlation_table(d)
    total = tc + td
    assert np.array_equal(total.counts, tc.counts + td.counts)
    for (u1, u2), value in total.items():
        assert value == tc.value(u1, u2) + td.value(u1, u2)
    # Different count tensors with the same reduced values compare equal.
    shifted = CorrelationTable(4, 3, 4, tc.counts + 1)
    assert shifted == tc and not np.array_equal(shifted.counts, tc.counts)
    assert CorrelationTable(4, 3, 4, tc.counts + np.array([1, 0, 0, 0])) != tc
    with pytest.raises(ValueError):
        CorrelationTable(4, 3, 4, tc.counts[:, :, :2])
    with pytest.raises(ValueError):
        CorrelationTable(4, 3, 4, tc.counts.astype(float))
    with pytest.raises(ValueError):
        tc.counts[0, 0, 0] = 5


def _scalar_complex(q, counts) -> complex:
    """The per-value reference: one cmath root and one Python sum term per nonzero count."""
    return sum(
        c * cmath.exp(2j * cmath.pi * e / q) for e, c in enumerate(counts) if c
    ) + 0j


def _bits(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    return np.stack([values.real, values.imag]).view(np.int64)


def test_complex_values_equal_the_scalar_sum_bit_for_bit():
    rng = np.random.default_rng(131)
    for q in (2, 4, 6, 8, 12):
        rows = np.concatenate([
            np.zeros((3, q), dtype=np.int64),
            rng.integers(-6, 7, (300, q)),
            rng.integers(-(1 << 40), 1 << 40, (60, q)),
            rng.integers(-(1 << 62), 1 << 62, (30, q)),
        ])
        rows[rng.random(rows.shape) < 0.3] = 0
        got = _complex_values(q, rows)
        scalar = [_scalar_complex(q, row) for row in rows.tolist()]
        per_value = [CorrelationValue(q, row).to_complex() for row in rows.tolist()]
        assert np.array_equal(_bits(got), _bits(scalar))
        assert np.array_equal(_bits(per_value), _bits(scalar))
        # the leading axes are only a batch: any shape, the empty one included
        grid = _complex_values(q, rows[:300].reshape(10, 30, q))
        assert np.array_equal(_bits(grid.ravel()), _bits(got[:300]))
        assert _complex_values(q, np.zeros((0, 5, q), dtype=np.int64)).shape == (0, 5)
        zero = CorrelationValue.zero(q).to_complex()
        assert type(zero) is complex and _bits([zero]).tolist() == [[0], [0]]
