import math

import numpy as np
import pytest

import golay2d.papr
from golay2d import (
    GcapGeneralSpec,
    QaryArray,
    construct_gcap_basic,
    construct_gcap_general,
    function_from_array,
    papr_bounds,
    papr_report,
    papr_sequence,
    run_partition,
)

import golden
from helpers import random_basic_spec, random_general_spec


def test_run_partition_examples():
    part = run_partition({1, 2, 5})
    assert part.runs == ((1, 2), (5,)) and part.v == 2
    part = run_partition({3, 4})
    assert part.runs == ((3, 4),) and part.v == 1
    assert run_partition(()).v == 0
    assert run_partition([7]).runs == ((7,),)
    assert run_partition([4, 1, 2, 6, 5]).runs == ((1, 2), (4, 5, 6))


def test_constant_sequence_peaks_at_length():
    for L in (1, 2, 4, 8):
        assert papr_sequence([0] * L, 2) == pytest.approx(L, abs=1e-9)


def test_length_one_sequence():
    assert papr_sequence([3], 4) == 1.0


def test_oversampling_validation():
    with pytest.raises(ValueError):
        papr_sequence([0, 1], 2, oversampling=2)
    with pytest.raises(ValueError):
        papr_sequence([], 2)


def test_basic_pair_reference_values():
    spec = golden.basic_q4_spec()
    for arr in construct_gcap_basic(spec):
        report = papr_report(arr, spec=spec)
        assert report.row_bound == 2.0 and report.col_bound == 2.0
        for value in report.per_row:
            assert value == pytest.approx(2.0, abs=1e-3)
        for value in report.per_col:
            assert value == pytest.approx(1.7698, abs=1e-3)


def test_general_pair_reference_values():
    spec = golden.general_q2_spec()
    for arr in construct_gcap_general(spec):
        report = papr_report(arr, spec=spec)
        assert report.row_bound == 4.0 and report.col_bound == 2.0
        assert report.max_row == pytest.approx(3.4427, abs=1e-3)
        for value in report.per_col:
            assert value == pytest.approx(1.7698, abs=1e-3)


def test_bounds_from_split_positions():
    # pi = (3,4,2,1,5) with n=2: column variables sit at positions {1,2,5},
    # row variables at {3,4}
    spec = golden.general_q2_spec()
    assert papr_bounds(spec) == (4.0, 2.0)
    assert papr_bounds(golden.basic_q4_spec()) == (2.0, 2.0)
    rng = np.random.default_rng(59)
    for _ in range(30):
        assert papr_bounds(random_basic_spec(rng)) == (2.0, 2.0)
    with pytest.raises(TypeError):
        papr_bounds(object())


def test_oversampling_convergence():
    spec = golden.general_q2_spec()
    arrays = list(construct_gcap_general(spec)) + list(
        construct_gcap_basic(golden.basic_q4_spec())
    )
    for arr in arrays:
        r256 = papr_report(arr, oversampling=256)
        r512 = papr_report(arr, oversampling=512)
        for a, b in zip(r256.per_row + r256.per_col, r512.per_row + r512.per_col):
            assert abs(a - b) < 1e-6


def test_bound_soundness_sample():
    rng = np.random.default_rng(61)
    for _ in range(30):
        spec = random_general_spec(rng)
        row_bound, col_bound = papr_bounds(spec)
        for arr in construct_gcap_general(spec):
            report = papr_report(arr, spec=spec)
            assert all(v <= row_bound + 1e-6 for v in report.per_row)
            assert all(v <= col_bound + 1e-6 for v in report.per_col)
            assert all(v >= 1.0 - 1e-9 for v in report.per_row + report.per_col)


def test_constant_offset_invariance():
    # adding a constant multiplies the envelope by a unit phase; the measured
    # value matches to floating rounding
    rng = np.random.default_rng(67)
    for _ in range(10):
        q = int(rng.choice((2, 4, 8)))
        seq = rng.integers(0, q, int(rng.integers(2, 9)))
        k = int(rng.integers(1, q))
        base = papr_sequence(seq, q)
        shifted = papr_sequence((seq + k) % q, q)
        assert shifted == pytest.approx(base, abs=1e-12)


def test_rows_have_sequence_set_structure():
    # every row of a general-construction array is a path-quadratic sequence
    # function: degree <= 2 with exactly the within-run edges, q/2 each
    rng = np.random.default_rng(71)
    for _ in range(15):
        spec = random_general_spec(rng)
        half = spec.q // 2
        positions = [l for l in range(1, spec.n + spec.m + 1) if spec.pi[l - 1] > spec.n]
        expected_edges = set()
        for run in run_partition(positions).runs:
            for a, b in zip(run, run[1:]):
                edge = tuple(sorted((spec.pi[a - 1] - spec.n, spec.pi[b - 1] - spec.n)))
                expected_edges.add((half, edge))
        for arr in construct_gcap_general(spec):
            for g in range(arr.L1):
                row = QaryArray.from_sequence(spec.q, arr.row(g))
                anf = function_from_array(row, 0, spec.m)
                assert anf.degree <= 2
                quadratic = {(c, vs) for c, vs in anf.terms if len(vs) == 2}
                assert quadratic == expected_edges


def test_report_spec_mismatch():
    spec = golden.general_q2_spec()
    wrong_shape = QaryArray(2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        papr_report(wrong_shape, spec=spec)
    c, _ = construct_gcap_general(spec)
    wrong_q = GcapGeneralSpec(4, 2, 3, spec.pi)
    with pytest.raises(ValueError):
        papr_report(c, spec=wrong_q)
    plain = papr_report(wrong_shape)
    assert plain.row_bound is None and plain.col_bound is None


def test_all_zero_square_array_paprs():
    arr = QaryArray(2, [[0, 0], [0, 0]])
    report = papr_report(arr)
    assert all(v == pytest.approx(2.0, abs=1e-9) for v in report.per_row + report.per_col)


def _sampled_max(rows: np.ndarray, q: int, oversampling: int) -> np.ndarray:
    """Largest of oversampling * L uniform samples of |S(t)|^2 / L, per row."""
    L = rows.shape[1]
    z = np.exp(2j * np.pi * rows / q)
    return (np.abs(np.fft.fft(z, oversampling * L, axis=1)) ** 2).max(axis=1) / L


def test_papr_within_oracle_sampling_interval():
    # Independent oracle: a polynomial of degree below L sampled at R*L
    # points obeys max|S| <= max_k |S(t_k)| / cos(pi / 2R), so with R = 4096
    # the true PAPR lies in [sampled max, sampled max / cos^2(pi / 8192)].
    R = 4096
    widen = math.cos(math.pi / (2 * R)) ** 2
    rng = np.random.default_rng(79)
    for _ in range(60):
        q = int(rng.choice((2, 4, 6, 8, 12)))
        L1, L2 = (int(v) for v in rng.integers(1, 12, 2))
        arr = QaryArray(q, rng.integers(0, q, (L1, L2)))
        report = papr_report(arr)
        for values, rows in ((report.per_row, arr.entries), (report.per_col, arr.entries.T)):
            values = np.asarray(values)
            floor = _sampled_max(rows, q, R)
            assert (values >= floor * (1 - 1e-12)).all()
            assert (values <= floor / widen * (1 + 1e-12)).all()


def test_rows_equal_up_to_a_constant_report_identical_values(monkeypatch):
    kernel_rows = []
    paprs = golay2d.papr._paprs

    def recording_paprs(seqs, q, oversampling):
        kernel_rows.append(len(seqs))
        return paprs(seqs, q, oversampling)

    monkeypatch.setattr(golay2d.papr, "_paprs", recording_paprs)
    rng = np.random.default_rng(83)
    for q in (2, 4, 6, 8, 12):
        base = rng.integers(0, q, 13)
        offsets = rng.integers(0, q, 7)
        arr = QaryArray(q, (base[None, :] + offsets[:, None]) % q)
        kernel_rows.clear()
        report = papr_report(arr)
        assert kernel_rows[0] == 1
        assert len(set(report.per_row)) == 1
        assert report.per_row[0] == pytest.approx(papr_sequence(base, q), rel=1e-12)


def test_length_one_axis_reports_one():
    rng = np.random.default_rng(89)
    for q in (2, 6, 12):
        seq = rng.integers(0, q, 9)
        wide = papr_report(QaryArray(q, seq[None, :]))
        tall = papr_report(QaryArray(q, seq[:, None]))
        assert wide.per_col == (1.0,) * 9 and tall.per_row == (1.0,) * 9
        assert wide.per_row == tall.per_col
        assert wide.per_row[0] == pytest.approx(papr_sequence(seq, q), rel=1e-12)


def test_report_rejects_low_oversampling_even_for_one_cell():
    with pytest.raises(ValueError, match="oversampling"):
        papr_report(QaryArray(2, [[0]]), oversampling=2)


def test_spectra_stay_within_the_block_limit(monkeypatch):
    rng = np.random.default_rng(97)
    arr = QaryArray(4, rng.integers(0, 4, (128, 128)))
    sizes = []
    ifft = np.fft.ifft

    def recording_ifft(*args, **kwargs):
        out = ifft(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(golay2d.papr.np.fft, "ifft", recording_ifft)
    report = papr_report(arr)
    assert sizes and max(sizes) <= golay2d.papr._BLOCK_POINTS
    monkeypatch.setattr(golay2d.papr, "_BLOCK_POINTS", 1)
    sizes.clear()
    assert papr_report(arr) == report
    assert max(sizes) == golay2d.papr._COARSE_OVERSAMPLING * 128


def test_grid_peaks_find_the_best_fine_sample():
    # The coarse subgrid plus windows must find the largest of all R*L
    # samples, at the index it reports.
    rng = np.random.default_rng(101)
    for R in (4, 5, 16, 48, 256):
        for q in (2, 4, 6, 8, 12):
            L = int(rng.integers(2, 40))
            rows = np.vstack([rng.integers(0, q, (300, L)), np.zeros((1, L), int),
                              np.arange(L)[None, :] * (q // 2) % q])
            coeffs = np.exp(2j * np.pi * rows / q)
            peak, best = golay2d.papr._grid_peaks(coeffs, R)
            assert best / L == pytest.approx(_sampled_max(rows, q, R), rel=1e-12)
            at_peak = np.exp(2j * np.pi * np.outer(peak, np.arange(L)) / (R * L))
            assert np.abs((coeffs * at_peak).sum(axis=1)) ** 2 == pytest.approx(best, rel=1e-12)
