import itertools
import math
import tracemalloc

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
from golay2d.correlation import _embedding_roots
from helpers import random_basic_spec, random_general_spec, sampled_max


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
    arr = QaryArray(2, [[0, 1], [1, 0]])
    for R in ((1 << 20) + 1, 1 << 40, 10 ** 20):
        with pytest.raises(ValueError, match=f"oversampling must be at most 1048576, got {R}$"):
            papr_sequence([0, 1], 2, oversampling=R)
        with pytest.raises(ValueError, match=f"oversampling must be at most 1048576, got {R}$"):
            papr_report(arr, oversampling=R)
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
            floor = sampled_max(rows, q, R)
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


def _coefficients(rows, q):
    """The unit coefficients as _paprs takes them: real at q = 2, complex otherwise."""
    return _embedding_roots(q, 1)[rows % q]


def _recording_ffts(monkeypatch):
    """Record the output size of every ifft and rfft call, by name."""
    sizes = {"ifft": [], "rfft": []}
    for name in sizes:
        transform = getattr(np.fft, name)

        def recording(*args, _transform=transform, _sizes=sizes[name], **kwargs):
            out = _transform(*args, **kwargs)
            _sizes.append(out.size)
            return out

        monkeypatch.setattr(golay2d.papr.np.fft, name, recording)
    return sizes


def test_spectra_stay_within_the_block_limit(monkeypatch):
    # The complex ifft at q = 4 and the real rfft at q = 2, whose rows hold
    # coarse / 2 + 1 bins.
    rng = np.random.default_rng(97)
    sizes = _recording_ffts(monkeypatch)
    coarse = golay2d.papr._COARSE_OVERSAMPLING * 128
    default = golay2d.papr._BLOCK_POINTS
    for q, name, longest in ((4, "ifft", coarse), (2, "rfft", coarse // 2 + 1)):
        arr = QaryArray(q, rng.integers(0, q, (128, 128)))
        monkeypatch.setattr(golay2d.papr, "_BLOCK_POINTS", default)
        sizes[name].clear()
        report = papr_report(arr)
        assert sizes[name] and max(sizes[name]) <= golay2d.papr._BLOCK_POINTS
        monkeypatch.setattr(golay2d.papr, "_BLOCK_POINTS", 1)
        sizes[name].clear()
        assert papr_report(arr) == report
        assert max(sizes[name]) == longest


def test_binary_reports_sample_half_the_circle(monkeypatch):
    # Real coefficients (q = 2) take one rfft over t in [0, 1/2], so each
    # mirror pair of peaks yields one set of candidate windows: about three
    # a row, not the five to six that both halves of the circle give.
    # Candidates are counted where their window twists are taken.
    papr = golay2d.papr
    sizes = _recording_ffts(monkeypatch)
    candidates, seqs = [], []
    roots, paprs = papr._roots, papr._paprs

    def counting_roots(k, num):
        if num == papr._COARSE_OVERSAMPLING * 128:
            candidates.append(len(k))
        return roots(k, num)

    def recording_paprs(rows, q, oversampling):
        seqs.append(len(rows))
        return paprs(rows, q, oversampling)

    monkeypatch.setattr(papr, "_roots", counting_roots)
    monkeypatch.setattr(papr, "_paprs", recording_paprs)
    papr_report(QaryArray(2, np.random.default_rng(137).integers(0, 2, (128, 128))))
    assert seqs == [256] and sum(candidates) <= 3 * 256
    assert sizes["rfft"] and not sizes["ifft"]
    rng = np.random.default_rng(139)
    for q in (4, 6, 8, 12):
        for recorded in sizes.values():
            recorded.clear()
        papr_report(QaryArray(q, rng.integers(0, q, (16, 16))))
        assert sizes["ifft"] and not sizes["rfft"]


def test_grid_peaks_find_the_best_fine_sample(monkeypatch):
    # The coarse subgrid plus windows must find the largest of all R*L
    # samples, at the index it reports, also when the window is taken in
    # blocks of two columns.  At q = 2 the index may be the mirror of the
    # first best sample, whose |S|^2 is the same.
    block = golay2d.papr._BLOCK_POINTS
    rng = np.random.default_rng(101)
    for R in (4, 5, 16, 48, 256):
        for q in (2, 4, 6, 8, 12):
            L = int(rng.integers(2, 40))
            rows = np.vstack([rng.integers(0, q, (300, L)), np.zeros((1, L), int),
                              np.arange(L)[None, :] * (q // 2) % q])
            coeffs = _coefficients(rows, q)
            for limit in (block, 2 * L):
                monkeypatch.setattr(golay2d.papr, "_BLOCK_POINTS", limit)
                peak, best = golay2d.papr._grid_peaks(coeffs, R)
                assert best / L == pytest.approx(sampled_max(rows, q, R), rel=1e-12)
                at_peak = np.exp(2j * np.pi * np.outer(peak, np.arange(L)) / (R * L))
                assert np.abs((coeffs * at_peak).sum(axis=1)) ** 2 == pytest.approx(best, rel=1e-12)


def test_each_window_block_is_built_once_per_report(monkeypatch):
    # The grid stage takes every row of a report in one call, so the
    # candidate window, too large for the cache at R = 2^14 and L = 128,
    # is built once per block of window columns and not once per block of
    # rows, and the best samples are still the best of all R*L samples.
    papr = golay2d.papr
    R = 1 << 14
    arr = QaryArray(4, np.random.default_rng(137).integers(0, 4, (128, 128)))
    builds, seqs, found = [], [], []
    window, paprs, grid_peaks = papr._window, papr._paprs, papr._grid_peaks

    def counting_window(*args):
        builds.append(args)
        return window(*args)

    def recording_paprs(rows, q, oversampling):
        seqs.append(rows)
        return paprs(rows, q, oversampling)

    def recording_grid_peaks(coeffs, oversampling):
        peak, best = grid_peaks(coeffs, oversampling)
        found.append(best.copy())  # the refinement raises best in place
        return peak, best

    monkeypatch.setattr(papr, "_window", counting_window)
    monkeypatch.setattr(papr, "_paprs", recording_paprs)
    monkeypatch.setattr(papr, "_grid_peaks", recording_grid_peaks)
    papr_report(arr, oversampling=R)
    assert len(builds) == 5 and len(set(builds)) == 5
    (rows,), (best,) = seqs, found
    assert len(rows) == 256
    # Every 16th row, one at a time: a row has 2^21 samples.
    for k in range(0, len(rows), 16):
        assert best[k] / 128 == pytest.approx(sampled_max(rows[k : k + 1], 4, R)[0], rel=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


def _recording_cache(monkeypatch):
    """Record (build, args, table) for every table the kernel takes from the cache."""
    tables = []
    cached = golay2d.papr._cached

    def recording(build, *args):
        table = cached(build, *args)
        tables.append((build, args, table))
        return table

    monkeypatch.setattr(golay2d.papr, "_cached", recording)
    return tables


def test_tables_equal_the_direct_expressions(monkeypatch):
    # Every table entry is, bit for bit, the exponential the kernel would
    # otherwise evaluate: the roots at every N it uses, on index arrays like
    # its own, and each cached candidate window and set of Newton weights.
    papr = golay2d.papr
    tables = _recording_cache(monkeypatch)
    rng = np.random.default_rng(109)
    for q, L, R in itertools.product((2, 4, 6, 8, 12), (2, 5, 128), (4, 5, 256, 300)):
        for num in (q, R // papr._coarse_step(R) * L, R * L):
            for k in (np.arange(num), np.outer(rng.integers(0, num, 9), np.arange(L)) % num):
                assert _same_bits(papr._roots(k, num), np.exp(2j * np.pi * k / num))
        papr._paprs(rng.integers(0, q, (4, L)), q, R)
    for build, args, table in tables:
        assert not table.flags.writeable and table.size <= papr._BLOCK_POINTS
        if build is papr._window:
            L, num, start, stop = args
            step = papr._coarse_step(num // L)
            offsets = np.arange(-(step // 2) - 1, step // 2 + 2)
            assert (start, stop) == (offsets[0], offsets[-1] + 1)
            assert _same_bits(table, np.exp(2j * np.pi * np.outer(np.arange(L), offsets) / num))
        elif build is papr._newton_weights:
            n = np.arange(*args)
            assert _same_bits(table, np.stack([np.ones(len(n)), 2j * np.pi * n, -((2 * np.pi * n) ** 2)]))
    assert {build for build, _, _ in tables} == {papr._root_table, papr._window, papr._newton_weights}


def test_large_oversampling_stays_within_the_block_limit(monkeypatch):
    # The candidate window has R / 16 + 3 columns; it is taken in blocks so
    # that no temporary, and no cached table, holds more than _BLOCK_POINTS
    # entries.
    papr = golay2d.papr
    arr = QaryArray(4, np.random.default_rng(113).integers(0, 4, (16, 16)))
    reference = papr_report(arr)
    tables = _recording_cache(monkeypatch)
    for R in (1 << 18, 1 << 20):
        tracemalloc.start()
        try:
            report = papr_report(arr, oversampling=R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * papr._BLOCK_POINTS  # eight blocks of complex128
        got = report.per_row + report.per_col
        assert got == pytest.approx(reference.per_row + reference.per_col, rel=1e-9)
    assert tables and max(table.size for _, _, table in tables) <= papr._BLOCK_POINTS


def test_square_arrays_measure_both_axes_in_one_call(monkeypatch):
    axis_paprs = golay2d.papr._axis_paprs
    calls = []
    paprs = golay2d.papr._paprs

    def recording_paprs(seqs, q, oversampling):
        calls.append(len(seqs))
        return paprs(seqs, q, oversampling)

    monkeypatch.setattr(golay2d.papr, "_paprs", recording_paprs)
    rng = np.random.default_rng(131)
    arrays = [construct_gcap_general(random_general_spec(rng, n=3, m=3))[0]]
    for q in (2, 4, 6, 8, 12):
        for shape in ((9, 9), (16, 16), (7, 13), (1, 1), (1, 40)):
            arrays.append(QaryArray(q, rng.integers(0, q, shape)))
    for arr in arrays:
        for R in (4, 256):
            calls.clear()
            report = papr_report(arr, oversampling=R)
            assert len(calls) == (1 if arr.L1 == arr.L2 else 2)
            rows = np.array(axis_paprs(arr.entries, arr.q, R))
            cols = np.array(axis_paprs(arr.entries.T, arr.q, R))
            assert _same_bits(np.array(report.per_row), rows)
            assert _same_bits(np.array(report.per_col), cols)


def test_refinement_takes_few_rounds(monkeypatch):
    # Safeguarded Newton converges in a few lockstep rounds, and a peak that
    # lies on the sampling grid ends the search at its first evaluation.
    rounds = []
    envelopes = golay2d.papr._envelopes

    def counting_envelopes(grid, t):
        rounds[-1] += 1
        return envelopes(grid, t)

    monkeypatch.setattr(golay2d.papr, "_envelopes", counting_envelopes)

    def refine(rows, q, R):
        coeffs = _coefficients(rows, q)
        peak, _ = golay2d.papr._grid_peaks(coeffs, R)
        rounds.append(0)
        golay2d.papr._refined_peaks(coeffs, peak, R * rows.shape[1])
        return rounds[-1]

    rng = np.random.default_rng(103)
    for R in (4, 5, 16, 256):
        for n, m in ((1, 2), (2, 3), (3, 4), (5, 2), (4, 6)):
            general = random_general_spec(rng, q=int(rng.choice((2, 4, 6, 8, 12))), n=n, m=m)
            basic = random_basic_spec(rng, n=n, m=m)
            for c in (construct_gcap_general(general)[0], construct_gcap_basic(basic)[0]):
                assert refine(c.entries, c.q, R) <= 8
                assert refine(c.entries.T, c.q, R) <= 8
        for q in (2, 4, 6, 8, 12):
            L = int(rng.integers(2, 129))
            assert refine(rng.integers(0, q, (50, L)), q, R) <= 8
        for q in (2, 4, 6, 8, 12):
            for L in (2, 5, 16, 64):
                assert refine(np.zeros((1, L), int), q, R) == 1
                if R * L % 2 == 0:  # the alternating row peaks at t = 1/2
                    assert refine(np.arange(L)[None, :] * (q // 2) % q, q, R) == 1
            assert refine(np.array([[q // 2, 0]]), q, R) == 1


def _reference_paprs(rows, q, R):
    """PAPR per row by the definition: the best of the R*L samples of |S(t)|^2,
    then a golden-section search of |S(t)|^2 over one sample either side."""
    L = rows.shape[1]
    num = R * L
    n = np.arange(L)
    z = np.exp(2j * np.pi * rows / q)
    roots = np.exp(2j * np.pi * np.arange(num) / num)
    samples = np.empty((len(rows), num))
    for k0 in range(0, num, 2048):
        k = np.arange(k0, min(num, k0 + 2048))
        samples[:, k] = np.abs(z @ roots[np.outer(n, k) % num]) ** 2
    best = samples.argmax(axis=1)
    # Offsets u from each row's best sample, with its phase taken exactly.
    twisted = z * roots[np.outer(best, n) % num]

    def power(u):
        return np.abs((twisted * np.exp(2j * np.pi * np.outer(u, n))).sum(axis=1)) ** 2

    ratio = (math.sqrt(5) - 1) / 2
    lo, hi = np.full(len(rows), -1 / num), np.full(len(rows), 1 / num)
    peak = samples.max(axis=1)
    for _ in range(80):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        pa, pb = power(a), power(b)
        peak = np.maximum(peak, np.maximum(pa, pb))
        left = pa > pb
        hi, lo = np.where(left, b, hi), np.where(left, lo, a)
    return peak / L


def test_refinement_matches_the_definition():
    # The grid search and the Newton refinement against a reference that
    # shares neither: every sample taken directly, then golden sections.
    rng = np.random.default_rng(107)
    for L in (2, 3, 5, 31, 100, 129):
        for q in (2, 4, 6, 8, 12):
            rows = rng.integers(0, q, (6, L))
            for R in (4, 5, 256):
                got = golay2d.papr._paprs(rows, q, R)
                want = _reference_paprs(rows, q, R)
                assert got == pytest.approx(want, rel=1e-12), (L, q, R)
