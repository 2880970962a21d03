"""Peak-to-average power ratio of row and column sequences.

A length-L phase sequence s over Z_q modulates L subcarriers; the continuous
envelope power |S(t)|^2 = |sum_i xi^{s_i} exp(2*pi*sqrt(-1)*i*t)|^2 is a
trigonometric polynomial of degree below L and has period 1 in t.  The peak
is located by dense sampling at R*L uniform points (4 <= R <= 2^20) and a
local safeguarded Newton refinement down to 1e-10 in t, which pins the
maximum far below the 1e-3 tolerances used by the numeric tests.

One kernel measures a whole matrix of sequences.  The best of the R*L
samples is found without taking all of them: a zero-padded FFT samples a
subgrid of 16 points per 1/L, and a curvature bound on |S|^2 names the
few windows of the full grid that can hold the best sample, which are
then evaluated directly.  At q = 2 the coefficients are real, so
|S(-t)| = |S(t)| and one rfft samples t in [0, 1/2] only: each mirror
pair of peaks gives one set of windows, not two.  This grid stage takes
every row of a call at once, so each block of the window is built once
per call.  Every temporary stays within _BLOCK_POINTS = 2^15 entries;
only the list of candidate windows grows with the number of rows, by
about three a row at every q.
The refinement runs in lockstep for all rows: each step evaluates S, S'
and S'' of every row by their definition, as one block of exponentials
and one product.  The Newton search on the derivative of |S|^2 settles
the rows of the constructions in at most three steps at the default
R = 256 and in at most six at R = 4 or 5; a peak that lies on the grid
ends it at the first step.
A report measures each axis once per distinct row up to a constant:
adding k to a sequence multiplies S(t) by the unit xi^k and leaves |S(t)|
unchanged, and the constructions repeat rows heavily in this sense.  The
rows and columns of a square array have one length, so they go through
one kernel call; a row's result does not depend on the rows beside it.

Every exponential of an integer angle is a table entry.  The unit
coefficients xi^s come from the correlation kernel's table of the q-th
roots, exact at every quarter turn and real (float64) exactly when q = 2;
its dtype picks the transform of the grid stage.  The roots
exp(2*pi*i*k/N) for N = the coarse grid size and N = R*L (the twists to
a sample), the candidate window and the Newton weights each depend only
on (L, R), hold the same expression the kernel would evaluate, bit for
bit, and are built once into a small cache of read-only arrays when they
have at most _BLOCK_POINTS entries; a larger one is computed per call,
so no oversampling makes a large resident table.

Analytic upper bounds for arrays built by the path constructions come from
the positions the path spends on one axis: splitting those positions into v
maximal runs of consecutive integers bounds the PAPR of every sequence along
the other axis by 2^v.  Using maximal runs minimizes v and so gives the
tightest bound of this family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boolfunc import _BLOCK_POINTS, QaryArray, _at_least, _int, _ints, require_even_q
from .constructions import GcapBasicSpec, GcapGeneralSpec, basic_as_general_spec
from .correlation import _embedding_roots

__all__ = [
    "DEFAULT_OVERSAMPLING",
    "RunPartition",
    "run_partition",
    "papr_sequence",
    "papr_bounds",
    "PaprReport",
    "papr_report",
]

DEFAULT_OVERSAMPLING = 256
_MIN_OVERSAMPLING = 4
_MAX_OVERSAMPLING = 1 << 20
_REFINE_TOL = 1e-10
# Samples per 1/L on the coarse subgrid that locates each row's best sample.
_COARSE_OVERSAMPLING = 16


@dataclass(frozen=True)
class RunPartition:
    """Minimal split of an index set into runs of consecutive integers."""

    source_set: frozenset[int]
    runs: tuple[tuple[int, ...], ...]

    @property
    def v(self) -> int:
        return len(self.runs)


def run_partition(indices) -> RunPartition:
    """Sort the indices and split at every gap; the empty set yields v = 0."""
    idx = sorted({_int(v, "index") for v in indices})
    runs: list[tuple[int, ...]] = []
    start = 0
    for pos in range(1, len(idx) + 1):
        if pos == len(idx) or idx[pos] != idx[pos - 1] + 1:
            runs.append(tuple(idx[start:pos]))
            start = pos
    return RunPartition(frozenset(idx), tuple(runs))


@functools.lru_cache(maxsize=32)
def _cached(build, *args) -> np.ndarray:
    """build(*args) as a read-only array, built once per argument tuple."""
    table = build(*args)
    table.setflags(write=False)
    return table


def _table(entries: int, build, *args) -> np.ndarray:
    """build(*args), from the cache when it has at most _BLOCK_POINTS entries, else built per call."""
    return _cached(build, *args) if entries <= _BLOCK_POINTS else build(*args)


def _root_table(num: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(num) / num)


def _roots(k: np.ndarray, num: int) -> np.ndarray:
    """exp(2*pi*i*k/num) for integers 0 <= k < num.

    Looked up in the cached table of all num roots when num is at most
    _BLOCK_POINTS, evaluated on k itself otherwise; the bits are the same.
    """
    if num <= _BLOCK_POINTS:
        return _cached(_root_table, num)[k]
    return np.exp(2j * np.pi * k / num)


def _window(L: int, num: int, start: int, stop: int) -> np.ndarray:
    """exp(2*pi*i*n*o/num) for n < L and offsets start <= o < stop, shape (L, stop - start)."""
    return np.exp(2j * np.pi * np.outer(np.arange(L), np.arange(start, stop)) / num)


def _newton_weights(L: int) -> np.ndarray:
    """The factors 1, 2*pi*i*n and -(2*pi*n)^2 that turn the coefficients of S into those of S, S' and S''."""
    n = np.arange(L)
    return np.stack([np.ones(L), 2j * np.pi * n, -((2 * np.pi * n) ** 2)])


def _envelopes(terms: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sum over n of terms[s, j, n] * exp(2*pi*i*n*t[s]); terms (S, J, L), t (S,), shape (S, J)."""
    phase = np.exp(2j * np.pi * np.outer(t, np.arange(terms.shape[-1])))
    return (terms @ phase[:, :, None])[..., 0]


def _coarse_step(oversampling: int) -> int:
    """Fine samples per coarse sample: R / 16 when that divides R, else a smaller divisor of R."""
    return math.gcd(oversampling, max(1, oversampling // _COARSE_OVERSAMPLING))


def _grid_peaks(coeffs: np.ndarray, oversampling: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and |S|^2 of the best of the R*L uniform samples of every row.

    Only every step-th sample is taken, by a zero-padded FFT on blocks of
    rows that hold at most _BLOCK_POINTS coarse samples (one row when a
    single row is longer), with step = R / 16 when that divides R.
    Complex rows take the inverse FFT over the whole circle.  Real rows
    take the rfft, whose coarse // 2 + 1 bins are |S| at t in [0, 1/2],
    both ends included: with real coefficients S(-t) = conj S(t), so the
    R*L samples are symmetric under j <-> RL - j, as are the coarse ones,
    and every coarse sample equals one of these bins.  The best sample and
    the curvature bound below carry over unchanged, and each mirror pair
    of peaks gives one set of candidates, not two; the index found may be
    the mirror of the first best sample, with the same |S|^2.
    P = |S|^2 is a real trigonometric polynomial of degree below L, so
    |P''| <= (2*pi*L)^2 max P, and at a local maximum t* the nearest
    coarse sample t_j, at most step / (2RL) away, has
    P(t_j) >= P(t*) - h max P with h = (pi * step / R)^2 / 2.  The best fine
    sample lies within one fine step of such a t*, and P there is at least
    the best coarse sample P_c, while max P <= P_c / (1 - h).  So it lies
    within step // 2 + 1 fine samples of a coarse sample of at least
    P_c * (1 - h / (1 - h)).  The windows around the candidates of all rows
    are then evaluated in one pass, in blocks of window columns and chunks
    of candidates that keep every temporary within _BLOCK_POINTS entries
    whatever R is, so each window block is built once per call.  Only the
    candidate list grows with the number of rows, by about three a row.
    """
    S, L = coeffs.shape
    step = _coarse_step(oversampling)
    coarse = oversampling // step * L
    h = (np.pi * step / oversampling) ** 2 / 2
    block = max(1, _BLOCK_POINTS // coarse)
    # Real rows take the half circle t in [0, 1/2], where |S(-t)| = |S(t)|.
    if np.isrealobj(coeffs):
        sample = functools.partial(np.fft.rfft, n=coarse, axis=1)
    else:
        sample = functools.partial(np.fft.ifft, n=coarse, axis=1, norm="forward")
    found = []
    for s in range(0, S, block):
        power = np.abs(sample(coeffs[s : s + block])) ** 2
        floor = power.max(axis=1) * (1 - h / (1 - h) - 1e-9)
        rows, cols = np.nonzero(power >= floor[:, None])
        found.append((rows + s, cols))
    rows, cols = (np.concatenate(v) for v in zip(*found))
    n = np.arange(L)
    half = step // 2 + 1
    width = 2 * half + 1
    # Window columns per block and candidate pairs per chunk, so that the
    # window block, the twisted rows and the values each hold at most
    # _BLOCK_POINTS entries; at the default R the window is one block.
    span = min(width, max(1, _BLOCK_POINTS // L))
    chunk = max(1, _BLOCK_POINTS // max(L, span))
    best = np.full(len(rows), -np.inf)
    at = np.empty(len(rows), dtype=np.int64)
    for start in range(-half, half + 1, span):
        stop = min(start + span, half + 1)
        # Cached only when it is the whole window, so the cache never holds its blocks.
        window = _table(L * width, _window, L, oversampling * L, start, stop)
        for s in range(0, len(rows), chunk):
            pairs = slice(s, s + chunk)
            twisted = coeffs[rows[pairs]] * _roots(np.outer(cols[pairs], n) % coarse, coarse)
            values = np.abs(twisted @ window) ** 2
            top = values.max(axis=1)
            # A later block replaces a pair's best only when strictly larger,
            # so each pair keeps its first best offset.
            better = top > best[pairs]
            best[pairs] = np.where(better, top, best[pairs])
            at[pairs] = np.where(better, cols[pairs] * step + start + values.argmax(axis=1), at[pairs])
    # rows is sorted, so this picks each row's best pair, the first on a tie.
    order = np.lexsort((-best, rows))
    first = order[np.searchsorted(rows[order], np.arange(S))]
    return at[first] % (oversampling * L), best[first]


def _refined_peaks(coeffs: np.ndarray, peak: np.ndarray, num: int) -> np.ndarray:
    """Lockstep safeguarded Newton search of every row's bracket around its best sample.

    The search runs in the offset u from the sample, P(u) = |S(peak / num + u)|^2,
    whose coefficients are the row's twisted by exp(2*pi*i*n*peak / num).
    Each step evaluates S, S' and S'' of every row directly and takes the
    Newton step on P' = 2 Re(S' conj S), with P'' = 2 Re(S'' conj S) + 2|S'|^2.
    The sign of P' moves one end of the bracket, which starts as
    [-1/num, 1/num].  The step falls back to the bracket midpoint when
    P'' >= 0, when the Newton point leaves the bracket (an end included) or
    when the step is more than half the step before last, so the steps
    shrink at least geometrically and every search ends.  A row stops once
    its step or its bracket is below _REFINE_TOL and keeps its point and
    |S|^2 from then on, so each row takes the steps a scalar search would.
    Returns |S|^2 at the point where each row stopped.
    """
    L = coeffs.shape[1]
    twisted = coeffs * _roots(np.outer(peak, np.arange(L)) % num, num)
    terms = twisted[:, None, :] * _table(3 * L, _newton_weights, L)
    lo = np.full(len(peak), -1 / num)
    hi = -lo
    u = np.zeros(len(peak))
    last = before = hi - lo
    active = np.ones(len(peak), dtype=bool)
    while active.any():
        s, ds, d2s = _envelopes(terms, u).T
        slope = 2 * (ds * s.conj()).real
        curve = 2 * (d2s * s.conj()).real + 2 * (ds.real ** 2 + ds.imag ** 2)
        lo = np.where(slope >= 0, u, lo)
        hi = np.where(slope < 0, u, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = u - slope / curve
        safe = (curve < 0) & (lo <= newton) & (newton <= hi) & (2 * np.abs(newton - u) <= before)
        target = np.where(safe, newton, (lo + hi) / 2)
        step = np.abs(target - u)
        active &= (step >= _REFINE_TOL) & (hi - lo >= _REFINE_TOL)
        u = np.where(active, target, u)
        last, before = step, last
    # A stopped row kept its u, so the last evaluation holds every row's end point.
    return s.real ** 2 + s.imag ** 2


def _paprs(seqs: np.ndarray, q: int, oversampling: int) -> np.ndarray:
    """PAPR of every row of the (S, L) integer matrix seqs, as float64 (S,).

    The best of oversampling * L uniform samples of |S(t)|^2 is found for
    every row by one call of _grid_peaks and then refined, on chunks of
    rows whose S, S' and S'' terms number at most _BLOCK_POINTS; each
    refinement step takes L exponentials per row.  The unit coefficients
    are the correlation kernel's exact roots of unity, real at q = 2.  The
    twists and the candidate window are read from tables of at most
    _BLOCK_POINTS entries each, cached per (L, R); a table above that size
    is evaluated per call, so the results are the same bits either way.
    """
    S, L = seqs.shape
    if L == 1:
        return np.ones(S)
    coeffs = _embedding_roots(q, 1)[seqs % q]
    num = oversampling * L
    peak, best = _grid_peaks(coeffs, oversampling)
    chunk = max(1, _BLOCK_POINTS // (3 * L))
    for s in range(0, S, chunk):
        rows = slice(s, s + chunk)
        best[rows] = np.maximum(best[rows], _refined_peaks(coeffs[rows], peak[rows], num))
    return best / L


def _check_oversampling(oversampling) -> int:
    """oversampling as an int R with 4 <= R <= 2^20; an error names the range it leaves."""
    oversampling = _at_least(oversampling, _MIN_OVERSAMPLING, "oversampling")
    if oversampling > _MAX_OVERSAMPLING:
        raise ValueError(f"oversampling must be at most {_MAX_OVERSAMPLING}, got {oversampling}")
    return oversampling


def papr_sequence(seq, q, oversampling: int = DEFAULT_OVERSAMPLING) -> float:
    """Peak-to-average power ratio of a Z_q phase sequence.

    Samples |S(t)|^2 at oversampling * L uniform points of [0, 1), then
    refines the peak by safeguarded Newton steps inside the bracket around
    the best sample, down to 1e-10 in t.
    Average power of a unimodular sequence is L, so the result is peak / L.
    """
    q = require_even_q(q)
    seq = np.asarray(_ints(list(seq), "sequence"), dtype=np.int64)
    if seq.size == 0:
        raise ValueError("expected a nonempty 1-D sequence")
    oversampling = _check_oversampling(oversampling)
    return float(_paprs(seq[None, :], q, oversampling)[0])


def papr_bounds(spec) -> tuple[float, float]:
    """(row bound, column bound) implied by a pair construction spec.

    For the general construction, the row bound is 2^v where v counts the
    maximal consecutive runs among the path positions holding column
    variables, and symmetrically for columns.  A basic spec is mapped
    through basic_as_general_spec, whose path holds the column variables in
    one run and the row variables in another, so its bound of 2 in both
    directions is derived by the same rule rather than special-cased.
    """
    if isinstance(spec, GcapBasicSpec):
        spec = basic_as_general_spec(spec)
    if isinstance(spec, GcapGeneralSpec):
        col_positions = [l for l in range(1, spec.n + spec.m + 1) if spec.pi[l - 1] > spec.n]
        row_positions = [l for l in range(1, spec.n + spec.m + 1) if spec.pi[l - 1] <= spec.n]
        row_bound = 2.0 ** run_partition(col_positions).v
        col_bound = 2.0 ** run_partition(row_positions).v
        return row_bound, col_bound
    raise TypeError(f"no PAPR bounds defined for {type(spec).__name__}")


@dataclass(frozen=True)
class PaprReport:
    """Measured per-row/per-column PAPRs plus the construction-implied bounds.

    Bounds are None when no construction spec was supplied.  Estimates are
    numeric (sampling plus refinement); bounds are exact powers of two.
    """

    per_row: tuple[float, ...]
    per_col: tuple[float, ...]
    row_bound: float | None
    col_bound: float | None
    oversampling: int

    @property
    def max_row(self) -> float:
        return max(self.per_row)

    @property
    def max_col(self) -> float:
        return max(self.per_col)


def _require_spec_fits(c: QaryArray, spec):
    """The pair-construction spec has the array's q and 2^n x 2^m shape."""
    if spec.q != c.q:
        raise ValueError(f"spec has q={spec.q} but array has q={c.q}")
    if (1 << spec.n, 1 << spec.m) != (c.L1, c.L2):
        raise ValueError(f"spec implies {1 << spec.n}x{1 << spec.m} but array is {c.L1}x{c.L2}")


def papr_report(c: QaryArray, spec=None, oversampling: int = DEFAULT_OVERSAMPLING) -> PaprReport:
    """Measure every row and column PAPR of an array, with bounds from spec.

    When a pair-construction spec is given it must match the array's q and
    2^n x 2^m shape.
    """
    row_bound = col_bound = None
    if spec is not None:
        _require_spec_fits(c, spec)
        row_bound, col_bound = papr_bounds(spec)
    oversampling = _check_oversampling(oversampling)
    if c.L1 == c.L2:
        # Rows and columns have one length, so one kernel call measures both.
        values = _axis_paprs(np.vstack([c.entries, c.entries.T]), c.q, oversampling)
        per_row, per_col = values[: c.L1], values[c.L1 :]
    else:
        per_row = _axis_paprs(c.entries, c.q, oversampling)
        per_col = _axis_paprs(c.entries.T, c.q, oversampling)
    return PaprReport(per_row, per_col, row_bound, col_bound, oversampling)


def _axis_paprs(rows: np.ndarray, q: int, oversampling: int) -> tuple[float, ...]:
    """PAPR of every row, measured once per distinct row up to a constant.

    Adding a constant k to a sequence multiplies S(t) by the unit xi^k, so
    each row is first shifted to start at 0; equal shifted rows share one
    kernel result, bit for bit.  Each row is compared as one opaque key, its
    bytes, which np.unique sorts far faster than rows along axis 0.
    """
    canonical = np.ascontiguousarray((rows - rows[:, :1]) % q)
    keys = canonical.view(np.dtype((np.void, canonical.itemsize * canonical.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return tuple(_paprs(canonical[first], q, oversampling)[inverse].tolist())
