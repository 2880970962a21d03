"""Peak-to-average power ratio of row and column sequences.

A length-L phase sequence s over Z_q modulates L subcarriers; the continuous
envelope power |S(t)|^2 = |sum_i xi^{s_i} exp(2*pi*sqrt(-1)*i*t)|^2 is a
trigonometric polynomial of degree below L and has period 1 in t.  The peak
is located by dense sampling at R*L uniform points followed by a local
ternary-search refinement down to 1e-10 in t, which pins the maximum far
below the 1e-3 tolerances used by the numeric tests.

One kernel measures a whole matrix of sequences.  The best of the R*L
samples is found without taking all of them: a zero-padded inverse FFT
samples a subgrid of 16 points per 1/L on blocks of rows of bounded size,
and a curvature bound on |S|^2 names the few windows of the full grid that
can hold the best sample, which are then evaluated directly.  The
refinement runs in lockstep for all rows, one vectorised envelope
evaluation per step, with each exponential split into two short factors.
A report measures each axis once per distinct row up to a constant:
adding k to a sequence multiplies S(t) by the unit xi^k and leaves |S(t)|
unchanged, and the constructions repeat rows heavily in this sense.

Analytic upper bounds for arrays built by the path constructions come from
the positions the path spends on one axis: splitting those positions into v
maximal runs of consecutive integers bounds the PAPR of every sequence along
the other axis by 2^v.  Using maximal runs minimizes v and so gives the
tightest bound of this family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfunc import _BLOCK_POINTS, QaryArray, _at_least, _int, _ints, require_even_q
from .constructions import GcapBasicSpec, GcapGeneralSpec, basic_as_general_spec

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


def _phase_grid(coeffs: np.ndarray) -> np.ndarray:
    """The rows of coeffs (S, L), zero-padded and folded to (S, B, C) with B*C >= L.

    Entry [s, a, b] is coefficient a + B*b, and B is a power of two near
    sqrt(L), so exp(2*pi*i*(a + B*b)*t) splits into B + C exponentials.
    """
    S, L = coeffs.shape
    B = 1 << ((L - 1).bit_length() // 2)
    C = -(-L // B)
    grid = np.zeros((S, C * B), dtype=complex)
    grid[:, :L] = coeffs
    return grid.reshape(S, C, B).transpose(0, 2, 1)


def _envelope_powers(grid: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|S(t)|^2 of every folded row of grid (S, B, C) at the points t (S, K); shape (S, K)."""
    _, B, C = grid.shape
    low = np.exp(2j * np.pi * t[..., None] * np.arange(B))
    high = np.exp(2j * np.pi * t[..., None] * (B * np.arange(C)))
    return np.abs(((low @ grid) * high).sum(axis=-1)) ** 2


def _coarse_step(oversampling: int) -> int:
    """Fine samples per coarse sample: R / 16 when that divides R, else a smaller divisor of R."""
    return math.gcd(oversampling, max(1, oversampling // _COARSE_OVERSAMPLING))


def _grid_peaks(coeffs: np.ndarray, oversampling: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and |S|^2 of the best of the R*L uniform samples of every row.

    Only every step-th sample is taken by FFT, with step = R / 16 when that
    divides R.  P = |S|^2 is a real trigonometric polynomial of degree below
    L, so |P''| <= (2*pi*L)^2 max P, and at a local maximum t* the nearest
    coarse sample t_j, at most step / (2RL) away, has
    P(t_j) >= P(t*) - h max P with h = (pi * step / R)^2 / 2.  The best fine
    sample lies within one fine step of such a t*, and P there is at least
    the best coarse sample P_c, while max P <= P_c / (1 - h).  So it lies
    within step // 2 + 1 fine samples of a coarse sample of at least
    P_c * (1 - h / (1 - h)); those windows are evaluated directly.
    """
    L = coeffs.shape[1]
    step = _coarse_step(oversampling)
    coarse = oversampling // step * L
    power = np.abs(np.fft.ifft(coeffs, n=coarse, axis=1, norm="forward")) ** 2
    h = (np.pi * step / oversampling) ** 2 / 2
    floor = power.max(axis=1) * (1 - h / (1 - h) - 1e-9)
    rows, cols = np.nonzero(power >= floor[:, None])
    n = np.arange(L)
    offsets = np.arange(-(step // 2) - 1, step // 2 + 2)
    window = np.exp(2j * np.pi * np.outer(n, offsets) / (oversampling * L))
    best = np.empty(len(rows))
    at = np.empty(len(rows), dtype=np.int64)
    chunk = max(1, _BLOCK_POINTS // L)
    for s in range(0, len(rows), chunk):
        pairs = slice(s, s + chunk)
        twist = np.exp(2j * np.pi * (np.outer(cols[pairs], n) % coarse) / coarse)
        values = np.abs((coeffs[rows[pairs]] * twist) @ window) ** 2
        best[pairs] = values.max(axis=1)
        at[pairs] = cols[pairs] * step + offsets[values.argmax(axis=1)]
    # rows is sorted, so this picks each row's best pair, the first on a tie.
    order = np.lexsort((-best, rows))
    first = order[np.searchsorted(rows[order], np.arange(len(coeffs)))]
    return at[first] % (oversampling * L), best[first]


def _refined_peaks(coeffs: np.ndarray, peak: np.ndarray, num: int) -> np.ndarray:
    """Lockstep ternary search of every row's bracket around its best sample.

    The search runs in the offset u from the sample, S(peak / num + u),
    whose coefficients are the row's twisted by exp(2*pi*i*n*peak / num).
    Every bracket starts at width 2/num, and each step evaluates both probes
    of every row at once; a row whose bracket is already below _REFINE_TOL
    keeps it, so each row takes the steps of a scalar ternary search.
    Returns |S|^2 at the final bracket centres.
    """
    n = np.arange(coeffs.shape[1])
    grid = _phase_grid(coeffs * np.exp(2j * np.pi * (np.outer(peak, n) % num) / num))
    lo = np.full(len(peak), -1 / num)
    hi = -lo
    active = hi - lo > _REFINE_TOL
    while active.any():
        third = (hi - lo) / 3
        probes = np.stack([lo + third, hi - third], axis=1)
        power = _envelope_powers(grid, probes)
        rising = power[:, 0] < power[:, 1]
        lo = np.where(active & rising, probes[:, 0], lo)
        hi = np.where(active & ~rising, probes[:, 1], hi)
        active = hi - lo > _REFINE_TOL
    return _envelope_powers(grid, ((lo + hi) / 2)[:, None])[:, 0]


def _paprs(seqs: np.ndarray, q: int, oversampling: int) -> np.ndarray:
    """PAPR of every row of the (S, L) integer matrix seqs, as float64 (S,).

    The best of oversampling * L uniform samples of |S(t)|^2 is found from a
    zero-padded inverse FFT on a coarser subgrid (see _grid_peaks), on blocks
    of rows that hold at most _BLOCK_POINTS coarse samples (one row when a
    single row is longer), and is then refined.  The refinement works on
    chunks of rows of at most _BLOCK_POINTS phase terms, so memory stays
    flat in S.
    """
    S, L = seqs.shape
    if L == 1:
        return np.ones(S)
    coeffs = np.exp(2j * np.pi * (seqs % q) / q)
    num = oversampling * L
    peak = np.empty(S, dtype=np.int64)
    best = np.empty(S)
    block = max(1, _BLOCK_POINTS // (num // _coarse_step(oversampling)))
    for s in range(0, S, block):
        rows = slice(s, s + block)
        peak[rows], best[rows] = _grid_peaks(coeffs[rows], oversampling)
    chunk = max(1, _BLOCK_POINTS // (2 * L))
    for s in range(0, S, chunk):
        rows = slice(s, s + chunk)
        best[rows] = np.maximum(best[rows], _refined_peaks(coeffs[rows], peak[rows], num))
    return best / L


def papr_sequence(seq, q, oversampling: int = DEFAULT_OVERSAMPLING) -> float:
    """Peak-to-average power ratio of a Z_q phase sequence.

    Samples |S(t)|^2 at oversampling * L uniform points of [0, 1), then
    ternary-searches the bracket around the best sample down to 1e-10 in t.
    Average power of a unimodular sequence is L, so the result is peak / L.
    """
    q = require_even_q(q)
    seq = np.asarray(_ints(list(seq), "sequence"), dtype=np.int64)
    if seq.size == 0:
        raise ValueError("expected a nonempty 1-D sequence")
    oversampling = _at_least(oversampling, 4, "oversampling")
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


def papr_report(c: QaryArray, spec=None, oversampling: int = DEFAULT_OVERSAMPLING) -> PaprReport:
    """Measure every row and column PAPR of an array, with bounds from spec.

    When a pair-construction spec is given it must match the array's q and
    2^n x 2^m shape.
    """
    row_bound = col_bound = None
    if spec is not None:
        if spec.q != c.q:
            raise ValueError(f"spec has q={spec.q} but array has q={c.q}")
        if (1 << spec.n, 1 << spec.m) != (c.L1, c.L2):
            raise ValueError(
                f"spec implies {1 << spec.n}x{1 << spec.m} but array is {c.L1}x{c.L2}"
            )
        row_bound, col_bound = papr_bounds(spec)
    oversampling = _at_least(oversampling, 4, "oversampling")
    return PaprReport(
        _axis_paprs(c.entries, c.q, oversampling),
        _axis_paprs(c.entries.T, c.q, oversampling),
        row_bound, col_bound, oversampling,
    )


def _axis_paprs(rows: np.ndarray, q: int, oversampling: int) -> tuple[float, ...]:
    """PAPR of every row, measured once per distinct row up to a constant.

    Adding a constant k to a sequence multiplies S(t) by the unit xi^k, so
    each row is first shifted to start at 0; equal shifted rows share one
    kernel result, bit for bit.
    """
    canonical = (rows - rows[:, :1]) % q
    distinct, inverse = np.unique(canonical, axis=0, return_inverse=True)
    return tuple(_paprs(distinct, q, oversampling)[inverse.reshape(-1)].tolist())
