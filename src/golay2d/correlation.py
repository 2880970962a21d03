"""Exact aperiodic correlations as integer combinations of q-th roots of unity.

Every summand of an aperiodic correlation over a q-ary array is xi^e with
xi = exp(2*pi*sqrt(-1)/q) and e in Z_q, so a correlation value is fully
described by counting how many summands land on each exponent.  We keep that
length-q integer count vector and decide zero (and equality) by reducing the
polynomial sum_e counts[e] * x^e modulo the q-th cyclotomic polynomial: the
remainder vanishes exactly when the complex value does.  The reduction is
linear, so one fixed q x phi(q) integer matrix stands for it.  This removes
all floating-point tolerance from verification; complex numbers are a
derived, display-only view.

A table over all aperiodic shifts is one int64 tensor
counts[u1 + L1 - 1, u2 + L2 - 1, e], computed for every shift at once by
one-hot FFT correlation and rounded to integers only under a certificate
(see fft_error_bound).  A single value at one shift comes from the direct
definition instead, which clips the summation bounds.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .boolfunc import (
    QaryArray,
    _at_least,
    _int,
    _int_array,
    _ints,
    _require_uniform,
    require_even_q,
)

__all__ = [
    "cyclotomic_polynomial",
    "reduction_matrix",
    "fft_error_bound",
    "CorrelationValue",
    "CorrelationTable",
    "cross_correlation",
    "auto_correlation",
    "auto_correlation_table",
    "cross_correlation_table",
    "correlation_sum",
]


def _polydivmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (coefficients low degree first).

    den must be monic and no longer than num; the remainder has len(den) - 1
    coefficients.
    """
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            quot[k - dd] = c
            for j, pj in enumerate(den):
                rem[k - dd + j] -= c * pj
    return quot, rem[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the q-th cyclotomic polynomial.

    Computed by dividing x^q - 1 by the cyclotomic polynomials of all proper
    divisors of q.  Cached per q; cost is negligible at the sizes used here.
    """
    q = _at_least(q, 1, "q")
    poly = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            poly, rem = _polydivmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("polynomial division was not exact")
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_matrix(q: int) -> np.ndarray:
    """The q x phi(q) integer matrix R with counts @ R = counts mod Phi_q.

    Row e holds the coefficients (low degree first) of x^e modulo the q-th
    cyclotomic polynomial Phi_q.  Reduction is linear, so
    sum_e counts[e] x^e mod Phi_q is counts @ R for one count vector and
    for a whole tensor of them alike.  Read-only; cached per q.
    """
    q = require_even_q(q)
    phi = cyclotomic_polynomial(q)
    rows = [_polydivmod([int(k == e) for k in range(q)], phi)[1] for e in range(q)]
    matrix = np.array(rows, dtype=np.int64)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def _reduction_columns(q: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(col) for col in reduction_matrix(q).T.tolist())


def _complex_values(q: int, counts) -> np.ndarray:
    """The complex values of an (..., q) array of count vectors, shape (...).

    Bit for bit what CorrelationValue.to_complex gives for each vector: each
    count is rounded to float64 once, multiplies the cmath root of its
    exponent, and the terms are added in exponent order to sums that start
    at +0.0.  Adding the zero terms a scalar sum would skip changes no bit:
    x + 0 is x for nonzero x, and a sum that starts at +0.0 never becomes
    -0.0.
    """
    counts = np.asarray(counts, dtype=np.float64)
    values = np.zeros(counts.shape[:-1], dtype=np.complex128)
    for e in range(q):
        root = cmath.exp(2j * cmath.pi * e / q)
        values.real += counts[..., e] * root.real
        values.imag += counts[..., e] * root.imag
    return values


def _reduce_counts(q: int, counts: tuple[int, ...]) -> tuple[int, ...]:
    """counts @ reduction_matrix(q) for one count vector, in plain Python ints."""
    return tuple(sum(c * r for c, r in zip(counts, col)) for col in _reduction_columns(q))


class CorrelationValue:
    """Exact value sum_e counts[e] * xi^e for xi the primitive q-th root of unity.

    Counts may go negative (sums and differences of values stay exact).  Two
    values are equal when they are equal as algebraic numbers; rational
    integers additionally compare equal across different q and against plain
    Python ints.
    """

    __slots__ = ("q", "counts", "reduced")

    def __init__(self, q, counts):
        q = require_even_q(q)
        counts = _ints(counts, "counts")
        if len(counts) != q:
            raise ValueError(f"need exactly q={q} exponent counts, got {len(counts)}")
        self.q = q
        self.counts = counts
        self.reduced = _reduce_counts(q, counts)

    @classmethod
    def zero(cls, q) -> "CorrelationValue":
        return cls(q, (0,) * q)

    @classmethod
    def from_int(cls, k, q) -> "CorrelationValue":
        return cls.from_gaussian(k, 0, q)

    @classmethod
    def from_gaussian(cls, a, b, q) -> "CorrelationValue":
        """The Gaussian integer a + b*i; b != 0 requires q divisible by 4."""
        counts = [0] * require_even_q(q)
        counts[0] = a
        if b:
            if q % 4 != 0:
                raise ValueError(f"q={q} has no exact exponent for sqrt(-1)")
            counts[q // 4] = b
        return cls(q, counts)

    def _require_same_q(self, other: "CorrelationValue"):
        if self.q != other.q:
            raise ValueError(f"alphabet mismatch: q={self.q} vs q={other.q}")

    def __add__(self, other):
        if not isinstance(other, CorrelationValue):
            return NotImplemented
        self._require_same_q(other)
        return CorrelationValue(self.q, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __neg__(self):
        return CorrelationValue(self.q, tuple(-a for a in self.counts))

    def __sub__(self, other):
        if not isinstance(other, CorrelationValue):
            return NotImplemented
        self._require_same_q(other)
        return CorrelationValue(self.q, tuple(a - b for a, b in zip(self.counts, other.counts)))

    def conjugate(self) -> "CorrelationValue":
        """Complex conjugate: every exponent e is replaced by -e mod q."""
        return CorrelationValue(
            self.q, tuple(self.counts[(-e) % self.q] for e in range(self.q))
        )

    def is_zero(self) -> bool:
        return not any(self.reduced)

    def as_int(self) -> int | None:
        """The value as a rational integer, or None when it is not one."""
        if any(self.reduced[1:]):
            return None
        return self.reduced[0]

    def to_complex(self) -> complex:
        """sum_e counts[e] * exp(2*pi*i*e/q) in float64, summed in exponent order."""
        return complex(_complex_values(self.q, self.counts))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.as_int() == other
        if not isinstance(other, CorrelationValue):
            return NotImplemented
        a, b = self.as_int(), other.as_int()
        if a is not None or b is not None:
            return a == b
        return self.q == other.q and self.reduced == other.reduced

    def __hash__(self):
        k = self.as_int()
        if k is not None:
            return hash(k)
        return hash((self.q, self.reduced))

    def __repr__(self):
        return f"CorrelationValue(q={self.q}, counts={self.counts})"


def cross_correlation(c: QaryArray, d: QaryArray, u1: int, u2: int) -> CorrelationValue:
    """Aperiodic cross-correlation of the complex arrays xi^c and xi^d at (u1, u2).

    Returns the exact value of sum_{g,i} xi^(c[g+u1, i+u2] - d[g, i]): the
    first array is the shifted one, with its out-of-range cells contributing
    nothing.  This orientation is what the frozen reference mate tables in
    the test suite follow.
    """
    _require_uniform([c, d])
    u1, u2 = _int(u1, "u1"), _int(u2, "u2")
    L1, L2, q = c.L1, c.L2, c.q
    if not (-L1 < u1 < L1 and -L2 < u2 < L2):
        raise ValueError(f"shift ({u1}, {u2}) outside (-{L1},{L1}) x (-{L2},{L2})")
    g0, g1 = max(0, -u1), min(L1, L1 - u1)
    i0, i1 = max(0, -u2), min(L2, L2 - u2)
    diff = (c.entries[g0 + u1:g1 + u1, i0 + u2:i1 + u2] - d.entries[g0:g1, i0:i1]) % q
    counts = np.bincount(diff.ravel(), minlength=q)
    return CorrelationValue(q, counts)


def auto_correlation(c: QaryArray, u1: int, u2: int) -> CorrelationValue:
    return cross_correlation(c, c, u1, u2)


_UNIT_ROUNDOFF = 2.0 ** -53
# Allowance for the error of the FFT's twiddle factors, in units of u.
_TWIDDLE_ULPS = 4
# Largest admissible error before rounding: well inside the 1/2 that
# rounding to the nearest integer needs.
_CERTIFIED = 0.25


def _gamma(k: int) -> float:
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _transform_size(L: int) -> int:
    """Smallest power of two >= 2L - 1, so that no two shifts wrap onto each other."""
    return 1 << (2 * L - 2).bit_length()


def fft_error_bound(P1: int, P2: int, q: int, cells: int) -> float:
    """A-priori bound on |computed - exact| for every entry of a count tensor.

    The tensor is computed by power-of-two float64 transforms of size
    P1 x P2 (N = P1*P2, t = log2 N) over an alphabet of size q, for arrays
    of M = cells entries.  With u = 2^-53 and g_k = k*u / (1 - k*u):

    Model.  A power-of-two FFT computed with twiddle factors accurate to mu
    satisfies ||fl(F x) - F x||_2 <= eps ||F x||_2 with eps = t*eta /
    (1 - t*eta), eta = mu + g_4 (sqrt 2 + mu) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm 24.2).  A 2-D transform is 1-D
    transforms along each axis; since (1 - a)(1 - b) >= 1 - a - b, the two
    factors compose within the same formula with t = log2 P1 + log2 P2.
    rfft2/irfft2 are the complex transforms on real inputs and Hermitian
    spectra and are taken to obey the same bound; mu = 4u.

    Let n_a cells of c equal a (sum_a n_a = M), A_a the exact transform of
    the one-hot plane [c == a] and Ahat_a the computed one, and likewise
    B_b for d.  By Parseval ||A_a||_2 = sqrt(N n_a), and ||A_a||_inf <= n_a.

    1. Forward: ||Ahat_a - A_a||_2 <= eps sqrt(N n_a), so
       ||Ahat_a||_inf <= n_a + eps sqrt(N n_a) <= K n_a, K = 1 + eps sqrt N,
       as sqrt(n_a) <= n_a for integers (a zero plane transforms exactly).
    2. The spectrum of exponent e is H_e = sum_b A_(b+e) conj(B_b).  Using
       the computed inputs moves it by at most
       sum_b ||Ahat - A||_2 ||Bhat||_inf + ||A||_inf ||Bhat - B||_2
       <= eps sqrt(N) (K + 1) M^(3/2), because sum_b sqrt(n_(b+e)) n_b
       <= sqrt(M) M.  Rounding the q complex products and their sum adds at
       most g_(q+2) sum_b |Ahat| |Bhat| entrywise, at most
       g_(q+2) (1 + eps) K sqrt(N) M^(3/2) in 2-norm.  So
       ||Hhat_e - H_e||_2 <= sqrt(N) M^(3/2) h with
       h = eps (K + 1) + g_(q+2) (1 + eps) K.
    3. Inverse: x_e = F^-1 H_e / N is the count plane of exponent e, whose
       entries are nonnegative, at most M, and sum to at most M^2, so
       ||x_e||_2 <= M^(3/2) and ||H_e||_2 = sqrt(N) ||x_e||_2.  Dividing by
       the power of two N is exact, so
       ||xhat_e - x_e||_2 <= (sqrt(N) ||Hhat_e - H_e||_2
       + eps sqrt(N) ||Hhat_e||_2) / N <= M^(3/2) (h + eps (1 + h)).

    The largest entry error is at most the 2-norm, so the returned
    M^(3/2) (h + eps (1 + h)) bounds every entry.  It is about 1e-8 for
    64 x 64 arrays and stays below 1/4 up to about 10^8 cells.
    """
    u = _UNIT_ROUNDOFF
    t = math.log2(P1 * P2)
    mu = _TWIDDLE_ULPS * u
    eta = mu + _gamma(4) * (math.sqrt(2) + mu)
    eps = t * eta / (1 - t * eta)
    K = 1 + eps * math.sqrt(P1 * P2)
    h = eps * (K + 1) + _gamma(q + 2) * (1 + eps) * K
    return cells ** 1.5 * (h + eps * (1 + h))


def _count_tensor(c: QaryArray, d: QaryArray) -> np.ndarray:
    """Exact counts[u1 + L1 - 1, u2 + L2 - 1, e] of xi^(c[g+u1, i+u2] - d[g, i]).

    One-hot FFT correlation: the planes [c == a] and [d == b] are
    transformed once each (an autocorrelation reuses c's transforms), the
    spectrum of exponent e is sum_b C_(b+e) conj(D_b), and one batch of
    inverse transforms gives every count plane.  The floats are rounded only
    under a certificate: the a-priori bound of fft_error_bound and the
    observed distance to the nearest integers must both lie below 1/4, and
    ArithmeticError is raised otherwise.
    """
    q, L1, L2 = c.q, c.L1, c.L2
    shape = (_transform_size(L1), _transform_size(L2))
    levels = np.arange(q)[:, None, None]
    fc = np.fft.rfft2(c.entries == levels, s=shape)
    fd = (fc if d is c else np.fft.rfft2(d.entries == levels, s=shape)).conj()
    # Row e of cyclic is (b + e) mod q for b = 0..q-1, so fc[cyclic[e]][b] is C_(b+e).
    cyclic = np.add.outer(np.arange(q), np.arange(q)) % q
    spectra = np.stack([np.einsum("bij,bij->ij", fc[cyclic[e]], fd) for e in range(q)])
    planes = np.fft.irfft2(spectra, s=shape)
    rows = np.arange(1 - L1, L1) % shape[0]
    cols = np.arange(1 - L2, L2) % shape[1]
    planes = planes[:, rows[:, None], cols[None, :]]
    counts = np.rint(planes)
    deviation = float(np.abs(planes - counts).max())
    bound = fft_error_bound(shape[0], shape[1], q, L1 * L2)
    if not (bound < _CERTIFIED and deviation < _CERTIFIED):
        raise ArithmeticError(
            f"cannot certify the {L1}x{L2} q={q} correlation counts: a-priori error "
            f"bound {bound:.3g}, observed distance to integers {deviation:.3g}; "
            f"both must be below {_CERTIFIED}"
        )
    return counts.astype(np.int64).transpose(1, 2, 0)


class CorrelationTable:
    """Exact correlation values over all aperiodic shifts, as one count tensor.

    counts[u1 + L1 - 1, u2 + L2 - 1, e] is the number of summands xi^e at the
    shift (u1, u2), for -L1 < u1 < L1 and -L2 < u2 < L2; it is a read-only
    int64 array of shape (2*L1 - 1, 2*L2 - 1, q).  value() and items() give
    CorrelationValue views built on demand, + adds tensors, and == compares
    the tensors reduced modulo the cyclotomic polynomial.
    """

    __slots__ = ("q", "L1", "L2", "counts")

    def __init__(self, q, L1, L2, counts):
        self.q = require_even_q(q)
        self.L1 = _at_least(L1, 1, "L1")
        self.L2 = _at_least(L2, 1, "L2")
        shape = (2 * self.L1 - 1, 2 * self.L2 - 1, self.q)
        arr = _int_array(counts, "counts")
        if arr.shape != shape:
            raise ValueError(f"counts must have shape {shape}, got {arr.shape}")
        arr.setflags(write=False)
        self.counts = arr

    def value(self, u1: int, u2: int) -> CorrelationValue:
        u1, u2 = _int(u1, "u1"), _int(u2, "u2")
        if not (-self.L1 < u1 < self.L1 and -self.L2 < u2 < self.L2):
            raise ValueError(f"shift ({u1}, {u2}) out of range")
        return CorrelationValue(self.q, self.counts[u1 + self.L1 - 1, u2 + self.L2 - 1].tolist())

    def shifts(self):
        """All shifts in row-major order, u1 then u2 ascending."""
        for u1 in range(-(self.L1 - 1), self.L1):
            for u2 in range(-(self.L2 - 1), self.L2):
                yield (u1, u2)

    def items(self):
        rows = self.counts.tolist()
        for u1, u2 in self.shifts():
            yield (u1, u2), CorrelationValue(self.q, rows[u1 + self.L1 - 1][u2 + self.L2 - 1])

    def reduced(self) -> np.ndarray:
        """counts reduced modulo the q-th cyclotomic polynomial, shape (2L1-1, 2L2-1, phi(q))."""
        return self.counts @ reduction_matrix(self.q)

    def __add__(self, other):
        if not isinstance(other, CorrelationTable):
            return NotImplemented
        if (self.q, self.L1, self.L2) != (other.q, other.L1, other.L2):
            raise ValueError("tables have different shape or alphabet")
        return CorrelationTable(self.q, self.L1, self.L2, self.counts + other.counts)

    def __eq__(self, other):
        if not isinstance(other, CorrelationTable):
            return NotImplemented
        return (
            (self.q, self.L1, self.L2) == (other.q, other.L1, other.L2)
            and np.array_equal(self.reduced(), other.reduced())
        )

    def __repr__(self):
        return f"CorrelationTable(q={self.q}, L1={self.L1}, L2={self.L2})"


def auto_correlation_table(c: QaryArray) -> CorrelationTable:
    """Full autocorrelation table from one set of forward transforms of c."""
    return CorrelationTable(c.q, c.L1, c.L2, _count_tensor(c, c))


def cross_correlation_table(c: QaryArray, d: QaryArray) -> CorrelationTable:
    """Full cross-correlation table, c shifted as in cross_correlation."""
    _require_uniform([c, d])
    return CorrelationTable(c.q, c.L1, c.L2, _count_tensor(c, d))


def correlation_sum(values, q: int | None = None) -> CorrelationValue:
    """Entrywise sum of count vectors.  q is required when values is empty."""
    values = list(values)
    if not values:
        if q is None:
            raise ValueError("q is required to sum an empty collection of values")
        return CorrelationValue.zero(q)
    total = values[0]
    if q is not None and total.q != q:
        raise ValueError(f"alphabet mismatch: q={total.q} vs q={q}")
    for v in values[1:]:
        total = total + v
    return total
