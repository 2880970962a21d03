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
counts[u1 + L1 - 1, u2 + L2 - 1, e], computed for every shift at once.  A
small table, at most _DIRECT_PAIRS cell pairs, is one integer bincount over
all pairs of cells.  A larger one takes the route below that recovers
counts from the Galois embeddings, at every shift.  A single value at one
shift comes from the direct definition, which clips the summation bounds.

A check that summed correlations vanish need not count them.  At each shift
the sum less its expected value is an algebraic integer alpha of Z[xi_q],
and a nonzero alpha has a nonzero integer norm, the product of
|sigma_j(alpha)| over the j coprime to q.  _spectral_pass takes a batch of
checks of one alphabet and shape.  Per embedding j <= q/2 it transforms the
distinct arrays of the batch once, as xi^(j c), and each check sums its
pairs' products into the spectrum of sigma_j of its summed correlations.
By Parseval that spectrum less the centre has the 2-norm of sigma_j(alpha)
over every shift, times sqrt(P), so one norm per embedding decides the
check exactly under the a-priori bound of _count_error_bound: a passing
check takes no inverse transform.  A check that lists its violations
inverts only the embeddings whose norm shows one, and a shift's alpha is
nonzero exactly when some such embedding's computed value there is at
least 1/2.  At the shifts a check lists, the correlations for the
remaining j <= q/2 complete the length-q spectrum of the counts, and one
length-q inverse DFT recovers them, rounded when the same bound lies
below 1/4.  The same recovery at every shift of one pair is a large
table, so the package has one float algorithm for exact counts and one
error bound for it; what it cannot certify raises ArithmeticError.  The
pass builds no count tensor; the tensors serve the small checks and the
table API.
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
        # Object dtype keeps Python ints, so counts beyond int64 stay exact.
        self.reduced = tuple((np.array(counts, dtype=object) @ reduction_matrix(q)).tolist())

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
        return self + -other

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


def _fft_error(t: float) -> float:
    """eps of the FFT error model for t = log2 of the transform size.

    The error bound of this module, _count_error_bound, rests on this
    model.  With u = 2^-53 and g_k = k*u / (1 - k*u) (_gamma): a
    power-of-two FFT computed with twiddle factors accurate to mu satisfies
    ||fl(F x) - F x||_2 <= eps ||F x||_2 with eps = t*eta / (1 - t*eta),
    eta = mu + g_4 (sqrt 2 + mu) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 24.2); here mu = 4u.  A 2-D
    transform of size P1 x P2 is 1-D transforms along each axis; since
    (1 - a)(1 - b) >= 1 - a - b, the two factors compose within the same
    formula with t = log2 P1 + log2 P2.  rfft2/irfft2 are the complex
    transforms on real inputs and Hermitian spectra and are taken to obey
    the same bound.
    """
    mu = _TWIDDLE_ULPS * _UNIT_ROUNDOFF
    eta = mu + _gamma(4) * (math.sqrt(2) + mu)
    return t * eta / (1 - t * eta)


def _transform_size(L: int) -> int:
    """Smallest power of two >= 2L - 1, so that no two shifts wrap onto each other."""
    return 1 << (2 * L - 2).bit_length()


# Tables with at most this many cell pairs, (L1*L2)^2, are counted directly
# by one bincount over all pairs; larger ones by FFT.  Per table on 2 cores
# with one BLAS thread (q in {2, 4, 8}, auto and cross), the direct count
# took 115-150 us at L1*L2 = 128 against 95-480 us for the FFT route,
# 180-220 us at 160 cells against 105-335 us, and 800-1090 us at 256 cells
# against 120-645 us: the FFT route wins at q = 2 from 128 cells and at
# every q by 256.  verify._check shares the threshold.
_DIRECT_PAIRS = 1 << 14


@lru_cache(maxsize=32)
def _pair_shifts(L1: int, L2: int) -> np.ndarray:
    """Shift index (u1 + L1 - 1) * (2*L2 - 1) + u2 + L2 - 1 of every cell pair.

    Entry [x, y] belongs to cell x of the shifted array and cell y of the
    other, both row-major, whose shift is u = x - y.  Read-only; at most
    _DIRECT_PAIRS entries, and the cache holds a bounded number of shapes.
    """
    g, i = np.divmod(np.arange(L1 * L2), L2)
    rows = np.subtract.outer(g, g) + (L1 - 1)
    cols = np.subtract.outer(i, i) + (L2 - 1)
    index = rows * (2 * L2 - 1) + cols
    index.setflags(write=False)
    return index


def _direct_tensor(c: QaryArray, d: QaryArray) -> np.ndarray:
    """The count tensor by the definition: one bincount over all cell pairs.

    The pair (x, y) adds one to bin (shift index) * q + (c[x] - d[y]) mod q.
    Integer arithmetic only, so nothing needs a certificate.
    """
    q, L1, L2 = c.q, c.L1, c.L2
    keys = _pair_shifts(L1, L2) * q
    keys += np.subtract.outer(c.entries.ravel(), d.entries.ravel()) % q
    counts = np.bincount(keys.ravel(), minlength=(2 * L1 - 1) * (2 * L2 - 1) * q)
    return counts.reshape(2 * L1 - 1, 2 * L2 - 1, q)


def _count_tensor(c: QaryArray, d: QaryArray) -> np.ndarray:
    """Exact counts[u1 + L1 - 1, u2 + L2 - 1, e] of xi^(c[g+u1, i+u2] - d[g, i]).

    A table of at most _DIRECT_PAIRS cell pairs is counted directly
    (_direct_tensor).  A larger one is _counts_at at every shift, for the
    one pair (c, d), under its certificate; it raises ArithmeticError when
    that fails.  Both give the same integers, in a fresh C-ordered int64
    array.
    """
    q, L1, L2 = c.q, c.L1, c.L2
    if (L1 * L2) ** 2 <= _DIRECT_PAIRS:
        return _direct_tensor(c, d)
    block, index = (c.entries[None], [(0, 0)]) if d is c else (np.stack([c.entries, d.entries]), [(0, 1)])
    every = np.arange((2 * L1 - 1) * (2 * L2 - 1))
    return _counts_at(block, index, q, every, {}).reshape(2 * L1 - 1, 2 * L2 - 1, q)


# Allowance for a computed root of unity, in units of u: cmath.exp at the
# float64 angle 2*pi*k/q, whose three roundings move an angle below 2*pi by
# at most 19 u, with an ulp each for cos and sin.
_ROOT_ULPS = 32


def _count_error_bound(P1: int, P2: int, q: int, cells: int, members: int) -> float:
    """The a-priori error bound of the FFT route, for its decisions and its counts alike.

    The route correlates z = xi^(j c) for each of N = members pairs of
    arrays of M = cells entries, by power-of-two float64 transforms of size
    P1 x P2 (P = P1*P2): forward transforms Z, the spectrum
    S = sum_k Z_(c_k) conj(Z_(d_k)), and one inverse transform r = F^-1 S.
    eps, g_k and the FFT model are _fft_error's.

    1. Inputs.  Every cell of z has |z| = 1, so ||z||_2 = sqrt(M) and
       ||Z||_inf <= M.  A computed root xi^(j e) is exact for q in {2, 4}
       and within d = _ROOT_ULPS u otherwise, for every j, so
       ||Zhat - Z||_2 <= sqrt(P M) f with f = d + eps (1 + d), and
       ||Zhat||_inf <= K M with K = 1 + f sqrt(P), as sqrt(M) <= M.
    2. Spectrum.  Per pair, the computed inputs move Z_c conj(Z_d) by at
       most sqrt(P) M^(3/2) f (K + 1) in 2-norm.  Every pair, an
       autocorrelation too, forms this one complex product, which is
       rounded within sqrt(2) g_2 of its modulus, and the sum over the N
       pairs within g_N of the sum of the moduli, so
       g = sqrt(2) g_2 + g_N (1 + sqrt(2) g_2) adds at most
       g (1 + f) K sqrt(P) M^(3/2) per pair.  Hence
       ||Shat - S||_2 <= N sqrt(P) M^(3/2) h, h = f (K + 1) + g (1 + f) K.
    3. Inverse.  Each pair's correlation has 2-norm
       ||Z_c conj(Z_d)||_2 / sqrt(P) <= M^(3/2), so ||S||_2 <= sqrt(P) N M^(3/2)
       and ||Shat||_2 <= sqrt(P) N M^(3/2) (1 + h).  Dividing by the power
       of two P is exact, so the computed r differs from the exact one by
       at most (||Shat - S||_2 + eps ||Shat||_2) / sqrt(P)
       <= B = N M^(3/2) (h + eps (1 + h)) in 2-norm, and so in every entry.
    4. Decision.  A listing check's mask subtracts the integer centre,
       which rounds once, and takes |.| (hypot), which adds about an ulp,
       so a computed modulus v has |rhat - C| <= v / (1 - g_3).  When
       B + g_3 is below 1/2 and v < 1/2, the exact value is below
       1 / (2 (1 - g_3)) + 1/2 - g_3 < 1.
    5. Counts.  The counts n_e at one shift come from r_0..r_(q/2) (see
       _counts_at).  r_0 is exact and each other r_j is within B (steps
       1-3).  Conjugation and the Hermitian extension are exact, so the
       length-q input y of the inverse transform is off by delta with
       |delta_j| <= B in each of its q entries.  The exact normalised
       inverse DFT (1/q) F* delta has entries at most
       (1/q) sum_j |delta_j| <= B, and 2-norm ||delta||_2 / sqrt(q) <= B.
       The length-q inverse transform is taken to obey the FFT model with
       t = q in place of log2 q: more stages than any factorisation of q
       into radices has, an allowance for the mixed-radix kernels that
       serve q = 6 and 12.  Scaling by 1/q adds g_2 (1/q rounded, then one
       product).  So the computed counts differ from (1/q) F* (y + delta)
       by at most e = eps_q + g_2 (1 + eps_q) times its 2-norm, which is at
       most ||n||_2 + B <= N M + B: the n_e are nonnegative and sum to N
       times the overlap, at most N M.
    6. Norm.  Let E be the returned bound, below 1/2, and C the integer
       centre.  alpha, r less C at the origin, has the transform S - C,
       so by Parseval ||alpha||_2 = ||S - C||_2 / sqrt(P), and by step 2
       it is within ||Shat - S||_2 / sqrt(P) <= B of
       ||Shat - C||_2 / sqrt(P).  The pass (_deviation) subtracts C, one
       rounding per real component; squares the 2P real components of the
       full spectrum, one more, a half spectrum's mirrored columns taken
       twice; adds them, at most 2P - 1 roundings on any path; divides
       by the power of two P, exactly; and takes the root, one more.  So
       its v is ||Shat - C||_2 / sqrt(P) times 1 + theta with
       |theta| <= g = g_(2P+3).  P <= 16 M, as each side of the transform
       is at most four times the array's, e > eps_2 > 21 u, and g < 0.08
       for P < 2^48, so with E < 1/2:
       E g / (1 - g) < (P + 3/2) u / (1 - 2 g) <= 17.5 M u / (1 - 2 g)
       < 21 M u < e N M <= E - B.  Hence v <= E gives
       ||alpha||_2 <= E / (1 - g) + B < 2 E < 1, and no shift has
       |alpha| >= 1; v > E gives ||alpha||_2 >= E / (1 + g) - B > 0, and
       some shift has alpha != 0.

    The returned bound is B + e (N M + B), the error of every computed
    count.  It is never below the decision's B + g_3: e > eps_2 > g_3 and
    N M >= 1.  So one bound serves every use (_certify): the pass decides
    from the norm and builds its masks under a bound below 1/2, and counts
    are rounded under one below 1/4.  The bound is about 2.4e-8 for a pair
    of 64 x 64 arrays and 1e-6 for 8 arrays of 128 x 128 at q = 12, nearly
    all of it B; it passes 1/2 before 2^30 cells.
    """
    eps = _fft_error(math.log2(P1 * P2))
    root = 0.0 if 4 % q == 0 else _ROOT_ULPS * _UNIT_ROUNDOFF
    f = root + eps * (1 + root)
    K = 1 + f * math.sqrt(P1 * P2)
    g = math.sqrt(2) * _gamma(2)
    g += _gamma(members) * (1 + g)
    h = f * (K + 1) + g * (1 + f) * K
    bound = members * cells ** 1.5 * (h + eps * (1 + h))
    error = _fft_error(q)
    error += _gamma(2) * (1 + error)
    return bound + error * (members * cells + bound)


def _certify(L1: int, L2: int, q: int, members: int, limit: float, deviation: float = 0.0) -> float:
    """_count_error_bound, after raising ArithmeticError unless it and the observed deviation both lie below limit.

    The bound is the one for members pairs of L1 x L2 arrays over Z_q.
    The spectral pass decides under limit 1/2, where nothing is observed
    but a NaN; counts are rounded under _CERTIFIED, with their observed
    distance to the nearest integers.  The error names both.
    """
    bound = _count_error_bound(_transform_size(L1), _transform_size(L2), q, L1 * L2, members)
    if not (bound < limit and deviation < limit):
        raise ArithmeticError(
            f"cannot certify the {L1}x{L2} q={q} correlation counts: a-priori error "
            f"bound {bound:.3g}, observed distance to integers {deviation:.3g}; "
            f"both must be below {limit}"
        )
    return bound


def _embeddings(q: int) -> list[int]:
    """The j coprime to q with 1 <= j <= q/2: sigma_(q-j) is the conjugate of sigma_j."""
    return [j for j in range(1, q // 2 + 1) if math.gcd(j, q) == 1]


@lru_cache(maxsize=None)
def _embedding_roots(q: int, j: int) -> np.ndarray:
    """xi^(j e) for e in Z_q; real when 2j = 0 mod q.  Read-only; cached.

    Roots at a multiple of a quarter turn are exact, the others cmath's
    (see _ROOT_ULPS).
    """
    roots = []
    for e in range(q):
        k = j * e % q
        roots.append((1, 1j, -1, -1j)[4 * k // q] if 4 * k % q == 0
                     else cmath.exp(2j * cmath.pi * k / q))
    table = np.array(roots, dtype=np.float64 if 2 * j % q == 0 else np.complex128)
    table.setflags(write=False)
    return table


def _spectra(block, q: int, j: int, shape) -> np.ndarray:
    """The forward transforms, of size P1 x P2 = shape, of xi^(j a) for every array a stacked in block.

    Real roots (2j = 0 mod q) take rfft2, whose half spectra of
    P2 // 2 + 1 columns stand for the Hermitian whole.
    """
    forward = np.fft.rfft2 if 2 * j % q == 0 else np.fft.fft2
    return forward(_embedding_roots(q, j)[block], s=shape)


def _summed(spectra, index) -> np.ndarray:
    """The spectrum of the summed correlations: X_c conj(X_d) summed over the (c, d) slots in index.

    Every pair, an autocorrelation too, adds this one product.  Pair by
    pair, on views of the spectra: stacked copies of the pairs' spectra
    cost more in freshly touched pages than the products do.
    """
    return sum(spectra[a] * spectra[b].conj() for a, b in index)


def _inverse(spectrum, q: int, j: int, shape) -> np.ndarray:
    """The summed correlations under sigma_j at every shift, from their spectrum.

    Shift (u1, u2) is entry (u1 mod P1, u2 mod P2) of the P1 x P2 = shape
    result; no shift reaches the other entries, which are 0 up to
    rounding.  Real roots give a real result.
    """
    return (np.fft.irfft2 if 2 * j % q == 0 else np.fft.ifft2)(spectrum, s=shape)


def _deviation(spectrum, center: int, P2: int) -> float:
    """||S - C||_2 / sqrt(P): by Parseval, the 2-norm over every shift of the summed correlations less C at the origin.

    spectrum is S over the P1 x P2 frequencies, or rfft2's half of it,
    P2 // 2 + 1 columns; the two agree for P2 <= 2.  In a half spectrum
    column 0, and column P2/2, are their own mirror images and count once;
    every column between them also stands for its mirror, so the sum over
    them is added once more.  _count_error_bound's step 6 bounds the
    rounding.
    """
    P1, columns = spectrum.shape
    parts = (spectrum - center).view(np.float64)
    flat = parts.ravel()
    total = np.dot(flat, flat)
    if columns < P2:
        inner = parts[:, 2:-2]
        total += np.einsum("ij,ij->", inner, inner)
    return math.sqrt(total / (P1 * P2))


def _spectral_pass(checks):
    """For each check, the shifts where its summed correlations miss their expected values, with exact counts.

    checks lists (pairs, expected_center, max_violations) of one alphabet
    and shape.  pairs lists (c, d) arrays, c the shifted one as in
    cross_correlation; the expected value is expected_center at (0, 0)
    and 0 elsewhere.  At each shift the summed correlation minus its
    expected value is an algebraic integer alpha of Z[xi_q].  If alpha is
    not zero, its norm, the product of |sigma_j(alpha)| over the j
    coprime to q, is a nonzero rational integer, so some |sigma_j(alpha)|
    is at least 1; sigma_(q-j) is the conjugate of sigma_j, so
    _embeddings(q) suffice.

    Per embedding j, the distinct arrays of all checks are transformed
    once (_spectra), and each check sums its pairs' products into the
    spectrum of sigma_j of its summed correlations (_summed).  Its
    _deviation v_j is the 2-norm of sigma_j(alpha) over every shift, as
    computed; E is the check's own _count_error_bound, below 1/2.  By
    step 6 of that bound, v_j <= E for every j puts every |sigma_j(alpha)|
    below 1, so every norm is 0 and the check passes exactly, without an
    inverse transform; and v_j > E makes some alpha nonzero, so the check
    fails exactly.  A check with max_violations 0 ends at its first such
    embedding.  A listing check inverts only those embeddings and marks
    the shifts where a computed |sigma_j(alpha)| is at least 1/2 (step
    4).  That loses no shift: at a violating shift some |sigma_j(alpha)|
    is at least 1, and then that embedding's v_j exceeds E.

    Raises ArithmeticError (_certify) when the pass cannot decide: a
    bound is not below 1/2, or a computed norm is NaN; and when the
    counts a check lists fail their certificate (_counts_at).  Otherwise
    it returns one (kept, counts, truncated) per check: kept holds the
    flat row-major indices (u1 + L1 - 1) * (2*L2 - 1) + u2 + L2 - 1 of
    the first max_violations violating shifts, counts the exact exponent
    counts of the summed correlations, uncentred, at those shifts, and
    truncated whether more shifts violate.  A check passes exactly when
    kept is empty and truncated false.
    """
    c = checks[0][0][0][0]
    q, L1, L2 = c.q, c.L1, c.L2
    bounds = [_certify(L1, L2, q, len(pairs), 0.5) for pairs, _, _ in checks]
    shape = (_transform_size(L1), _transform_size(L2))
    arrays = list({id(a): a for pairs, _, _ in checks for pair in pairs for a in pair}.values())
    slot = {id(a): k for k, a in enumerate(arrays)}
    indices = [[(slot[id(a)], slot[id(b)]) for a, b in pairs] for pairs, _, _ in checks]
    block = np.stack([a.entries for a in arrays])
    nothing = np.empty(0, dtype=np.intp), np.empty((0, q), dtype=np.int64)
    results = [None] * len(checks)
    # A listing check keeps each embedding's spectrum, and whether its norm
    # showed a violation, for the shifts and counts it may list.
    held = [{} for _ in checks]
    for j in _embeddings(q):
        open_checks = [k for k, result in enumerate(results) if result is None]
        if not open_checks:
            break
        transforms = _spectra(block, q, j, shape)
        for k in open_checks:
            pairs, center, max_violations = checks[k]
            spectrum = _summed(transforms, indices[k])
            deviation = _deviation(spectrum, center, shape[1])
            if math.isnan(deviation):  # NaN decides nothing and fails the certificate
                _certify(L1, L2, q, len(pairs), 0.5, deviation)
            violating = deviation > bounds[k]
            if max_violations:
                held[k][j] = spectrum, violating
            elif violating:
                results[k] = (*nothing, True)
    for k, (pairs, center, max_violations) in enumerate(checks):
        if results[k] is not None:
            continue
        if not any(violating for _, violating in held[k].values()):
            results[k] = (*nothing, False)
            continue
        correlations, bad = {}, False
        for j, (spectrum, violating) in held[k].items():
            values = correlations[j] = _inverse(spectrum, q, j, shape)
            if violating:
                magnitude = np.abs(values)
                magnitude[0, 0] = abs(values[0, 0] - center)
                bad = bad | (magnitude >= 0.5)
        # Rolled by (L1 - 1, L2 - 1), entry (u1 mod P1, u2 mod P2) lands at
        # (u1 + L1 - 1, u2 + L2 - 1): the shifts in row-major order.
        found = np.flatnonzero(np.roll(bad, (L1 - 1, L2 - 1), axis=(0, 1))[:2 * L1 - 1, :2 * L2 - 1])
        kept = found[:max_violations]
        counts = _counts_at(block, indices[k], q, kept, correlations)
        results[k] = (kept, counts, len(found) > max_violations)
    return results


def _counts_at(block, index, q: int, kept, correlations) -> np.ndarray:
    """The exact (len(kept), q) exponent counts of the summed correlations at the flat shift indices kept.

    At a shift, r_j = sum_e n_e xi^(j e) is the summed correlation under
    sigma_j.  For j = 0..q/2: r_0 is the number of pairs times the overlap
    (L1 - |u1|)(L2 - |u2|), an exact integer; a j in correlations reuses
    the spectral pass's uncentred correlations at every shift; every other
    j is one more forward and inverse transform.  The counts are real, so
    n_e = (1/q) sum_(j in Z_q) conj(r_j) xi^(j e) with r_(q-j) = conj(r_j):
    one length-q irfft of conj(r_0), ..., conj(r_(q/2)) per shift.  When
    kept is every shift, each r_j is gathered as one rolled slice.  The
    counts are rounded only under the certificate of _certify: the
    a-priori bound and the observed distance to the nearest integers must
    both lie below 1/4, and ArithmeticError, naming both, is raised
    otherwise.  The counts are a fresh C-ordered int64 array.
    """
    L1, L2 = block.shape[1:]
    shape = (_transform_size(L1), _transform_size(L2))
    u1 = kept // (2 * L2 - 1) - (L1 - 1)
    u2 = kept % (2 * L2 - 1) - (L2 - 1)
    # kept holds distinct shifts in order, so as many as there are shifts is all of them.
    at = None if len(kept) == (2 * L1 - 1) * (2 * L2 - 1) else (u1 % shape[0], u2 % shape[1])
    # Row j is conj(r_j), the input of the inverse transform.
    spectrum = np.empty((q // 2 + 1, len(kept)), dtype=np.complex128)
    spectrum[0] = len(index) * (L1 - np.abs(u1)) * (L2 - np.abs(u2))
    for j in range(1, q // 2 + 1):
        values = correlations.get(j)
        if values is None:
            values = _inverse(_summed(_spectra(block, q, j, shape), index), q, j, shape)
        if at is None:
            rolled = np.roll(values, (L1 - 1, L2 - 1), axis=(0, 1))[:2 * L1 - 1, :2 * L2 - 1]
            np.conjugate(rolled, out=spectrum[j].reshape(rolled.shape))
        else:
            np.conjugate(values[at], out=spectrum[j])
    counts = np.fft.irfft(spectrum, n=q, axis=0)
    rounded = np.rint(counts)
    _certify(L1, L2, q, len(index), _CERTIFIED, float(np.abs(counts - rounded).max()))
    return np.ascontiguousarray(rounded.T, dtype=np.int64)


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

    @classmethod
    def _trusted(cls, q: int, L1: int, L2: int, counts: np.ndarray) -> "CorrelationTable":
        """Wrap a count tensor this module built, without checking it.

        The caller guarantees what __init__ would establish: q is even and
        at least 2, L1 and L2 are positive ints, and counts is a C-ordered
        int64 array of shape (2*L1 - 1, 2*L2 - 1, q) that nothing else
        holds.  It is made read-only here.
        """
        table = object.__new__(cls)
        counts.setflags(write=False)
        table.q, table.L1, table.L2, table.counts = q, L1, L2, counts
        return table

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
        return CorrelationTable._trusted(self.q, self.L1, self.L2, self.counts + other.counts)

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
    """Full autocorrelation table; a large one reuses c's forward transforms."""
    return CorrelationTable._trusted(c.q, c.L1, c.L2, _count_tensor(c, c))


def cross_correlation_table(c: QaryArray, d: QaryArray) -> CorrelationTable:
    """Full cross-correlation table, c shifted as in cross_correlation."""
    _require_uniform([c, d])
    return CorrelationTable._trusted(c.q, c.L1, c.L2, _count_tensor(c, d))


def correlation_sum(values, q: int | None = None) -> CorrelationValue:
    """Entrywise sum of count vectors.  q is required when values is empty."""
    values = list(values)
    if not values:
        if q is None:
            raise ValueError("q is required to sum an empty collection of values")
        return CorrelationValue.zero(q)
    if q is not None and values[0].q != q:
        raise ValueError(f"alphabet mismatch: q={values[0].q} vs q={q}")
    return sum(values[1:], values[0])
