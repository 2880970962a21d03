"""Definition-level checkers and a brute-force oracle for small instances.

A set of arrays is complementary when its autocorrelations sum to zero at
every nonzero shift and to N*L1*L2 at the origin; two complementary pairs
are mates when their pairwise cross-correlations cancel at every shift, the
origin included.  All decisions here are exact: sums of correlation values
are tested for zero algebraically, never through a float tolerance.

Every checker goes through one check kernel, _check.  Its centre, the
exact sum at the origin, is N*L1*L2 for autocorrelations and one bincount
of the differences of the paired arrays otherwise.  Every path subtracts
that centre at the origin and then tests each shift for zero.  A check of
at most _DIRECT_PAIRS cell pairs does so on the sum of exact count
tensors, reduced modulo the cyclotomic polynomial.  Larger ones take their
whole answer from the norm-certified spectral pass of
correlation._spectral_pass, one batch per call, which builds no count
tensor.  It decides each check from the 2-norm of its spectrum less the
centre, so a passing check takes no inverse transform, and it inverts only
to list a failing check's violating shifts, with the exact counts at the
ones it lists.  is_mate sends its two pair checks and its cross check as
one batch, so each of its arrays is transformed once per embedding.  A
check that the pass cannot certify raises ArithmeticError.  Either path
lists the same shifts with the same integer counts, so the same values,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boolfunc import QaryArray, _at_least, _checked_block, _require_uniform, require_even_q
from .correlation import (
    _DIRECT_PAIRS,
    CorrelationValue,
    _complex_values,
    _spectral_pass,
    auto_correlation_table,
    cross_correlation_table,
)

__all__ = [
    "VerificationResult",
    "is_gcs",
    "is_gcap",
    "is_mate",
    "is_gcas",
    "brute_force_gcaps",
    "DEFAULT_MAX_VIOLATIONS",
    "DEFAULT_PAIR_BUDGET",
]

DEFAULT_MAX_VIOLATIONS = 16
DEFAULT_PAIR_BUDGET = 1 << 26


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one exact check.

    violations lists (shift, offending complex sum) pairs, capped at the
    checker's max_violations (truncated says whether the cap was hit);
    center_value is the exact correlation sum at zero shift.  passed is true
    exactly when no shift violated its predicted value and every input
    precondition held (notes lists any that did not).
    """

    passed: bool
    violations: tuple[tuple[tuple[int, int], complex], ...]
    center_value: CorrelationValue
    expected_center: int
    truncated: bool = False
    notes: tuple[str, ...] = ()


def _check(checks):
    """The one check kernel: for each check, the summed correlations of its pairs equal its expected centre.

    checks lists (pairs, expected_center, max_violations) of one alphabet
    and shape, and the result holds one VerificationResult per check, in
    order.  pairs lists (c, d) arrays, c the shifted one as in
    cross_correlation; (a, a) stands for a's autocorrelation.  Checks above
    _DIRECT_PAIRS go to the spectral pass as one batch, which transforms
    each distinct array once per embedding and decides each check from
    the 2-norm of its spectrum less the centre; only a check that fails
    and lists its violations takes inverse transforms, for the exact counts
    at the first max_violations of them.  It raises ArithmeticError when
    the pass cannot certify them.  A smaller check sums the tables,
    subtracts the expected centre at the origin from the reduced sum (row 0
    of reduction_matrix is e_0) and lists the shifts left nonzero.  Both
    give the violating shifts in row-major order and the uncentred counts
    of the kept ones, the same integers, so a listed value is the same
    float on either path.
    """
    c = checks[0][0][0][0]
    q, L1, L2 = c.q, c.L1, c.L2
    if (L1 * L2) ** 2 > _DIRECT_PAIRS:
        answers = _spectral_pass(checks)
    else:
        answers = []
        for pairs, expected_center, max_violations in checks:
            tables = [
                auto_correlation_table(a) if a is b else cross_correlation_table(a, b) for a, b in pairs
            ]
            total = sum(tables[1:], tables[0])
            reduced = total.reduced()
            reduced[L1 - 1, L2 - 1, 0] -= expected_center
            found = np.flatnonzero(reduced.any(axis=-1))
            kept = found[:max_violations]
            answers.append((kept, total.counts.reshape(-1, q)[kept], len(found) > max_violations))
    results = []
    for (pairs, expected_center, _), (kept, counts, truncated) in zip(checks, answers):
        if all(a is b for a, b in pairs):
            center = CorrelationValue.from_int(len(pairs) * L1 * L2, q)
        else:
            diffs = np.stack([a.entries - b.entries for a, b in pairs]) % q
            center = CorrelationValue(q, np.bincount(diffs.ravel(), minlength=q))
        if not len(kept):
            results.append(VerificationResult(not truncated, (), center, expected_center, truncated))
            continue
        u1 = (kept // (2 * L2 - 1) - (L1 - 1)).tolist()
        u2 = (kept % (2 * L2 - 1) - (L2 - 1)).tolist()
        violations = tuple(zip(zip(u1, u2), _complex_values(q, counts).tolist()))
        results.append(VerificationResult(False, violations, center, expected_center, truncated))
    return results


def is_gcas(arrays, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationResult:
    """Check the complementary-set condition for N same-sized arrays."""
    max_violations = _at_least(max_violations, 0, "max_violations")
    arrays = _require_uniform(arrays)
    expected = len(arrays) * arrays[0].L1 * arrays[0].L2
    return _check([([(a, a) for a in arrays], expected, max_violations)])[0]


def is_gcap(c: QaryArray, d: QaryArray, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationResult:
    """Check the complementary-pair condition (set condition with N = 2)."""
    return is_gcas([c, d], max_violations)


def _require_one_row(s: QaryArray) -> QaryArray:
    """s, once it is a single row."""
    if s.L1 != 1:
        raise ValueError(f"sequence input is {s.L1}x{s.L2}, expected one row")
    return s


def is_gcs(sequences, q: int | None = None, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationResult:
    """Check the 1-D complementary-set condition.

    Accepts single-row arrays or plain integer sequences (q required for the
    latter).  Shifts in the result are reported as (0, u).
    """
    normalized = []
    for s in sequences:
        if isinstance(s, QaryArray):
            normalized.append(_require_one_row(s))
        else:
            if q is None:
                raise ValueError("q is required for plain integer sequences")
            normalized.append(QaryArray.from_sequence(q, s))
    return is_gcas(normalized, max_violations)


def is_mate(pair1, pair2, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationResult:
    """Check that two complementary pairs cancel each other at every shift.

    The cross-correlations of the aligned members must sum to zero for all
    shifts including the origin, so expected_center is 0.  Inputs that fail
    the pair condition themselves are reported in notes and fail the check.
    The two pair checks, which list nothing, and the mate check run as one
    batch of the check kernel.
    """
    max_violations = _at_least(max_violations, 0, "max_violations")
    c, d = pair1
    c2, d2 = pair2
    _require_uniform([c, d, c2, d2])
    expected = 2 * c.L1 * c.L2
    first, second, result = _check([
        ([(c, c), (d, d)], expected, 0),
        ([(c2, c2), (d2, d2)], expected, 0),
        ([(c, c2), (d, d2)], 0, max_violations),
    ])
    notes = []
    if not first.passed:
        notes.append("first pair fails the complementary-pair condition")
    if not second.passed:
        notes.append("second pair fails the complementary-pair condition")
    return replace(result, passed=result.passed and not notes, notes=tuple(notes))


def brute_force_gcaps(q, L1, L2, budget: int = DEFAULT_PAIR_BUDGET):
    """Exhaustively list every ordered complementary pair of L1 x L2 arrays.

    Arrays are enumerated in lexicographic row-major order and the output
    lists the pairs (a, b) in that order of a, then of b, as if all
    q^(2*L1*L2) ordered pairs were tested, so the budget (measured in pair
    evaluations) must cover that count.  The pair test is the check kernel's:
    the reduced tables of a and b sum to the expected centre, which holds
    exactly when b's reduced table is the expected centre minus a's.  Each
    array's reduced table is keyed as bytes, so every a finds its partners
    by one lookup.  The arrays are views into one digit block, range-checked
    once; each still gets a table of its own.
    """
    q, L1, L2 = require_even_q(q), _at_least(L1, 1, "L1"), _at_least(L2, 1, "L2")
    budget = _at_least(budget, 0, "budget")
    n_arrays = q ** (L1 * L2)
    n_pairs = n_arrays * n_arrays
    if n_pairs > budget:
        raise ValueError(
            f"brute-force budget exceeded: {n_pairs} pair evaluations > budget {budget}"
        )
    powers = q ** np.arange(L1 * L2 - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(n_arrays, dtype=np.int64)[:, None] // powers) % q
    arrays = [QaryArray._view(q, e) for e in _checked_block(q, digits.reshape(n_arrays, L1, L2))]
    partners = []
    by_table: dict[bytes, list[int]] = {}
    for index, a in enumerate(arrays):
        reduced = auto_correlation_table(a).reduced()
        by_table.setdefault(reduced.tobytes(), []).append(index)
        reduced[L1 - 1, L2 - 1, 0] -= 2 * L1 * L2
        partners.append((-reduced).tobytes())
    return [
        (arrays[ia], arrays[ib])
        for ia in range(n_arrays)
        for ib in by_table.get(partners[ia], ())
    ]
