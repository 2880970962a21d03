"""Definition-level checkers and a brute-force oracle for small instances.

A set of arrays is complementary when its autocorrelations sum to zero at
every nonzero shift and to N*L1*L2 at the origin; two complementary pairs
are mates when their pairwise cross-correlations cancel at every shift, the
origin included.  All decisions here are exact: sums of correlation values
are tested for zero algebraically, never through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfunc import QaryArray, _at_least, _require_uniform, require_even_q
from .correlation import (
    CorrelationValue,
    _complex_values,
    auto_correlation_table,
    cross_correlation_table,
    reduction_matrix,
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


def _expected_reduced(q: int, L1: int, L2: int, expected_center: int) -> np.ndarray:
    """The reduced tensor of a table that is expected_center at (0, 0) and 0 elsewhere."""
    matrix = reduction_matrix(q)
    expected = np.zeros((2 * L1 - 1, 2 * L2 - 1, matrix.shape[1]), dtype=np.int64)
    expected[L1 - 1, L2 - 1] = expected_center * matrix[0]
    return expected


def _check_sum(tables, expected_center, max_violations, notes=()):
    """The one check kernel: the reduced sum of the tables equals the expected centre."""
    total = sum(tables[1:], tables[0])
    q, L1, L2 = total.q, total.L1, total.L2
    bad = (total.reduced() != _expected_reduced(q, L1, L2, expected_center)).any(axis=-1)
    found = np.flatnonzero(bad)
    kept = found[:max_violations]
    u1 = (kept // (2 * L2 - 1) - (L1 - 1)).tolist()
    u2 = (kept % (2 * L2 - 1) - (L2 - 1)).tolist()
    values = _complex_values(q, total.counts.reshape(-1, q)[kept]).tolist()
    violations = tuple(zip(zip(u1, u2), values))
    truncated = len(found) > max_violations
    center = total.value(0, 0)
    passed = not violations and not truncated and not notes
    return VerificationResult(
        passed, violations, center, expected_center, truncated, tuple(notes)
    )


def is_gcas(arrays, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationResult:
    """Check the complementary-set condition for N same-sized arrays."""
    max_violations = _at_least(max_violations, 0, "max_violations")
    arrays = _require_uniform(arrays)
    expected = len(arrays) * arrays[0].L1 * arrays[0].L2
    return _check_sum([auto_correlation_table(a) for a in arrays], expected, max_violations)


def is_gcap(c: QaryArray, d: QaryArray, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationResult:
    """Check the complementary-pair condition (set condition with N = 2)."""
    return is_gcas([c, d], max_violations)


def is_gcs(sequences, q: int | None = None, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationResult:
    """Check the 1-D complementary-set condition.

    Accepts single-row arrays or plain integer sequences (q required for the
    latter).  Shifts in the result are reported as (0, u).
    """
    normalized = []
    for s in sequences:
        if isinstance(s, QaryArray):
            if s.L1 != 1:
                raise ValueError(f"sequence input is {s.L1}x{s.L2}, expected one row")
            normalized.append(s)
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
    """
    max_violations = _at_least(max_violations, 0, "max_violations")
    c, d = pair1
    c2, d2 = pair2
    _require_uniform([c, d, c2, d2])
    notes = []
    if not is_gcap(c, d, max_violations=0).passed:
        notes.append("first pair fails the complementary-pair condition")
    if not is_gcap(c2, d2, max_violations=0).passed:
        notes.append("second pair fails the complementary-pair condition")
    tables = [cross_correlation_table(c, c2), cross_correlation_table(d, d2)]
    return _check_sum(tables, 0, max_violations, notes)


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
    expected = _expected_reduced(q, L1, L2, 2 * L1 * L2)
    arrays = QaryArray._stack(q, digits.reshape(n_arrays, L1, L2))
    partners = []
    by_table: dict[bytes, list[int]] = {}
    for index, a in enumerate(arrays):
        reduced = auto_correlation_table(a).reduced()
        by_table.setdefault(reduced.tobytes(), []).append(index)
        partners.append((expected - reduced).tobytes())
    return [
        (arrays[ia], arrays[ib])
        for ia in range(n_arrays)
        for ib in by_table.get(partners[ia], ())
    ]
