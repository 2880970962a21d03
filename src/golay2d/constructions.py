"""Direct constructions of complementary array pairs, mates, and sets.

Every construction follows one rule.  A quadratic generalized Boolean
function f traces one path (or several vertex-disjoint paths) through the
variables z_1..z_{n+m}, with weight q/2 on each edge, plus arbitrary linear
terms and a constant.  The members are f + (q/2) * sum(z_s for s in S) for
every subset S of the path-start variables, which are z_pi(1) for a pair and
the first variable of each block for a set.  A mate applies the same rule to
f + (q/2) z_pi(n+m).  The 1-D Golay-Davis-Jedwab pair and set are the n = 0
case, and a basic pair is a general pair whose path walks the column
variables x first and the row variables y second (basic_as_general_spec).
Permutations use 1-indexed one-line notation: pi = (3, 4, 2, 1, 5) means
pi(1) = 3.

The exhaustive stream of the general pair construction evaluates no
function per spec: the linear part and constant only add a fixed
combination of bit planes to the path array of pi, so every pair of one pi
comes from one block of integer arithmetic.  The stream also validates
once per permutation: GcapGeneralSpec checks pi when the block starts, and
each (p, p0) row of the block becomes a spec without a second check, since
its digits lie in 0..q-1 by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .boolfunc import (
    _BLOCK_POINTS,
    GeneralizedBooleanFunction,
    QaryArray,
    _at_least,
    _bit_planes,
    _int,
    _ints,
    _is_sequence,
    require_even_q,
)

__all__ = [
    "GcapBasicSpec",
    "GcapGeneralSpec",
    "GcasSpec",
    "gdj_pair",
    "gcs_1d",
    "construct_gcap_basic",
    "construct_gcap_general",
    "construct_mate",
    "construct_gcas",
    "general_gcap_function",
    "gcas_function",
    "count_general_gcaps",
    "enumerate_general_gcaps",
    "basic_as_general_spec",
    "DEFAULT_ENUM_BUDGET",
]

DEFAULT_ENUM_BUDGET = 1 << 22


def _check_sizes(q, n, m, what: str, least: int):
    """Validated (q, n, m) of a spec; n and m are at least `least`, n + m at least 2."""
    q, n, m = require_even_q(q), _at_least(n, least, "n"), _at_least(m, least, "m")
    if n + m < 2:
        raise ValueError(f"the {what} construction needs n + m >= 2")
    return q, n, m


def _check_permutation(pi, size: int, name: str):
    pi = _ints(pi, name)
    if sorted(pi) != list(range(1, size + 1)):
        raise ValueError(f"{name} must be a permutation of 1..{size}, got {pi}")
    return pi


def _check_coeffs(p, size: int, q: int, name: str):
    if p is None:
        return (0,) * size
    p = tuple(map(q.__rmod__, _ints(p, name)))
    if len(p) != size:
        raise ValueError(f"{name} must have length {size}, got {len(p)}")
    return p


def _check_blocks(blocks, size: int):
    if not _is_sequence(blocks):
        raise ValueError(f"blocks must be a list of index lists, got {blocks!r}")
    blocks = tuple(_ints(b, f"blocks[{k}]") for k, b in enumerate(blocks))
    if not blocks or any(not b for b in blocks):
        raise ValueError("blocks must be a nonempty list of nonempty index lists")
    flat = [v for b in blocks for v in b]
    if sorted(flat) != list(range(1, size + 1)):
        raise ValueError(f"blocks must partition 1..{size}, got {blocks}")
    return blocks


@dataclass(frozen=True)
class GcapBasicSpec:
    """Parameters of the row/column-separated pair construction.

    pi1 permutes the column variables x_1..x_m, pi2 the row variables
    y_1..y_n; p holds the linear x coefficients, lam the linear y
    coefficients (both full Z_q values), p0 the constant.
    """

    q: int
    n: int
    m: int
    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    p: tuple[int, ...] | None = None
    lam: tuple[int, ...] | None = None
    p0: int = 0

    def __post_init__(self):
        q, n, m = _check_sizes(self.q, self.n, self.m, "basic pair", 1)
        # Frozen: the validated fields go straight into the instance dict.
        self.__dict__.update(
            q=q, n=n, m=m, pi1=_check_permutation(self.pi1, m, "pi1"),
            pi2=_check_permutation(self.pi2, n, "pi2"), p=_check_coeffs(self.p, m, q, "p"),
            lam=_check_coeffs(self.lam, n, q, "lambda"), p0=_int(self.p0, "p0") % q)


@dataclass(frozen=True)
class GcapGeneralSpec:
    """Parameters of the mixed-path pair construction.

    pi permutes all of z_1..z_{n+m}; p holds the n+m linear coefficients.
    """

    q: int
    n: int
    m: int
    pi: tuple[int, ...]
    p: tuple[int, ...] | None = None
    p0: int = 0

    def __post_init__(self):
        q, n, m = _check_sizes(self.q, self.n, self.m, "general pair", 0)
        self.__dict__.update(
            q=q, n=n, m=m, pi=_check_permutation(self.pi, n + m, "pi"),
            p=_check_coeffs(self.p, n + m, q, "p"), p0=_int(self.p0, "p0") % q)


@dataclass(frozen=True)
class GcasSpec:
    """Parameters of the set construction.

    blocks is an ordered partition of {1..n+m}; the order inside each block
    defines its path, and the first element of each block carries that
    block's binary offset selector.
    """

    q: int
    n: int
    m: int
    blocks: tuple[tuple[int, ...], ...]
    p: tuple[int, ...] | None = None
    p0: int = 0

    def __post_init__(self):
        q, n, m = _check_sizes(self.q, self.n, self.m, "set", 0)
        self.__dict__.update(
            q=q, n=n, m=m, blocks=_check_blocks(self.blocks, n + m),
            p=_check_coeffs(self.p, n + m, q, "p"), p0=_int(self.p0, "p0") % q)

    @property
    def k(self) -> int:
        return len(self.blocks)


def _path_function(spec, paths) -> GeneralizedBooleanFunction:
    """spec's linear part and constant plus a q/2 edge between neighbours on each path.

    The paths of a validated spec are vertex-disjoint and its coefficients
    already lie in 0..q-1, so the terms are built canonical and nothing is
    merged or checked again: each edge as a sorted pair, the nonzero linear
    singletons, and the whole list sorted by variables.
    """
    half = spec.q // 2
    keyed = [
        ((a, b) if a < b else (b, a), half) for path in paths for a, b in zip(path, path[1:])
    ]
    keyed += [((l,), coeff) for l, coeff in enumerate(spec.p, start=1) if coeff]
    keyed.sort()
    terms = tuple((coeff, vs) for vs, coeff in keyed)
    return GeneralizedBooleanFunction._canonical(spec.q, spec.n, spec.m, terms, spec.p0)


def _members(f: GeneralizedBooleanFunction, starts):
    """The arrays f + (q/2) * sum of a subset of the start variables, for every subset.

    Member t switches on starts[alpha] for every bit alpha set in t, so the
    first start varies fastest.
    """
    half = f.q // 2
    out = []
    for t in range(1 << len(starts)):
        g = f
        for alpha, s in enumerate(starts):
            if (t >> alpha) & 1:
                g = g.add_term(half, (s,))
        out.append(g.to_array())
    return tuple(out)


def gdj_pair(q, m, pi, p=None, p0=0):
    """Length-2^m complementary sequence pair: the general pair with n = 0."""
    return construct_gcap_general(GcapGeneralSpec(q, 0, m, pi, p, p0))


def gcs_1d(q, m, blocks, p=None, p0=0):
    """Set of 2^k length-2^m sequences: the set construction with n = 0."""
    return construct_gcas(GcasSpec(q, 0, m, blocks, p, p0))


def construct_gcap_basic(spec: GcapBasicSpec):
    """Complementary 2^n x 2^m array pair (f, f + (q/2) x_{pi1(1)})."""
    return construct_gcap_general(basic_as_general_spec(spec))


def general_gcap_function(spec: GcapGeneralSpec) -> GeneralizedBooleanFunction:
    """First array's function: one path through all of z_1..z_{n+m}."""
    return _path_function(spec, (spec.pi,))


def construct_gcap_general(spec: GcapGeneralSpec):
    """Complementary 2^n x 2^m array pair (f, f + (q/2) z_{pi(1)})."""
    return _members(general_gcap_function(spec), spec.pi[:1])


def construct_mate(spec: GcapGeneralSpec):
    """Companion pair whose cross-correlations cancel against the main pair.

    Returns (f + (q/2) z_{pi(n+m)}, f + (q/2) z_{pi(1)} + (q/2) z_{pi(n+m)});
    the returned pair is itself complementary and is a mate of
    construct_gcap_general(spec).
    """
    f = general_gcap_function(spec)
    return _members(f.add_term(spec.q // 2, (spec.pi[-1],)), spec.pi[:1])


def gcas_function(spec: GcasSpec) -> GeneralizedBooleanFunction:
    """Base function of the set: one quadratic path per block plus linear part."""
    return _path_function(spec, spec.blocks)


def construct_gcas(spec: GcasSpec):
    """All 2^k arrays f + (q/2) * sum of selected block-start offsets.

    Members are ordered with the selector of blocks[0] varying fastest, so
    index t applies the offsets of every block alpha with bit alpha of t set.
    """
    return _members(gcas_function(spec), [block[0] for block in spec.blocks])


def _raw_spec_count(q, n, m) -> int:
    """(n+m)! * q^(n+m+1): the number of (pi, p, p0) choices of the general pair construction."""
    q, n, m = _check_sizes(q, n, m, "general pair", 0)
    return factorial(n + m) * q ** (n + m + 1)


def count_general_gcaps(q, n, m) -> int:
    """Number of distinct first arrays over all (pi, p, p0) choices.

    Evaluates (n+m)!/2 * q^(n+m+1) in exact integer arithmetic, so the result
    never overflows.  Reversing pi leaves the quadratic path unchanged, which
    is where the factor 1/2 comes from.
    """
    return _raw_spec_count(q, n, m) // 2


def enumerate_general_gcaps(q, n, m, budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every (spec, (c, d)) for the general pair construction, once each.

    Iterates pi in lexicographic order, then p, then p0; the raw stream has
    (n+m)! * q^(n+m+1) entries and must fit the budget.  Deduplicating the
    first arrays of the stream reproduces count_general_gcaps(q, n, m).

    The arrays of one pi are built as blocks of at most _BLOCK_POINTS cells:
    the quadratic path array once, plus every linear part p . z + p0 at once
    as a matrix product with the bit planes of z_1..z_{n+m}.  Each block is
    range-checked once and made read-only, and the yielded arrays are views
    into it, so a pair kept after the stream moves on keeps its block alive.
    """
    q, n, m = _check_sizes(q, n, m, "general pair", 0)
    raw = _raw_spec_count(q, n, m)
    budget = _at_least(budget, 0, "budget")
    if raw > budget:
        raise ValueError(
            f"enumeration budget exceeded: {raw} specs > budget {budget}"
        )
    return _general_pair_stream(q, n, m)


def _general_pair_stream(q: int, n: int, m: int):
    half = q // 2
    planes = _bit_planes(n, m)
    shape = planes.shape[1:]
    flat = planes.reshape(n + m, -1)
    per_pi = q ** (n + m + 1)
    step = max(1, _BLOCK_POINTS // flat.shape[1])
    # Digit t of spec index k, most significant first: k in product order
    # of (p_1, ..., p_{n+m}, p0).
    powers = q ** np.arange(n + m, -1, -1, dtype=np.int64)
    for pi in itertools.permutations(range(1, n + m + 1)):
        base = GcapGeneralSpec(q, n, m, pi)
        path = general_gcap_function(base).to_array().entries.reshape(-1)
        offset = half * flat[pi[0] - 1]
        for start in range(0, per_pi, step):
            digits = np.arange(start, min(start + step, per_pi))[:, None] // powers % q
            c = (path + digits[:, :-1] @ flat + digits[:, -1:]) % q
            d = (c + offset) % q
            firsts = QaryArray._stack(q, c.reshape(-1, *shape))
            seconds = QaryArray._stack(q, d.reshape(-1, *shape))
            for row, pair in zip(digits.tolist(), zip(firsts, seconds)):
                # base validated pi; every digit lies in 0..q-1 by construction.
                spec = object.__new__(GcapGeneralSpec)
                spec.__dict__.update(base.__dict__, p=tuple(row[:-1]), p0=row[-1])
                yield spec, pair


def basic_as_general_spec(spec: GcapBasicSpec) -> GcapGeneralSpec:
    """The general-construction spec whose pair is the basic spec's pair.

    Walking the x path first (shifted into z indices) and the y path second
    keeps both the x-end to y-start link edge and the q/2 offset on
    x_{pi1(1)}, so construct_gcap_basic is the general construction of it.
    """
    n, m = spec.n, spec.m
    pi = tuple(n + v for v in spec.pi1) + spec.pi2
    p = spec.lam + spec.p
    return GcapGeneralSpec(spec.q, n, m, pi, p, spec.p0)
