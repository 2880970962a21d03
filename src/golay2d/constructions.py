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

No construction evaluates a function.  Two builders make every array from
the bit planes of z_1..z_{n+m}.  _path_block makes the path arrays, for one
set of paths or one path per row.  _member_block takes a block of specs,
each path array with each (p, p0) row, and returns the members of every
spec as one range-checked block: (path + p . z + p0 + (q/2) * bits . z_S)
mod q, one row of bits over the start variables S per member.  A
construction calls it once for its one spec (_members), which first
refuses more than _CONSTRUCTION_CELLS cells of members, and the exhaustive
stream (_general_pair_stream) once per block of pairs, with bits 0 and 1
on z_pi(1).  The function API (general_gcap_function, gcas_function)
writes the same paths as canonical functions from a cached edge table.
"""

from __future__ import annotations

import functools
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
    _checked_block,
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

# The most variables, n + m, of an enumerated array: its 2^(n+m) cells fill
# _BLOCK_POINTS, and a stream block, which holds pairs, holds one.  Fixed
# when the module loads.
_ENUM_VARIABLES = _BLOCK_POINTS.bit_length() - 1

# The most cells, members times 2^(n+m), of one construction; a larger one
# is refused before its bit planes are made.  Peak memory (tracemalloc) was
# 71-94 bytes a cell for a pair or mate at n + m = 14-19, rising with
# n + m, and 26 for a 16-member set, so a build at the limit peaks near
# 0.4 GiB.
_CONSTRUCTION_CELLS = 1 << 22


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


@functools.lru_cache(maxsize=64)
def _edge_terms(half: int, size: int, paths: tuple) -> tuple:
    """Per variable l of 1..size: (l,) and the q/2 edge terms (half, (l, b)) with lower end l.

    The edges join neighbours on each path and are sorted by b, so the
    terms of l come before those of l + 1.  The table depends only on the
    paths, which every spec of one permutation in the enumeration stream
    shares, so it is built once per permutation and not once per spec.
    """
    upper = [[] for _ in range(size)]
    for path in paths:
        for a, b in zip(path, path[1:]):
            upper[min(a, b) - 1].append(max(a, b))
    return tuple(
        ((l,), tuple((half, (l, b)) for b in sorted(ends))) for l, ends in enumerate(upper, start=1)
    )


def _path_function(spec, paths) -> GeneralizedBooleanFunction:
    """spec's linear part and constant plus a q/2 edge between neighbours on each path.

    The paths of a validated spec are vertex-disjoint and its coefficients
    already lie in 0..q-1, so the terms come out canonical in one pass over
    the variables, with nothing merged, sorted or checked again: for each
    l, its nonzero linear singleton and then its edges from _edge_terms,
    since (l,) < (l, b) < (l + 1,).
    """
    terms = []
    for coeff, (single, edges) in zip(spec.p, _edge_terms(spec.q // 2, len(spec.p), paths)):
        if coeff:
            terms.append((coeff, single))
        terms += edges
    return GeneralizedBooleanFunction._canonical(spec.q, spec.n, spec.m, tuple(terms), spec.p0)


def _path_block(q: int, planes: np.ndarray, paths) -> np.ndarray:
    """q/2 times the sum of z_a z_b over neighbours a, b on each path, as int64.

    paths holds 1-indexed variables: a tuple of vertex-disjoint paths gives
    one 2^n x 2^m array, and an (N, n+m) array, one path per row, gives N.
    """
    if isinstance(paths, tuple):
        edges = [edge for path in paths for edge in zip(path, path[1:])]
        lower, upper = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    else:
        lower, upper = paths[:, :-1], paths[:, 1:]
    return q // 2 * (planes[lower - 1] & planes[upper - 1]).sum(axis=-3)


def _member_block(q: int, planes: np.ndarray, paths: np.ndarray, starts, rows, bits) -> np.ndarray:
    """The members of a block of specs as one int64 block, range-checked once.

    The specs are every path array g of paths, (G, L1, L2) from _path_block,
    with every row r of rows, (p_1, ..., p_{n+m}, p0), numbered g * K + r
    for K rows; starts holds each path array's 1-indexed start variables,
    (G, k).  Member j of spec (g, r), one per row of bits (M by k), is
    entry (g * K + r) * M + j: (paths[g] + p . z + p0 + (q/2) * bits[j] .
    z_starts[g]) mod q.
    """
    G, L1, L2 = paths.shape
    planes = planes.reshape(len(planes), L1 * L2)
    linear = rows[:, :-1] @ planes + rows[:, -1:]
    offsets = q // 2 * (bits @ planes[starts - 1])
    block = (paths.reshape(G, 1, 1, -1) + linear[:, None] + offsets[:, None]) % q
    return _checked_block(q, block.reshape(-1, L1, L2))


def _members(spec, paths, starts, bits):
    """spec's members, one per row of bits over its start variables: read-only views of one block.

    A construction of more than _CONSTRUCTION_CELLS cells is refused before
    anything is allocated.
    """
    q, n, m = spec.q, spec.n, spec.m
    if (cells := len(bits) << (n + m)) > _CONSTRUCTION_CELLS:
        raise ValueError(f"construction too large: {len(bits)} arrays of 2^{n + m} cells are "
                         f"{cells} cells, over the limit of {_CONSTRUCTION_CELLS}")
    planes = _bit_planes(n, m)
    rows = np.array([spec.p + (spec.p0,)])
    block = _member_block(q, planes, _path_block(q, planes, paths)[None], np.array([starts]), rows, bits)
    return tuple(QaryArray._view(q, entries) for entries in block)


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
    return _members(spec, (spec.pi,), spec.pi[:1], [[0], [1]])


def construct_mate(spec: GcapGeneralSpec):
    """Companion pair whose cross-correlations cancel against the main pair.

    Returns (f + (q/2) z_{pi(n+m)}, f + (q/2) z_{pi(1)} + (q/2) z_{pi(n+m)});
    the returned pair is itself complementary and is a mate of
    construct_gcap_general(spec).
    """
    return _members(spec, (spec.pi,), (spec.pi[0], spec.pi[-1]), [[0, 1], [1, 1]])


def gcas_function(spec: GcasSpec) -> GeneralizedBooleanFunction:
    """Base function of the set: one quadratic path per block plus linear part."""
    return _path_function(spec, spec.blocks)


def construct_gcas(spec: GcasSpec):
    """All 2^k arrays f + (q/2) * sum of selected block-start offsets.

    Members are ordered with the selector of blocks[0] varying fastest, so
    index t applies the offsets of every block alpha with bit alpha of t set.
    """
    bits = np.arange(1 << spec.k)[:, None] >> np.arange(spec.k) & 1
    return _members(spec, spec.blocks, [block[0] for block in spec.blocks], bits)


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
    Within the budget, n + m may not pass _ENUM_VARIABLES, so that one array
    fits in _BLOCK_POINTS cells and a stream block of pairs in twice that,
    and q^(n+m+1) must lie below 2^63, so that the index of a spec within
    its permutation, whose digits are p and p0, fits int64; these checks
    come before anything is allocated.
    The yielded arrays are read-only views into their stream block
    (_general_pair_stream), so a pair kept after the stream moves on keeps
    its block alive.
    """
    q, n, m = _check_sizes(q, n, m, "general pair", 0)
    raw = _raw_spec_count(q, n, m)
    budget = _at_least(budget, 0, "budget")
    if raw > budget:
        raise ValueError(f"enumeration budget exceeded: {raw} specs > budget {budget}")
    if n + m > _ENUM_VARIABLES:
        raise ValueError(
            f"enumeration needs n + m <= {_ENUM_VARIABLES}, got n + m = {n + m}: "
            f"one array of 2^{n + m} cells exceeds a stream block of {1 << _ENUM_VARIABLES}"
        )
    if q ** (n + m + 1) >= 1 << 63:
        raise ValueError(
            f"enumeration needs q^(n + m + 1) below 2^63, got q = {q}, n + m = {n + m}: "
            "the int64 index of a spec within its permutation would overflow"
        )
    return _general_pair_stream(q, n, m)


def _general_pair_stream(q: int, n: int, m: int):
    """The specs and pairs of enumerate_general_gcaps, a block of pairs at a time.

    A block holds the pairs of as many whole permutations as fit in
    _BLOCK_POINTS cells or, when one permutation's pairs do not fit, one
    part of one permutation, at least one pair.  _path_block makes the path
    arrays of a group of permutations once, and _member_block builds the
    pairs of every (permutation, (p, p0) row) of a block as its two
    members, bits 0 and 1 on z_pi(1), range-checked once.  The rows are
    wrapped as read-only QaryArray views one pair at a time, as their spec
    is yielded: a block never has a list of its arrays, nor one list per
    spec.  Each spec is built from the validated (q, n, m), its permutation
    tuple and its digits with no check, since a permutation of itertools
    is one and every digit lies in 0..q-1 by construction.
    """
    size = n + m
    planes = _bit_planes(n, m)
    per_pi = q ** (size + 1)
    pairs = max(1, _BLOCK_POINTS // (2 << size))
    group, part = max(1, pairs // per_pi), min(pairs, per_pi)
    # Digit t of spec index k within its permutation, most significant
    # first: k in product order of (p_1, ..., p_{n+m}, p0).
    powers = q ** np.arange(size, -1, -1, dtype=np.int64)
    permutations = itertools.permutations(range(1, size + 1))
    new, view = object.__new__, QaryArray._view
    while chosen := list(itertools.islice(permutations, group)):
        pis = np.array(chosen)
        paths = _path_block(q, planes, pis)
        for start in range(0, per_pi, part):
            digits = np.arange(start, min(start + part, per_pi), dtype=np.int64)[:, None] // powers % q
            members = iter(_member_block(q, planes, paths, pis[:, :1], digits, [[0], [1]]))
            # The p tuples are zipped from the n + m digit columns, per
            # permutation: a list per row would put thousands of objects
            # at once before the garbage collector, and its extra passes
            # show in the census tail.  The digits come first in each zip,
            # so a permutation's zip stops before it takes a pair of the next.
            p_cols, p0s = digits[:, :-1].T.tolist(), digits[:, -1].tolist()
            for pi in chosen:
                for p, p0, c, d in zip(zip(*p_cols), p0s, members, members):
                    spec = new(GcapGeneralSpec)
                    spec.__dict__.update(q=q, n=n, m=m, pi=pi, p=p, p0=p0)
                    yield spec, (view(q, c), view(q, d))


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
