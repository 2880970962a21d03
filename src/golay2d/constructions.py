"""Direct constructions of complementary array pairs, mates, and sets.

Every construction here assembles a quadratic generalized Boolean function
whose degree-2 monomials trace a path (or several vertex-disjoint paths)
through the variables z_1..z_{n+m}, with weight q/2 on each edge, plus
arbitrary linear terms and a constant.  Companion arrays are obtained by
adding q/2 offsets on path endpoints.  Permutations use 1-indexed one-line
notation: pi = (3, 4, 2, 1, 5) means pi(1) = 3.

The exhaustive stream of the general pair construction evaluates no
function per spec: the linear part and constant only add a fixed
combination of bit planes to the path array of pi, so every pair of one pi
comes from one block of integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .boolfunc import _BLOCK_POINTS, GeneralizedBooleanFunction, QaryArray, _bit_planes, require_even_q

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
    "basic_gcap_function",
    "general_gcap_function",
    "gcas_function",
    "gcas_offsets",
    "count_general_gcaps",
    "enumerate_general_gcaps",
    "basic_as_general_spec",
    "DEFAULT_ENUM_BUDGET",
]

DEFAULT_ENUM_BUDGET = 1 << 22


def _check_permutation(pi, size: int, name: str):
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(1, size + 1)):
        raise ValueError(f"{name} must be a permutation of 1..{size}, got {pi}")
    return pi


def _check_coeffs(p, size: int, q: int, name: str):
    if p is None:
        return (0,) * size
    p = tuple(int(v) % q for v in p)
    if len(p) != size:
        raise ValueError(f"{name} must have length {size}, got {len(p)}")
    return p


def _check_blocks(blocks, size: int):
    blocks = tuple(tuple(int(v) for v in b) for b in blocks)
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
        q = require_even_q(self.q)
        if self.n < 1 or self.m < 1:
            raise ValueError("the basic pair construction needs n >= 1 and m >= 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi1", _check_permutation(self.pi1, self.m, "pi1"))
        object.__setattr__(self, "pi2", _check_permutation(self.pi2, self.n, "pi2"))
        object.__setattr__(self, "p", _check_coeffs(self.p, self.m, q, "p"))
        object.__setattr__(self, "lam", _check_coeffs(self.lam, self.n, q, "lam"))
        object.__setattr__(self, "p0", int(self.p0) % q)


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
        q = require_even_q(self.q)
        if self.n < 0 or self.m < 0 or self.n + self.m < 2:
            raise ValueError("the general pair construction needs n + m >= 2")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi", _check_permutation(self.pi, self.n + self.m, "pi"))
        object.__setattr__(self, "p", _check_coeffs(self.p, self.n + self.m, q, "p"))
        object.__setattr__(self, "p0", int(self.p0) % q)


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
        q = require_even_q(self.q)
        if self.n < 0 or self.m < 0 or self.n + self.m < 2:
            raise ValueError("the set construction needs n + m >= 2")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "blocks", _check_blocks(self.blocks, self.n + self.m))
        object.__setattr__(self, "p", _check_coeffs(self.p, self.n + self.m, q, "p"))
        object.__setattr__(self, "p0", int(self.p0) % q)

    @property
    def k(self) -> int:
        return len(self.blocks)


def _path_terms(path, half: int):
    return [(half, (path[l], path[l + 1])) for l in range(len(path) - 1)]


def _linear_terms(p):
    return [(coeff, (l,)) for l, coeff in enumerate(p, start=1) if coeff]


def gdj_pair(q, m, pi, p=None, p0=0):
    """Length-2^m complementary sequence pair from a quadratic path function.

    Returns two single-row arrays (f, f + (q/2) x_{pi(1)}); needs m >= 2.
    """
    q = require_even_q(q)
    if m < 2:
        raise ValueError("the sequence pair construction needs m >= 2")
    pi = _check_permutation(pi, m, "pi")
    p = _check_coeffs(p, m, q, "p")
    half = q // 2
    f = GeneralizedBooleanFunction(
        q, 0, m, _path_terms(pi, half) + _linear_terms(p), constant=p0
    )
    return f.to_array(), f.add_term(half, (pi[0],)).to_array()


def gcs_1d(q, m, blocks, p=None, p0=0):
    """Set of 2^k length-2^m sequences whose autocorrelations sum to zero.

    blocks is an ordered partition of {1..m} into k paths.  The 2^k offset
    combinations are emitted with the selector of blocks[0] varying fastest.
    """
    q = require_even_q(q)
    if m < 2:
        raise ValueError("the sequence set construction needs m >= 2")
    blocks = _check_blocks(blocks, m)
    p = _check_coeffs(p, m, q, "p")
    half = q // 2
    terms = []
    for block in blocks:
        terms += _path_terms(block, half)
    f = GeneralizedBooleanFunction(q, 0, m, terms + _linear_terms(p), constant=p0)
    out = []
    for t in range(1 << len(blocks)):
        g = f
        for alpha, block in enumerate(blocks):
            if (t >> alpha) & 1:
                g = g.add_term(half, (block[0],))
        out.append(g.to_array())
    return tuple(out)


def basic_gcap_function(spec: GcapBasicSpec) -> GeneralizedBooleanFunction:
    """First array's function: x path, y path, and the x-end to y-start link."""
    q, n, m = spec.q, spec.n, spec.m
    half = q // 2
    x = tuple(n + v for v in spec.pi1)
    y = spec.pi2
    terms = _path_terms(x, half) + _path_terms(y, half)
    terms.append((half, (x[-1], y[0])))
    terms += [(coeff, (n + l,)) for l, coeff in enumerate(spec.p, start=1) if coeff]
    terms += [(coeff, (s,)) for s, coeff in enumerate(spec.lam, start=1) if coeff]
    return GeneralizedBooleanFunction(q, n, m, terms, constant=spec.p0)


def construct_gcap_basic(spec: GcapBasicSpec):
    """Complementary 2^n x 2^m array pair (f, f + (q/2) x_{pi1(1)})."""
    f = basic_gcap_function(spec)
    d = f.add_term(spec.q // 2, (spec.n + spec.pi1[0],))
    return f.to_array(), d.to_array()


def general_gcap_function(spec: GcapGeneralSpec) -> GeneralizedBooleanFunction:
    """First array's function: one path through all of z_1..z_{n+m}."""
    half = spec.q // 2
    terms = _path_terms(spec.pi, half) + _linear_terms(spec.p)
    return GeneralizedBooleanFunction(spec.q, spec.n, spec.m, terms, constant=spec.p0)


def construct_gcap_general(spec: GcapGeneralSpec):
    """Complementary 2^n x 2^m array pair (f, f + (q/2) z_{pi(1)})."""
    f = general_gcap_function(spec)
    d = f.add_term(spec.q // 2, (spec.pi[0],))
    return f.to_array(), d.to_array()


def construct_mate(spec: GcapGeneralSpec):
    """Companion pair whose cross-correlations cancel against the main pair.

    Returns (f + (q/2) z_{pi(n+m)}, f + (q/2) z_{pi(1)} + (q/2) z_{pi(n+m)});
    the returned pair is itself complementary and is a mate of
    construct_gcap_general(spec).
    """
    half = spec.q // 2
    f = general_gcap_function(spec)
    c_mate = f.add_term(half, (spec.pi[-1],))
    d_mate = c_mate.add_term(half, (spec.pi[0],))
    return c_mate.to_array(), d_mate.to_array()


def gcas_function(spec: GcasSpec) -> GeneralizedBooleanFunction:
    """Base function of the set: one quadratic path per block plus linear part."""
    half = spec.q // 2
    terms = []
    for block in spec.blocks:
        terms += _path_terms(block, half)
    terms += _linear_terms(spec.p)
    return GeneralizedBooleanFunction(spec.q, spec.n, spec.m, terms, constant=spec.p0)


def gcas_offsets(spec: GcasSpec, t: int):
    """Offset variables switched on for the t-th member (selector of block 1 is bit 0)."""
    return tuple(
        block[0] for alpha, block in enumerate(spec.blocks) if (t >> alpha) & 1
    )


def construct_gcas(spec: GcasSpec):
    """All 2^k arrays f + (q/2) * sum of selected block-start offsets.

    Members are ordered with the selector of blocks[0] varying fastest, so
    index t applies the offsets of every block alpha with bit alpha of t set.
    """
    half = spec.q // 2
    f = gcas_function(spec)
    out = []
    for t in range(1 << spec.k):
        g = f
        for v in gcas_offsets(spec, t):
            g = g.add_term(half, (v,))
        out.append(g.to_array())
    return tuple(out)


def _raw_spec_count(q, n, m) -> int:
    """(n+m)! * q^(n+m+1): the number of (pi, p, p0) choices of the general pair construction."""
    q = require_even_q(q)
    for name, size in (("n", n), ("m", m)):
        if size < 0:
            raise ValueError(f"{name} must be at least 0, got {size}")
    if n + m < 2:
        raise ValueError("the general pair construction needs n + m >= 2")
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
    q = require_even_q(q)
    raw = _raw_spec_count(q, n, m)
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
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
        path = general_gcap_function(GcapGeneralSpec(q, n, m, pi)).to_array().entries.reshape(-1)
        offset = half * flat[pi[0] - 1]
        for start in range(0, per_pi, step):
            digits = np.arange(start, min(start + step, per_pi))[:, None] // powers % q
            c = (path + digits[:, :-1] @ flat + digits[:, -1:]) % q
            d = (c + offset) % q
            firsts = QaryArray._stack(q, c.reshape(-1, *shape))
            seconds = QaryArray._stack(q, d.reshape(-1, *shape))
            for row, pair in zip(digits.tolist(), zip(firsts, seconds)):
                yield GcapGeneralSpec(q, n, m, pi, row[:-1], row[-1]), pair


def basic_as_general_spec(spec: GcapBasicSpec) -> GcapGeneralSpec:
    """General-construction spec reproducing a basic spec's pair exactly.

    Walking the x path first (shifted into z indices) and the y path second
    keeps both the link edge and the q/2 offset on x_{pi1(1)}, so the two
    constructions emit identical array pairs.
    """
    n, m = spec.n, spec.m
    pi = tuple(n + v for v in spec.pi1) + spec.pi2
    p = spec.lam + spec.p
    return GcapGeneralSpec(spec.q, n, m, pi, p, spec.p0)
