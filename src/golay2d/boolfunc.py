"""Generalized Boolean functions over Z_q and the q-ary phase arrays they generate.

A generalized Boolean function maps {0,1}^(n+m) to Z_q and is kept in algebraic
normal form: a set of monomials coeff * z_{l1} * ... * z_{lr} with coefficients
in Z_q, plus a constant.  The first n variables are the row variables (y_1..y_n)
and the remaining m are the column variables (x_1..x_m), so z_l = y_l for
l <= n and z_l = x_{l-n} for l > n.

Bit order is little endian throughout: the array cell (g, i) assigns
y_h = bit h-1 of g and x_j = bit j-1 of i, i.e. g = sum_h g_h 2^(h-1).
Every frozen reference array in the test suite depends on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VariableRole",
    "z_role",
    "GeneralizedBooleanFunction",
    "QaryArray",
    "function_from_array",
]


def require_even_q(q) -> int:
    """Validate the alphabet size.  Only even q is supported; odd q is rejected."""
    if int(q) != q or q < 2 or q % 2 != 0:
        raise ValueError(f"alphabet size q must be an even integer >= 2, got {q!r}")
    return int(q)


@dataclass(frozen=True)
class VariableRole:
    """Role of the variable z_index: a row bit (axis 'y') or a column bit (axis 'x')."""

    index: int
    axis: str
    axis_index: int

    @property
    def label(self) -> str:
        return f"{self.axis}{self.axis_index}"


def z_role(l: int, n: int, m: int) -> VariableRole:
    """Map a variable index to its row/column role.

    z_l is the row variable y_l for 1 <= l <= n and the column variable
    x_{l-n} for n < l <= n+m.
    """
    if not 1 <= l <= n + m:
        raise ValueError(f"variable index {l} outside 1..{n + m}")
    if l <= n:
        return VariableRole(l, "y", l)
    return VariableRole(l, "x", l - n)


# Most elements (cells, samples or phase terms) one block of a vectorised
# kernel holds, so that memory stays bounded; papr and the enumeration stream
# both work in blocks of this size.
_BLOCK_POINTS = 1 << 15


def _bit_planes(n: int, m: int) -> np.ndarray:
    """The variables z_1..z_{n+m} on the 2^n x 2^m grid, as booleans.

    planes[l - 1, g, i] is z_l at cell (g, i) under the little-endian bit
    assignment: bit l-1 of the word g | (i << n).  Shape (n+m, 2^n, 2^m).
    """
    words = np.arange(1 << n)[:, None] | (np.arange(1 << m)[None, :] << n)
    return (words >> np.arange(n + m)[:, None, None]) & 1 == 1


class GeneralizedBooleanFunction:
    """Z_q-valued polynomial in binary variables z_1..z_{n+m}, in canonical ANF.

    Terms are (coeff, variables) pairs.  On construction, duplicate variable
    sets are merged mod q, zero-coefficient terms are dropped, and terms with
    no variables are folded into the constant, so equal functions compare and
    hash equal.  Instances are immutable.
    """

    __slots__ = ("q", "n", "m", "terms", "constant", "_masks")

    def __init__(self, q, n, m, terms=(), constant=0):
        q = require_even_q(q)
        n, m = int(n), int(m)
        if n < 0 or m < 0 or n + m < 1:
            raise ValueError("need n >= 0, m >= 0 and n + m >= 1")
        const = int(constant) % q
        merged: dict[tuple[int, ...], int] = {}
        for coeff, variables in terms:
            key = tuple(sorted({int(v) for v in variables}))
            for v in key:
                if not 1 <= v <= n + m:
                    raise ValueError(f"variable z_{v} outside 1..{n + m}")
            if not key:
                const = (const + int(coeff)) % q
                continue
            merged[key] = (merged.get(key, 0) + int(coeff)) % q
        self.q = q
        self.n = n
        self.m = m
        self.constant = const
        self.terms = tuple(
            (c, vs) for vs, c in sorted(merged.items()) if c
        )
        self._masks = tuple(
            (sum(1 << (v - 1) for v in vs), c) for c, vs in self.terms
        )

    @property
    def num_vars(self) -> int:
        return self.n + self.m

    @property
    def degree(self) -> int:
        return max((len(vs) for _, vs in self.terms), default=0)

    def evaluate(self, g: int, i: int) -> int:
        """Value at row index g and column index i (little-endian bit assignment)."""
        if not 0 <= g < (1 << self.n):
            raise ValueError(f"row index {g} outside 0..{(1 << self.n) - 1}")
        if not 0 <= i < (1 << self.m):
            raise ValueError(f"column index {i} outside 0..{(1 << self.m) - 1}")
        word = g | (i << self.n)
        total = self.constant
        for mask, coeff in self._masks:
            if word & mask == mask:
                total += coeff
        return total % self.q

    def to_array(self) -> "QaryArray":
        """Evaluate on the full 2^n x 2^m grid."""
        planes = _bit_planes(self.n, self.m)
        out = np.full(planes.shape[1:], self.constant, dtype=np.int64)
        for coeff, vs in self.terms:
            monomial = planes[vs[0] - 1]
            for v in vs[1:]:
                monomial = monomial & planes[v - 1]
            out += coeff * monomial
        return QaryArray(self.q, out % self.q)

    def add_term(self, coeff, variables) -> "GeneralizedBooleanFunction":
        """New function with coeff * prod(z_v) added (canonicalized)."""
        return GeneralizedBooleanFunction(
            self.q, self.n, self.m,
            self.terms + ((coeff, tuple(variables)),),
            self.constant,
        )

    def add_constant(self, value) -> "GeneralizedBooleanFunction":
        return GeneralizedBooleanFunction(
            self.q, self.n, self.m, self.terms, self.constant + int(value)
        )

    def to_string(self, style: str = "z") -> str:
        """Readable form, e.g. '2*z1 + z2 + 3*z3*z5 + 2*z4' or the y/x equivalent."""
        if style not in ("z", "xy"):
            raise ValueError("style must be 'z' or 'xy'")
        parts = []
        for coeff, vs in self.terms:
            names = [
                f"z{v}" if style == "z" else z_role(v, self.n, self.m).label
                for v in vs
            ]
            stem = "*".join(names)
            parts.append(stem if coeff == 1 else f"{coeff}*{stem}")
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)

    def _key(self):
        return (self.q, self.n, self.m, self.terms, self.constant)

    def __eq__(self, other):
        if not isinstance(other, GeneralizedBooleanFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"GeneralizedBooleanFunction(q={self.q}, n={self.n}, m={self.m}, "
            f"{self.to_string()!r})"
        )


def _frozen_phases(q: int, arr: np.ndarray, ndim: int) -> np.ndarray:
    """arr made read-only, once it is checked to be nonempty, ndim-D and within 0..q-1."""
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"entries must form a nonempty {ndim}-D array")
    if ((arr < 0) | (arr >= q)).any():
        raise ValueError(f"entries must lie in 0..{q - 1}")
    arr.setflags(write=False)
    return arr


class QaryArray:
    """Immutable L1 x L2 array of phases in Z_q.

    The complex array it stands for is xi ** entries with
    xi = exp(2*pi*sqrt(-1)/q); that view is derived on demand, never stored.
    Constructions produce power-of-two sizes, but any positive shape is
    accepted so hand-written inputs can be verified.
    """

    __slots__ = ("q", "entries")

    def __init__(self, q, entries):
        q = require_even_q(q)
        arr = np.asarray(entries)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"entries must be integers, got dtype {arr.dtype}")
        # One copy: a list or tuple was just converted, anything else may be shared.
        arr = arr.astype(np.int64, copy=not isinstance(entries, (list, tuple)))
        self.q = q
        self.entries = _frozen_phases(q, arr, 2)

    @classmethod
    def _stack(cls, q: int, block: np.ndarray) -> list["QaryArray"]:
        """Wrap each entry of an int64 block of shape (N, L1, L2), without copying.

        The whole block is range-checked once and made read-only; every
        array returned holds a read-only view of one entry, so each keeps
        the whole block alive while it lives.
        """
        if block.dtype != np.int64:
            raise ValueError(f"block must be int64, got dtype {block.dtype}")
        block = _frozen_phases(q, block, 3)
        out = []
        for entries in block:
            arr = object.__new__(cls)
            arr.q = q
            arr.entries = entries
            out.append(arr)
        return out

    @classmethod
    def from_sequence(cls, q, values) -> "QaryArray":
        """Wrap a 1-D sequence as a single-row array."""
        vals = np.asarray(list(values), dtype=np.int64)
        if vals.ndim != 1:
            raise ValueError("expected a flat sequence of integers")
        return cls(q, vals[None, :])

    @property
    def L1(self) -> int:
        return self.entries.shape[0]

    @property
    def L2(self) -> int:
        return self.entries.shape[1]

    def row(self, g: int) -> np.ndarray:
        return self.entries[g, :]

    def column(self, i: int) -> np.ndarray:
        return self.entries[:, i]

    def sequence(self) -> tuple[int, ...]:
        """Entries as a flat tuple; only valid for single-row arrays."""
        if self.L1 != 1:
            raise ValueError(f"array is {self.L1}x{self.L2}, not a 1-D sequence")
        return tuple(int(x) for x in self.entries[0])

    def to_complex(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.entries / self.q)

    def _key(self):
        return (self.q, self.entries.shape, self.entries.tobytes())

    def __eq__(self, other):
        if not isinstance(other, QaryArray):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QaryArray(q={self.q}, {self.L1}x{self.L2})"


def function_from_array(arr: QaryArray, n: int, m: int) -> GeneralizedBooleanFunction:
    """Recover the unique ANF of a 2^n x 2^m array over Z_q.

    Inverts the evaluation map by the binary Moebius transform
    a_S = sum_{T subset S} (-1)^(|S|-|T|) f(T) mod q, computed in place one
    variable at a time.
    """
    if arr.L1 != 1 << n or arr.L2 != 1 << m:
        raise ValueError(
            f"array is {arr.L1}x{arr.L2}; expected {1 << n}x{1 << m} for n={n}, m={m}"
        )
    q = arr.q
    nvars = n + m
    coeffs = [
        int(arr.entries[w & ((1 << n) - 1), w >> n]) for w in range(1 << nvars)
    ]
    for b in range(nvars):
        bit = 1 << b
        for w in range(1 << nvars):
            if w & bit:
                coeffs[w] = (coeffs[w] - coeffs[w ^ bit]) % q
    terms = []
    for w in range(1, 1 << nvars):
        if coeffs[w]:
            vs = tuple(l + 1 for l in range(nvars) if w & (1 << l))
            terms.append((coeffs[w], vs))
    return GeneralizedBooleanFunction(q, n, m, terms, constant=coeffs[0])
