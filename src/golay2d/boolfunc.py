"""Generalized Boolean functions over Z_q and the q-ary phase arrays they generate.

A generalized Boolean function maps {0,1}^(n+m) to Z_q and is kept in algebraic
normal form: a set of monomials coeff * z_{l1} * ... * z_{lr} with coefficients
in Z_q, plus a constant.  The first n variables are the row variables (y_1..y_n)
and the remaining m are the column variables (x_1..x_m), so z_l = y_l for
l <= n and z_l = x_{l-n} for l > n.

Bit order is little endian throughout: the array cell (g, i) assigns
y_h = bit h-1 of g and x_j = bit j-1 of i, i.e. g = sum_h g_h 2^(h-1).
Every frozen reference array in the test suite depends on this convention.

This module is also the package's one place for input checks.  _int, _ints,
_at_least, require_even_q and _require_uniform decide whether an integer, a
list of integers, a size, cap or budget, an alphabet, or a group of arrays
is acceptable; every other module calls them rather than checking or
coercing on its own.  An integer is a Python or numpy integer, never a
bool, float or string, and anything else raises ValueError naming the field.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VariableRole",
    "z_role",
    "GeneralizedBooleanFunction",
    "QaryArray",
    "function_from_array",
]


def _int(value, name: str) -> int:
    """value as an int: Python and numpy integers pass; bool, float and str do not."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_sequence(values) -> bool:
    """Whether values is a list, tuple or array; a string is not."""
    return isinstance(values, (tuple, list)) or (
        isinstance(values, (np.ndarray, Sequence)) and not isinstance(values, (str, bytes)))


def _ints(values, name: str) -> tuple[int, ...]:
    """values as a tuple of ints, from a sequence of Python or numpy integers."""
    if _is_sequence(values) and bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    raise ValueError(f"{name} must be a list of integers, got {values!r}")


def _at_least(value, least: int, name: str) -> int:
    """value as an int that is at least `least`, such as a size, cap or budget."""
    value = _int(value, name)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _int_array(values, name: str) -> np.ndarray:
    """values as a C-ordered int64 array of its own; a ragged, bool or float input fails."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses ragged nested lists
        arr = None
    # An empty list is float64 to numpy; its shape is the caller's to judge.
    if arr is None or (arr.dtype.kind not in "iu" and arr.size):
        got = "a ragged list" if arr is None else f"dtype {arr.dtype}"
        raise ValueError(f"{name} must be a rectangular array of integers, got {got}")
    # One copy: a list or tuple was just converted, anything else may be shared.
    return arr.astype(np.int64, order="C", copy=not isinstance(values, (list, tuple)))


def require_even_q(q) -> int:
    """Validate the alphabet size.  Only even q is supported; odd q is rejected."""
    q = _int(q, "q")
    if q < 2 or q % 2 != 0:
        raise ValueError(f"alphabet size q must be an even integer >= 2, got {q!r}")
    return q


def _require_uniform(arrays):
    """arrays as a nonempty list, once every array shares the first one's q and shape."""
    arrays = list(arrays)
    if not arrays:
        raise ValueError("need at least one array")
    q, L1, L2 = arrays[0].q, arrays[0].L1, arrays[0].L2
    for a in arrays[1:]:
        if a.q != q:
            raise ValueError(f"alphabet mismatch: q={q} vs q={a.q}")
        if (a.L1, a.L2) != (L1, L2):
            raise ValueError(f"shape mismatch: {L1}x{L2} vs {a.L1}x{a.L2}")
    return arrays


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
    l, n, m = _int(l, "l"), _at_least(n, 0, "n"), _at_least(m, 0, "m")
    if not 1 <= l <= n + m:
        raise ValueError(f"variable index {l} outside 1..{n + m}")
    if l <= n:
        return VariableRole(l, "y", l)
    return VariableRole(l, "x", l - n)


# Most elements (cells, samples or phase terms) one block of a vectorised
# kernel holds, so that memory stays bounded; papr and the enumeration stream
# both work in blocks of this size.
_BLOCK_POINTS = 1 << 15


@functools.lru_cache(maxsize=8)
def _bit_planes(n: int, m: int) -> np.ndarray:
    """The variables z_1..z_{n+m} on the 2^n x 2^m grid, as booleans.

    planes[l - 1, g, i] is z_l at cell (g, i) under the little-endian bit
    assignment: bit l-1 of the word g | (i << n).  Shape (n+m, 2^n, 2^m).
    The array is read-only and shared by every call with the same (n, m):
    each construction and each block of the enumeration stream needs it.
    Each plane is broadcast from one column (a row variable) or one row (a
    column variable) of bits, so no temporary as large as the planes exists.
    """
    planes = np.empty((n + m, 1 << n, 1 << m), dtype=bool)
    planes[:n] = np.arange(1 << n)[:, None] >> np.arange(n)[:, None, None] & 1
    planes[n:] = np.arange(1 << m) >> np.arange(m)[:, None, None] & 1
    planes.setflags(write=False)
    return planes


class GeneralizedBooleanFunction:
    """Z_q-valued polynomial in binary variables z_1..z_{n+m}, in canonical ANF.

    Terms are (coeff, variables) pairs.  On construction, duplicate variable
    sets are merged mod q, zero-coefficient terms are dropped, and terms with
    no variables are folded into the constant, so equal functions compare and
    hash equal.  Instances are immutable.
    """

    __slots__ = ("q", "n", "m", "terms", "constant")

    def __init__(self, q, n, m, terms=(), constant=0):
        q = require_even_q(q)
        n, m = _at_least(n, 0, "n"), _at_least(m, 0, "m")
        _at_least(n + m, 1, "n + m")
        const = _int(constant, "constant") % q
        merged: dict[tuple[int, ...], int] = {}
        for coeff, variables in terms:
            coeff = _int(coeff, "coeff")
            key = tuple(sorted(set(_ints(variables, "vars"))))
            for v in key:
                if not 1 <= v <= n + m:
                    raise ValueError(f"variable z_{v} outside 1..{n + m}")
            if not key:
                const = (const + coeff) % q
                continue
            merged[key] = (merged.get(key, 0) + coeff) % q
        self.q = q
        self.n = n
        self.m = m
        self.constant = const
        self.terms = tuple(
            (c, vs) for vs, c in sorted(merged.items()) if c
        )

    @classmethod
    def _canonical(cls, q: int, n: int, m: int, terms: tuple, constant: int):
        """Wrap terms that are already canonical, without merging or checking them.

        The caller guarantees what __init__ would establish: q, n and m are
        valid, constant lies in 0..q-1, and terms is a tuple of (coeff, vars)
        sorted strictly by vars, each coeff in 1..q-1 and each vars a sorted
        tuple of distinct variables in 1..n+m.
        """
        f = object.__new__(cls)
        f.q, f.n, f.m, f.terms, f.constant = q, n, m, terms, constant
        return f

    @property
    def num_vars(self) -> int:
        return self.n + self.m

    @property
    def degree(self) -> int:
        return max((len(vs) for _, vs in self.terms), default=0)

    def evaluate(self, g: int, i: int) -> int:
        """Value at row index g and column index i (little-endian bit assignment)."""
        g, i = _int(g, "g"), _int(i, "i")
        if not 0 <= g < (1 << self.n):
            raise ValueError(f"row index {g} outside 0..{(1 << self.n) - 1}")
        if not 0 <= i < (1 << self.m):
            raise ValueError(f"column index {i} outside 0..{(1 << self.m) - 1}")
        word = g | (i << self.n)
        total = self.constant
        for coeff, vs in self.terms:
            if all(word >> (v - 1) & 1 for v in vs):
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
            self.q, self.n, self.m, self.terms, self.constant + _int(value, "value")
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


def _checked_block(q: int, block: np.ndarray) -> np.ndarray:
    """An int64 block of shape (N, L1, L2), range-checked once and made read-only, without copying.

    Its entries are what QaryArray._view wraps: each is a read-only view,
    so an array wrapped from it keeps the whole block alive while it lives.
    """
    if block.dtype != np.int64:
        raise ValueError(f"block must be int64, got dtype {block.dtype}")
    return _frozen_phases(q, block, 3)


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
        self.q = q
        self.entries = _frozen_phases(q, _int_array(entries, "entries"), 2)

    @classmethod
    def _view(cls, q: int, entries: np.ndarray) -> "QaryArray":
        """Wrap one entry of a _checked_block as it is, without copying or checking it again."""
        arr = object.__new__(cls)
        arr.q = q
        arr.entries = entries
        return arr

    @classmethod
    def from_sequence(cls, q, values) -> "QaryArray":
        """Wrap a 1-D sequence as a single-row array."""
        vals = np.asarray(_ints(list(values), "sequence"), dtype=np.int64)
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
    n, m = _at_least(n, 0, "n"), _at_least(m, 0, "m")
    if arr.L1 != 1 << n or arr.L2 != 1 << m:
        raise ValueError(
            f"array is {arr.L1}x{arr.L2}; expected {1 << n}x{1 << m} for n={n}, m={m}"
        )
    q, nvars = arr.q, n + m
    # index w of coeffs is g | (i << n) for the cell (g, i)
    coeffs = arr.entries.T.reshape(-1).copy()
    for b in range(nvars):
        halves = coeffs.reshape(-1, 2, 1 << b)
        halves[:, 1] = (halves[:, 1] - halves[:, 0]) % q
    terms = [
        (coeffs[w], tuple(l + 1 for l in range(nvars) if w >> l & 1))
        for w in (np.flatnonzero(coeffs[1:]) + 1).tolist()
    ]
    return GeneralizedBooleanFunction(q, n, m, terms, constant=coeffs[0])
