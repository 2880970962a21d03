"""Shared helpers: seeded random spec generators, a naive correlation oracle, a sampled PAPR oracle and a value counter."""

import numpy as np

from golay2d import CorrelationValue, GcapBasicSpec, GcapGeneralSpec, GcasSpec, QaryArray

Q_CHOICES = (2, 4, 8)
N_CHOICES = (1, 2)
M_CHOICES = (2, 3)


def random_general_spec(rng, q=None, n=None, m=None) -> GcapGeneralSpec:
    q = q or int(rng.choice(Q_CHOICES))
    n = n if n is not None else int(rng.choice(N_CHOICES))
    m = m if m is not None else int(rng.choice(M_CHOICES))
    pi = tuple(int(v) for v in rng.permutation(n + m) + 1)
    p = tuple(int(v) for v in rng.integers(0, q, n + m))
    return GcapGeneralSpec(q, n, m, pi, p, int(rng.integers(0, q)))


def random_basic_spec(rng, q=None, n=None, m=None) -> GcapBasicSpec:
    q = q or int(rng.choice(Q_CHOICES))
    n = n if n is not None else int(rng.choice(N_CHOICES))
    m = m if m is not None else int(rng.choice(M_CHOICES))
    pi1 = tuple(int(v) for v in rng.permutation(m) + 1)
    pi2 = tuple(int(v) for v in rng.permutation(n) + 1)
    p = tuple(int(v) for v in rng.integers(0, q, m))
    lam = tuple(int(v) for v in rng.integers(0, q, n))
    return GcapBasicSpec(q, n, m, pi1, pi2, p, lam, int(rng.integers(0, q)))


def random_gcas_spec(rng, q=None, n=None, m=None) -> GcasSpec:
    q = q or int(rng.choice(Q_CHOICES))
    n = n if n is not None else int(rng.choice(N_CHOICES))
    m = m if m is not None else int(rng.choice(M_CHOICES))
    order = [int(v) for v in rng.permutation(n + m) + 1]
    k = int(rng.integers(1, n + m + 1))
    cuts = sorted(rng.choice(np.arange(1, n + m), size=k - 1, replace=False)) if k > 1 else []
    blocks, start = [], 0
    for cut in list(cuts) + [n + m]:
        blocks.append(tuple(order[start:cut]))
        start = cut
    p = tuple(int(v) for v in rng.integers(0, q, n + m))
    return GcasSpec(q, n, m, tuple(blocks), p, int(rng.integers(0, q)))


def sampled_max(rows: np.ndarray, q: int, oversampling: int) -> np.ndarray:
    """Largest of oversampling * L uniform samples of |S(t)|^2 / L, per row."""
    L = rows.shape[1]
    z = np.exp(2j * np.pi * rows / q)
    return (np.abs(np.fft.fft(z, oversampling * L, axis=1)) ** 2).max(axis=1) / L


def random_array(rng, q=None, L1=None, L2=None) -> QaryArray:
    q = q or int(rng.choice(Q_CHOICES))
    L1 = L1 or int(rng.integers(1, 5))
    L2 = L2 or int(rng.integers(1, 9))
    return QaryArray(q, rng.integers(0, q, (L1, L2)))


def naive_cross_correlation(c: QaryArray, d: QaryArray, u1: int, u2: int) -> complex:
    """Double-loop complex-arithmetic evaluation, first array shifted."""
    zc, zd = c.to_complex(), d.to_complex()
    total = 0j
    for g in range(c.L1):
        for i in range(c.L2):
            gg, ii = g + u1, i + u2
            if 0 <= gg < c.L1 and 0 <= ii < c.L2:
                total += zc[gg, ii] * np.conj(zd[g, i])
    return total


def count_value_inits(monkeypatch) -> list:
    """A list that gains one entry per CorrelationValue built from now on."""
    calls = []
    original = CorrelationValue.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CorrelationValue, "__init__", counting)
    return calls


def assert_same_result(result, reference):
    """Two VerificationResults agree field for field: centre counts, and each listed value's bits."""
    assert result == reference
    assert result.center_value.counts == reference.center_value.counts
    bits = [(shift, value.real.hex(), value.imag.hex()) for shift, value in result.violations]
    assert bits == [(shift, value.real.hex(), value.imag.hex()) for shift, value in reference.violations]
