"""A frozen digest of the CLI's displayed correlation values on a seeded corpus.

The corpus covers q in {2, 4, 6, 8, 12} and shapes up to 11x11, powers of two
or not: random pairs, sets and mate quadruples (which fail at almost every
shift) and corner-mutated constructed pairs.  For each it runs `verify` with
--max-violations set to every shift, so every violation value is printed,
and exports `corr` tables as CSV and JSON.  The sha256 of all exit codes and
outputs was recorded from the per-value implementation (one CorrelationValue
and one cmath sum per displayed shift); any other implementation must print
the same bytes, violation floats included.
"""

import hashlib

import numpy as np

from golay2d import QaryArray, construct_gcap_general, formats
from golay2d.cli import main

from helpers import random_general_spec

EXPECTED_SHA256 = "1e09002eed04787cff8dc04039dc6017a0120d7407b75b16b59356468e60731b"

Q_VALUES = (2, 4, 6, 8, 12)


def _corpus():
    """Lists of same-sized arrays; the first two of each form a pair."""
    rng = np.random.default_rng(20260)
    for k in range(60):
        q = Q_VALUES[k % len(Q_VALUES)]
        L1, L2 = (int(v) for v in rng.integers(1, 12, 2))
        yield [QaryArray(q, rng.integers(0, q, (L1, L2))) for _ in range(4)]
    for q, n, m in ((2, 1, 2), (4, 2, 1), (8, 1, 3), (2, 2, 2), (4, 0, 3)):
        c, d = construct_gcap_general(random_general_spec(rng, q=q, n=n, m=m))
        entries = c.entries.copy()
        entries[0, 0] = (entries[0, 0] + 1) % q
        yield [QaryArray(q, entries), d, c, d]


def _outputs(capsys):
    """Run every command in the current directory; file names are relative."""
    digest = hashlib.sha256()

    def run(argv):
        code = main(argv)
        digest.update(f"{' '.join(argv)} exit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())

    for k, arrays in enumerate(_corpus()):
        paths = []
        for t, arr in enumerate(arrays):
            path = f"a{k}_{t}.csv"
            formats.save_array(arr, path)
            paths.append(path)
        L1, L2 = arrays[0].L1, arrays[0].L2
        every = str((2 * L1 - 1) * (2 * L2 - 1))
        run(["verify", "gcap", *paths[:2], "--max-violations", every])
        run(["verify", "gcas", *paths[:3], "--max-violations", every])
        run(["verify", "mate", *paths, "--max-violations", every])
        if L1 == 1:
            run(["verify", "gcs", *paths[:2], "--max-violations", every])
        run(["corr", paths[0]])
        run(["corr", paths[0], "--format", "json"])
        run(["corr", paths[0], paths[1], "--cross"])
        run(["corr", paths[0], paths[1], "--cross", "--format", "json"])
    return digest.hexdigest()


def test_displayed_values_match_the_frozen_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _outputs(capsys) == EXPECTED_SHA256
