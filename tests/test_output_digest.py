"""A frozen digest of the CLI's displayed correlation values on a seeded corpus.

The corpus covers q in {2, 4, 6, 8, 12} and shapes up to 11x11, powers of two
or not: random pairs, sets and mate quadruples (which fail at almost every
shift) and corner-mutated constructed pairs.  For each it runs `verify` with
--max-violations set to every shift, so every violation value is printed,
and exports `corr` tables as CSV and JSON.  The sha256 of all exit codes and
outputs was recorded from the per-value implementation (one CorrelationValue
and one cmath sum per displayed shift); any other implementation must print
the same bytes, violation floats included.

A second digest freezes what the constructions emit: `gen` for every kind,
in both formats and with --cite, on seeded random specs (q in {2, 4, 6, 8,
12}, 1 <= n, m <= 3, 1-D kinds of length 2^(n+m)), plus `enumerate --dump`
for five (q, n, m).  It was recorded before the constructions were folded
into one path, so any construction code must write the same files.

A third digest freezes the `papr` text report: the first array of every
pair kind from the same seeded specs (square and non-square), with and
without --spec, at the default oversampling and at --oversample 16.  It
was recorded before rows and columns were printed through one loop.  Only
the text is hashed: the --json floats may move in their last bits with the
BLAS kernel, and the text rounds them to six decimals.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from golay2d import QaryArray, construct_gcap_general, formats
from golay2d.cli import main

from helpers import random_general_spec

EXPECTED_SHA256 = "1e09002eed04787cff8dc04039dc6017a0120d7407b75b16b59356468e60731b"
CONSTRUCTION_SHA256 = "566faf72123957ab1f5eec2ecbfdff144809387351da52f40939bb05ac871f13"
PAPR_TEXT_SHA256 = "0833f01fc2eb8b0efd13c0999c85a06af19e0b43efb358b3456346d16b77e1c6"

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


def _permutation(rng, size):
    return [int(v) for v in rng.permutation(size) + 1]


def _blocks(rng, size):
    order = _permutation(rng, size)
    cuts = sorted(int(v) for v in rng.choice(np.arange(1, size), int(rng.integers(0, size)), replace=False))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [size])]


def _linear(rng, doc, q, size):
    """Random p and p0, each left to its default one time in three."""
    if rng.integers(3):
        doc["p"] = [int(v) for v in rng.integers(0, q, size)]
    if rng.integers(3):
        doc["p0"] = int(rng.integers(0, q))
    return doc


def _spec_docs():
    """(kind, spec dict) for twelve seeded random specs of each gen kind."""
    rng = np.random.default_rng(20261)
    for k in range(12):
        for kind in formats.GEN_KINDS:
            q = Q_VALUES[(k + len(kind)) % len(Q_VALUES)]
            n, m = (int(v) for v in rng.integers(1, 4, 2))
            if kind == "gcap-basic":
                doc = {"q": q, "n": n, "m": m, "pi1": _permutation(rng, m), "pi2": _permutation(rng, n)}
                if rng.integers(2):
                    doc["lambda"] = [int(v) for v in rng.integers(0, q, n)]
                yield kind, _linear(rng, doc, q, m)
            elif kind in ("gcap-general", "mate"):
                doc = {"q": q, "n": n, "m": m, "pi": _permutation(rng, n + m)}
                yield kind, _linear(rng, doc, q, n + m)
            elif kind == "gcas":
                doc = {"q": q, "n": n, "m": m, "blocks": _blocks(rng, n + m)}
                yield kind, _linear(rng, doc, q, n + m)
            elif kind == "gdj":
                yield kind, _linear(rng, {"q": q, "m": n + m, "pi": _permutation(rng, n + m)}, q, n + m)
            else:
                yield kind, _linear(rng, {"q": q, "m": n + m, "blocks": _blocks(rng, n + m)}, q, n + m)


def _construction_outputs(capsys):
    digest = hashlib.sha256()

    def run(argv, written):
        code = main(argv)
        digest.update(f"{' '.join(argv)} exit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
        for path in sorted(Path(".").glob(written)):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())

    for k, (kind, doc) in enumerate(_spec_docs()):
        spec = f"spec{k}.json"
        Path(spec).write_text(json.dumps(doc))
        for fmt in ("csv", "json"):
            run(["gen", kind, "--spec", spec, "--out", f"g{k}", "--format", fmt, "--cite"],
                f"g{k}_*.{fmt}")
    for q, n, m in ((2, 1, 1), (4, 0, 2), (2, 1, 2), (6, 1, 1), (4, 2, 1)):
        dump = f"stream_{q}_{n}_{m}.jsonl"
        run(["enumerate", str(q), str(n), str(m), "--dump", dump], dump)
    return digest.hexdigest()


def test_constructions_match_the_frozen_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _construction_outputs(capsys) == CONSTRUCTION_SHA256


def _papr_outputs(capsys):
    digest = hashlib.sha256()
    for k, (kind, doc) in enumerate(_spec_docs()):
        if kind not in formats.PAIR_KINDS:
            continue
        spec = f"spec{k}.json"
        Path(spec).write_text(json.dumps(doc))
        assert main(["gen", kind, "--spec", spec, "--out", f"g{k}"]) == 0
        capsys.readouterr()
        first = str(min(Path(".").glob(f"g{k}_*.csv")))
        for extra in ([], ["--spec", spec], ["--oversample", "16"], ["--spec", spec, "--oversample", "16"]):
            argv = ["papr", first, *extra]
            code = main(argv)
            digest.update(f"{' '.join(argv)} exit {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_papr_text_matches_the_frozen_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GOLAY2D_OVERSAMPLE", raising=False)
    assert _papr_outputs(capsys) == PAPR_TEXT_SHA256
