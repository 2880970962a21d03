"""The benchmark tracer can bind, wrap and restore every name it patches.

bench/tracing.py wraps functions at the names the calling modules bind, for
example golay2d.cli.gdj_pair.  If the package drops or renames one of them,
the tracer fails on entry; this test makes that a failure of the package's
own suite and not only of the benchmark's.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("golay2d_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_binding():
    tracing = _load_tracing()
    import golay2d.correlation
    import golay2d.formats

    bound = [(owner, name) for owner, names, _ in tracing._BINDINGS for name in names]
    bound += [(golay2d.correlation.CorrelationValue, "__init__"),
              (golay2d.formats, "format_correlation_value")]
    originals = [getattr(owner, name) for owner, name in bound]
    with tracing.Tracer():
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in zip(bound, originals))
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(bound, originals))
