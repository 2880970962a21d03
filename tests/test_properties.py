"""Property tests: Hypothesis draws the inputs, derandomized so every run sees the same ones."""

from hypothesis import given, settings, strategies as st

from golay2d import GcapGeneralSpec, GcasSpec, GeneralizedBooleanFunction, construct_mate
from golay2d.constructions import gcas_function, general_gcap_function


@st.composite
def pair_and_set_specs(draw):
    """A pair spec and a set spec on one variable order: any q, 2 <= n + m <= 6,
    and linear coefficients and constants outside 0..q-1 too."""
    q = draw(st.sampled_from((2, 4, 6, 8, 12)))
    n = draw(st.integers(0, 3))
    m = draw(st.integers(max(0, 2 - n), 3))
    order = draw(st.permutations(range(1, n + m + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n + m - 1))))
    bounds = [0, *cuts, n + m]
    blocks = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    p = draw(st.lists(st.integers(-2 * q, 2 * q), min_size=n + m, max_size=n + m))
    p0 = draw(st.integers(-2 * q, 2 * q))
    return GcapGeneralSpec(q, n, m, order, p, p0), GcasSpec(q, n, m, blocks, p, p0)


def _in_full(spec, paths, extra=()):
    """The path function through the checking constructor, from terms in path order.

    Edges come unsorted and zero linear coefficients are kept, so the
    constructor has to sort, merge and drop them itself.
    """
    half = spec.q // 2
    terms = [(half, (a, b)) for path in paths for a, b in zip(path, path[1:])]
    terms += [(coeff, (l,)) for l, coeff in enumerate(spec.p, start=1)]
    return GeneralizedBooleanFunction(spec.q, spec.n, spec.m, terms + list(extra), spec.p0)


@settings(derandomize=True, deadline=None, database=None)
@given(pair_and_set_specs())
def test_path_functions_are_built_canonical(specs):
    pair, gcas = specs
    last = (pair.q // 2, (pair.pi[-1],))
    f = general_gcap_function(pair)
    mate = f.add_term(*last)
    for built, reference in (
        (f, _in_full(pair, [pair.pi])),
        (mate, _in_full(pair, [pair.pi], [last])),
        (gcas_function(gcas), _in_full(gcas, gcas.blocks)),
    ):
        assert (built.terms, built.constant) == (reference.terms, reference.constant)
        assert built == reference and hash(built) == hash(reference)
    assert construct_mate(pair)[0] == mate.to_array()
