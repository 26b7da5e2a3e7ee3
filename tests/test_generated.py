"""Generated (hypothesis) checks of the contracts every engine must keep:
orbit colours are invariant under isometries, isometric copies are never
separated, a separating verdict is always confirmed by the oracle, the
exact orbit search agrees with the float one, neither the registry's label
table nor the match carried from an object's centre changes a verdict,
float verdicts do not depend on the unit of length, and a graph file reads
back as the graph that was written."""
import itertools
import json
from unittest import mock
from fractions import Fraction
from math import ldexp

from conftest import connected_cutoff, tiny_right_triangles
from test_canon import rotate_obj
from hypothesis import given, settings
from hypothesis import strategies as st

from geowl import (
    Child,
    GroupSpec,
    Leaf,
    Node,
    OrbitRegistry,
    apply_isometry,
    gen_random_cloud,
    geometric_graph,
    geometric_isomorphism_oracle,
    orbit_equal,
    random_isometry,
    run_gwl,
    run_igwl,
    run_igwl_k,
    run_so2_gwl,
    run_wl,
)
from geowl.engines import report_dict
from geowl.graph import graph_from_dict, graph_to_dict
from geowl.linalg import matvec
from geowl.numeric import exact_context, float_context
from geowl.objects import LabelTable, norm_profile, skeleton

# derandomized so that a run of the unit tests is reproducible
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def coords(d):
    return st.tuples(*[st.integers(-2, 2)] * d).map(lambda v: tuple(Fraction(c) for c in v))


@st.composite
def objects(draw, d, depth):
    colour = draw(st.integers(0, 1))
    if depth == 0:
        return Leaf(colour, tuple(draw(st.lists(coords(d), max_size=2))))
    children = draw(
        st.lists(
            st.tuples(st.integers(0, 1), objects(d, depth - 1), coords(d)).map(
                lambda c: Child(*c)
            ),
            max_size=3,
        )
    )
    return Node(colour, draw(objects(d, depth - 1)), tuple(children))


def transformed(obj, vec, shuffle=tuple):
    """obj with every vector mapped by vec, in depth-first order (centre
    before children, a child's object before its rel), and every bag of
    children reordered by shuffle."""
    if isinstance(obj, Leaf):
        return Leaf(obj.colour, tuple(vec(v) for v in obj.vectors))
    centre = transformed(obj.obj, vec, shuffle)
    children = [Child(c.colour, transformed(c.obj, vec, shuffle), vec(c.rel)) for c in obj.children]
    return Node(obj.colour, centre, tuple(shuffle(children)))


def vector_count(obj) -> int:
    if isinstance(obj, Leaf):
        return len(obj.vectors)
    return vector_count(obj.obj) + sum(1 + vector_count(c.obj) for c in obj.children)


@st.composite
def partners(draw, a, d):
    """An object to compare with a: its image under a signed permutation of
    the axes with every bag of children shuffled, that image with one
    coordinate moved, or an independent draw."""
    kind = draw(st.sampled_from(["image", "moved", "independent"]))
    if kind == "independent":
        return draw(objects(d, draw(st.integers(0, 2))))
    axes = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d))
    q = tuple(tuple(signs[r] if c == axes[r] else 0 for c in range(d)) for r in range(d))
    moved = -1
    if kind == "moved" and vector_count(a):
        moved = draw(st.integers(0, vector_count(a) - 1))
        coord, value = draw(st.integers(0, d - 1)), Fraction(draw(st.integers(-2, 2)))
    counter = itertools.count()

    def vec(v):
        w = matvec(q, v)
        if next(counter) == moved:
            w = w[:coord] + (value,) + w[coord + 1 :]
        return w

    return transformed(a, vec, lambda children: draw(st.permutations(children)))


# enough draws for ties between coincident children to decide some pairs
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([2, 3]), st.integers(1, 2), st.booleans())
def test_exact_orbit_equal_matches_float_search(data, d, depth, proper):
    # every dot of coordinates in [-2, 2] is exact in float, so the float
    # search, which never pins, must reach the exact search's answer
    a = data.draw(objects(d, depth))
    b = data.draw(partners(a, d))
    floats = [transformed(x, lambda v: tuple(float(c) for c in v)) for x in (a, b)]
    exact = orbit_equal(a, b, exact_context(), d, proper)
    assert exact == orbit_equal(*floats, float_context(), d, proper)


@SETTINGS
@given(st.data(), st.sampled_from([2, 3]), st.integers(0, 2), st.integers(0, 10**6), st.booleans())
def test_intern_orbit_invariant_under_random_isometry(data, d, depth, seed, proper):
    obj = data.draw(objects(d, depth))
    witness = random_isometry(1, d, seed, proper=proper)
    image = rotate_obj(obj, witness.matrix)
    ctx = exact_context()
    # the registry's bucket key must be shared by every object of an orbit
    assert skeleton(obj) == skeleton(image)
    assert norm_profile(obj, ctx) == norm_profile(image, ctx)
    reg = OrbitRegistry(ctx, d, proper)
    assert reg.intern_orbit(obj) == reg.intern_orbit(image)


@SETTINGS
@given(
    st.integers(2, 5), st.sampled_from([2, 3]), st.integers(0, 10**6), st.integers(0, 10**6),
    st.booleans(),
)
def test_gwl_never_separates_isometric_cutoff_copies(n, d, seed, iso_seed, proper):
    g = connected_cutoff(gen_random_cloud(n, d, seed))
    h = apply_isometry(g, random_isometry(n, d, iso_seed, proper=proper))
    for variant in ("O", "SO") if proper else ("O",):
        verdict, _ = run_gwl(g, h, GroupSpec(variant, d))
        assert not verdict.distinguished


@st.composite
def near_copies(draw, d):
    """(g1, g2): a small graph, and an isometric image of it with at most
    one coordinate, edge or scalar changed, so pairs are often congruent."""
    n = draw(st.integers(1, 6))
    positions = draw(st.lists(coords(d), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    scalars = draw(st.lists(st.tuples(st.integers(0, 1)), min_size=n, max_size=n))
    g1 = geometric_graph(d, positions, edges, scalars, mode="exact")
    change = draw(st.sampled_from(["none", "position", "edge", "scalar"]))
    i = draw(st.integers(0, n - 1))
    if change == "position":
        positions = positions[:i] + [draw(coords(d))] + positions[i + 1 :]
    elif change == "edge" and pairs:
        edges = sorted(set(edges) ^ {draw(st.sampled_from(pairs))})
    elif change == "scalar":
        scalars = scalars[:i] + [(1 - scalars[i][0],)] + scalars[i + 1 :]
    g2 = geometric_graph(d, positions, edges, scalars, mode="exact")
    witness = random_isometry(n, d, draw(st.integers(0, 10**6)), proper=draw(st.booleans()))
    return g1, apply_isometry(g2, witness)


@SETTINGS
@given(st.data(), st.sampled_from([2, 3]), st.sampled_from(["O", "SO"]))
def test_distinguished_implies_oracle_non_congruent(data, d, variant):
    g1, g2 = data.draw(near_copies(d))
    grp = GroupSpec(variant, d)
    runs = [
        run_wl(g1, g2),
        run_gwl(g1, g2, grp),
        run_igwl(g1, g2, grp),
        run_igwl_k(g1, g2, grp, 2),
        run_igwl_k(g1, g2, grp, 3),
    ]
    if any(verdict.distinguished for verdict, _ in runs):
        congruent, _ = geometric_isomorphism_oracle(g1, g2, grp)
        assert not congruent


def fresh_table_per_call(a, b, ctx, dim, proper, table=None):
    return orbit_equal(a, b, ctx, dim, proper)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([2, 3]), st.sampled_from(["O", "SO"]))
def test_the_registry_label_table_changes_no_verdict_or_trace(data, d, variant):
    # a pinned label depends only on the object and, on b's side, the
    # pinned map, so labels kept for the registry's life must decide as one
    # table per call
    g1, g2 = data.draw(near_copies(d))
    grp = GroupSpec(variant, d)

    def reports():
        runs = {"gwl": run_gwl(g1, g2, grp), "igwl": run_igwl(g1, g2, grp)}
        return json.dumps([report_dict(test, grp, *run) for test, run in runs.items()])

    shared = reports()
    with mock.patch("geowl.registry.orbit_equal", fresh_table_per_call):
        assert reports() == shared


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([2, 3]), st.sampled_from(["O", "SO"]))
def test_the_carried_match_changes_no_verdict_or_trace(data, d, variant):
    # an object read through its centre's map or the last map that matched
    # is given an interned object's colour only when the two are orbit
    # equal, and that colour is its orbit's, so the scan alone must agree;
    # IGWL's objects have fresh Leaf centres and are read through the last
    # map only
    g1, g2 = data.draw(near_copies(d))
    grp = GroupSpec(variant, d)

    def reports():
        runs = {"gwl": run_gwl(g1, g2, grp), "igwl": run_igwl(g1, g2, grp)}
        return json.dumps([report_dict(test, grp, *run) for test, run in runs.items()])

    carried = reports()
    with mock.patch.object(LabelTable, "carried_match", lambda table, obj: None):
        assert reports() == carried


def float_scaled(g, unit, k):
    """g with every coordinate as a float times unit, then times 2^k."""

    def up(v):
        return tuple(ldexp(float(c) * unit, k) for c in v)

    vectors = [[up(v) for v in vs] for vs in g.vectors]
    return geometric_graph(
        g.dim, [up(x) for x in g.positions], sorted(g.edges), g.scalars, vectors, mode="float"
    )


@SETTINGS
@given(st.data(), st.floats(0.1, 10), st.integers(-40, 40), st.sampled_from(["O", "SO"]))
def test_float_verdicts_do_not_depend_on_a_power_of_two_unit(data, unit, k, variant):
    g1, g2 = data.draw(near_copies(2))
    grp = GroupSpec(variant, 2)

    def answers(a, b):
        return [
            run_wl(a, b),
            run_gwl(a, b, grp),
            run_igwl(a, b, grp),
            run_igwl_k(a, b, grp, 3),
            run_so2_gwl(a, b),
            geometric_isomorphism_oracle(a, b, grp)[0],
        ]

    def floats(k):
        return answers(float_scaled(g1, unit, k), float_scaled(g2, unit, k))

    def triangles(k):  # exact, so read as floats by the SO(2) hash alone
        return answers(*tiny_right_triangles(Fraction(2) ** k / 10**10))

    assert floats(k) == floats(0)
    assert triangles(k) == triangles(0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# every scalar token the graph model accepts
TOKENS = st.one_of(st.text(max_size=3), st.integers(), FINITE)


@st.composite
def graphs(draw):
    """A graph of either mode with d = 1-3, 0-5 nodes, scalar tuples of one
    arity, up to 2 feature vectors per node and random edges."""
    mode = draw(st.sampled_from(["exact", "float"]))
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    vec = st.tuples(*[st.fractions() if mode == "exact" else FINITE] * d)
    arity = draw(st.integers(0, 2))
    pairs = list(itertools.combinations(range(n), 2))
    return geometric_graph(
        d,
        draw(st.lists(vec, min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [],
        draw(st.lists(st.tuples(*[TOKENS] * arity), min_size=n, max_size=n)),
        draw(st.lists(st.lists(vec, max_size=2), min_size=n, max_size=n)),
        mode=mode,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs())
def test_json_round_trip(g):
    assert graph_from_dict(json.loads(json.dumps(graph_to_dict(g)))) == g
