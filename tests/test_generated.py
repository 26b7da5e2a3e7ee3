"""Generated (hypothesis) checks of the contracts every engine must keep:
orbit colours are invariant under isometries, isometric copies are never
separated, and a separating verdict is always confirmed by the oracle."""
from fractions import Fraction

from conftest import connected_cutoff
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
    random_isometry,
    run_gwl,
    run_igwl,
    run_igwl_k,
    run_wl,
)
from geowl.numeric import exact_context
from geowl.objects import norm_profile, skeleton

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
