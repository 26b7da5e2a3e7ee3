import gc
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from conftest import connected_cutoff, exact_graph, grid

from geowl import (
    Child,
    GeometricGraph,
    GroupSpec,
    Leaf,
    Node,
    OrbitRegistry,
    apply_isometry,
    gen_kchain,
    gen_random_cloud,
    orbit_equal,
    random_isometry,
    run_gwl,
    run_igwl,
    run_igwl_k,
)
from geowl.generators import mst_bottleneck_sq
from geowl.graph import with_cutoff_sq
from geowl.engines import _leaves, _nodes, _pair, _rels, _scalar_colours, i_hash_k
from geowl.linalg import independent_subset, matvec
from geowl.numeric import exact_context, float_context
from geowl.objects import _Search, carried_match, label_table

CTX = exact_context()
O2 = GroupSpec("O", 2)
SO2 = GroupSpec("SO", 2)
O3 = GroupSpec("O", 3)
SO3 = GroupSpec("SO", 3)


def f(*cs):
    return tuple(Fraction(c) for c in cs)


def rotate_obj(obj, q):
    if isinstance(obj, Leaf):
        return Leaf(obj.colour, tuple(matvec(q, v) for v in obj.vectors))
    return Node(
        obj.colour,
        rotate_obj(obj.obj, q),
        tuple(Child(c.colour, rotate_obj(c.obj, q), matvec(q, c.rel)) for c in obj.children),
    )


def depth1(rel_vecs, colours=None):
    colours = colours or [0] * len(rel_vecs)
    return Node(
        0,
        Leaf(0, ()),
        tuple(Child(c, Leaf(c, ()), r) for c, r in zip(colours, rel_vecs)),
    )


def test_globally_rotated_object_is_orbit_equal():
    rng = random.Random(4)
    for _ in range(10):
        q = random_isometry(1, 3, seed=rng.randint(0, 10**6), proper=True).matrix
        obj = Node(
            1,
            Leaf(1, (f(1, 0, 0),)),
            (
                Child(2, Leaf(2, ()), f(0, 1, 0)),
                Child(2, Leaf(2, ()), f(1, 1, 0)),
            ),
        )
        assert orbit_equal(obj, rotate_obj(obj, q), CTX, SO3.dim, SO3.proper)
        assert orbit_equal(obj, rotate_obj(obj, q), CTX, O3.dim, O3.proper)


def test_leaf_norm_mismatch():
    assert not orbit_equal(Leaf(0, (f(1, 0),)), Leaf(0, (f(0, 2),)), CTX, O2.dim, O2.proper)
    assert orbit_equal(Leaf(0, (f(1, 0),)), Leaf(0, (f(0, 1),)), CTX, O2.dim, O2.proper)


def test_same_distances_different_angles():
    # children at 90 vs 180 degrees: distance multisets agree, dot products differ
    a = depth1([f(1, 0), f(0, 1)])
    b = depth1([f(1, 0), f(-1, 0)])
    assert not orbit_equal(a, b, CTX, O2.dim, O2.proper)


def test_colour_structure_must_match():
    a = depth1([f(1, 0), f(0, 1)], colours=[1, 2])
    b = depth1([f(0, 1), f(1, 0)], colours=[1, 2])  # rel vecs swapped per colour
    # matching is colour-constrained: swapping the vectors between colours
    # is the axis swap x<->y, a reflection, so O accepts and SO rejects
    assert orbit_equal(a, b, CTX, O2.dim, O2.proper)
    assert not orbit_equal(a, b, CTX, SO2.dim, SO2.proper)
    c = depth1([f(1, 0), f(0, 1)], colours=[1, 1])
    assert not orbit_equal(a, c, CTX, O2.dim, O2.proper)


def test_reflection_needs_o_not_so():
    # three children whose rel vecs span the plane with a fixed handedness
    a = depth1([f(2, 0), f(0, 1)], colours=[1, 2])
    b = depth1([f(2, 0), f(0, -1)], colours=[1, 2])
    assert orbit_equal(a, b, CTX, O2.dim, O2.proper)
    assert not orbit_equal(a, b, CTX, SO2.dim, SO2.proper)


def test_rank_deficient_so_collapses_to_o():
    # the same mirrored pair embedded in 3D spans only a plane
    a3 = depth1([f(2, 0, 0), f(0, 1, 0)], colours=[1, 2])
    b3 = depth1([f(2, 0, 0), f(0, -1, 0)], colours=[1, 2])
    assert orbit_equal(a3, b3, CTX, O3.dim, O3.proper)
    assert orbit_equal(a3, b3, CTX, SO3.dim, SO3.proper)


def _unfolded(obj):
    """Every vector of obj: its own, its child rels and its sub-objects'."""
    if isinstance(obj, Leaf):
        return list(obj.vectors)
    vecs = _unfolded(obj.obj)
    for c in obj.children:
        vecs += [c.rel, *_unfolded(c.obj)]
    return vecs


def _span_graphs():
    rng = random.Random("spans")
    for seed in range(10):
        yield connected_cutoff(gen_random_cloud(rng.randint(3, 7), rng.choice((2, 3)), seed))
    for k in (2, 3, 4):
        yield from gen_kchain(k)[:2]
    # planar and collinear clouds in 3D, turned off the axes, one with
    # in-plane feature vectors and one with a feature vector off the plane
    for seed in range(8):
        n = rng.randint(3, 6)
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4) if seed % 4 else 0, 0) for _ in range(n)]
        vectors = None
        if seed % 4 == 2:
            vectors = [[(rng.randint(-2, 2), rng.randint(-2, 2), 0)] for _ in range(n)]
        elif seed % 4 == 3:
            vectors = [[(0, 0, 1)]] + [[] for _ in range(n - 1)]
        flat = connected_cutoff(exact_graph(pts, (), vectors=vectors))
        yield apply_isometry(flat, random_isometry(n, 3, seed, proper=True))


def test_span_rank_is_the_rank_of_the_unfolded_object():
    # pinning stops the search once the matcher's basis reaches len(a.span);
    # spans are built from sub-objects' spans, and must still give the rank
    # of every vector in the whole tree
    ranks = set()
    for g in _span_graphs():
        g, _ = _pair(g, g, None)
        reg = OrbitRegistry(g.ctx, g.dim, proper=False)
        c = _scalar_colours(g, reg)
        objs = _leaves(g, c)
        for _ in range(3):
            objs = _nodes(_rels(g), c, objs)
            c = [reg.intern_orbit(o) for o in objs]
            for o in objs:
                vecs = _unfolded(o)
                assert set(o.span) <= set(vecs)
                assert len(o.span) == len(independent_subset(vecs, CTX, g.dim))
                ranks.add((g.dim, len(o.span)))
    assert {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)} <= ranks


def test_i_hash_issues_colours_in_first_encounter_order():
    reg = OrbitRegistry(CTX, 2, proper=False)
    a = depth1([f(1, 0)])
    b = depth1([f(2, 0)])
    ca = reg.intern_orbit(a)
    cb = reg.intern_orbit(b)
    ca2 = reg.intern_orbit(depth1([f(0, 1)]))  # rotated a: same orbit
    assert ca != cb
    assert ca2 == ca


def test_i_hash_invariant_under_random_isometry():
    rng = random.Random(9)
    for trial in range(15):
        reg = OrbitRegistry(CTX, 3, proper=True)
        q = random_isometry(1, 3, seed=trial, proper=True).matrix
        obj = depth1(
            [f(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        )
        assert reg.intern_orbit(obj) == reg.intern_orbit(rotate_obj(obj, q))


def test_i_hash_k2_sees_only_pairwise_distances():
    # the 90- and 180-degree neighbourhoods share all (colour, distance) pairs
    reg = OrbitRegistry(CTX, 2, proper=False)
    nb90 = [(1, (), f(1, 0)), (1, (), f(0, 1))]
    nb180 = [(1, (), f(1, 0)), (1, (), f(-1, 0))]
    assert i_hash_k((0, ()), nb90, 2, reg) == i_hash_k((0, ()), nb180, 2, reg)


def test_i_hash_k3_separates_angles():
    reg = OrbitRegistry(CTX, 2, proper=False)
    nb90 = [(1, (), f(1, 0)), (1, (), f(0, 1))]
    nb180 = [(1, (), f(1, 0)), (1, (), f(-1, 0))]
    assert i_hash_k((0, ()), nb90, 3, reg) != i_hash_k((0, ()), nb180, 3, reg)


def test_i_hash_k_full_body_order_matches_orbit_equal():
    # with k = |N| + 1 the single full tuple is as sharp as the orbit test
    rng = random.Random(21)
    for trial in range(50):
        m = rng.randint(1, 3)
        rels_a = [f(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m)]
        rels_b = [f(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m)]
        grp = SO2 if trial % 2 else O2
        reg = OrbitRegistry(CTX, 2, grp.proper)
        same_colour = i_hash_k((0, ()), [(1, (), r) for r in rels_a], m + 1, reg) == i_hash_k(
            (0, ()), [(1, (), r) for r in rels_b], m + 1, reg
        )
        same_orbit = orbit_equal(
            depth1(rels_a, [1] * m), depth1(rels_b, [1] * m), CTX, grp.dim, grp.proper
        )
        assert same_colour == same_orbit, (trial, rels_a, rels_b)


def test_i_hash_k_rejects_low_body_order():
    reg = OrbitRegistry(CTX, 2, proper=False)
    with pytest.raises(ValueError):
        i_hash_k((0, ()), [(1, (), f(1, 0))], 1, reg)


def test_orbit_equal_reflexive_symmetric_transitive():
    rng = random.Random(2)
    objs = [
        depth1([f(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(2)])
        for _ in range(6)
    ]
    for a in objs:
        assert orbit_equal(a, a, CTX, 2, False)
        for b in objs:
            assert orbit_equal(a, b, CTX, 2, False) == orbit_equal(b, a, CTX, 2, False)
    for a in objs:
        for b in objs:
            for c in objs:
                if orbit_equal(a, b, CTX, 2, False) and orbit_equal(b, c, CTX, 2, False):
                    assert orbit_equal(a, c, CTX, 2, False)


def exact_and_float(*grps):
    """(grp, ctx) cases under both numeric modes; the exact cases keep the
    ids a plain parametrisation over grps gives."""
    return [pytest.param(g, CTX, id=f"grp{i}") for i, g in enumerate(grps)] + [
        pytest.param(g, float_context(), id=f"grp{i}-float") for i, g in enumerate(grps)
    ]


def vec_maker(ctx):
    return f if ctx.mode == "exact" else lambda *cs: tuple(float(c) for c in cs)


@pytest.mark.parametrize("grp, ctx", exact_and_float(O2, SO2))
def test_orbit_equal_rejects_structure_without_prefilters(grp, ctx):
    # orbit_equal runs no skeleton or norm-profile prefilter of its own;
    # the search must still reject every structural difference
    v = vec_maker(ctx)
    kids = (Child(1, Leaf(1, ()), v(1, 0)), Child(2, Leaf(2, ()), v(0, 1)))
    base = Node(0, Leaf(0, (v(1, 1),)), kids)
    assert orbit_equal(base, base, ctx, grp.dim, grp.proper)
    other_centres = [
        Leaf(0, (v(1, 1), v(1, 1))),  # one more centre vector
        Leaf(0, ()),  # one fewer
        Leaf(3, (v(1, 1),)),  # another centre colour
        Node(0, Leaf(0, (v(1, 1),)), ()),  # a Node where a Leaf was
    ]
    for centre in other_centres:
        assert not orbit_equal(base, Node(0, centre, kids), ctx, grp.dim, grp.proper)
        assert not orbit_equal(Node(0, centre, kids), base, ctx, grp.dim, grp.proper)
    other_children = [
        (Child(1, Leaf(1, (v(0, 1),)), v(1, 0)), kids[1]),  # child skeleton
        (Child(1, Leaf(1, ()), v(1, 0)), Child(1, Leaf(1, ()), v(0, 1))),  # colours
        (Child(1, Node(1, Leaf(1, ()), ()), v(1, 0)), kids[1]),  # child shape
        kids[:1],  # one child fewer
    ]
    for children in other_children:
        assert not orbit_equal(base, Node(0, base.obj, children), ctx, grp.dim, grp.proper)
        assert not orbit_equal(Node(0, base.obj, children), base, ctx, grp.dim, grp.proper)


@pytest.mark.parametrize("grp, ctx", exact_and_float(O3, SO3))
def test_orbit_equal_rejects_one_child_rel_norm_without_prefilters(grp, ctx):
    v = vec_maker(ctx)
    a = depth1([v(1, 0, 0), v(0, 1, 0), v(0, 0, 1)])
    b = depth1([v(1, 0, 0), v(0, 1, 0), v(0, 0, 2)])
    assert not orbit_equal(a, b, ctx, grp.dim, grp.proper)
    assert not orbit_equal(b, a, ctx, grp.dim, grp.proper)
    # the same norms in another order are still one orbit
    c = depth1([v(0, 0, 1), v(1, 0, 0), v(0, 1, 0)])
    assert orbit_equal(a, c, ctx, grp.dim, grp.proper)


def test_deep_object_search_runs_under_the_default_recursion_limit():
    # shared sub-objects make the tree unfolding 3^10 nodes; the search
    # must nest frames per tree level, not per matched vector
    def tower(r1, r2, depth=10):
        obj = Leaf(0, ())
        for t in range(depth):
            obj = Node(t, obj, (Child(t, obj, r1), Child(t, obj, r2)))
        return obj

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a, b = tower(f(1, 0), f(0, 1)), tower(f(0, 1), f(-1, 0))  # b: a turned by 90 degrees
        assert orbit_equal(a, b, CTX, 2, proper=True) is True
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def coincident_pair():
    """A 3D object whose first three children span the space, so the map
    is pinned before the last two. Those two share colour and rel but carry
    different sub-objects. Returns it, its rotated image with those two
    children swapped, and the rotation."""
    axes = (f(1, 0, 0), f(0, 1, 0), f(0, 0, 1))
    spanning = [Child(c, Leaf(c, ()), r) for c, r in zip((1, 2, 3), axes)]
    twins = [Child(5, Leaf(5, (v,)), f(1, 1, 0)) for v in (f(1, 0, 0), f(0, 1, 2))]
    a = Node(0, Leaf(0, ()), tuple(spanning + twins))
    q = random_isometry(1, 3, seed=8, proper=True).matrix
    image = rotate_obj(a, q)
    return a, Node(0, image.obj, image.children[:3] + image.children[:2:-1]), q


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_coincident_children_with_different_sub_objects(grp):
    # under the pinned map, the first partner with the right (colour, key)
    # carries the wrong sub-object; the search must go on to the next one
    a, b, q = coincident_pair()
    assert b.children[3].obj != rotate_obj(a.children[3].obj, q)
    assert orbit_equal(a, b, CTX, grp.dim, grp.proper)
    assert orbit_equal(b, a, CTX, grp.dim, grp.proper)
    # one level down, where the pinned check recurses into sub-objects
    rels = (f(2, 0, 0), f(0, 2, 0), f(0, 0, 2))
    outer_a = Node(9, a, tuple(Child(9, a, r) for r in rels))
    outer_b = Node(9, b, tuple(Child(9, b, matvec(q, r)) for r in rels))
    assert orbit_equal(outer_a, outer_b, CTX, grp.dim, grp.proper)
    # a twin whose sub-object matches neither is still rejected
    odd = Child(5, Leaf(5, (f(2, 1, 0),)), b.children[4].rel)
    assert not orbit_equal(a, Node(0, b.obj, b.children[:4] + (odd,)), CTX, grp.dim, grp.proper)


@pytest.mark.parametrize("grp", [O2, SO2], ids=["O", "SO"])
def test_a_sub_object_shared_by_both_sides_is_labelled_per_side(grp):
    # the two spanning children pin the map to a turn by -90 degrees, which
    # does not fix the leaf that both objects' twins hold as one instance
    shared = Leaf(5, (f(1, 0),))

    def node(rels, twin):
        colours = (1, 2, 3, 3)
        leaves = (Leaf(0, ()), Leaf(0, ()), twin, twin)
        return Node(0, Leaf(0, ()), tuple(Child(c, o, r) for c, o, r in zip(colours, leaves, rels)))

    rels = (f(1, 0), f(0, 2), f(1, 1), f(-1, 1))
    turned = tuple(f(-r[1], r[0]) for r in rels)
    assert not orbit_equal(node(rels, shared), node(turned, shared), CTX, grp.dim, grp.proper)
    turned_leaf = Leaf(5, (f(0, 1),))
    assert orbit_equal(node(rels, shared), node(turned, turned_leaf), CTX, grp.dim, grp.proper)


def pinned_by_centre():
    """An object whose centre spans R^3, so the map is pinned once the
    centre aligns, with a Node child; and its image under a turn."""
    grandchild = Child(1, Leaf(3, (f(2, 1, 0),)), f(0, 1, 1))
    sub = Node(2, Leaf(2, (f(1, 2, 0),)), (grandchild,))
    a = Node(0, Leaf(0, (f(1, 0, 0), f(0, 1, 0), f(0, 0, 1))), (Child(1, sub, f(0, 0, 1)),))
    return a, rotate_obj(a, ((0, -1, 0), (1, 0, 0), (0, 0, 1)))


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_the_label_table_holds_each_object_it_labels(grp):
    # labels are cached by id(obj): a table that did not hold its objects
    # could hand a freed object's label to a new object at the same address
    a, b = pinned_by_centre()
    table = label_table()
    sub = weakref.ref(b.children[0].obj)
    assert orbit_equal(a, b, CTX, grp.dim, grp.proper, table)
    del b
    gc.collect()
    assert sub() is not None
    del table
    gc.collect()
    assert sub() is None


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_a_repeated_call_with_the_same_table_adds_no_form(grp):
    a, b = pinned_by_centre()
    table = label_table()
    assert orbit_equal(a, b, CTX, grp.dim, grp.proper, table)
    forms = dict(table[1])
    assert forms
    assert orbit_equal(a, b, CTX, grp.dim, grp.proper, table)
    assert table[1] == forms


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_a_second_basis_of_one_map_adds_no_form(grp):
    # the map pins on the first three children, and the last child's Node
    # sub-object is checked on entry; swapping the first two children of
    # both sides pins another basis of the same map, and b's side is read
    # through the map, not the basis, so nothing is labelled anew
    grandchild = Child(1, Leaf(3, (f(2, 1, 0),)), f(0, 1, 1))
    sub = Node(2, Leaf(2, (f(1, 2, 0),)), (grandchild,))
    rels = (f(1, 0, 0), f(0, 2, 0), f(0, 0, 3))
    children = tuple(Child(k, Leaf(k, ()), r) for k, r in enumerate(rels))
    a = Node(0, Leaf(0, ()), children + (Child(3, sub, f(1, 1, 1)),))
    b = rotate_obj(a, ((0, -1, 0), (1, 0, 0), (0, 0, 1)))

    def swapped(obj):
        c = obj.children
        return Node(obj.colour, obj.obj, (c[1], c[0], *c[2:]))

    table = label_table()

    def sizes():
        return {pmap: (len(keys), len(labels)) for pmap, (keys, labels) in table[0].items()}

    assert orbit_equal(a, b, CTX, grp.dim, grp.proper, table)
    forms, cached = dict(table[1]), sizes()
    assert forms
    assert orbit_equal(swapped(a), swapped(b), CTX, grp.dim, grp.proper, table)
    assert table[1] == forms
    assert sizes() == cached


def test_gwl_on_the_exact_scaling_probe_stays_small():
    # labels kept per pinned basis peaked at 13 MB here, and at 386 MB at
    # n = 100; kept per pinned map they stay near 2 MB
    g = gen_random_cloud(30, 3, 1)
    g = with_cutoff_sq(g, 2 * mst_bottleneck_sq(g.positions))
    h = apply_isometry(g, random_isometry(30, 3, 1, proper=True))
    tracemalloc.start()
    try:
        verdict, _ = run_gwl(g, h, SO3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.distinguished
    assert peak < 5 * 2**20, peak


def mirror_pair(turn):
    """A planar centre, its image under `turn` (a turn about the plane's
    normal), and two Nodes: one over the centre, and one over the turned
    centre whose child is the first's mirrored through the plane and then
    turned."""
    centre = Leaf(0, (f(1, 0, 0), f(0, 2, 0)))
    turned = rotate_obj(centre, turn)

    def node(c, rel):
        return Node(0, c, (Child(1, Leaf(1, ()), rel),))

    return centre, turned, node(centre, f(1, 1, 1)), node(turned, matvec(turn, f(1, 1, -1)))


@pytest.mark.parametrize("turn", [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, -1, 0), (1, 0, 0), (0, 0, 1))],
                         ids=["as-it-is", "turned"])
@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_a_recorded_map_that_carries_no_rep_falls_back_to_the_search(grp, turn, monkeypatch):
    # the centres match under a map pinned on their plane, which reads the
    # mirrored child off that plane: no representative is carried, and the
    # search decides. The mirror through the plane is in O(3), and no
    # rotation fixes the plane's vectors and moves the child.
    centre, turned, first, mirrored = mirror_pair(turn)
    searched, carried = [], []

    def search_spy(a, b, *args):
        searched.append(b)
        return orbit_equal(a, b, *args)

    def carry_spy(obj, table):
        colour = carried_match(obj, table)
        if isinstance(obj, Node):
            carried.append((obj, id(obj.obj) in table[3], colour))
        return colour

    def colours():
        reg = OrbitRegistry(CTX, 3, grp.proper)
        return [reg.intern_orbit(o) for o in (centre, turned, first, mirrored)]

    monkeypatch.setattr("geowl.registry.orbit_equal", search_spy)
    monkeypatch.setattr("geowl.registry.carried_match", carry_spy)
    found = colours()
    assert found == [0, 0, 1, 1 if grp.variant == "O" else 2]
    assert carried[-1] == (mirrored, True, None)
    assert searched[-1] is mirrored
    monkeypatch.setattr("geowl.registry.carried_match", lambda obj, table: None)
    assert colours() == found


def searches_of_gwl(g, h, grp, monkeypatch):
    """The b-side objects that GWL on (g, h) searches for; (g, h) must not
    be told apart."""
    searched = []

    def spy(a, b, *args):
        searched.append(b)
        return orbit_equal(a, b, *args)

    monkeypatch.setattr("geowl.registry.orbit_equal", spy)
    verdict, trace = run_gwl(g, h, grp)
    assert not verdict.distinguished and len(trace.rows) > 3
    return searched


def rigid_copy():
    g = gen_random_cloud(8, 3, 1)
    g = with_cutoff_sq(g, 2 * mst_bottleneck_sq(g.positions))
    return g, apply_isometry(g, random_isometry(8, 3, 1, proper=True))


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_gwl_on_a_copy_of_a_rigid_cloud_searches_once(grp, monkeypatch):
    # the copy is one isometry: the first search of the copy's objects
    # records its map, the other objects of the first iteration are read
    # through that last map, and every later object through its centre's
    g, h = rigid_copy()
    searched = searches_of_gwl(g, h, grp, monkeypatch)
    assert len(searched) == 1
    assert isinstance(searched[0].obj, Leaf)


def _sub_dag(obj, out):
    """Add obj and every object under it to out, by id."""
    if id(obj) not in out:
        out[id(obj)] = obj
        for sub in (obj.obj, *(c.obj for c in obj.children)) if isinstance(obj, Node) else ():
            _sub_dag(sub, out)
    return out


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_gwl_on_a_copy_of_a_rigid_cloud_reads_each_object_through_one_map(grp, monkeypatch):
    # an object is read through its centre's recorded map alone; only an
    # object whose centre has no record (a Leaf) is read through the last
    # map. The first graph's objects are never matched, so none of them is
    # labelled under the copy's map.
    g, h = rigid_copy()
    reads, interned = [], []

    def through_spy(self, pmap):
        reads[-1] += 1
        return through(self, pmap)

    def carry_spy(obj, table):
        reads.append(0)
        return carried_match(obj, table)

    def intern_spy(self, obj):
        interned.append((self, obj))
        return intern_orbit(self, obj)

    through, intern_orbit = _Search.through, OrbitRegistry.intern_orbit
    monkeypatch.setattr(_Search, "through", through_spy)
    monkeypatch.setattr("geowl.registry.carried_match", carry_spy)
    monkeypatch.setattr(OrbitRegistry, "intern_orbit", intern_spy)
    verdict, trace = run_gwl(g, h, grp)
    assert not verdict.distinguished and len(trace.rows) > 3
    assert len(reads) == len(interned) and set(reads) == {1}
    # each stream interns its graph's n objects per iteration, g's first
    first = {}
    for k, (_, obj) in enumerate(interned):
        if k // g.n % 2 == 0:
            _sub_dag(obj, first)
    table = interned[0][0]._label_table
    copy_maps = [pmap for pmap in table[0] if pmap is not None]
    assert copy_maps
    for pmap in copy_maps:
        assert not first.keys() & table[0][pmap][1].keys()


@pytest.mark.parametrize("run", [run_gwl, run_igwl, lambda g, h, grp: run_igwl_k(g, h, grp, 3)],
                         ids=["gwl", "igwl", "igwl-k"])
def test_each_stream_builds_its_relative_vectors_once(run, monkeypatch):
    g, h = rigid_copy()
    calls = {}
    rel_vec = GeometricGraph.rel_vec

    def spy(self, i, j):
        calls.setdefault(id(self), [self, 0])[1] += 1
        return rel_vec(self, i, j)

    monkeypatch.setattr(GeometricGraph, "rel_vec", spy)
    _, trace = run(g, h, SO3)
    assert len(trace.rows) >= 3
    assert [count for _, count in calls.values()] == [2 * len(g.edges), 2 * len(h.edges)]


def test_gwl_on_a_copy_of_the_cube_is_carried_onto_objects_that_are_not_representatives(monkeypatch):
    # the cube's objects are matched under its symmetries, and a copy's
    # object read through a recorded map lands on the first graph's object
    # of the same node, mostly not its orbit's representative: with every
    # interned object's label looked up, 4 searches are left (15 when only
    # representatives' labels are compared)
    g = grid(2, 2, 2)
    h = apply_isometry(g, random_isometry(8, 3, 7, proper=True))
    assert len(searches_of_gwl(g, h, SO3, monkeypatch)) == 4


def chiral_node(q=((1, 0, 0), (0, 1, 0), (0, 0, 1))):
    """A Node over a bare Leaf centre whose three children, of three
    colours, span space, turned by q; q = diag(1, 1, -1) mirrors it."""
    rels = (f(1, 0, 0), f(1, 2, 0), f(1, 1, 3))
    node = Node(0, Leaf(0, ()), tuple(Child(k, Leaf(k, ()), r) for k, r in enumerate(rels)))
    return rotate_obj(node, q)


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_a_last_map_that_carries_nothing_falls_back_to_the_search(grp, monkeypatch):
    # a turned copy is searched and leaves its turn as the last map; the
    # mirror image has a Leaf centre, so only that last map is tried, and
    # it reads the mirror image onto no interned label: the search decides,
    # a reflection under O and a new colour under SO
    turn, mirror = ((0, -1, 0), (1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    objs = [chiral_node(), chiral_node(turn), chiral_node(mirror)]
    searched, last_maps = [], []

    def search_spy(a, b, *args):
        searched.append(b)
        return orbit_equal(a, b, *args)

    def carry_spy(obj, table):
        last_maps.append(table[6][0])
        return carried_match(obj, table)

    def colours():
        reg = OrbitRegistry(CTX, 3, grp.proper)
        return [reg.intern_orbit(o) for o in objs]

    monkeypatch.setattr("geowl.registry.orbit_equal", search_spy)
    monkeypatch.setattr("geowl.registry.carried_match", carry_spy)
    found = colours()
    assert found == [0, 0, 0 if grp.variant == "O" else 1]
    assert last_maps[-1] is not None
    assert [id(b) for b in searched] == [id(o) for o in objs[1:]]
    monkeypatch.setattr("geowl.registry.carried_match", lambda obj, table: None)
    assert colours() == found


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_the_label_table_holds_each_object_it_records_a_map_for(grp):
    # recorded maps, and a's remaining children, are kept by id(): a table
    # that did not hold them could hand a freed object's map, or a freed
    # tuple's triples, to a new one at the same address. The first three
    # children pin the map, and the last two are matched by their labels.
    rels = (f(1, 0, 0), f(0, 2, 0), f(0, 0, 3), f(1, 1, 1), f(1, 1, 2))
    a = Node(0, Leaf(0, ()), tuple(Child(k % 2, Leaf(k % 2, ()), r) for k, r in enumerate(rels)))
    b = rotate_obj(a, ((0, -1, 0), (1, 0, 0), (0, 0, 1)))
    reg = OrbitRegistry(CTX, 3, grp.proper)
    table = reg._label_table
    assert [reg.intern_orbit(o) for o in (a, b)] == [0, 0]
    assert [entry[0] is None for entry in table[3].values()] == [True, False]
    assert all(id(entry[1]) == key for key, entry in table[3].items())
    assert [key[1] for key in table[4]] == [3]
    assert all(id(entry[1]) == key[0] for key, entry in table[4].items())
    held = weakref.ref(b)
    del b, table
    gc.collect()
    assert held() is not None
    del reg
    gc.collect()
    assert held() is None


@pytest.mark.parametrize("grp", [O3, SO3], ids=["O", "SO"])
def test_one_children_tuple_pinned_at_two_depths_keeps_both_tails(grp):
    # x's children pin the map after three of them when x is compared
    # alone, and after two inside y, whose centre spans two axes: a's
    # remaining-children triples are kept per (children, k), not per
    # children
    rels = (f(1, 0, 0), f(0, 2, 0), f(0, 0, 3), f(1, 1, 1), f(1, 1, 2))
    x = Node(0, Leaf(0, ()), tuple(Child(k % 2, Leaf(k % 2, ()), r) for k, r in enumerate(rels)))
    y = Node(0, Leaf(0, (f(1, 0, 0), f(0, 0, 3))), (Child(5, x, f(1, 0, 1)),))
    turn = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    table = label_table()
    assert orbit_equal(x, rotate_obj(x, turn), CTX, 3, grp.proper, table)
    assert orbit_equal(y, rotate_obj(y, turn), CTX, 3, grp.proper, table)
    assert sorted(k for _, k in table[4]) == [2, 3]
