"""Subgraph containment: witness checks, naive cross-validation, universal sweeps."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orituran.canon import (
    _extension_sets,
    _twin_images,
    accept_child,
    enumerate_tournaments,
    extend_masks,
)
from orituran.containment import (
    all_orientations_contain,
    all_tournaments_contain,
    contains_copy,
    contains_copy_through,
    is_free,
)
from orituran.extremal import PatternSpec, _copy_keys, _deletions, _forbidden
from orituran.graphs import (
    GraphError,
    InvariantError,
    LoopArcError,
    OrientedGraph,
    TooLargeError,
    _in_masks,
)
from orituran.homomorphism import VertexMap
from checkers import is_copy_witness


def orientation_graph(n, edges, bits):
    """Orient each undirected edge (u, v): bit 0 keeps u->v, bit 1 flips it."""
    out = [0] * n
    for i, (u, v) in enumerate(edges):
        if (bits >> i) & 1:
            out[v] |= 1 << u
        else:
            out[u] |= 1 << v
    return OrientedGraph(n, tuple(out))


def _naive_contains(host, pattern, through=None):
    for sub in itertools.permutations(range(host.n), pattern.n):
        if through is not None and through not in sub:
            continue
        if all(host.has_arc(sub[u], sub[v]) for u, v in pattern.arcs()):
            return True
    return False


NAMED_PATTERNS = [
    "dpath3", "dpath4", "dcycle3", "dcycle4", "ttour3", "ttour4", "star:1,2",
    "star:0,2", "star:2,0", "matching2", "adpath4", "oc4", "prop23", "prop23m",
    "p3plusarc", "thm32",
]


def _random_graph(rng, n, density):
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < density / 2:
                arcs.append((i, j))
            elif roll < density:
                arcs.append((j, i))
    return OrientedGraph.from_arcs(n, arcs)


def test_witness_checker_rejects_bad_maps():
    host = OrientedGraph.from_arcs(3, [(0, 1), (1, 2)])
    pat = OrientedGraph.from_arcs(2, [(0, 1)])
    assert is_copy_witness(host, pat, VertexMap.of(2, 3, {0: 0, 1: 1}))
    assert not is_copy_witness(host, pat, VertexMap.of(2, 3, {0: 1, 1: 0}))
    assert not is_copy_witness(host, pat, VertexMap.of(2, 3, {0: 0, 1: 0}))
    assert not is_copy_witness(host, pat, VertexMap.of(2, 3, {0: 0}))


def test_contains_copy_matches_naive():
    import random

    rng = random.Random(31)
    pats = [
        PatternSpec.parse("dpath3").graph,
        PatternSpec.parse("dcycle3").graph,
        PatternSpec.parse("adpath4").graph,
        PatternSpec.parse("matching2").graph,
        PatternSpec.parse("prop23").graph,
    ]
    for _ in range(40):
        host = _random_graph(rng, rng.randint(1, 6), rng.random())
        for pat in pats:
            got = contains_copy(host, pat)
            assert (got is not None) == _naive_contains(host, pat)
            if got is not None:
                assert is_copy_witness(host, pat, got)


def _digits_graph(n, digits):
    """The n-vertex graph whose upper-triangle pairs take the first C(n, 2)
    digits: 0 no arc, 1 arc i->j, 2 arc j->i."""
    pairs = itertools.combinations(range(n), 2)
    return OrientedGraph.from_arcs(
        n, [(i, j) if d == 1 else (j, i) for (i, j), d in zip(pairs, digits) if d]
    )


def _digraph(g):
    d = nx.DiGraph()
    d.add_nodes_from(range(g.n))
    d.add_edges_from(g.arcs())
    return d


@settings(max_examples=150)
@given(
    st.integers(1, 7), st.lists(st.integers(0, 2), min_size=21, max_size=21),
    st.integers(1, 5), st.lists(st.integers(0, 2), min_size=10, max_size=10),
)
def test_contains_copy_matches_networkx(n, host_digits, k, pattern_digits):
    host, pattern = _digits_graph(n, host_digits), _digits_graph(k, pattern_digits)
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(_digraph(host), _digraph(pattern))
    expected = next(matcher.subgraph_monomorphisms_iter(), None) is not None
    vm = contains_copy(host, pattern)
    assert (vm is not None) == expected
    if vm is not None:
        assert is_copy_witness(host, pattern, vm)


def test_contains_copy_reversal_symmetry():
    import random

    rng = random.Random(7)
    pat = PatternSpec.parse("dpath4").graph
    for _ in range(25):
        host = _random_graph(rng, 6, 0.7)
        assert (contains_copy(host, pat) is None) == (
            contains_copy(host.reverse(), pat.reverse()) is None
        )


def test_freeness_is_hereditary():
    import random

    rng = random.Random(11)
    pat = PatternSpec.parse("dpath3").graph
    for _ in range(25):
        host = _random_graph(rng, 6, 0.5)
        if is_free(host, pat):
            sub = host.induced([0, 2, 3, 5])
            assert is_free(sub, pat)


def test_contains_copy_through_pins_the_vertex():
    # 0->1->2 plus isolated 3: copies of the single arc avoid vertex 3
    host = OrientedGraph.from_arcs(4, [(0, 1), (1, 2)])
    arc = OrientedGraph.from_arcs(2, [(0, 1)])
    assert contains_copy_through(host, arc, 0) is not None
    assert contains_copy_through(host, arc, 3) is None
    vm = contains_copy_through(host, arc, 2)
    assert vm is not None
    assert 2 in dict(vm.mapping).values()
    with pytest.raises(ValueError):
        contains_copy_through(host, arc, 4)


def test_contains_copy_through_agrees_with_full_search():
    import random

    rng = random.Random(13)
    pat = PatternSpec.parse("dpath3").graph
    for _ in range(20):
        host = _random_graph(rng, 5, 0.6)
        full = contains_copy(host, pat) is not None
        through_any = any(
            contains_copy_through(host, pat, v) is not None for v in range(host.n)
        )
        assert full == through_any
        for v in range(host.n):
            vm = contains_copy_through(host, pat, v)
            assert (vm is not None) == _naive_contains(host, pat, through=v)
            if vm is not None:
                assert is_copy_witness(host, pat, vm)
                assert v in vm.as_dict().values()


def test_all_tournaments_contain_path():
    holds, cx = all_tournaments_contain(4, PatternSpec.parse("dpath4").graph)
    assert holds and cx is None


def test_all_tournaments_counterexample_is_first_miss():
    holds, cx = all_tournaments_contain(3, PatternSpec.parse("dcycle3").graph)
    assert not holds
    assert cx is not None and cx.n == 3
    assert contains_copy(cx, PatternSpec.parse("dcycle3").graph) is None


@pytest.mark.parametrize("token", ["ttour4", "star:0,3", "star:3,0"])
def test_tournament_sweep_matches_a_loop_of_copy_searches(token):
    pattern = PatternSpec.parse(token).graph
    for k in range(1, 7):
        first_miss = next((t for t in enumerate_tournaments(k) if contains_copy(t, pattern) is None),
                          None)
        assert all_tournaments_contain(k, pattern) == (first_miss is None, first_miss)


def test_orientation_graph_bit_semantics():
    edges = [(0, 1), (1, 2)]
    g0 = orientation_graph(3, edges, 0b00)
    assert sorted(g0.arcs()) == [(0, 1), (1, 2)]
    g1 = orientation_graph(3, edges, 0b01)
    assert sorted(g1.arcs()) == [(1, 0), (1, 2)]


def test_all_orientations_contain_small():
    # any orientation of a triangle contains a directed path on 3 vertices
    tri = [(0, 1), (1, 2), (0, 2)]
    holds, cx = all_orientations_contain(3, tri, PatternSpec.parse("dpath3").graph)
    assert holds and cx is None
    # but not a directed triangle: the transitive orientation misses it
    holds, cx = all_orientations_contain(3, tri, PatternSpec.parse("dcycle3").graph)
    assert not holds
    assert is_free(cx, PatternSpec.parse("dcycle3").graph)


def _naive_sweep(n, edges, pattern):
    """Every orientation in Gray order, each built afresh and searched by brute force."""
    for i in range(1 << len(edges)):
        g = orientation_graph(n, edges, i ^ (i >> 1))
        if not _naive_contains(g, pattern):
            return False, g.out
    return True, None


@settings(max_examples=60)
@given(st.integers(4, 7), st.integers(0, 2**32 - 1),
       st.sampled_from(NAMED_PATTERNS + ["star:0,3", "star:3,0", "star:2,2"]))
def test_orientation_sweep_matches_naive_sweep(n, seed, token):
    rng = random.Random(seed)
    # edges among a core of the vertices, one edge to each of up to two
    # pendant vertices, and the rest isolated, under a random relabelling
    core = rng.randint(max(3, n - 3), n)
    pendants = rng.randint(0, min(2, n - core))
    pairs = list(itertools.combinations(range(core), 2))
    edges = rng.sample(pairs, rng.randint(min(4, len(pairs)), min(10 - pendants, len(pairs))))
    edges += [(rng.randrange(core), v) for v in range(core, core + pendants)]
    label = rng.sample(range(n), n)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in edges]
    pattern = PatternSpec.parse(token).graph
    holds, cx = all_orientations_contain(n, edges, pattern)
    assert (holds, None if cx is None else cx.out) == _naive_sweep(n, edges, pattern)


def test_all_orientations_rejects_bad_edges():
    with pytest.raises(ValueError):
        all_orientations_contain(3, [(0, 1), (1, 0)], OrientedGraph.from_arcs(2, [(0, 1)]))
    with pytest.raises(ValueError):
        all_orientations_contain(3, [(1, 1)], OrientedGraph.from_arcs(2, [(0, 1)]))
    # a negative label would index from the end of the mask list
    for edge in ((-1, 0), (0, -1), (3, 0), (0, 3)):
        with pytest.raises(InvariantError):
            all_orientations_contain(3, [edge], OrientedGraph.from_arcs(2, [(0, 1)]))


def test_sweep_input_errors_are_graph_errors():
    # a caller that catches the package's GraphError sees each of them
    arc = OrientedGraph.from_arcs(2, [(0, 1)])
    host = OrientedGraph.from_arcs(3, [(0, 1), (1, 2)])
    cases = [
        (lambda: all_orientations_contain(3, [(0, 1), (1, 0)], arc), InvariantError,
         "duplicate undirected edges"),
        (lambda: all_orientations_contain(3, [(1, 1)], arc), LoopArcError,
         "loops cannot be oriented"),
        (lambda: contains_copy_through(host, arc, 3), InvariantError, "vertex 3 out of range"),
        # checked before a pattern too large for the host returns None
        (lambda: contains_copy_through(host, OrientedGraph.empty(4), 99), InvariantError,
         "vertex 99 out of range"),
    ]
    for call, error, message in cases:
        with pytest.raises(GraphError, match=message) as exc:
            call()
        assert exc.type is error


def test_all_orientations_edge_cap():
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)][:25]
    with pytest.raises(TooLargeError):
        all_orientations_contain(8, edges, OrientedGraph.from_arcs(2, [(0, 1)]))


# --- one-vertex extension test of the oracle -------------------------------------

# an arc plus an isolated vertex: deleting the isolated vertex needs nothing of x
ARC_PLUS_POINT = OrientedGraph.from_arcs(3, [(0, 1)])


def _free_parent(rng, k, pattern):
    """A random pattern-free graph on k vertices: delete arcs of copies until none."""
    g = _random_graph(rng, k, rng.random())
    while (vm := contains_copy(g, pattern)) is not None:
        u, v = rng.choice(sorted(pattern.arcs()))
        m = vm.as_dict()
        out = list(g.out)
        out[m[u]] &= ~(1 << m[v])
        g = OrientedGraph(k, tuple(out))
    return g


def _forbidden_pairs(masks, k, deletions):
    """The minimal copy keys of the parent, in order of size: the pair list the
    oracle tested each extension against before it used position bitsets."""
    minimal = []
    for p in sorted(_copy_keys(masks, _in_masks(masks, k), k, deletions), key=int.bit_count):
        if all(p & q != q for q in minimal):
            minimal.append(p)
    return minimal


def _hits(forbidden, x):
    return any(p & x == p for p in forbidden)


@given(
    st.sampled_from(NAMED_PATTERNS + ["arc+point"]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_forbidden_pairs_match_naive_through_search(token, k, seed):
    pattern = ARC_PLUS_POINT if token == "arc+point" else PatternSpec.parse(token).graph
    parent = _free_parent(random.Random(seed), k, pattern)
    forbidden = _forbidden_pairs(parent.out, k, _deletions(pattern))
    for x in _extension_sets(k).exts:
        child = OrientedGraph(k + 1, extend_masks(parent.out, x))
        hit = _hits(forbidden, x)
        assert hit == _naive_contains(child, pattern, through=k), (token, parent, x)
        assert hit == (contains_copy_through(child, pattern, k) is not None)


def _brute_force_pairs(parent, k, pattern):
    """Minimal forbidden pairs straight from the definition: every injective
    map of F - u into the parent that keeps F - u's arcs adds the pair of its
    images of u's out- and in-neighbours."""
    found = set()
    for u in range(pattern.n):
        rest = [v for v in range(pattern.n) if v != u]
        arcs = [(a, b) for a, b in pattern.arcs() if u not in (a, b)]
        for images in itertools.permutations(range(k), len(rest)):
            phi = dict(zip(rest, images))
            if all(parent.has_arc(phi[a], phi[b]) for a, b in arcs):
                found.add(
                    sum(1 << phi[v] for v in rest if pattern.has_arc(u, v))
                    | sum(1 << phi[v] + k for v in rest if pattern.has_arc(v, u))
                )
    return {p for p in found if not any(q != p and p & q == q for q in found)}


@settings(max_examples=100)
@given(
    st.sampled_from(NAMED_PATTERNS + ["arc+point"]),
    st.integers(2, 5),
    st.lists(st.integers(0, 2), min_size=10, max_size=10),
)
def test_forbidden_pairs_match_brute_force(token, k, digits):
    # the parent need not be pattern-free: the pairs are defined for any graph
    pattern = ARC_PLUS_POINT if token == "arc+point" else PatternSpec.parse(token).graph
    parent = _digits_graph(k, digits)
    got = _forbidden_pairs(parent.out, k, _deletions(pattern))
    assert len(set(got)) == len(got)
    assert set(got) == _brute_force_pairs(parent, k, pattern)


def test_forbidden_pairs_edge_cases():
    arc = OrientedGraph.from_arcs(2, [(0, 1)])
    # a parent holding F - u for an isolated u: every new vertex completes F
    assert _forbidden_pairs(arc.out, 2, _deletions(ARC_PLUS_POINT)) == [0]
    # with no arc, x needs one out- or in-neighbour in P; the other vertex is the point
    assert sorted(_forbidden_pairs((0, 0), 2, _deletions(ARC_PLUS_POINT))) == [1, 2, 4, 8]
    # F - u larger than the parent: no copy, no pair
    big = PatternSpec.parse("matching3").graph
    assert _forbidden_pairs(_random_graph(random.Random(5), 4, 0.9).out, 4, _deletions(big)) == []
    # the single arc: x needs one out-neighbour or one in-neighbour
    assert sorted(_forbidden_pairs((0,), 1, _deletions(arc))) == [0b01, 0b10]


# --- the oracle's per-parent bitsets ----------------------------------------------


@settings(max_examples=150)
@given(
    st.sampled_from(NAMED_PATTERNS + ["arc+point"]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_forbidden_positions_are_the_extensions_covering_a_pair(token, k, seed):
    pattern = ARC_PLUS_POINT if token == "arc+point" else PatternSpec.parse(token).graph
    parent = _free_parent(random.Random(seed), k, pattern)
    deletions = _deletions(pattern)
    keys = _copy_keys(parent.out, _in_masks(parent.out, k), k, deletions)
    covers = {}
    forbidden = _forbidden(keys, _extension_sets(k).lanes, covers)
    assert _forbidden(keys, _extension_sets(k).lanes, covers) == forbidden  # from the cache
    pairs = _forbidden_pairs(parent.out, k, deletions)
    xs = _extension_sets(k).exts
    assert ~forbidden & (1 << len(xs)) - 1 == sum(
        1 << p for p, x in enumerate(xs) if not _hits(pairs, x)
    )


def _accepted(masks, k, positions):
    """Distinct canonical digits of the accepted children at positions, in order."""
    found = []
    for p, x in enumerate(_extension_sets(k).exts):
        if positions >> p & 1:
            digits = accept_child(extend_masks(masks, x), k + 1)
            if digits is not None and digits not in found:
                found.append(digits)
    return found


@settings(max_examples=60)
@given(
    st.sampled_from(NAMED_PATTERNS),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_twin_filter_keeps_the_accepted_digits(token, k, seed):
    pattern = PatternSpec.parse(token).graph
    rng = random.Random(seed)
    # sparse parents have many false twins
    parent = _free_parent(rng, k, pattern) if rng.random() < 0.5 else _random_graph(rng, k, 0.3)
    ins = _in_masks(parent.out, k)
    sets = _extension_sets(k)
    live = ~_forbidden(_copy_keys(parent.out, ins, k, _deletions(pattern)), sets.lanes, {})
    live &= (1 << 3 ** k) - 1
    twins = _twin_images(parent.out, ins, sets.greater)
    assert _accepted(parent.out, k, live & ~twins) == _accepted(parent.out, k, live)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_twin_filter_on_the_empty_parent_keeps_the_sorted_states(k):
    # every vertex of the empty parent is a twin of every other, so only the
    # extensions whose states never fall from one vertex to the next survive
    empty = (0,) * k
    kept = ~_twin_images(empty, [0] * k, _extension_sets(k).greater)
    xs = _extension_sets(k).exts

    def state(x, u):
        return 2 if x >> u & 1 else 1 if x >> u + k & 1 else 0

    assert kept & (1 << len(xs)) - 1 == sum(
        1 << p for p, x in enumerate(xs)
        if all(state(x, u) <= state(x, u + 1) for u in range(k - 1))
    )
