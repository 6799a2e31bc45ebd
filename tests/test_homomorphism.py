"""Homomorphism search and the compressibility invariant."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orituran.canon import enumerate_tournaments
from orituran.extremal import PatternSpec
from orituran.graphs import OrientedGraph, TooLargeError
from orituran.homomorphism import (
    EmptyPatternError,
    SearchPlan,
    VertexMap,
    compressibility,
    has_directed_cycle,
    hom_exists,
)
from checkers import is_homomorphism


def _tt(k):
    return OrientedGraph.from_arcs(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _c3():
    return OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def _naive_hom_exists(f, d):
    for img in itertools.product(range(d.n), repeat=f.n):
        if all(d.has_arc(img[u], img[v]) for u, v in f.arcs()):
            return True
    return False


def test_vertex_map_shape():
    vm = VertexMap.of(2, 3, {1: 0, 0: 2})
    assert vm.mapping == ((0, 2), (1, 0))
    assert len(vm.mapping) == vm.source_n
    assert vm.as_dict() == {0: 2, 1: 0}


def test_is_homomorphism_checks_arcs_and_totality():
    p3 = OrientedGraph.from_arcs(3, [(0, 1), (1, 2)])
    t = _tt(3)
    assert is_homomorphism(p3, t, VertexMap.of(3, 3, {0: 0, 1: 1, 2: 2}))
    assert not is_homomorphism(p3, t, VertexMap.of(3, 3, {0: 2, 1: 1, 2: 0}))
    assert not is_homomorphism(p3, t, VertexMap.of(3, 3, {0: 0, 1: 1}))


def test_homomorphisms_may_collapse_vertices():
    # both endpoints of a 2-matching can share an image arc
    m2 = OrientedGraph.from_arcs(4, [(0, 1), (2, 3)])
    arc = OrientedGraph.from_arcs(2, [(0, 1)])
    vm = hom_exists(m2, arc)
    assert vm is not None
    assert is_homomorphism(m2, arc, vm)


def test_has_directed_cycle():
    assert has_directed_cycle(_c3())
    assert not has_directed_cycle(_tt(4))
    assert not has_directed_cycle(OrientedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)]))
    c5 = OrientedGraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])
    assert has_directed_cycle(c5)


@pytest.mark.parametrize("dn", [2, 3])
def test_hom_exists_matches_naive(dn):
    # every pattern on <= 3 vertices against every target on dn vertices
    pats = []
    for bits in itertools.product((0, 1, 2), repeat=3):
        arcs = []
        for (i, j), d in zip([(0, 1), (0, 2), (1, 2)], bits):
            if d == 1:
                arcs.append((i, j))
            elif d == 2:
                arcs.append((j, i))
        pats.append(OrientedGraph.from_arcs(3, arcs))
    targets = [t for t in enumerate_tournaments(dn)]
    targets.append(OrientedGraph.empty(dn))
    for f in pats[:20]:
        for d in targets:
            got = hom_exists(f, d)
            assert (got is not None) == _naive_hom_exists(f, d)
            if got is not None:
                assert is_homomorphism(f, d, got)


def test_compressibility_table():
    table = [
        ("dpath2", 2),
        ("dpath3", 3),
        ("dpath4", 4),
        ("dpath5", 5),
        ("ttour3", 4),
        ("adpath4", 2),
    ]
    for token, want in table:
        res = compressibility(PatternSpec.parse(token).graph)
        assert res.value == want, token
        # the witness certifies the lower bound: one tournament short by one
        assert res.witness.n == want - 1
        assert hom_exists(PatternSpec.parse(token).graph, res.witness) is None


def test_compressibility_infinite_on_directed_cycles():
    res = compressibility(_c3())
    assert res.is_infinite and res.value is None and res.witness is None


def test_compressibility_upper_level_is_tight():
    # at z itself, every tournament admits the pattern
    p3 = PatternSpec.parse("dpath3").graph
    for t in enumerate_tournaments(3):
        assert hom_exists(p3, t) is not None


def test_compressibility_monotone_under_subpatterns():
    z3 = compressibility(PatternSpec.parse("dpath3").graph).value
    z4 = compressibility(PatternSpec.parse("dpath4").graph).value
    assert z3 <= z4


def test_compressibility_empty_pattern_rejected():
    with pytest.raises(EmptyPatternError):
        compressibility(OrientedGraph.empty(3))


def test_compressibility_cap():
    with pytest.raises(TooLargeError):
        compressibility(PatternSpec.parse("dpath8").graph)


# --- SearchPlan.search against a forward-checking reference ------------------------


def _reference_search(pattern, injective, marks, out, ins, on_leaf=None):
    """SearchPlan.search rebuilt from the pattern alone, with forward checking:
    assigning a step filters the candidate lists, copied per node, of the
    later steps joined to it by an arc, and cuts the branch when one runs
    empty.  One recursive call per leaf."""
    k, n = pattern.n, len(out)
    if injective and k > n:
        return None
    pout, pins = pattern.out, pattern.in_masks
    order = sorted(range(k), key=lambda u: (-(pout[u].bit_count() + pins[u].bit_count()), u))
    position = {u: i for i, u in enumerate(order)}
    degrees = [(pout[u].bit_count(), pins[u].bit_count()) for u in order]
    # a homomorphism may share images, so it only needs some out- and in-arc
    needs = degrees if injective else [(min(od, 1), min(idg, 1)) for od, idg in degrees]
    cand0 = [sum(1 << v for v in range(n)
                 if out[v].bit_count() >= od and ins[v].bit_count() >= idg)
             for od, idg in needs]
    lanes = [(marks or {}).get(u, 0) for u in order]
    lift = [int(injective) | (1 << lane * n if lane else 0) for lane in lanes]
    # later steps whose image must lie in the out- (in-) set of step i's image
    to_out = [[position[x] for x in range(k) if pout[u] >> x & 1 and position[x] > i]
              for i, u in enumerate(order)]
    to_in = [[position[x] for x in range(k) if pins[u] >> x & 1 and position[x] > i]
             for i, u in enumerate(order)]
    img = [0] * k

    def dfs(i, cands, taken):
        if i == k:
            return on_leaf is None or on_leaf(img, taken >> n)
        m = cands[i] & ~taken
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            t = taken | low * lift[i]
            new = cands[:]
            for j in to_out[i]:
                new[j] &= out[v]
            for j in to_in[i]:
                new[j] &= ins[v]
            if all(new[j] & ~t for j in to_out[i] + to_in[i]):
                img[i] = v
                if dfs(i + 1, new, t):
                    return True
        return False

    return img if all(cand0) and dfs(0, cand0, 0) else None


def _random_oriented(rng, n, p_arc):
    return OrientedGraph.from_arcs(n, [
        (i, j) if rng.random() < 0.5 else (j, i)
        for i, j in itertools.combinations(range(n), 2) if rng.random() < p_arc
    ])


def _leaves(search, host, stop_at):
    """(leaves seen, result) of one search whose on_leaf stops at leaf stop_at."""
    seen = []

    def on_leaf(img, key):
        seen.append((list(img), key))
        return len(seen) == stop_at

    found = search(host.out, host.in_masks, on_leaf)
    return seen, None if found is None else list(found)


def _assert_same_search(pattern, injective, marks, host, stops=(0,)):
    plan = SearchPlan(pattern, injective, marks)
    reference = functools.partial(_reference_search, pattern, injective, marks)
    first = plan.search(host.out, host.in_masks)
    want = reference(host.out, host.in_masks)
    assert (None if first is None else list(first)) == want
    for stop_at in stops:  # 0 never stops
        assert _leaves(plan.search, host, stop_at) == _leaves(reference, host, stop_at)
    return want


@settings(max_examples=150)
@given(
    st.integers(0, 4), st.integers(0, 6), st.sampled_from([0.3, 0.6, 1.0]),
    st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
)
def test_leaves_in_place_match_the_recursive_search(k, n, p_arc, injective, marked, seed):
    rng = random.Random(seed)
    pattern = _random_oriented(rng, k, rng.random())
    marks = {u: rng.choice((0, 1, 2)) for u in range(k)} if marked else None
    host = _random_oriented(rng, n, p_arc)
    _assert_same_search(pattern, injective, marks, host, stops=(0, 1, 3))


def _cycle(k):
    return OrientedGraph.from_arcs(k, [(i, (i + 1) % k) for i in range(k)])


# dense patterns, where forward checking cuts many branches in a sparse host
DENSE_PATTERNS = {
    "c5": _cycle(5),
    "c6": _cycle(6),
    "tt5": _tt(5),
    "rt5": OrientedGraph.from_arcs(5, [(i, (i + d) % 5) for i in range(5) for d in (1, 2)]),
    "diamond": OrientedGraph.from_arcs(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
}


def _planted(rng, pattern, n, p_arc):
    """A random host on n vertices with a copy of pattern forced onto random
    vertices."""
    out = list(_random_oriented(rng, n, p_arc).out)
    phi = rng.sample(range(n), pattern.n)
    for u, v in pattern.arcs():
        out[phi[v]] &= ~(1 << phi[u])
        out[phi[u]] |= 1 << phi[v]
    return OrientedGraph(n, tuple(out))


@pytest.mark.parametrize("injective", [True, False])
@pytest.mark.parametrize("name", sorted(DENSE_PATTERNS))
def test_dense_patterns_in_sparse_hosts_match_the_reference(name, injective):
    pattern = DENSE_PATTERNS[name]
    rng = random.Random(f"{name}-{injective}")
    found = []
    for trial in range(16):
        n, p_arc = rng.randint(6, 9), rng.choice([0.2, 0.35, 0.5])
        # every other host holds a planted copy; the rest mostly hold none
        host = _planted(rng, pattern, n, p_arc) if trial % 2 else _random_oriented(rng, n, p_arc)
        marks = {u: rng.choice((0, 1, 2)) for u in range(pattern.n)}
        found.append(_assert_same_search(pattern, injective, marks, host) is not None)
    assert any(found) and not all(found)


def test_plans_of_zero_and_one_vertex():
    empty, point = OrientedGraph.empty(0), OrientedGraph.empty(1)
    host = _c3()
    for injective in (True, False):
        assert SearchPlan(empty, injective).search(host.out, host.in_masks) == []
        assert SearchPlan(empty, injective).search((), ()) == []
        assert _leaves(SearchPlan(empty, injective).search, host, 0) == ([([], 0)], None)
        plan = SearchPlan(point, injective, {0: 2})
        assert plan.search(host.out, host.in_masks) == [0]
        assert plan.search((), ()) is None
        # the point's image is marked in lane 2, bits 3..5 of a 3-vertex host's key
        assert _leaves(plan.search, host, 3) == (
            [([0], 0b1000), ([1], 0b10000), ([2], 0b100000)], [2]
        )


# --- candidate sets: needs of 2 or more, sources, sinks and isolated vertices ------

# patterns whose needs reach 2 or 3 on one side (those of a homomorphism stay at 1)
HIGH_NEED_PATTERNS = ["star:0,3", "star:3,0", "star:2,2", "ttour4"]


def _sources_and_sinks(rng, n, p_arc):
    """A random host whose vertices are each isolated, a pure source, a pure
    sink or unrestricted, so each one-sided degree filter has vertices to drop."""
    role = [rng.choice("isox") for _ in range(n)]
    sends = [r in "sx" for r in role]  # may have an out-arc
    takes = [r in "ox" for r in role]  # may have an in-arc
    arcs = []
    for u, v in itertools.combinations(range(n), 2):
        ways = [(a, b) for a, b in ((u, v), (v, u)) if sends[a] and takes[b]]
        if ways and rng.random() < p_arc:
            arcs.append(rng.choice(ways))
    return OrientedGraph.from_arcs(n, arcs)


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("injective", [True, False])
@pytest.mark.parametrize("token", HIGH_NEED_PATTERNS)
def test_high_needs_in_hosts_with_sources_and_sinks_match_the_reference(
    token, injective, marked,
):
    pattern = PatternSpec.parse(token).graph
    rng = random.Random(f"{token}-{injective}-{marked}")
    found = []
    for _ in range(24):
        host = _sources_and_sinks(rng, rng.randint(4, 8), rng.choice([0.5, 0.8, 1.0]))
        marks = {u: rng.choice((0, 1, 2)) for u in range(pattern.n)} if marked else None
        found.append(_assert_same_search(pattern, injective, marks, host, stops=(0, 2)))
    assert any(found) and not all(found)


class _CountedMasks(list):
    """Host masks that count their reads by index: the search's arc checks."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("token", HIGH_NEED_PATTERNS)
def test_unmet_degree_needs_end_the_search_before_any_arc_check(token):
    # every vertex of a directed 6-cycle has out- and in-degree 1, below the
    # need of 2 or 3 that some step of each of these copy plans has
    plan = SearchPlan(PatternSpec.parse(token).graph, injective=True)
    host = _cycle(6)
    out, ins = _CountedMasks(host.out), _CountedMasks(host.in_masks)
    assert plan.search(out, ins) is None
    assert out.reads == ins.reads == 0
