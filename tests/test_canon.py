"""Canonical codes and isomorph-free enumeration.

Class counts are cross-checked two independent ways: bucketing all labelled
graphs by canonical code, and the permutation double count sum over classes of
n!/|Aut| = number of labelled objects.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orituran.canon import (
    CanonicalCode,
    _dropped,
    _extension_sets,
    _grow,
    _last_pinned_digits,
    _min_digits,
    _search,
    _twin_images,
    accept_child,
    canonical_code,
    enumerate_oriented_graphs,
    enumerate_tournaments,
    extend_masks,
    masks_from_digits,
)
from orituran.graphs import InvariantError, OrientedGraph, TooLargeError, _in_masks
from checkers import automorphism_order


def _all_labelled(n):
    pairs = list(itertools.combinations(range(n), 2))
    for digits in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (i, j), d in zip(pairs, digits):
            if d == 1:
                arcs.append((i, j))
            elif d == 2:
                arcs.append((j, i))
        yield OrientedGraph.from_arcs(n, arcs)


def _perm_code(g, perm):
    """Row-major digits of g relabelled so that position i holds vertex perm[i]."""
    digits = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.has_arc(perm[i], perm[j]):
                digits.append("1")
            elif g.has_arc(perm[j], perm[i]):
                digits.append("2")
            else:
                digits.append("0")
    return "".join(digits)


def _naive_min_code(g):
    return min(_perm_code(g, perm) for perm in itertools.permutations(range(g.n)))


def _random_graph(rng, n, p_arc):
    arcs = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p_arc:
            arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return OrientedGraph.from_arcs(n, arcs)


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return OrientedGraph.from_arcs(g.n, ((perm[u], perm[v]) for u, v in g.arcs()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_code_matches_naive_minimum(n):
    for g in _all_labelled(n):
        assert canonical_code(g).digits == _naive_min_code(g)


def test_code_invariant_under_permutation():
    g = OrientedGraph.from_arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    base = canonical_code(g)
    for perm in itertools.islice(itertools.permutations(range(5)), 40):
        h = g.induced(list(perm))
        assert canonical_code(h) == base


@pytest.mark.parametrize("n", [5, 6, 7])
def test_code_matches_naive_minimum_on_random_graphs(n):
    rng = random.Random(n)
    for _ in range(12):
        g = _random_graph(rng, n, rng.choice([0.3, 0.6, 0.9, 1.0]))
        assert canonical_code(g).digits == _naive_min_code(g)


def _circulant(n, steps):
    return OrientedGraph.from_arcs(n, ((i, (i + s) % n) for i in range(n) for s in steps))


@pytest.mark.parametrize(
    "g",
    [
        _circulant(10, [1]),  # directed C10
        OrientedGraph.from_arcs(10, [(i, (i + 1) % 5 + 5 * (i // 5)) for i in range(10)]),  # 2 x C5
        _circulant(7, [1, 2, 4]),  # quadratic-residue tournament
        _circulant(9, [1, 2, 3, 4]),
    ],
    ids=["C10", "2xC5", "QR7", "circ9"],
)
def test_code_invariant_under_relabelling_of_symmetric_graphs(g):
    rng = random.Random(g.n)
    base = canonical_code(g)
    assert _is_canonical(base.to_graph())
    for _ in range(25):
        assert canonical_code(_relabel(g, rng)) == base


def _naive_invariant(g, v):
    """(degree, out-degree, sum of out-neighbours' out-degrees) of v."""
    outs = [w for w in range(g.n) if g.has_arc(v, w)]
    ins = [u for u in range(g.n) if g.has_arc(u, v)]
    return len(outs) + len(ins), len(outs), sum(
        1 for w in outs for z in range(g.n) if g.has_arc(w, z)
    )


def _naive_accept(g):
    """The minimum code of g if vertex n-1 has the least (degree,
    out-degree, sum of out-neighbours' out-degrees), else None."""
    inv = [_naive_invariant(g, v) for v in range(g.n)]
    if inv[g.n - 1] != min(inv):
        return None
    return _naive_min_code(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_accept_child_matches_brute_force(n):
    rng = random.Random(100 + n)
    graphs = _all_labelled(n) if n <= 4 else (
        _random_graph(rng, n, rng.choice([0.3, 0.7, 1.0])) for _ in range(60)
    )
    for g in graphs:
        got = accept_child(g.out, g.n)
        assert (None if got is None else "".join(map(str, got))) == _naive_accept(g)


@st.composite
def _relabelled_children(draw):
    """A child on n <= 7 vertices and a copy with its first n-1 vertices permuted."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    digits = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(i, j) if d == 1 else (j, i) for (i, j), d in zip(pairs, digits) if d]
    perm = draw(st.permutations(range(n - 1))) + [n - 1]
    g = OrientedGraph.from_arcs(n, arcs)
    return g, OrientedGraph.from_arcs(n, ((perm[u], perm[v]) for u, v in arcs))


@settings(max_examples=300)
@given(_relabelled_children())
def test_accept_child_depends_only_on_the_class_of_child_and_new_vertex(pair):
    g, h = pair
    assert accept_child(g.out, g.n) == accept_child(h.out, h.n)


def _matrix_min_code(g):
    """_naive_min_code over a digit matrix: fast enough for n = 8."""
    d = [[1 if g.has_arc(i, j) else 2 if g.has_arc(j, i) else 0 for j in range(g.n)]
         for i in range(g.n)]
    pairs = list(itertools.combinations(range(g.n), 2))
    return min(bytes(d[p[i]][p[j]] for i, j in pairs)
               for p in itertools.permutations(range(g.n)))


def _twin_rich_graphs():
    """Stars with isolated vertices, one-way complete bipartite graphs (also
    with one arc inside a side, which leaves two joined vertices twins in all
    else), blow-ups of 3-vertex tournaments and sparse graphs padded with
    isolated vertices, each randomly relabelled."""
    rng = random.Random(8)
    graphs = []
    for n in range(2, 9):
        for leaves in range(1, n):
            p = rng.randrange(leaves + 1)  # in-leaves; the others are out-leaves
            arcs = [(v, 0) for v in range(1, p + 1)] + [(0, v) for v in range(p + 1, leaves + 1)]
            graphs.append(OrientedGraph.from_arcs(n, arcs))
        for a in range(1, n):
            k_ab = [(u, v) for u in range(a) for v in range(a, n)]
            graphs.append(OrientedGraph.from_arcs(n, k_ab))
            if a >= 2:
                graphs.append(OrientedGraph.from_arcs(n, k_ab + [(0, 1)]))
        parts = [v % 3 for v in range(n)]
        pairs = [(u, v) for u in range(n) for v in range(n)]
        graphs.append(OrientedGraph.from_arcs(n, [(u, v) for u, v in pairs if parts[u] < parts[v]]))
        graphs.append(OrientedGraph.from_arcs(
            n, [(u, v) for u, v in pairs if (parts[v] - parts[u]) % 3 == 1]
        ))
        graphs.append(OrientedGraph.empty(n))
        for _ in range(3):  # a sparse graph on some vertices, the rest isolated
            core = _random_graph(rng, rng.randint(2, n), 0.4)
            graphs.append(OrientedGraph.from_arcs(n, core.arcs()))
    return [_relabel(g, rng) for g in graphs]


def test_twin_pruned_search_matches_brute_force_on_twin_rich_graphs():
    rng = random.Random(9)
    graphs = _twin_rich_graphs()
    for g in graphs:
        if g.n == 8 and rng.random() < 0.8:
            continue  # brute force at n = 8 costs about 0.3 s a graph
        want = _matrix_min_code(g)
        assert _min_digits(g.out, g.n) == want, list(g.arcs())
        assert _is_canonical(g) == (bytes(int(c) for c in _digits_of_identity(g)) == want)
        canon = OrientedGraph(g.n, tuple(canonical_code(g).to_graph().out))
        assert _is_canonical(canon)
    for g in graphs:
        if g.n <= 6:
            got = accept_child(g.out, g.n)
            assert (None if got is None else "".join(map(str, got))) == _naive_accept(g)


def _cell_by_cell_min_code(g, cells):
    """The least row-major code over the labellings that list cells in order."""
    return min(_perm_code(g, [v for part in parts for v in part])
               for parts in itertools.product(*map(itertools.permutations, cells)))


def test_search_from_an_ordered_partition_matches_brute_force():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 6)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.9, 1.0]))
        if rng.random() < 0.3:
            g = rng.choice(_TWIN_RICH[max(n, 2)])
        k = rng.randint(1, 3)
        part = [rng.randrange(k) for _ in range(g.n)]
        cells = [[v for v in range(g.n) if part[v] == i] for i in range(k)]
        masks = [sum(1 << v for v in cell) for cell in cells]
        got = _search(g.out, g.in_masks, g.n, masks)
        assert "".join(map(str, got)) == _cell_by_cell_min_code(g, cells), (g.out, cells)


def test_pinned_codes_put_the_vertex_last():
    rng = random.Random(34)
    graphs = [_random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6, 1.0]))
              for _ in range(30)]
    graphs += [rng.choice(_TWIN_RICH[n]) for n in (5, 6, 7) for _ in range(2)]
    for g in graphs:
        for u in range(g.n):
            rest = [v for v in range(g.n) if v != u]
            got = _last_pinned_digits(g.out, g.in_masks, g.n, u)
            assert "".join(map(str, got)) == _cell_by_cell_min_code(g, [rest, [u]]), (g.out, u)


@settings(max_examples=150)
@given(st.integers(2, 8), st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 2**32 - 1))
def test_code_invariant_under_random_relabelling_up_to_eight(n, p_arc, seed):
    rng = random.Random(seed)
    g = _random_graph(rng, n, p_arc) if rng.random() < 0.5 else rng.choice(_TWIN_RICH[n])
    code = canonical_code(g)
    assert _is_canonical(code.to_graph())
    for _ in range(3):
        assert canonical_code(_relabel(g, rng)) == code


_TWIN_RICH = {n: [g for g in _twin_rich_graphs() if g.n == n] for n in range(2, 9)}


def test_is_isomorphic_agrees_with_networkx():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = _random_graph(rng, n, rng.choice([0.3, 0.6, 1.0]))
        h = _relabel(g, rng)
        if rng.random() < 0.5:  # reverse one arc: usually no longer isomorphic
            arcs = list(h.arcs())
            if arcs:
                u, v = arcs.pop(rng.randrange(len(arcs)))
                h = OrientedGraph.from_arcs(n, arcs + [(v, u)])
        gx = nx.DiGraph(list(g.arcs()))
        gx.add_nodes_from(range(n))
        hx = nx.DiGraph(list(h.arcs()))
        hx.add_nodes_from(range(n))
        assert (canonical_code(g) == canonical_code(h)) == nx.is_isomorphic(gx, hx)


def test_code_serialize_roundtrip():
    g = OrientedGraph.from_arcs(4, [(0, 1), (2, 3)])
    code = canonical_code(g)
    parsed = CanonicalCode.parse(code.serialize())
    assert parsed == code
    assert canonical_code(parsed.to_graph()) == code
    with pytest.raises(InvariantError):
        CanonicalCode.parse("4")
    with pytest.raises(InvariantError):
        CanonicalCode.parse("3:0145")


@pytest.mark.parametrize("text, message", [
    ("4", "code '4' lacks the 'n:' prefix"),
    ("x:0", "bad vertex count in code 'x:0'"),
    ("3:01", "code digit count does not match n=3"),
    ("3:0145", "code digit count does not match n=3"),
    ("3:041", "bad digit '4' in code"),
    ("3:01x", "bad digit 'x' in code"),
    ("3:2 0", "bad digit ' ' in code"),
    ("3:1\u06630", "bad digit '\u0663' in code"),  # a decimal digit that is not ASCII
    # vertex counts that int() reads but serialize never writes
    *((text, f"bad vertex count in code {text!r}") for text in (
        " 3:001", "3 :001", "+3:001", "\u0663:001", "-0:", "-1:0", "03:001", "00:",
        ":", "3_0:" + "0" * 435,
    )),
])
def test_code_errors_keep_their_messages(text, message):
    with pytest.raises(InvariantError) as parsed:
        CanonicalCode.parse(text)
    assert str(parsed.value) == message
    head, _, digits = text.partition(":")
    if digits and not message.startswith("bad vertex count"):
        with pytest.raises(InvariantError) as built:
            CanonicalCode(int(head), digits).to_graph()
        assert str(built.value) == message


@given(st.text("0123456789+-_ :\u0663", max_size=4), st.integers(0, 9), st.data())
def test_code_parse_accepts_only_the_text_serialize_writes(head, n, data):
    size = n * (n - 1) // 2
    digits = data.draw(st.text("012", min_size=size, max_size=size))
    for text in (f"{n}:{digits}", f"{head}:{digits}"):
        try:
            code = CanonicalCode.parse(text)
        except InvariantError:
            assert text != f"{n}:{digits}"
        else:
            assert code.serialize() == text


@given(st.integers(0, 9), st.data())
def test_code_to_graph_reads_each_digit_as_its_pair(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    digits = "".join(data.draw(st.lists(st.sampled_from("012"), min_size=len(pairs),
                                        max_size=len(pairs))))
    arcs = [(i, j) if d == "1" else (j, i) for (i, j), d in zip(pairs, digits) if d != "0"]
    assert CanonicalCode(n, digits).to_graph() == OrientedGraph.from_arcs(n, arcs)


def test_code_cap():
    with pytest.raises(TooLargeError):
        canonical_code(OrientedGraph.empty(11))


def test_is_canonical_consistent():
    # a labelling attains its canonical code exactly when the code's graph is g itself
    for g in _all_labelled(3):
        assert _is_canonical(g) == (canonical_code(g).to_graph() == g)


def _is_canonical(g):
    """Whether g's own labelling already attains its canonical code."""
    return canonical_code(g).digits == "".join(_digits_of_identity(g))


def _digits_of_identity(g):
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.has_arc(i, j):
                yield "1"
            elif g.has_arc(j, i):
                yield "2"
            else:
                yield "0"


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 7), (4, 42)])
def test_class_counts_match_labelled_bucketing(n, count):
    classes = {canonical_code(g).digits for g in _all_labelled(n)}
    assert len(classes) == count
    assert sum(1 for _ in enumerate_oriented_graphs(n)) == count


def test_enumeration_yields_canonical_distinct_representatives():
    seen = set()
    for g in enumerate_oriented_graphs(5):
        assert _is_canonical(g)
        code = canonical_code(g).digits
        assert code not in seen
        seen.add(code)
    assert len(seen) == 582


def test_enumeration_double_count_identity():
    # sum over classes of n!/|Aut| must equal the labelled total 3^C(n,2)
    n = 5
    total = sum(
        math.factorial(n) // automorphism_order(g) for g in enumerate_oriented_graphs(n)
    )
    assert total == 3 ** (n * (n - 1) // 2)


def _state_rule(k, tournament):
    """The state tuples the extension ints replaced: per old vertex u, 0 none,
    1 u->new, 2 new->u, sorted by (number of zeros, tuple)."""
    states = itertools.product((1, 2) if tournament else (0, 1, 2), repeat=k)
    return sorted(states, key=lambda st: (st.count(0), st))


def _extend_by_state(masks, state):
    k = len(masks)
    new = list(masks) + [0]
    for u, s in enumerate(state):
        if s == 1:
            new[u] |= 1 << k
        elif s == 2:
            new[k] |= 1 << u
    return tuple(new)


@pytest.mark.parametrize("tournament", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_extensions_match_the_state_rule(k, tournament):
    # a tournament parent takes the first 2^k extensions, those with k arcs
    states = _state_rule(k, tournament)
    sets = _extension_sets(k)
    xs = sets.exts[:sets.prefix[k]] if tournament else sets.exts
    assert len(xs) == len(states)
    # every labelled parent; the empty one alone already pins order and sides
    parents = [g.out for g in _all_labelled(k)]
    for state, x in zip(states, xs):
        assert x.bit_count() == k - state.count(0)
        for masks in parents:
            assert extend_masks(masks, x) == _extend_by_state(masks, state), (masks, state)


def test_tournament_counts():
    # OEIS A000568
    for k, count in [(1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56), (7, 456)]:
        assert len(enumerate_tournaments(k)) == count


_TOURNAMENT_ORDERS = """
import json, sys
from orituran.canon import enumerate_tournaments
lists = {k: enumerate_tournaments(k) for k in map(int, sys.argv[1:])}
again = enumerate_tournaments(3)
assert again is not lists[3] and again == lists[3]
again.clear()  # the cache hands out copies
assert enumerate_tournaments(3) == lists[3]
print(json.dumps({k: [g.out for g in lists[k]] for k in (3, 7)}))
"""


def test_tournament_lists_do_not_depend_on_the_order_asked():
    # each order in a fresh interpreter, so the first call starts from an empty cache
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    lists = []
    for order in (["3", "7"], ["7", "3"]):
        run = subprocess.run([sys.executable, "-c", _TOURNAMENT_ORDERS, *order],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        lists.append(json.loads(run.stdout))
    assert lists[0] == lists[1]
    assert [len(lists[0][k]) for k in ("3", "7")] == [2, 456]


def _codes_sha256(graphs, order=lambda codes: codes):
    text = "\n".join(order([canonical_code(g).serialize() for g in graphs]))
    return hashlib.sha256(text.encode()).hexdigest()


def test_oriented_graph_count_n6(oriented_graphs_6):
    # OEIS A001174; the sorted codes pin the class set itself
    graphs = oriented_graphs_6
    assert len(graphs) == 21480
    assert _codes_sha256(graphs, sorted) == (
        "307d000a0460b6538e173bf175e7f43b376da2ca0df8032b97bdd837f3ed2cd3"
    )
    # enumeration order is sorted by canonical digits, so the order pins too
    assert _codes_sha256(graphs) == (
        "307d000a0460b6538e173bf175e7f43b376da2ca0df8032b97bdd837f3ed2cd3"
    )


def test_class_sets_are_pinned():
    # sorted codes do not depend on the order in which classes are generated
    assert _codes_sha256(enumerate_tournaments(7), sorted) == (
        "18173e8ae95bab1f1d8d49b4f4d8bb6ab56ca28e7fe61edac877898bcad069e3"
    )
    assert _codes_sha256(enumerate_oriented_graphs(5), sorted) == (
        "66fc78903ea1066b45ffa6ee036a00b344f0b63d16e8b0e8169abaa508da1c46"
    )


def test_enumeration_bytes_are_pinned():
    # codes in enumeration order, which is sorted by canonical digits, so the
    # hashes equal the sorted class-set pins above
    assert _codes_sha256(enumerate_tournaments(7)) == (
        "18173e8ae95bab1f1d8d49b4f4d8bb6ab56ca28e7fe61edac877898bcad069e3"
    )
    assert _codes_sha256(enumerate_oriented_graphs(5)) == (
        "66fc78903ea1066b45ffa6ee036a00b344f0b63d16e8b0e8169abaa508da1c46"
    )


def test_tournament_double_count_identity():
    k = 6
    total = sum(
        math.factorial(k) // automorphism_order(t) for t in enumerate_tournaments(k)
    )
    assert total == 2 ** (k * (k - 1) // 2)


def test_tournaments_are_tournaments():
    for t in enumerate_tournaments(5):
        assert t.arc_count == 10
        assert _is_canonical(t)


def test_is_isomorphic_agrees_with_codes():
    # equal codes exactly when some relabelling of a gives b's digits
    gs = list(_all_labelled(3))
    for a in gs[:30]:
        for b in gs[:30]:
            b_digits = "".join(_digits_of_identity(b))
            isomorphic = any(_perm_code(a, perm) == b_digits
                             for perm in itertools.permutations(range(3)))
            assert isomorphic == (canonical_code(a) == canonical_code(b))


def test_automorphism_orders():
    assert automorphism_order(OrientedGraph.empty(4)) == 24
    c3 = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert automorphism_order(c3) == 3
    p3 = OrientedGraph.from_arcs(3, [(0, 1), (1, 2)])
    assert automorphism_order(p3) == 1


def test_enumeration_cap():
    with pytest.raises(TooLargeError):
        list(enumerate_oriented_graphs(8))
    with pytest.raises(TooLargeError):
        enumerate_tournaments(8)


def _reference_extensions(k):
    """The extension list by its definition: the state tuples sorted by
    (number of zeros, tuple), state 1 (u -> x) as bit u + k, state 2 as bit u."""
    return [_state_int(state, k) for state in _state_rule(k, False)]


def test_extension_sets_match_the_extension_list():
    # up to k = 9, the table an order-10 oracle run builds
    for k in range(10):
        xs = _reference_extensions(k)
        sets = _extension_sets(k)
        assert sets.exts == tuple(xs)

        def positions(test):
            return sum(1 << p for p, x in enumerate(xs) if test(x))

        def state(x, u):
            return 2 if x >> u & 1 else 1 if x >> u + k & 1 else 0

        assert sets.lanes == tuple(positions(lambda x, b=b: x >> b & 1) for b in range(2 * k))
        assert sets.prefix == tuple(
            sum(1 for x in xs if x.bit_count() >= t) for t in range(k + 2)
        )
        assert all(x.bit_count() >= t for t in range(k + 2) for x in xs[:sets.prefix[t]])
        assert sets.greater == {
            (u, w): positions(lambda x, u=u, w=w: state(x, u) > state(x, w))
            for u in range(k) for w in range(u + 1, k)
        }


# --- the per-parent filter of the extension list ----------------------------------


def _state_int(state, k):
    return sum(1 << u + (s == 1) * k for u, s in enumerate(state) if s)


def test_tournament_extensions_lead_the_list():
    for k in range(1, 7):
        sets = _extension_sets(k)
        assert list(sets.exts[:sets.prefix[k]]) == [
            _state_int(state, k) for state in _state_rule(k, True)
        ]


def _degree_cut(masks, k):
    """Positions whose child leaves some old vertex of smaller degree than the
    new one, read off each child's degrees."""
    ins = _in_masks(masks, k)
    degs = [(o | i).bit_count() for o, i in zip(masks, ins)]
    cut = 0
    for p, x in enumerate(_extension_sets(k).exts):
        grown = [d + (x >> v & 1 | x >> v + k & 1) for v, d in enumerate(degs)]
        if min(grown) < x.bit_count():
            cut |= 1 << p
    return cut


# p_arc 1.0 draws tournaments, 0.0 the empty graph
_PARENTS = (st.integers(1, 6), st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]), st.integers(0, 2**32 - 1))


@settings(max_examples=120)
@given(*_PARENTS)
def test_degree_cut_drops_only_rejected_children(k, p_arc, seed):
    parent = _random_graph(random.Random(seed), k, p_arc)
    ins = _in_masks(parent.out, k)
    sets = _extension_sets(k)
    cut = _degree_cut(parent.out, k)
    twins = _twin_images(parent.out, ins, sets.greater)
    assert _dropped(parent.out, ins, sets) & (1 << 3 ** k) - 1 == cut | twins
    for p, x in enumerate(_extension_sets(k).exts):
        if cut >> p & 1:
            assert accept_child(extend_masks(parent.out, x), k + 1) is None, (parent, x)


def _classes(graphs):
    """Canonical masks of the classes among graphs, sorted by canonical digits."""
    codes = {(g.n, _min_digits(g.out, g.n)) for g in graphs}
    return [masks_from_digits(d, n) for n, d in sorted(codes)]


def _labelled_tournaments(n):
    pairs = list(itertools.combinations(range(n), 2))
    for flips in itertools.product((False, True), repeat=len(pairs)):
        yield OrientedGraph.from_arcs(n, ((j, i) if f else (i, j) for (i, j), f in zip(pairs, flips)))


@pytest.mark.parametrize("tournament, n", [(False, 2), (False, 3), (False, 4),
                                           (True, 2), (True, 3), (True, 4), (True, 5)])
def test_grow_gives_every_class_from_a_complete_level(tournament, n):
    labelled = _labelled_tournaments if tournament else _all_labelled
    level = _classes(labelled(n - 1))
    assert _grow(level, n - 1, tournament) == _classes(labelled(n))


def _naive_children(masks, k, tournament):
    """The children, over every extension, whose new vertex has the least
    (degree, out-degree, sum of out-neighbours' out-degrees)."""
    for state in _state_rule(k, tournament):
        g = OrientedGraph(k + 1, _extend_by_state(masks, state))
        inv = [_naive_invariant(g, v) for v in range(k + 1)]
        if inv[k] == min(inv):
            yield g


@settings(max_examples=60)
@given(st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_grow_on_a_partial_level_ignores_labelling_and_order(k, tournament, seed):
    rng = random.Random(seed)
    classes = enumerate_tournaments(k) if tournament else list(enumerate_oriented_graphs(k))
    part = rng.sample(classes, min(len(classes), rng.randint(1, 6)))
    want = _classes(child for g in part for child in _naive_children(g.out, k, tournament))
    assert _grow([g.out for g in part], k, tournament) == want
    relabelled = [_relabel(g, rng).out for g in part]
    rng.shuffle(relabelled)
    assert _grow(relabelled, k, tournament) == want
