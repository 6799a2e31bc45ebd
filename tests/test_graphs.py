"""Core graph values: construction invariants, codec, degree bookkeeping."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orituran.graphs import (
    AntiparallelArcError,
    BipartiteDigraph,
    InvariantError,
    LoopArcError,
    OrientedGraph,
    ParseError,
    TooLargeError,
    decode,
    decode_undirected,
    encode,
)
from checkers import encode_undirected


def test_from_arcs_roundtrip():
    g = OrientedGraph.from_arcs(4, [(0, 1), (2, 3), (1, 3)])
    assert g.n == 4
    assert g.arc_count == 3
    assert list(g.arcs()) == [(0, 1), (1, 3), (2, 3)]
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)


def test_loop_rejected():
    with pytest.raises(LoopArcError):
        OrientedGraph.from_arcs(2, [(1, 1)])


def test_antiparallel_rejected():
    with pytest.raises(AntiparallelArcError):
        OrientedGraph.from_arcs(2, [(0, 1), (1, 0)])


def test_vertex_cap():
    OrientedGraph.empty(64)
    with pytest.raises(InvariantError) as exc:
        OrientedGraph.empty(65)
    assert isinstance(exc.value, TooLargeError)  # the CLI maps it to the cap exit code


def test_out_mask_bounds():
    with pytest.raises(InvariantError):
        OrientedGraph(2, (4, 0))
    with pytest.raises(InvariantError):
        OrientedGraph(2, (0,))


def test_arc_range_checked():
    with pytest.raises(InvariantError):
        OrientedGraph.from_arcs(2, [(0, 2)])


def test_degrees_and_reverse():
    g = OrientedGraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert g.out_degree(0) == 2 and g.in_degree(0) == 0
    assert g.in_degree(2) == 2
    r = OrientedGraph(g.n, g.in_masks)
    assert sorted(r.arcs()) == [(1, 0), (2, 0), (2, 1)]
    assert OrientedGraph(r.n, r.in_masks) == g


def test_induced_relabels_in_given_order():
    g = OrientedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    h = g.induced([2, 1, 3])
    # 2->3 becomes 0->2, 1->2 becomes 1->0
    assert sorted(h.arcs()) == [(0, 2), (1, 0)]
    with pytest.raises(InvariantError):
        g.induced([0, 0])


def test_induced_rejects_vertices_out_of_range():
    g = OrientedGraph.from_arcs(3, [(0, 1), (1, 2)])
    # -1 would index vertex 2 from the end, 3 would fall off the mask tuple
    for vertices in ([-1, 0], [3]):
        with pytest.raises(InvariantError, match=r"outside 0\.\.2"):
            g.induced(vertices)


def test_encode_is_sorted_and_stable():
    a = OrientedGraph.from_arcs(3, [(2, 0), (0, 1)])
    b = OrientedGraph.from_arcs(3, [(0, 1), (2, 0)])
    assert encode(a) == encode(b) == "3\n0 1\n2 0\n"


def test_decode_roundtrip_with_comments():
    text = "# pattern\n\n3\n0 1\n# middle\n1 2\n"
    g = decode(text)
    assert list(g.arcs()) == [(0, 1), (1, 2)]
    assert decode(encode(g)) == g


def test_decode_error_positions():
    with pytest.raises(ParseError) as exc:
        decode("3\n0 x\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        decode("")
    with pytest.raises(ParseError):
        decode("3\n0 1 2\n")
    with pytest.raises(ParseError):
        decode("3\n0 5\n")
    with pytest.raises(LoopArcError):
        decode("3\n1 1\n")
    with pytest.raises(AntiparallelArcError):
        decode("3\n0 1\n1 0\n")


def test_undirected_codec():
    text = encode_undirected(4, [(3, 1), (0, 1)])
    assert text == "undirected\n4\n0 1\n1 3\n"
    # an edge written both ways, or twice, is encoded once
    assert encode_undirected(2, [(0, 1), (1, 0)]) == "undirected\n2\n0 1\n"
    n, edges = decode_undirected(text)
    assert n == 4 and edges == ((0, 1), (1, 3))
    # decoding deduplicates repeated edges regardless of direction
    n, edges = decode_undirected("undirected\n4\n1 3\n3 1\n")
    assert edges == ((1, 3),)
    with pytest.raises(ParseError):
        decode_undirected("4\n0 1\n")
    with pytest.raises(LoopArcError):
        decode_undirected("undirected\n3\n2 2\n")


@st.composite
def _graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    digits = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    return OrientedGraph.from_arcs(
        n, [(i, j) if d == 1 else (j, i) for (i, j), d in zip(pairs, digits) if d]
    )


@given(_graphs())
def test_og_round_trip(g):
    assert decode(encode(g)) == g


@given(_graphs(), st.data())
def test_og_encoding_is_stable_under_comments_blanks_and_arc_order(g, data):
    arcs = data.draw(st.permutations([f"{u} {v}" for u, v in g.arcs()]))
    noise = st.sampled_from(["", "   ", "# note", "  # indented note", "#"])
    lines = data.draw(st.lists(noise, max_size=3)) + [f" {g.n} "]
    for arc in arcs:
        lines += data.draw(st.lists(noise, max_size=2)) + [arc]
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n", "\n\n# end\n"]))
    assert encode(decode(text)) == encode(g)
    assert encode(decode(encode(decode(text)))) == encode(decode(text))


@given(st.integers(2, 12), st.data())
def test_decode_undirected_sorts_and_deduplicates(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=30))
    written = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    text = "undirected\n# host\n" + f"{n}\n" + "".join(f"{u} {v}\n\n" for u, v in written)
    got_n, got = decode_undirected(text)
    assert got_n == n
    assert got == tuple(sorted(set(edges)))
    assert decode_undirected(encode_undirected(n, got)) == (n, got)


@given(st.integers(2, 12), st.data())
def test_encode_undirected_ignores_edge_direction_and_repeats(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=30))
    written = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    text = encode_undirected(n, written)
    assert text == encode_undirected(n, sorted(set(edges)))
    assert decode_undirected(text) == (n, tuple(sorted(set(edges))))


def _first_antiparallel_pair(out):
    """The antiparallel pair the constructor names, found arc by arc."""
    for u, mask in enumerate(out):
        for v in range(len(out)):
            if mask >> v & 1 and out[v] >> u & 1:
                return u, v
    return None


@given(st.integers(0, 9), st.data())
def test_antiparallel_error_names_the_first_pair_arc_by_arc(n, data):
    out = tuple(data.draw(st.integers(0, (1 << n) - 1)) & ~(1 << u) for u in range(n))
    pair = _first_antiparallel_pair(out)
    if pair is None:
        assert OrientedGraph(n, out).in_masks == tuple(
            sum(1 << u for u in range(n) if out[u] >> v & 1) for v in range(n)
        )
    else:
        with pytest.raises(AntiparallelArcError) as info:
            OrientedGraph(n, out)
        assert str(info.value) == f"antiparallel pair between {pair[0]} and {pair[1]}"


def test_bipartite_basicstructure():
    b = BipartiteDigraph.from_arcs([10, 11], [20, 21, 22], [(10, 20), (10, 22), (11, 21)])
    assert b.n == 5
    assert b.arc_count == 3
    assert list(b.arcs()) == [(10, 20), (10, 22), (11, 21)]
    assert b.min_out_degree() == 1


def test_bipartite_part_overlap_rejected():
    with pytest.raises(InvariantError):
        BipartiteDigraph((0, 1), (1, 2), (0, 0))
    with pytest.raises(InvariantError):
        BipartiteDigraph.from_arcs([0], [1], [(1, 0)])


def test_bipartite_restrict_preserves_ids():
    b = BipartiteDigraph.from_arcs(
        [0, 1, 2], [3, 4, 5], [(0, 3), (0, 4), (1, 4), (2, 5)]
    )
    s = b.restrict([2, 0], [5, 4])
    assert s.part_u == (2, 0) and s.part_w == (5, 4)
    assert sorted(s.arcs()) == [(0, 4), (2, 5)]
    # a restriction of a restriction still refers to original ids
    s2 = s.restrict([0], [4])
    assert list(s2.arcs()) == [(0, 4)]


def test_bipartite_no_vertex_cap():
    wide = BipartiteDigraph(tuple(range(300)), tuple(range(300, 400)), (1,) * 300)
    assert wide.n == 400
    assert wide.arc_count == 300


def _loop_restrict(b, u_ids, w_ids):
    w_pos = {w: j for j, w in enumerate(b.part_w)}
    keep_w = [w_pos[w] for w in w_ids]
    u_pos = {u: i for i, u in enumerate(b.part_u)}
    masks = []
    for u in u_ids:
        old = b.out_masks[u_pos[u]]
        masks.append(sum(1 << new_j for new_j, old_j in enumerate(keep_w) if old >> old_j & 1))
    return BipartiteDigraph(tuple(u_ids), tuple(w_ids), tuple(masks))


@pytest.mark.parametrize("nu,nw", [(0, 3), (3, 0), (1, 1), (7, 5), (300, 67)])
def test_bipartite_restrict_matches_per_bit_loop(nu, nw):
    rng = random.Random(nu * 1000 + nw + 1)
    part_u = tuple(range(nu))
    part_w = tuple(range(nu, nu + nw))
    b = BipartiteDigraph(part_u, part_w, tuple(rng.getrandbits(nw) if nw else 0 for _ in range(nu)))
    u_ids = rng.sample(part_u, nu // 2 + 1) if nu else []
    shuffled = rng.sample(part_w, nw)
    for w_ids in (sorted(shuffled), shuffled, shuffled[: nw // 2], shuffled[:1], []):
        assert b.restrict(u_ids, w_ids) == _loop_restrict(b, u_ids, w_ids)
