"""Value semantics of the graph types and the records: equality, hashing,
order, repr and immutability that callers rely on."""

import pytest

from orituran.canon import CanonicalCode, _extension_sets, canonical_code
from orituran.extremal import ExtremalRecord, PatternSpec, VerifyReport, VerifyRow
from orituran.graphs import BipartiteDigraph, OrientedGraph
from orituran.homomorphism import CompressibilityResult, VertexMap
from orituran.regularize import PipelineResult, RegularizeResult, RichSetCertificate, ZoomConfig


def _transitive(n):
    return OrientedGraph.from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_oriented_graph_is_a_value():
    a = OrientedGraph(3, (2, 4, 0))
    b = OrientedGraph.from_arcs(3, [(1, 2), (0, 1)])
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((3, (2, 4, 0)))
    assert len({a, b}) == 1
    assert a != OrientedGraph(3, (2, 0, 0))
    assert a != (3, (2, 4, 0)) and (3, (2, 4, 0)) != a
    assert OrientedGraph(0, ()) != BipartiteDigraph((), (), ())
    assert repr(a) == "OrientedGraph(n=3, out=(2, 4, 0))"


def test_bipartite_digraph_is_a_value():
    a = BipartiteDigraph((0, 1), (5, 6), (1, 3))
    b = BipartiteDigraph.from_arcs([0, 1], [5, 6], [(1, 6), (0, 5), (1, 5)])
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(((0, 1), (5, 6), (1, 3)))
    assert a != BipartiteDigraph((0, 1), (5, 6), (1, 1))
    assert a != ((0, 1), (5, 6), (1, 3)) and ((0, 1), (5, 6), (1, 3)) != a
    assert a != OrientedGraph(2, (0, 0))
    assert repr(a) == "BipartiteDigraph(part_u=(0, 1), part_w=(5, 6), out_masks=(1, 3))"


@pytest.mark.parametrize(
    "graph, field",
    [
        (OrientedGraph(2, (2, 0)), "n"),
        (OrientedGraph(2, (2, 0)), "out"),
        (BipartiteDigraph((0,), (1,), (1,)), "part_u"),
        (BipartiteDigraph((0,), (1,), (1,)), "out_masks"),
    ],
)
def test_graph_fields_cannot_be_set_or_deleted(graph, field):
    before = repr(graph)
    with pytest.raises(AttributeError):
        setattr(graph, field, getattr(graph, field))
    with pytest.raises(AttributeError):
        delattr(graph, field)
    with pytest.raises(AttributeError):
        graph.extra = 1
    assert repr(graph) == before


def test_derived_graph_values_are_computed_once():
    # 435 arcs: beyond the small ints CPython shares, so identity shows a cache
    g = _transitive(30)
    assert g.in_masks is g.in_masks
    assert g.arc_count == 435 and g.arc_count is g.arc_count
    h = BipartiteDigraph(tuple(range(30)), tuple(range(30, 60)), ((1 << 30) - 1,) * 30)
    assert h.arc_count == 900 and h.arc_count is h.arc_count


def test_canonical_codes_sort_by_vertex_count_then_digits():
    codes = [CanonicalCode(3, "110"), CanonicalCode(2, "2"), CanonicalCode(3, "012"),
             CanonicalCode(2, "0")]
    assert sorted(codes) == [CanonicalCode(2, "0"), CanonicalCode(2, "2"),
                             CanonicalCode(3, "012"), CanonicalCode(3, "110")]
    assert CanonicalCode(2, "2") < CanonicalCode(3, "000")
    assert canonical_code(_transitive(3)) == CanonicalCode.parse(
        canonical_code(_transitive(3)).serialize())


def test_extremal_record_nodes_default_to_zero():
    spec = PatternSpec.parse("dpath3")
    rec = ExtremalRecord(2, spec, 1, OrientedGraph.from_arcs(2, [(0, 1)]))
    assert rec.nodes == 0
    assert rec == ExtremalRecord(2, spec, 1, OrientedGraph.from_arcs(2, [(0, 1)]), nodes=0)


def _records():
    spec = PatternSpec.parse("dpath3")
    row = VerifyRow(3, 2, 2, "all n", "MATCH", "3:100")
    host = BipartiteDigraph((0,), (1,), (1,))
    return [
        (CanonicalCode(2, "1"), "digits"),
        (_extension_sets(1), "exts"),
        (spec, "graph"),
        (ExtremalRecord(2, spec, 1, OrientedGraph(2, (2, 0))), "nodes"),
        (row, "status"),
        (VerifyReport(spec, (row,)), "rows"),
        (VertexMap.of(2, 2, {0: 1, 1: 0}), "mapping"),
        (CompressibilityResult(None, None), "value"),
        (RegularizeResult(host, 0.5, 2.0, 1.0, 1, 1.0, 2, 1.0, 1.0, 1, 1), "Delta"),
        (RichSetCertificate((1,), 1, 1), "subset"),
        (ZoomConfig(r=1, h=2, d=1, seed=0), "seed"),
        (PipelineResult(None, (), "stage: reason"), "failure"),
    ]


@pytest.mark.parametrize(
    "record, field", _records(), ids=lambda x: x if isinstance(x, str) else type(x).__name__
)
def test_record_fields_cannot_be_set_or_deleted(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


def test_records_are_tuples_of_their_fields():
    code = CanonicalCode(3, "012")
    n, digits = code
    assert (n, digits) == code == (3, "012") and code[1] == "012"
    assert ZoomConfig(r=1, h=2, d=1, seed=0) == (1, 2, 1, 0)
