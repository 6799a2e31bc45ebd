"""Exact extremal values: oracle vs brute force, closed forms, constructions."""

import hashlib
import itertools
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orituran import cli, extremal, patterns
from orituran.canon import (
    CanonicalCode,
    _extension_sets,
    _min_digits,
    accept_child,
    canonical_code,
    enumerate_oriented_graphs,
    extend_masks,
    masks_from_digits,
)
from orituran.cli import main
from orituran.containment import is_free
from orituran.extremal import (
    BadParamsError,
    BudgetExceededError,
    NoFormulaError,
    PatternSpec,
    build_construction,
    formula_value,
    oracle_exo,
    turan_edges,
    verify_against_formula,
)
from orituran.graphs import (
    OrientedGraph,
    TooLargeError,
    VertexCapError,
    _in_masks,
)
from orituran.homomorphism import EmptyPatternError, SearchPlan
from test_containment import _naive_contains


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


def _naive_exo(n, pattern):
    return max(g.arc_count for g in _all_labelled(n) if is_free(g, pattern))


# --- pattern tokens -------------------------------------------------------------


def test_parse_tokens_roundtrip():
    for token in [
        "dpath3",
        "dpath5",
        "dcycle4",
        "ttour3",
        "star:1,2",
        "star:0,3",
        "matching2",
        "adpath4",
        "oc4",
        "prop23",
        "prop23m",
        "p3plusarc",
        "thm32",
    ]:
        spec = PatternSpec.parse(token)
        assert spec.token == token
        assert PatternSpec.parse(spec.token) == spec


def test_parse_cycle_alias():
    assert PatternSpec.parse("c3") == PatternSpec.parse("dcycle3")


def test_parse_rejects_garbage():
    for bad in ["", "dpath", "dpathx", "star:1", "star:a,b", "nope5"]:
        with pytest.raises(BadParamsError):
            PatternSpec.parse(bad)


def test_pattern_shapes():
    assert PatternSpec.parse("oc4").graph.arc_count == 4
    assert PatternSpec.parse("prop23").graph.n == 4
    assert PatternSpec.parse("thm32").graph.arc_count == 4
    assert PatternSpec.parse("star:2,3").graph.out_degree(0) == 3
    assert PatternSpec.parse("star:2,3").graph.in_degree(0) == 2


def test_custom_pattern_needs_arcs():
    with pytest.raises(EmptyPatternError):
        PatternSpec.custom(OrientedGraph.empty(3))


def test_parse_pins_every_named_pattern():
    # each family at its least and a typical size, every fixed token, stars
    # with an empty side on either end, the c alias, case, spaces, zeros
    tokens = [
        "dpath2", "dpath5", "dcycle3", "dcycle6", "ttour2", "ttour5",
        "matching1", "matching3", "adpath2", "adpath5",
        "oc4", "prop23", "prop23m", "p3plusarc", "thm32",
        "star:0,1", "star:1,2", "star:2,0", "c3", " DPATH4 ", "dpath04",
    ]
    specs = [PatternSpec.parse(t) for t in tokens]
    pinned = repr([(s.kind, s.params, s.graph.out) for s in specs]).encode()
    assert hashlib.sha256(pinned).hexdigest() == (
        "8598f08d224401c9b28b72784c927c6dc1161ec4459fedba117081e2fb611c13"
    )


@pytest.mark.parametrize("token, exc, message", [
    ("dpath1", BadParamsError, "a directed path needs at least 2 vertices"),
    ("dcycle2", BadParamsError, "a directed cycle needs at least 3 vertices"),
    ("ttour1", BadParamsError, "a transitive tournament pattern needs at least 2 vertices"),
    ("matching0", BadParamsError, "matching needs k >= 1"),
    ("adpath1", BadParamsError, "an antidirected path needs at least 2 vertices"),
    ("star:0,0", BadParamsError, "star needs p, q >= 0 with p + q >= 1"),
    ("star:-1,2", BadParamsError, "bad star parameters in 'star:-1,2'"),
    ("star:1", BadParamsError, "star token must look like star:p,q, got 'star:1'"),
    ("star:a,b", BadParamsError, "bad star parameters in 'star:a,b'"),
    ("nope5", BadParamsError, "unknown pattern token 'nope5'"),
    ("ttour3000", VertexCapError, "vertex count 3000 exceeds cap 64"),
    ("star:99999999,1", VertexCapError, "vertex count 100000001 exceeds cap 64"),
])
def test_parse_error_messages(token, exc, message):
    # the CLI prints these on stderr
    with pytest.raises(exc) as info:
        PatternSpec.parse(token)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("token", ["star:+1,2", "star: 1 , 2", "star:1_0,2", "star:\u0661,2",
                                   "dpath\u0663"])
def test_parse_takes_ascii_digits_only(token):
    # int() reads each of these: a sign, spaces, an underscore, Arabic-Indic digits
    with pytest.raises(BadParamsError):
        PatternSpec.parse(token)
    assert main(["exo", "--n", "3", "--pattern", token]) == 2


def test_parse_rejects_digits_int_cannot_read():
    # "²" is a digit to str.isdigit but not a decimal, and int() rejects it
    with pytest.raises(BadParamsError, match="unknown pattern token 'dpath²'"):
        PatternSpec.parse("dpath²")


# --- closed forms ---------------------------------------------------------------


def test_turan_edges():
    assert turan_edges(10, 3) == 33
    assert turan_edges(7, 2) == 12
    assert turan_edges(5, 5) == 10
    assert turan_edges(3, 5) == 3


def test_formula_paths_and_cycles():
    assert formula_value(PatternSpec.parse("dpath3"), 7) == (12, "all n")
    assert formula_value(PatternSpec.parse("dpath4"), 7) == (16, "all n")
    assert formula_value(PatternSpec.parse("dcycle4"), 9) == (36, "all n")
    assert formula_value(PatternSpec.parse("ttour3"), 7) == (16, "all n")


def test_formula_stars():
    # out-stars: (q-1)n, exact once n >= 2q-1
    assert formula_value(PatternSpec.parse("star:0,2"), 4) == (4, "all n")
    assert formula_value(PatternSpec.parse("star:0,3"), 5) == (10, "all n")
    assert formula_value(PatternSpec.parse("star:0,3"), 4)[1] == "sufficiently large n"
    # mixed stars: (p-1)n + floor((n+q-p)^2/4)
    assert formula_value(PatternSpec.parse("star:1,2"), 10) == (
        30,
        "sufficiently large n",
    )
    # p > q mirrors to the reversed star
    assert formula_value(PatternSpec.parse("star:2,1"), 10) == (
        30,
        "sufficiently large n",
    )


def test_formula_matchings():
    # piecewise maximum over clique-plus-dominating-set shapes
    assert formula_value(PatternSpec.parse("matching2"), 10) == (9, "all n")
    assert formula_value(PatternSpec.parse("matching2"), 4) == (3, "all n")
    assert formula_value(PatternSpec.parse("matching3"), 10) == (17, "all n")


def test_formula_special_patterns():
    assert formula_value(PatternSpec.parse("adpath4"), 6) == (9, "all n")
    assert formula_value(PatternSpec.parse("prop23"), 6) == (9, "sufficiently large n")
    assert formula_value(PatternSpec.parse("p3plusarc"), 6) == (
        9,
        "sufficiently large n",
    )
    assert formula_value(PatternSpec.parse("thm32"), 6) == (
        12,
        "sufficiently large n",
    )
    assert formula_value(PatternSpec.parse("oc4"), 8) == (21, "all n")


def test_formula_absent():
    with pytest.raises(NoFormulaError):
        formula_value(PatternSpec.parse("adpath5"), 6)
    with pytest.raises(TooLargeError):
        formula_value(PatternSpec.parse("ttour4"), 6)


# --- oracle ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "token",
    ["dpath3", "dpath4", "dcycle3", "ttour3", "matching2", "star:0,2", "star:1,2",
     "adpath4", "oc4", "prop23", "prop23m", "p3plusarc", "thm32"],
)
def test_oracle_matches_brute_force(token):
    spec = PatternSpec.parse(token)
    for n in range(1, 5):
        rec = oracle_exo(n, spec)
        assert rec.value == _naive_exo(n, spec.graph)
        assert is_free(rec.witness, spec.graph)
        assert rec.witness.arc_count == rec.value


@given(st.integers(2, 4), st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_oracle_matches_brute_force_on_random_patterns(k, digits):
    pairs = itertools.combinations(range(k), 2)  # zip uses the first C(k, 2) digits
    arcs = [(i, j) if d == 1 else (j, i) for (i, j), d in zip(pairs, digits) if d]
    if not arcs:
        arcs = [(0, 1)]
    pattern = OrientedGraph.from_arcs(k, arcs)
    for n in range(1, 5):
        rec = oracle_exo(n, pattern)
        assert rec.value == _naive_exo(n, pattern), (arcs, n)
        assert is_free(rec.witness, pattern)


def test_oracle_frozen_values():
    # (pattern, n, value, nodes, witness): nodes pins the work as well as the
    # answer, and the witness's canonical code the smallest among all maxima.
    # Every order is seeded by the order below, grown by a vertex; nodes
    # count this order's search alone.
    frozen = [
        ("dpath3", 5, 6, 26, "5:0011011110"),
        ("dpath3", 6, 9, 34, "6:001110111111000"),
        ("dpath3", 7, 12, 54, "7:000111001110111111000"),
        ("adpath4", 5, 7, 113, "5:0012012121"),
        ("adpath4", 6, 9, 382, "6:000120012012121"),
        ("star:1,2", 6, 12, 297, "6:001110111111121"),
        ("prop23", 6, 9, 214, "6:000220022022221"),
        ("p3plusarc", 6, 9, 1355, "6:000110022022221"),
        ("thm32", 6, 12, 627, "6:001110111111121"),
        ("dpath4", 7, 16, 172, "7:001111011111111011110"),
        ("ttour3", 7, 16, 110, "7:001122011221122011110"),
        ("star:1,2", 7, 16, 573, "7:001111011111111001121"),
        ("matching2", 7, 6, 188, "7:000001000010001001011"),
        ("prop23", 7, 12, 365, "7:000111001110111111000"),
        ("adpath4", 7, 11, 942, "7:000012000120012012121"),
        ("p3plusarc", 7, 11, 2085, "7:000011000220022022221"),
        ("thm32", 7, 16, 1499, "7:001111011111111002121"),
        ("star:0,2", 7, 7, 794, "7:000001000010001001121"),
        ("oc4", 7, 16, 938, "7:001111011111111011110"),
        ("star:0,3", 4, 6, 22, "4:112111"),
        ("adpath3", 7, 7, 794, "7:000002000020002002121"),
        ("ttour4", 6, 15, 326, "6:111221211112211"),
        ("ttour4", 7, 21, 230, "7:111222121121121211121"),
        ("ttour5", 7, 21, 2678, "7:111111111221211112211"),
        ("adpath5", 7, 15, 10470, "7:000022011221122011111"),
        ("adpath6", 7, 17, 5435, "7:001122011221122011111"),
    ]
    for token, n, want, nodes, witness in frozen:
        rec = oracle_exo(n, PatternSpec.parse(token))
        assert (rec.value, rec.nodes) == (want, nodes), (token, n)
        assert canonical_code(rec.witness).serialize() == witness, (token, n)
        assert is_free(rec.witness, PatternSpec.parse(token).graph)


# The paper's table: every oriented graph F with 1-3 arcs and no isolated
# vertex, by canonical code, with exo(n, F) for n = 2..7.
THREE_ARC_EXO = {
    "2:1": (0, 0, 0, 0, 0, 0),
    "3:011": (1, 3, 4, 5, 6, 7),
    "3:012": (1, 2, 4, 6, 9, 12),
    "3:022": (1, 3, 4, 5, 6, 7),
    "3:111": (1, 3, 5, 8, 12, 16),
    "3:121": (1, 3, 6, 10, 15, 21),
    "4:001011": (1, 3, 6, 10, 12, 14),
    "4:001012": (1, 3, 6, 9, 12, 16),
    "4:001022": (1, 3, 6, 9, 12, 16),
    "4:001100": (1, 3, 3, 4, 5, 6),
    "4:001101": (1, 3, 5, 7, 9, 12),
    "4:001110": (1, 3, 5, 7, 9, 11),
    "4:001120": (1, 3, 5, 8, 12, 16),
    "4:002022": (1, 3, 6, 10, 12, 14),
    "4:002110": (1, 3, 5, 7, 9, 12),
    "5:0001001100": (1, 3, 6, 7, 9, 11),
    "5:0001002100": (1, 3, 6, 7, 9, 12),
    "5:0001020200": (1, 3, 6, 7, 9, 11),
    "6:000010010100000": (1, 3, 6, 10, 10, 11),
}


def test_three_arc_table_up_to_six(oriented_graphs_6):
    classes = [g for k in range(2, 6) for g in enumerate_oriented_graphs(k)]
    patterns = {
        canonical_code(f).serialize(): f
        for f in classes + list(oriented_graphs_6)
        if 1 <= f.arc_count <= 3 and all(o | i for o, i in zip(f.out, f.in_masks))
    }
    assert sorted(patterns) == sorted(THREE_ARC_EXO)
    exo = {code: tuple(oracle_exo(n, PatternSpec.custom(f)).value for n in range(2, 7))
           for code, f in patterns.items()}
    assert exo == {code: row[:5] for code, row in THREE_ARC_EXO.items()}
    # densest classes first, so the first F-free one has exo(n, F) arcs
    hosts = {n: sorted(enumerate_oriented_graphs(n), key=lambda g: -g.arc_count)
             for n in range(2, 6)}
    for code, f in patterns.items():
        assert exo[canonical_code(OrientedGraph(f.n, f.in_masks)).serialize()] == exo[code]
        value = dict(zip(range(2, 7), exo[code]))
        for n in range(3, 7):
            # an isolated vertex keeps a graph F-free; averaging over the n
            # vertex deletions counts each arc n - 2 times
            assert value[n - 1] <= value[n] <= n * value[n - 1] // (n - 2), (code, n)
        for n in range(2, 6):
            free = next(g for g in hosts[n] if not _naive_contains(g, f))
            assert value[n] == free.arc_count, (code, n)


def test_three_arc_table_at_seven():
    # brute force is out of reach at n = 7, so each value is checked against
    # n = 6 by the bounds above, and its witness by a plain copy search
    for code, row in THREE_ARC_EXO.items():
        f = CanonicalCode.parse(code).to_graph()
        rec = oracle_exo(7, PatternSpec.custom(f))
        assert rec.value == row[5], code
        assert row[4] <= row[5] <= 7 * row[4] // 5, code
        assert rec.witness.arc_count == rec.value, code
        assert not _naive_contains(rec.witness, f), code
        reverse = canonical_code(OrientedGraph(f.n, f.in_masks)).serialize()
        assert THREE_ARC_EXO[reverse][5] == row[5], code


def test_witness_is_the_smallest_code_among_all_maxima(oriented_graphs_6):
    # levels are sorted by canonical digits, so the first F-free class of the
    # largest arc count with one has the smallest code among all maxima.  A
    # free graph keeps a free subgraph with one arc fewer, so exo(n, F) is
    # the last arc count before the first with no free class.
    classes = {5: list(enumerate_oriented_graphs(5)), 6: oriented_graphs_6}
    rng = random.Random(7)
    patterns = ([PatternSpec.parse(token).graph for token in _SMALL_NAMED]
                + [CanonicalCode.parse(code).to_graph() for code in THREE_ARC_EXO]
                + [_random_pattern(rng, 2, 5) for _ in range(60)])
    for f in patterns:
        plan = SearchPlan(f, injective=True)
        for n, graphs in classes.items():
            by_arcs = {}
            for g in graphs:
                by_arcs.setdefault(g.arc_count, []).append(g)
            want = None
            for arcs in sorted(by_arcs):
                free = next((g for g in by_arcs[arcs] if plan.search(g.out, g.in_masks) is None),
                            None)
                if free is None:
                    break
                want = free
            rec = oracle_exo(n, PatternSpec.custom(f))
            assert (rec.value, rec.witness) == (want.arc_count, want), (sorted(f.arcs()), n)


# Every named token with 1-3 arcs (none has an isolated vertex) and its
# pattern's code in THREE_ARC_EXO.
THREE_ARC_TOKENS = {
    "dpath2": "2:1", "ttour2": "2:1", "matching1": "2:1", "adpath2": "2:1",
    "star:0,1": "2:1", "star:1,0": "2:1",
    "dpath3": "3:012", "star:1,1": "3:012",
    "adpath3": "3:011", "star:2,0": "3:011",
    "star:0,2": "3:022",
    "ttour3": "3:111",
    "dcycle3": "3:121", "c3": "3:121",
    "dpath4": "4:001120",
    "adpath4": "4:001110",
    "matching2": "4:001100",
    "star:0,3": "4:002022",
    "star:3,0": "4:001011",
    "star:1,2": "4:001022",
    "star:2,1": "4:001012",
    "prop23": "4:001101",
    "prop23m": "4:002110",
    "p3plusarc": "5:0001001100",
    "matching3": "6:000010010100000",
}


def test_three_arc_tokens_match_the_table():
    # family numbers above 7 and star parameters above 3 give more than three arcs
    tokens = [f"{prefix}{k}" for prefix in patterns._FAMILIES for k in range(1, 8)]
    tokens += [f"star:{p},{q}" for p in range(4) for q in range(4)] + list(patterns._FIXED)
    named = set()
    for token in tokens:
        try:
            spec = PatternSpec.parse(token)
        except BadParamsError:
            continue
        if spec.graph.arc_count <= 3:
            named.add(token)
    assert named == set(THREE_ARC_TOKENS)
    checked = 0
    for token, code in THREE_ARC_TOKENS.items():
        spec = PatternSpec.parse(token)
        assert canonical_code(spec.graph).serialize() == code, token
        for n, value in zip(range(2, 7), THREE_ARC_EXO[code]):
            try:
                formula, validity = formula_value(spec, n)
            except NoFormulaError:
                break
            if validity == "all n":
                assert formula == value, (token, n)
                checked += 1
    assert checked == 77


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_oracle_ttour4_is_every_pair_below_eight(n):
    # Erdos-Moser: every 8-tournament contains TT4 and QR7 does not, so
    # exo(n, TT4) = C(n, 2) for n <= 7.  Each order starts from the order
    # below grown by one vertex.
    rec = oracle_exo(n, PatternSpec.parse("ttour4"))
    assert rec.value == n * (n - 1) // 2
    w = rec.witness
    assert all(w.has_arc(i, j) or w.has_arc(j, i) for i, j in itertools.combinations(range(n), 2))
    # no 4 vertices are transitively ordered (checked without the copy search)
    assert not any(
        all(w.has_arc(a, b) for a, b in itertools.combinations(quad, 2))
        for quad in itertools.permutations(range(n), 4)
    )


@pytest.mark.parametrize("token", ["ttour4", "adpath5", "star:0,4"])
def test_a_range_solves_each_order_once(token, monkeypatch, capsys):
    # each order's seed grows from the order below, which the range has just
    # solved; the output bytes equal those of one oracle_exo call per order
    spec = PatternSpec.parse(token)
    want = [oracle_exo(n, spec) for n in range(3, 8)]
    runs = []
    run_levels = extremal._run_levels
    monkeypatch.setattr(extremal, "_run_levels",
                        lambda n, *rest: runs.append(n) or run_levels(n, *rest))
    assert main(["exo", "--n", "3..7", "--pattern", token, "--json"]) == 0
    solved = [n for n in range(3, 8) if n >= spec.graph.n]
    assert runs == solved
    rows = [cli._record_row(rec) for rec in want]
    assert capsys.readouterr().out == cli._dump_json({"pattern": token, "rows": rows}) + "\n"
    if token == "star:0,4":
        # the one with a closed form: ttour4's needs z(TT4), past the
        # tournament cap, and adpath5 has none
        runs.clear()
        report = verify_against_formula(spec, range(3, 8))
        assert runs == solved
        assert [(row.n, row.oracle, row.witness_code) for row in report.rows] == [
            (rec.n, rec.value, canonical_code(rec.witness).serialize()) for rec in want]


def _brute_force_exo(n, pattern):
    """exo(n, pattern) over all 3^C(n,2) labelled graphs as arc bitmasks: a
    graph holds a copy iff it contains the arc set of some injective image."""
    np = pytest.importorskip("numpy")
    pairs = list(itertools.combinations(range(n), 2))
    bit = {}
    for i, (a, b) in enumerate(pairs):
        bit[a, b], bit[b, a] = 1 << 2 * i, 1 << 2 * i + 1
    graphs = np.zeros(1, dtype=np.int64)
    for i in range(len(pairs)):  # each pair: no arc, a -> b or b -> a
        graphs = np.concatenate([graphs, graphs | 1 << 2 * i, graphs | 1 << 2 * i + 1])
    images = {sum(bit[phi[a], phi[b]] for a, b in pattern.arcs())
              for phi in itertools.permutations(range(n), pattern.n)}
    free = np.ones(len(graphs), dtype=bool)
    for image in images:
        free &= (graphs & image) != image
    arcs = np.zeros(len(graphs), dtype=np.int64)
    for i in range(2 * len(pairs)):
        arcs += graphs >> i & 1
    return int(arcs[free].max())


def test_oracle_matches_brute_force_at_five_on_random_patterns():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(2, 5)
        pairs = list(itertools.combinations(range(k), 2))
        chosen = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
        pattern = OrientedGraph.from_arcs(
            k, [(a, b) if rng.random() < 0.5 else (b, a) for a, b in chosen]
        )
        rec = oracle_exo(5, pattern)
        assert rec.value == _brute_force_exo(5, pattern), list(pattern.arcs())
        assert is_free(rec.witness, pattern) and rec.witness.arc_count == rec.value


def _reference_levels(n, deletions, frontier, k0, best, best_digits, budget, stop):
    """The level loop _run_levels replaced: each extension is examined in
    turn.  A parent's extensions are counted and charged to the budget
    before any copy test when the child has best's density at least, its new
    vertex has the least degree, and they put no pair of false twins' states
    out of order."""
    nodes = 0
    level = frontier
    for k in range(k0, stop):
        last = k + 1 == n
        seen = set()
        nxt = []
        for masks, arcs in level:
            ins = _in_masks(masks, k)
            degs = [(o | i).bit_count() for o, i in zip(masks, ins)]
            twins = [(u, w) for u, w in itertools.combinations(range(k), 2)
                     if (masks[u], ins[u]) == (masks[w], ins[w])]
            survivors = []
            for x in _extension_sets(k).exts:
                # (arcs + |x|) / C(k+1, 2) >= best / C(n, 2)
                if (arcs + x.bit_count()) * n * (n - 1) < best * k * (k + 1):
                    break
                # 1: v -> x, 2: x -> v
                state = [1 if x >> v + k & 1 else 2 if x >> v & 1 else 0 for v in range(k)]
                if min(d + (s > 0) for d, s in zip(degs, state)) < x.bit_count():
                    continue
                if any(state[u] > state[w] for u, w in twins):
                    continue
                survivors.append(x)
            nodes += len(survivors)
            if budget is not None and nodes > budget:
                return best, best_digits, budget + 1, True, []
            keys = extremal._copy_keys(masks, ins, k, deletions)
            for x in survivors:
                child_arcs = arcs + x.bit_count()
                if last and child_arcs < best:
                    break
                if any(p & x == p for p in keys):
                    continue
                digits = accept_child(extend_masks(masks, x), k + 1)
                if digits is None or digits in seen:
                    continue
                seen.add(digits)
                if last:
                    if child_arcs > best:
                        best, best_digits = child_arcs, digits
                    elif best_digits is None or digits < best_digits:
                        best_digits = digits
                else:
                    nxt.append((masks_from_digits(digits, k + 1), child_arcs))
        level = nxt
    return best, best_digits, nodes, False, level


@pytest.mark.parametrize(
    "token,n",
    [("matching2", 6), ("prop23", 6), ("adpath4", 6), ("star:0,2", 6), ("dpath3", 5),
     ("ttour4", 6), ("adpath5", 6), ("oc4", 5)],
)
def test_run_levels_matches_the_per_extension_loop(token, n, monkeypatch):
    spec = PatternSpec.parse(token)
    deletions = extremal._deletions(spec.graph)
    # the seed an oracle call gives order n: the order below's witness, grown
    seed = extremal._grown(oracle_exo(n - 1, spec).witness, deletions, {})
    best = -1 if seed is None else seed.arc_count
    digits = None if seed is None else _min_digits(seed.out, n)
    start = (n, deletions, [((0,), 0)], 1, best, digits)
    full = _reference_levels(*start, None, n)
    before_last = _reference_levels(*start, None, n - 1)
    # the parent entries that orders 1..n-1 of one oracle call leave behind
    filled = []
    run_levels = extremal._run_levels
    with monkeypatch.context() as m:
        m.setattr(extremal, "_run_levels", lambda *args: filled.append(args[-1]) or run_levels(*args))
        extremal._records(spec, [n - 1], None)
    parents = filled[-1]
    assert parents and all(d is parents for d in filled)
    assert extremal._run_levels(*start, None, {}) == full[:4]
    assert extremal._run_levels(*start, None, parents) == full[:4]
    # budgets that run out early, inside the last level's windows, or never
    rng = random.Random(n)
    cut = before_last[2]
    budgets = [0, 1, cut - 1, cut, cut + 1, (cut + full[2]) // 2, full[2] - 1, full[2]]
    budgets += [rng.randrange(full[2] + 1) for _ in range(4)]
    for budget in budgets:
        want = _reference_levels(*start, budget, n)
        assert extremal._run_levels(*start, budget, {}) == want[:4], budget
        assert extremal._run_levels(*start, budget, parents) == want[:4], budget
        assert want[3] == (budget < full[2])


@pytest.fixture
def searched(monkeypatch):
    """The parent masks of every copy search, in order."""
    masks_seen = []
    copy_keys = extremal._copy_keys
    monkeypatch.setattr(extremal, "_copy_keys",
                        lambda masks, *rest: masks_seen.append(masks) or copy_keys(masks, *rest))
    return masks_seen


@pytest.mark.parametrize(
    "token", ["dpath4", "ttour3", "star:1,2", "matching2", "prop23", "ttour4", "adpath5"])
def test_one_call_searches_each_parent_once(token, searched, capsys):
    # each order of one call meets the classes below it again as parents;
    # their copy search runs once, whether the call solves one order or a range
    oracle_exo(7, PatternSpec.parse(token))
    assert searched and len(searched) == len(set(searched))
    searched.clear()
    assert main(["exo", "--n", "3..7", "--pattern", token, "--json"]) == 0
    capsys.readouterr()
    assert searched and len(searched) == len(set(searched))


def test_the_bench_oracle_tasks_search_each_parent_once(searched):
    # the benchmark's oracle task list: five patterns and prop23 again, at
    # n = 7, one call each; without the shared parent entries they make 270
    # copy searches
    for token in ["dpath4", "ttour3", "star:1,2", "matching2", "prop23", "prop23"]:
        oracle_exo(7, PatternSpec.parse(token))
    assert len(searched) <= 122


def test_a_parent_with_no_free_extension_has_no_child():
    # parents whose every one of the 3^k ways to join a new vertex completes a
    # copy of F, each tested by a plain copy search
    rng = random.Random(16)
    cases = empty = 0
    while cases < 150:
        f = _random_pattern(rng, 2, 5)
        k = rng.randint(1, 5)
        arcs = [(i, j) if rng.random() < 0.5 else (j, i)
                for i, j in itertools.combinations(range(k), 2) if rng.random() < 0.7]
        parent = OrientedGraph.from_arcs(k, arcs)
        if not is_free(parent, f):
            continue
        cases += 1
        if any(is_free(OrientedGraph(k + 1, extend_masks(parent.out, x)), f)
               for x in _extension_sets(k).exts):
            continue
        empty += 1
        deletions = extremal._deletions(f)
        sets = _extension_sets(k)
        keys = extremal._copy_keys(parent.out, _in_masks(parent.out, k), k, deletions)
        forbidden = extremal._forbidden(keys, sets.lanes, {})
        assert forbidden & (1 << len(sets.exts)) - 1 == (1 << len(sets.exts)) - 1
        # no child, at a last level that would keep every child
        best, digits = extremal._run_levels(k + 1, deletions, [(parent.out, len(arcs))], k,
                                            -1, None, None, {})[:2]
        assert (best, digits) == (-1, None)
    assert empty  # the seed reaches parents with no free extension


# --- one deletion plan per orbit of Aut(F) ----------------------------------------

_SMALL_NAMED = [
    "dpath3", "dpath4", "dpath5", "dcycle3", "dcycle4", "dcycle5", "dcycle6", "ttour3",
    "ttour4", "ttour5", "star:1,1", "star:1,2", "star:0,2", "star:2,0", "star:0,3",
    "star:2,2", "star:1,4", "matching2", "matching3", "adpath3", "adpath4", "adpath5",
    "adpath6", "oc4", "prop23", "prop23m", "p3plusarc", "thm32",
]


def _random_pattern(rng, lo, hi):
    """A random pattern with at least one arc on lo..hi vertices."""
    k = rng.randint(lo, hi)
    pairs = list(itertools.combinations(range(k), 2))
    chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
    return OrientedGraph.from_arcs(
        k, [(a, b) if rng.random() < 0.5 else (b, a) for a, b in chosen])


def _random_patterns(count):
    rng = random.Random(30)
    return [_random_pattern(rng, 2, 6) for _ in range(count)]


def _orbit_count(f):
    """Vertex orbits of Aut(f), by brute force over permutations."""
    autos = [perm for perm in itertools.permutations(range(f.n))
             if all(f.has_arc(perm[u], perm[v]) for u, v in f.arcs())]
    return len({frozenset(perm[u] for perm in autos) for u in range(f.n)})


def _plan_per_vertex(f):
    """The deletion plans before orbits were merged: one for every vertex."""
    plans = []
    for u in range(f.n):
        rest = [v for v in range(f.n) if v != u]
        marks = {i: 1 + (f.in_masks[u] >> v & 1) for i, v in enumerate(rest)
                 if (f.out[u] | f.in_masks[u]) >> v & 1}
        plans.append(SearchPlan(f.induced(rest), injective=True, marks=marks))
    return plans


def test_deletions_keep_one_plan_per_orbit():
    named = [PatternSpec.parse(token).graph for token in _SMALL_NAMED]
    assert all(f.n <= 6 for f in named)
    for f in named + _random_patterns(30):
        assert len(extremal._deletions(f)) == _orbit_count(f), sorted(f.arcs())
    counts = {t: len(extremal._deletions(PatternSpec.parse(t).graph))
              for t in ("star:1,2", "matching2", "star:0,3", "matching3")}
    assert counts == {"star:1,2": 3, "matching2": 2, "star:0,3": 2, "matching3": 2}


@given(st.sampled_from(_SMALL_NAMED), st.integers(1, 6), st.sampled_from([0.2, 0.5, 0.9]),
       st.integers(0, 2**32 - 1))
def test_orbit_plans_find_the_keys_of_every_vertex(token, k, p_arc, seed):
    f = PatternSpec.parse(token).graph
    rng = random.Random(seed)
    arcs = [(i, j) if rng.random() < 0.5 else (j, i)
            for i, j in itertools.combinations(range(k), 2) if rng.random() < p_arc]
    parent = OrientedGraph.from_arcs(k, arcs)
    ins = _in_masks(parent.out, k)
    assert extremal._copy_keys(parent.out, ins, k, extremal._deletions(f)) == (
        extremal._copy_keys(parent.out, ins, k, _plan_per_vertex(f))
    )


def test_oracle_accepts_raw_graph():
    arc = OrientedGraph.from_arcs(2, [(0, 1)])
    assert oracle_exo(4, arc).value == 0


def _assert_no_children():
    # the oracle leaves no child process behind
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_oracle_jobs_deterministic():
    # jobs is accepted and ignored: every call runs the same serial search
    for token, n in (("dpath3", 6), ("ttour3", 7), ("prop23", 7)):
        spec = PatternSpec.parse(token)
        serial = oracle_exo(n, spec)
        for jobs in (2, 3):
            parallel = oracle_exo(n, spec, jobs=jobs)
            _assert_no_children()
            assert serial.value == parallel.value
            assert serial.witness == parallel.witness
            assert serial.nodes == parallel.nodes, (token, n, jobs)


@pytest.mark.parametrize("token, n", [("adpath3", 4), ("adpath5", 6)])
def test_oracle_witness_is_maximum_and_free_for_every_jobs(token, n):
    # best rises during the last level here; every jobs runs the same search
    spec = PatternSpec.parse(token)
    records = [oracle_exo(n, spec, jobs=jobs) for jobs in (1, 2, 3)]
    _assert_no_children()
    assert len({(rec.value, rec.witness, rec.nodes) for rec in records}) == 1
    for rec in records:
        assert rec.witness.arc_count == rec.value
        assert not _naive_contains(rec.witness, spec.graph)


def test_oracle_jobs_start_no_process(monkeypatch):
    serial = oracle_exo(7, PatternSpec.parse("prop23"))

    def refuse():
        raise AssertionError("the oracle forked")

    monkeypatch.setattr(os, "fork", refuse)
    got = oracle_exo(7, PatternSpec.parse("prop23"), jobs=2)
    assert (got.value, got.witness, got.nodes) == (serial.value, serial.witness, serial.nodes)


def test_oracle_validates_inputs():
    spec = PatternSpec.parse("dpath3")
    with pytest.raises(BadParamsError):
        oracle_exo(0, spec)
    with pytest.raises(TooLargeError):
        oracle_exo(11, spec)
    with pytest.raises(TooLargeError):
        oracle_exo(8, spec)  # beyond the exhaustive cap, budget required


@pytest.mark.parametrize("n", [5, 8])
def test_oracle_rejects_a_negative_budget(n):
    spec = PatternSpec.parse("dpath3")
    with pytest.raises(BadParamsError, match="node budget must be >= 0, got -1"):
        oracle_exo(n, spec, budget=-1)
    with pytest.raises(BadParamsError, match="node budget must be >= 0, got -1"):
        verify_against_formula(spec, [n], budget=-1)


def test_oracle_budget_exhaustion_certifies_lower_bound():
    spec = PatternSpec.parse("dpath4")
    with pytest.raises(BudgetExceededError) as exc:
        oracle_exo(8, spec, budget=50)
    assert exc.value.lower_bound >= 21  # exo(7)'s witness, grown, is certified
    assert is_free(exc.value.witness, spec.graph)
    assert exc.value.witness.arc_count == exc.value.lower_bound


@pytest.mark.parametrize("n, budget", [(8, 1000), (9, 2000)])
def test_a_budgeted_order_starts_from_the_order_below(n, budget, capsys):
    # Erdos-Moser: every 8-tournament contains TT4, so exo(n, TT4) >= the
    # Turan number of 7 parts, reached by QR7 grown vertex by vertex; from
    # that seed a small budget proves it exact
    spec = PatternSpec.parse("ttour4")
    rec = oracle_exo(n, spec, budget=budget)
    assert rec.value == turan_edges(n, 7) and rec.nodes <= budget
    assert not _naive_contains(rec.witness, spec.graph)
    argv = ["exo", "--pattern", "ttour4", "--n", str(n), "--budget", str(budget), "--json"]
    assert main(argv) == 0
    row, = json.loads(capsys.readouterr().out)["rows"]
    assert (row["n"], row["value"], row["nodes"]) == (n, rec.value, rec.nodes)


# exo(8, F) for the three-arc classes of THREE_ARC_EXO other than the two
# 3-stars, also found by an integer program over every arc set on 8 vertices
THREE_ARC_EXO_8 = {
    "2:1": 0, "3:011": 8, "3:012": 16, "3:022": 8, "3:111": 21, "3:121": 28,
    "4:001012": 20, "4:001022": 20, "4:001100": 7, "4:001101": 16, "4:001110": 13,
    "4:001120": 21, "4:002110": 16,
    "5:0001001100": 13, "5:0001002100": 16, "5:0001020200": 13,
    "6:000010010100000": 13,
}


def test_three_arc_table_at_eight():
    # n = 8 needs a budget; each order 1..7 below it is solved exactly on the way
    assert sorted(THREE_ARC_EXO_8) == sorted(set(THREE_ARC_EXO) - {"4:001011", "4:002022"})
    for code, value in THREE_ARC_EXO_8.items():
        f = CanonicalCode.parse(code).to_graph()
        rec = oracle_exo(8, PatternSpec.custom(f), budget=10**6)
        assert rec.value == value >= THREE_ARC_EXO[code][5], code
        assert rec.witness.arc_count == value, code
        assert not _naive_contains(rec.witness, f), code


# --- constructions ---------------------------------------------------------------


def test_construction_turan():
    g = build_construction("turan", 10, r=3)
    assert g.arc_count == turan_edges(10, 3)
    assert is_free(g, PatternSpec.parse("dpath4").graph)
    tt = build_construction("turan", 8, r=8)
    assert tt.arc_count == 28


def test_construction_turan_with_pattern():
    g = build_construction("turan", 9, r=2, pattern=PatternSpec.parse("dpath3"))
    assert g.arc_count == turan_edges(9, 2)
    assert is_free(g, PatternSpec.parse("dpath3").graph)
    with pytest.raises(BadParamsError):
        build_construction("turan", 9, r=3, pattern=PatternSpec.parse("dpath3"))


def test_construction_cyclepower():
    g = build_construction("cyclepower", 5, q=3)
    assert g.arc_count == 10
    assert is_free(g, PatternSpec.parse("star:0,3").graph)


def test_construction_starpartition():
    spec = PatternSpec.parse("star:1,2")
    g = build_construction("starpartition", 9, p=1, q=2)
    assert g.arc_count == formula_value(spec, 9)[0]
    assert is_free(g, spec.graph)


def test_construction_thm32():
    g = build_construction("thm32", 6)
    assert g.arc_count == 12
    assert is_free(g, PatternSpec.parse("thm32").graph)
    with pytest.raises(BadParamsError):
        build_construction("thm32", 4)


def test_construction_prop26_prop27():
    g26 = build_construction("prop26", 4)
    assert g26.arc_count == 5
    assert is_free(g26, PatternSpec.parse("adpath4").graph)
    g27 = build_construction("prop27", 6)
    assert g27.arc_count == 9
    assert is_free(g27, PatternSpec.parse("p3plusarc").graph)


def test_construction_caps_sizes_before_building_arcs():
    # the arc lists of these cases would take 170-260 MB, so a cap checked too
    # late fails on the traced peak here before n = 10^6 can exhaust memory
    for name, n, kw in [("thm32", 3000, {}), ("starpartition", 3000, {"p": 1, "q": 2}),
                        ("turan", 20, {"r": 2000})]:
        tracemalloc.start()
        try:
            with pytest.raises(VertexCapError, match="exceeds cap 64"):
                build_construction(name, n, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (name, peak)
    for name, kw in [("thm32", {}), ("cyclepower", {"q": 3}), ("turan", {"r": 3}),
                     ("starpartition", {"p": 1, "q": 2}), ("prop26", {}), ("prop27", {})]:
        with pytest.raises(VertexCapError, match="vertex count 1000000 exceeds cap 64"):
            build_construction(name, 10 ** 6, **kw)


def test_construction_unknown_name():
    with pytest.raises(BadParamsError):
        build_construction("blowup", 5)


def test_construction_refuses_parameters_it_does_not_read():
    # the name is checked first, then each parameter, before n
    with pytest.raises(BadParamsError, match="unknown construction 'blowup'"):
        build_construction("blowup", 0, r=2)
    with pytest.raises(BadParamsError, match="the thm32 construction takes no r"):
        build_construction("thm32", 10 ** 6, r=2)
    for name, params in patterns._PARAMETERS.items():
        for param in ("r", "p", "q", "d", "pattern"):
            if param not in params:
                message = f"^the {name} construction takes no {param}$"
                with pytest.raises(BadParamsError, match=message):
                    build_construction(name, 9, **{param: 1})


# --- verification reports ---------------------------------------------------------


def test_verify_report_all_match():
    report = verify_against_formula(PatternSpec.parse("dpath3"), range(3, 7))
    assert [r.status for r in report.rows] == ["MATCH"] * 4
    assert next(r.n for r in report.rows if r.status == "MATCH") == 3
    obj = report.to_json_obj()
    assert obj["pattern"] == "dpath3"
    assert [row["n"] for row in obj["rows"]] == [3, 4, 5, 6]
    assert "status" in obj["rows"][0]


def test_verify_report_records_small_n_shortfall():
    # below the formula's validity range the oracle may fall short; recorded, not raised
    report = verify_against_formula(PatternSpec.parse("star:1,2"), [3, 4, 5])
    statuses = {r.n: r.status for r in report.rows}
    assert statuses[3] == "ORACLE_LOWER"
    assert statuses[4] == "MATCH"
    assert statuses[5] == "MATCH"
    assert next(r.n for r in report.rows if r.status == "MATCH") == 4


@pytest.mark.parametrize("token, exc, message", [
    ("adpath5", NoFormulaError, "closed form known only for the 4-vertex antidirected path"),
    ("ttour4", TooLargeError, "compressibility exceeds the k <= 7 tournament enumeration cap"),
])
def test_verify_fails_before_it_searches(monkeypatch, token, exc, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(extremal, "oracle_exo", refuse)
    with pytest.raises(exc) as info:
        verify_against_formula(PatternSpec.parse(token), range(4, 8))
    assert type(info.value) is exc and str(info.value) == message


def test_verify_report_text_table():
    report = verify_against_formula(PatternSpec.parse("adpath4"), [4, 5])
    text = report.to_text()
    assert "adpath4" in text
    assert "MATCH" in text
    assert len(text.splitlines()) == 4
