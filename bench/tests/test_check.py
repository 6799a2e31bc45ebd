"""Tests of the benchmark's own checkers.

Run from the repository root with
    python3 -m pytest bench/tests -q
(the repository's own suite collects only tests/, so these stay apart).
"""

import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import spec  # noqa: E402


def test_pattern_tokens_match_the_readme_table():
    assert spec.pattern_arcs("dpath3") == (3, [(0, 1), (1, 2)])
    assert spec.pattern_arcs("star:1,2") == (4, [(1, 0), (0, 2), (0, 3)])
    assert spec.pattern_arcs("adpath4") == (4, [(0, 1), (2, 1), (2, 3)])
    assert spec.pattern_arcs("matching2") == (4, [(0, 1), (2, 3)])
    assert len(spec.pattern_arcs("ttour4")[1]) == 6


# --- networkx freeness and single-arc maximality on hand-made cases -------------


def test_nx_contains_hand_cases():
    path3 = spec.pattern_arcs("dpath3")
    assert check.nx_contains(3, [(0, 1), (1, 2), (2, 0)], path3)
    assert not check.nx_contains(4, [(0, 2), (0, 3), (1, 2), (1, 3)], path3)
    # not induced: an extra arc between image vertices is allowed
    assert check.nx_contains(3, [(0, 1), (1, 2), (0, 2)], path3)
    assert not check.nx_contains(2, [(0, 1)], path3)


def test_saturation_hand_cases():
    path3 = spec.pattern_arcs("dpath3")
    # an out-star on 3 vertices: either arc between the leaves makes a 2-arc path
    assert check.saturated(3, [(0, 1), (0, 2)], path3)
    # one arc: adding 0->2 keeps the graph free of directed 2-arc paths
    assert not check.saturated(3, [(0, 1)], path3)
    # a free graph with an absent pair is never saturated for a larger pattern
    assert not check.saturated(3, [(0, 1)], spec.pattern_arcs("dpath4"))


def test_exo_problems_catch_bad_witnesses():
    ok = check.exo_problems("dpath3", 3, 2, 3, [(0, 1), (0, 2)])
    assert ok == []
    assert check.exo_problems("dpath3", 3, 2, 3, [(0, 1), (1, 2)])  # has a copy
    assert check.exo_problems("dpath3", 3, 1, 3, [(0, 1)])  # below the closed form
    assert check.exo_problems("dpath3", 3, 2, 3, [(0, 1)])  # arc count != value


# --- the orbit-sum identity at small n ------------------------------------------


def classes_by_brute_force(n: int, tournament: bool):
    """One representative per isomorphism class, from all labelled graphs."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reps = []
    for states in itertools.product((1, 2) if tournament else (0, 1, 2), repeat=len(pairs)):
        arcs = [(i, j) if s == 1 else (j, i) for (i, j), s in zip(pairs, states) if s]
        g = check.digraph(n, arcs)
        if not any(check.nx.is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return [[sum(1 << v for v in r.successors(u)) for u in range(n)] for r in reps]


@pytest.mark.parametrize("n,tournament,count", [(3, True, 2), (4, True, 4), (5, True, 12),
                                                (3, False, 7), (4, False, 42)])
def test_orbit_sum_identity(n, tournament, count):
    classes = classes_by_brute_force(n, tournament)
    assert check.classes_problems("c", n, classes, count, tournament) == []
    assert check.classes_problems("c", n, classes[1:], count, tournament)
    assert check.classes_problems("c", n, classes + classes[:1], count, tournament)


# --- closed forms against hand values --------------------------------------------


def test_turan_hand_values():
    assert [check.turan(7, r) for r in (1, 2, 3, 6, 7, 9)] == [0, 12, 16, 20, 21, 21]
    assert check.turan(20, 3) == 133  # parts 7, 7, 6


@pytest.mark.parametrize("token,n,value", [
    ("dpath3", 7, 12), ("dpath4", 7, 16), ("ttour3", 7, 16), ("oc4", 5, 8),
    ("dcycle3", 5, 10), ("matching2", 3, 3), ("matching2", 7, 6), ("matching3", 8, 13),
    ("adpath4", 3, 3), ("adpath4", 7, 11), ("star:0,2", 7, 7), ("star:2,0", 5, 5),
    ("star:0,3", 4, None), ("star:1,2", 7, None), ("prop23", 7, None), ("thm32", 7, None),
])
def test_closed_forms(token, n, value):
    assert check.closed_form(token, n) == value


def test_constructions_hand_values():
    assert len(check.construction("starpartition", 7, p=1, q=2)) == 16
    assert len(check.construction("bipartite", 7)) == 12
    assert check.construct_arcs(["construct", "starpartition", "--n", "12", "--p", "1",
                                 "--q", "2"], 12) == 42
    assert check.construct_arcs(["construct", "cyclepower", "--n", "11", "--q", "3"], 11) == 22


def test_chromatic_number():
    n, edges = spec.odd_wheel_plus(5, [])
    assert check.chromatic_number(n, edges) == 4
    assert check.chromatic_number(*spec.WHEEL7_CHORDS) == 4
    assert check.chromatic_number(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == 2


def test_gray_index_inverts_the_sweep_order():
    import layers

    assert [layers.gray_index(i ^ (i >> 1)) for i in range(64)] == list(range(64))


# --- brute force exo(n, F) for n <= 5 against the oracle ---------------------------


@pytest.mark.parametrize("token,n", [("dpath3", 4), ("dpath3", 5), ("oc4", 5),
                                     ("matching2", 5), ("star:1,2", 5), ("adpath4", 5),
                                     ("prop23", 4)])
def test_brute_force_matches_oracle(token, n):
    from orituran.extremal import PatternSpec, oracle_exo

    value = check.brute_force_exo(n, spec.pattern_arcs(token))
    assert oracle_exo(n, PatternSpec.parse(token)).value == value
    cf = check.closed_form(token, n)
    assert cf is None or cf == value


def test_every_tournament_contains_by_brute_force():
    assert check.every_tournament_contains(5, spec.pattern_arcs("dpath5"))
    assert check.every_tournament_contains(4, spec.pattern_arcs("oc4"))
    assert not check.every_tournament_contains(5, spec.pattern_arcs("ttour4"))
