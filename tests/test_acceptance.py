"""Headline end-to-end checks, one test per guarantee.

Each test covers a single externally stated property of the package and
asserts both the result and, where one is stated, its wall-clock budget.
Run with -v to get one pass/fail line per criterion.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import orituran
from orituran.canon import enumerate_tournaments
from orituran.containment import (
    all_orientations_contain,
    all_tournaments_contain,
    is_free,
)
from orituran.extremal import (
    PatternSpec,
    build_construction,
    formula_value,
    turan_edges,
    verify_against_formula,
)
from orituran.graphs import BipartiteDigraph, OrientedGraph
from orituran.homomorphism import compressibility
from orituran.regularize import (
    TooSmall,
    ZoomConfig,
    almost_regular_subdigraph,
    extract_bipartite,
    random_zoom,
    verify_bipartite_embedding,
)
from checkers import automorphism_order


def _report(num, label, t0, budget=None):
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"
        print(f"criterion {num:2d} PASS {label} [{dt:.2f}s < {budget}s]")
    else:
        print(f"criterion {num:2d} PASS {label} [{dt:.2f}s]")


def test_criterion_01_compressibility_table():
    t0 = time.perf_counter()
    table = [
        ("dpath2", 2),
        ("dpath3", 3),
        ("dpath4", 4),
        ("dpath5", 5),
        ("ttour3", 4),
        ("adpath4", 2),
    ]
    for token, expected in table:
        res = compressibility(PatternSpec.parse(token).graph)
        assert res.value == expected, (token, res.value)
        assert res.witness is not None and res.witness.n == expected - 1
    infinite = compressibility(PatternSpec.parse("dcycle3").graph)
    assert infinite.value is None and infinite.witness is None
    _report(1, "compressibility table", t0, budget=10.0)


def test_criterion_02_every_tournament_contains_the_path():
    t0 = time.perf_counter()
    class_counts = {2: 1, 3: 2, 4: 4, 5: 12, 6: 56}
    for k in range(2, 7):
        ok, counterexample = all_tournaments_contain(
            k, PatternSpec.parse(f"dpath{k}").graph
        )
        assert ok and counterexample is None, k
        classes = enumerate_tournaments(k)
        assert len(classes) == class_counts[k], k
        # sum of orbit sizes must hit the number of labelled tournaments
        total = sum(math.factorial(k) // automorphism_order(t) for t in classes)
        assert total == 2 ** (k * (k - 1) // 2), k
    _report(2, "directed path in every tournament, k=2..6", t0, budget=60.0)


def test_criterion_03_four_cycle_in_every_four_tournament():
    t0 = time.perf_counter()
    pattern = OrientedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ok, counterexample = all_tournaments_contain(4, pattern)
    assert ok and counterexample is None
    _report(3, "oriented 4-cycle in every 4-tournament", t0, budget=1.0)


def test_criterion_04_all_orientations_of_augmented_k24():
    t0 = time.perf_counter()
    # complete bipartite 2x4 on {0,1} x {2,3,4,5} plus the edge 2-3 inside
    edges = [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)] + [(2, 3)]
    assert len(edges) == 9
    pattern = PatternSpec.parse("prop23").graph
    ok, counterexample = all_orientations_contain(6, edges, pattern)
    assert ok and counterexample is None
    _report(4, "all 2^9 orientations contain the 3-arc pattern", t0, budget=1.0)


def test_criterion_05_oracle_matches_closed_forms():
    t0 = time.perf_counter()
    cases = [
        ("dpath3", range(3, 8)),
        ("dpath4", range(4, 8)),
        ("matching2", range(3, 8)),
        ("star:0,2", range(3, 8)),
        ("adpath4", range(4, 7)),
    ]
    for token, ns in cases:
        report = verify_against_formula(PatternSpec.parse(token), ns)
        for row in report.rows:
            assert row.status == "MATCH", (token, row.n, row.oracle, row.formula)
    _report(5, "oracle equals closed forms on exhaustive ranges", t0)


def test_criterion_06_oracle_never_below_large_n_formulas():
    t0 = time.perf_counter()
    recorded = {}
    for token in ["prop23", "p3plusarc", "star:1,2", "thm32"]:
        report = verify_against_formula(PatternSpec.parse(token), range(4, 7))
        statuses = {row.n: row.status for row in report.rows}
        assert "ORACLE_LOWER" not in statuses.values(), (token, statuses)
        recorded[token] = statuses
    print("criterion  6 status log:", json.dumps(recorded, sort_keys=True))
    _report(6, "oracle >= large-n formulas, classifications recorded", t0)


def test_criterion_07_constructions_match_formulas_and_stay_free():
    t0 = time.perf_counter()
    pairs = [
        ("turan", {"r": 2}, "dpath3", 3),
        ("turan", {"r": 3}, "dpath4", 4),
        ("turan", {"r": 3}, "oc4", 4),
        ("cyclepower", {"q": 2}, "star:0,2", 3),
        ("cyclepower", {"q": 3}, "star:0,3", 5),
        ("starpartition", {"p": 1, "q": 2}, "star:1,2", 4),
        ("thm32", {}, "thm32", 5),
        ("prop26", {}, "adpath4", 2),
        ("prop27", {}, "p3plusarc", 2),
    ]
    for name, kwargs, token, n_min in pairs:
        spec = PatternSpec.parse(token)
        if name == "turan":
            kwargs = dict(kwargs, pattern=spec)
        for n in range(n_min, 41):
            g = build_construction(name, n, **kwargs)
            value, _ = formula_value(spec, n)
            assert g.arc_count == value, (name, token, n, g.arc_count, value)
            if name == "turan":
                assert g.arc_count == turan_edges(n, kwargs["r"])
            assert is_free(g, spec.graph), (name, token, n)
    _report(7, "constructions hit formulas and avoid their patterns, n<=40", t0, budget=30.0)


def _random_oriented(rng, n, density):
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < density / 2:
                arcs.append((i, j))
            elif roll < density:
                arcs.append((j, i))
    return OrientedGraph.from_arcs(n, arcs)


def test_criterion_08_extraction_and_regularity_properties():
    t0 = time.perf_counter()
    rng = random.Random(82040)
    kept = 0
    candidate = 0
    while kept < 200:
        n = rng.randint(8, 40)
        density = 0.6 + 0.4 * rng.random()
        g = _random_oriented(rng, n, density)
        if g.arc_count == 0:
            continue
        h = extract_bipartite(g, seed=candidate)
        candidate += 1
        # retention and balance hold on every extraction, not just kept ones
        assert h.arc_count >= -(-g.arc_count // 4), (n, g.arc_count, h.arc_count)
        assert abs(len(h.part_u) - len(h.part_w)) <= 1
        c = 4.0 * h.arc_count / (h.n ** 1.5)
        try:
            res = almost_regular_subdigraph(h, c, r=2, t_override=2)
        except TooSmall:
            continue
        kept += 1
        sub = res.subgraph
        degs = {}
        for i, u in enumerate(sub.part_u):
            degs[u] = degs.get(u, 0) + bin(sub.out_masks[i]).count("1")
        for j, w in enumerate(sub.part_w):
            degs.setdefault(w, 0)
            for i in range(len(sub.part_u)):
                if sub.out_masks[i] >> j & 1:
                    degs[w] += 1
        dmax, dmin = max(degs.values()), min(degs.values())
        assert dmax <= 40 * dmin, (candidate, dmax, dmin)
        assert sub.arc_count >= (res.c / 10.0) * (sub.n ** 1.5) - 1e-9
    print(f"criterion  8 collected {kept} successes from {candidate} candidates")
    _report(8, "extraction retention + 40-almost-regular bounds on 200 runs", t0, budget=120.0)


def test_criterion_09_zoom_embeddings_independently_verified():
    t0 = time.perf_counter()
    pattern = BipartiteDigraph((0,), (1,), (1,))
    host_main = BipartiteDigraph(
        tuple(range(648)), tuple(range(648, 693)), ((1 << 45) - 1,) * 648
    )
    host_cap1 = BipartiteDigraph(
        tuple(range(640)), tuple(range(640, 680)), ((1 << 40) - 1,) * 640
    )
    nu = 4 * 2 * 80 ** 2
    host_cap2 = BipartiteDigraph(
        tuple(range(nu)), tuple(range(nu, nu + 40)), ((1 << 40) - 1,) * nu
    )
    runs = (
        [(host_main, 1, seed) for seed in range(92)]
        + [(host_cap1, 1, 100 + seed) for seed in range(6)]
        + [(host_cap2, 2, 200 + seed) for seed in range(2)]
    )
    assert len(runs) == 100
    for host, r, seed in runs:
        cfg = ZoomConfig.for_instance(host, r=r, h=2, seed=seed)
        vm = random_zoom(host, pattern, cfg)
        assert verify_bipartite_embedding(host, pattern, vm), (r, seed)
    _report(9, "100 zoom runs return independently verified embeddings", t0, budget=120.0)


def test_criterion_10_seeded_commands_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(7)
    host = _random_oriented(rng, 40, 0.8)
    from orituran.graphs import encode

    host_path = tmp_path / "host.og"
    host_path.write_text(encode(host))
    argv = [
        sys.executable, "-m", "orituran.cli", "embed", "--host", str(host_path),
        "--pattern", "dpath2", "--r", "1", "--seed", "5", "--t-override", "2",
    ]
    # Run the CLI from the same source tree this test imported, whether or
    # not the package is installed and whatever the working directory.
    src = str(Path(orituran.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(hash_seed):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        return subprocess.run(argv, capture_output=True, env=env)

    # Two different hash seeds: the output must not depend on process state.
    first = run("1")
    second = run("2")
    assert first.stdout == second.stdout and first.stdout
    assert first.returncode == second.returncode
    json.loads(first.stdout)  # well-formed JSON payload
    _report(10, "repeated seeded command is byte-identical", t0)
