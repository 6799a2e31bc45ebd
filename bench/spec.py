"""Task lists of the four workloads, built as plain data from a seed.

Nothing here imports the program.  The measuring worker turns these specs
into library calls and CLI invocations; the checker reads the same specs to
judge the answers.  The seed picks vertex labellings, random hosts and task
order; it never changes how many tasks a pass has or which of them can fail.
"""

from __future__ import annotations

import random

WORKLOADS = ("oracle", "census", "embed", "cli")

# --- patterns, defined here apart from orituran.extremal ----------------------


def pattern_arcs(token: str) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, arcs) of a pattern token, as the README's table defines it."""
    fixed = {
        "oc4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "prop23": (4, [(0, 1), (1, 2), (3, 2)]),
        "prop23m": (4, [(1, 0), (1, 2), (2, 3)]),
        "p3plusarc": (5, [(0, 1), (2, 1), (3, 4)]),
        "thm32": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    }
    if token in fixed:
        return fixed[token]
    if token.startswith("star:"):
        p, q = (int(x) for x in token[5:].split(","))
        arcs = [(i, 0) for i in range(1, p + 1)] + [(0, p + j) for j in range(1, q + 1)]
        return p + q + 1, arcs
    for prefix in ("dpath", "dcycle", "ttour", "matching", "adpath"):
        if token.startswith(prefix) and token[len(prefix):].isdigit():
            k = int(token[len(prefix):])
            if prefix == "dpath":
                return k, [(i, i + 1) for i in range(k - 1)]
            if prefix == "dcycle":
                return k, [(i, (i + 1) % k) for i in range(k)]
            if prefix == "ttour":
                return k, [(i, j) for i in range(k) for j in range(i + 1, k)]
            if prefix == "matching":
                return 2 * k, [(2 * i, 2 * i + 1) for i in range(k)]
            return k, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(k - 1)]
    raise ValueError(f"unknown pattern token {token!r}")


def relabelled(token: str, rng: random.Random) -> dict:
    """An isomorphic copy of a pattern under a random vertex permutation."""
    n, arcs = pattern_arcs(token)
    perm = list(range(n))
    rng.shuffle(perm)
    return {"token": token, "n": n, "arcs": sorted((perm[u], perm[v]) for u, v in arcs)}


def og_text(n: int, arcs) -> str:
    """.og text written by the benchmark itself (arcs sorted, trailing newline)."""
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in sorted(arcs)])


def random_oriented_arcs(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < density / 2:
                arcs.append((i, j))
            elif roll < density:
                arcs.append((j, i))
    return arcs


def odd_wheel_plus(rim: int, chords) -> tuple[int, list[tuple[int, int]]]:
    """Hub 0 joined to the cycle 1..rim, plus chords on the rim (undirected)."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return rim + 1, edges + list(chords)


def relabel_edges(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """Relabel vertices but keep the edge order and each edge's first-listed end,
    so the Gray-code sweep visits isomorphic orientations in the same order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


# --- oracle --------------------------------------------------------------------

ORACLE_N = 7
# Dense extremal graphs that prune hard, then sparse ones with wide frontiers.
ORACLE_SERIAL = ("dpath4", "ttour3", "star:1,2", "matching2", "prop23")
ORACLE_JOBS2 = "prop23"  # the one timed use of the split-and-merge path


def oracle_tasks(seed: int) -> list[dict]:
    tasks = [{"op": "exo", "pattern": t, "n": ORACLE_N, "jobs": 1} for t in ORACLE_SERIAL]
    tasks.append({"op": "exo", "pattern": ORACLE_JOBS2, "n": ORACLE_N, "jobs": 2})
    random.Random(seed).shuffle(tasks)
    return tasks


# --- census --------------------------------------------------------------------

WHEEL7 = odd_wheel_plus(7, [])  # 14 edges, chromatic number 4
WHEEL7_CHORDS = odd_wheel_plus(7, [(1, 3), (4, 6)])  # 16 edges, still 3-colourable rim


def census_tasks(seed: int) -> list[dict]:
    rng = random.Random(seed)
    tasks = [
        {"op": "tournaments", "k": 7},
        {"op": "oriented", "n": 5},
        {"op": "all_tournaments", "k": 7, "pattern": relabelled("dpath7", rng)},
        {"op": "all_tournaments", "k": 7, "pattern": relabelled("ttour4", rng)},
    ]
    for (n, edges), token in ((WHEEL7, "dpath4"), (WHEEL7_CHORDS, "dpath4"),
                              (WHEEL7_CHORDS, "dpath5")):
        tasks.append({
            "op": "all_orientations",
            "n": n,
            "edges": relabel_edges(n, edges, rng),
            "pattern": relabelled(token, rng),
        })
    return tasks


# --- embed ---------------------------------------------------------------------

REFINE_SIZES = (40, 48, 56, 64)
REFINE_COUNT = 48
REFINE_T = 4  # 2t = 8 buckets: the top bucket never holds half the arcs here
ZOOM_RANDOM = ((2000, 200), (3000, 200))  # (|U|, |W|), each U vertex w.p. 1/2 per W
ZOOM_RANDOM_SEEDS = 3
CAP2_U = 4 * 2 * 80 ** 2  # 51,200: the r = 2 truncation cap for |W| = 40
ZOOM_COMPLETE = (  # criterion-9 hosts: (|U|, |W|, r, zooms per pass)
    (648, 45, 1, 4),
    (640, 40, 1, 2),
    (CAP2_U, 40, 2, 1),
)
FAKS_N = 64
FAKS_COUNT = 4
ARC = {"u": [0], "w": [1], "arcs": [(0, 1)]}  # the single-arc bipartite pattern


def embed_tasks(seed: int) -> list[dict]:
    rng = random.Random(seed)
    tasks = []
    for i in range(REFINE_COUNT):
        n = REFINE_SIZES[i % len(REFINE_SIZES)]
        tasks.append({
            "op": "refine",
            "n": n,
            "arcs": random_oriented_arcs(rng, n, 0.5 if i % 2 else 0.8),
            "seed": rng.randrange(1 << 30),
            "r": 2,
            "t": REFINE_T,
        })
    for nu, nw in ZOOM_RANDOM:
        host = {"kind": "random", "nu": nu, "nw": nw, "seed": rng.randrange(1 << 30)}
        for _ in range(ZOOM_RANDOM_SEEDS):
            tasks.append({"op": "zoom", "host": host, "r": 1, "seed": rng.randrange(1 << 30)})
    for nu, nw, r, count in ZOOM_COMPLETE:
        host = {"kind": "complete", "nu": nu, "nw": nw}
        for _ in range(count):
            tasks.append({"op": "zoom", "host": host, "r": r, "seed": rng.randrange(1 << 30)})
    for _ in range(FAKS_COUNT):
        tasks.append({
            "op": "faks",
            "n": FAKS_N,
            "arcs": random_oriented_arcs(rng, FAKS_N, 0.8),
            "r": 1,
            "t": REFINE_T,
            "seed": rng.randrange(1 << 30),
        })
    return tasks


def bipartite_host(host: dict) -> tuple[list[int], list[int], list[int]]:
    """(U ids, W ids, out-masks over W indices) of a zoom host spec."""
    nu, nw = host["nu"], host["nw"]
    if host["kind"] == "complete":
        masks = [(1 << nw) - 1] * nu
    else:
        hrng = random.Random(host["seed"])
        masks = [hrng.getrandbits(nw) for _ in range(nu)]
    return list(range(nu)), list(range(nu, nu + nw)), masks


# --- cli -----------------------------------------------------------------------


def cli_tasks(seed: int) -> dict:
    """CLI invocations covering every subcommand and exit code 0-4.

    Each task has argv (after `python -m orituran.cli`), the input files it
    reads, the exit codes the README allows, and what the checker verifies.
    Two tasks fail on every run today because of program faults: `--jobs 0`
    exits 0 instead of 2, and `embed` on a 0-vertex host dies with a
    traceback instead of printing one JSON object.
    """
    rng = random.Random(seed)
    files: dict[str, str] = {}

    def pattern_file(name: str, token: str) -> str:
        p = relabelled(token, rng)
        files[name] = og_text(p["n"], p["arcs"])
        return name

    def host_file(name: str, n: int, density: float) -> str:
        files[name] = og_text(n, random_oriented_arcs(rng, n, density))
        return name

    def undirected_file(name: str, n: int, edges) -> str:
        lines = ["undirected", str(n)] + [f"{u} {v}" for u, v in relabel_edges(n, edges, rng)]
        files[name] = "\n".join(lines) + "\n"
        return name

    t = []

    def add(name, argv, exits, check=None):
        t.append({"name": name, "argv": argv, "exits": exits, "check": check or {"kind": "none"}})

    # compress
    for token in ("dpath4", "ttour3", "adpath4"):
        f = pattern_file(f"{token}.og", token)
        add(f"compress-{token}", ["compress", f, "--json"], [0],
            {"kind": "compress", "token": token, "file": f})
    f = pattern_file("dcycle3.og", "dcycle3")
    add("compress-dcycle3", ["compress", f, "--json"], [0],
        {"kind": "compress", "token": "dcycle3", "file": f})
    f = pattern_file("dpath3.og", "dpath3")
    add("compress-text", ["compress", f], [0], {"kind": "compress_text", "z": 3})
    files["malformed.og"] = "3\n0 1\n1 x\n"
    add("compress-malformed", ["compress", "malformed.og"], [2])
    files["toolarge.og"] = "65\n"
    add("compress-toolarge", ["compress", "toolarge.og"], [3])
    # exo
    add("exo-dpath3", ["exo", "--pattern", "dpath3", "--n", "3..6", "--json"], [0],
        {"kind": "exo", "token": "dpath3"})
    add("exo-matching2", ["exo", "--pattern", "matching2", "--n", "5", "--json"], [0],
        {"kind": "exo", "token": "matching2"})
    add("exo-adpath4-jobs2", ["exo", "--pattern", "adpath4", "--n", "6", "--jobs", "2", "--json"],
        [0], {"kind": "exo", "token": "adpath4"})
    f = pattern_file("custom-oc4.og", "oc4")
    add("exo-custom-oc4", ["exo", "--pattern-file", f, "--n", "4..5", "--json"], [0],
        {"kind": "exo", "token": "oc4"})
    add("exo-verify-dpath4", ["exo", "--pattern", "dpath4", "--n", "5..6", "--verify-formula",
                              "--json"], [0], {"kind": "exo_verify", "token": "dpath4"})
    add("exo-text", ["exo", "--pattern", "star:0,2", "--n", "5"], [0],
        {"kind": "exo_text", "token": "star:0,2", "n": 5})
    add("exo-n11", ["exo", "--pattern", "dpath3", "--n", "11"], [3])
    add("exo-n8-budget", ["exo", "--pattern", "dpath3", "--n", "8", "--budget", "50"], [4])
    add("exo-jobs0", ["exo", "--pattern", "dpath3", "--n", "3", "--jobs", "0"], [2])
    add("exo-bad-token", ["exo", "--pattern", "dpath1", "--n", "5"], [2])
    add("exo-no-pattern", ["exo", "--n", "5"], [2])
    # construct
    constructions = [
        ("turan", ["--n", "20", "--r", "3"], "dpath4"),
        ("turan", ["--n", "14", "--r", "3", "--pattern", "oc4"], "oc4"),
        ("cyclepower", ["--n", "11", "--q", "3"], "star:0,3"),
        ("starpartition", ["--n", "12", "--p", "1", "--q", "2"], "star:1,2"),
        ("thm32", ["--n", "11"], "thm32"),
        ("prop26", ["--n", "9"], "adpath4"),
        ("prop27", ["--n", "9"], "p3plusarc"),
    ]
    for name, args, token in constructions:
        n = int(args[1])
        add(f"construct-{name}-{token}", ["construct", name] + args, [0],
            {"kind": "construct", "name": name, "token": token, "n": n})
    add("construct-thm32-small", ["construct", "thm32", "--n", "4"], [2])
    # embed
    host_file("host40.og", 40, 0.8)
    add("embed-host40", ["embed", "--host", "host40.og", "--pattern", "dpath2", "--r", "1",
                         "--seed", str(rng.randrange(1000)), "--t-override", "2"], [0, 1],
        {"kind": "embed", "host": "host40.og"})
    host_file("host64.og", 64, 0.9)
    add("embed-host64", ["embed", "--host", "host64.og", "--pattern", "dpath2", "--r", "1",
                         "--seed", str(rng.randrange(1000)), "--t-override", "4"], [0, 1],
        {"kind": "embed", "host": "host64.og"})
    add("embed-not-one-way", ["embed", "--host", "host40.og", "--pattern", "dpath3", "--r", "1",
                              "--seed", "1"], [2])
    files["empty.og"] = "0\n"
    add("embed-empty-host", ["embed", "--host", "empty.og", "--pattern", "dpath2", "--r", "1",
                             "--seed", "5", "--t-override", "2"], [1, 2],
        {"kind": "embed", "host": "empty.og"})
    # check-hypothesis
    add("check-tournaments-dpath5", ["check-hypothesis", "all-tournaments", "--k", "5",
                                     "--pattern", "dpath5", "--json"], [0],
        {"kind": "tournaments", "token": "dpath5", "k": 5})
    add("check-tournaments-oc4", ["check-hypothesis", "all-tournaments", "--k", "4",
                                  "--pattern", "oc4", "--json"], [0],
        {"kind": "tournaments", "token": "oc4", "k": 4})
    add("check-tournaments-ttour4", ["check-hypothesis", "all-tournaments", "--k", "5",
                                     "--pattern", "ttour4", "--json"], [1],
        {"kind": "tournaments", "token": "ttour4", "k": 5})
    n, edges = odd_wheel_plus(5, [])
    undirected_file("wheel5.og", n, edges)
    add("check-orientations-dpath4", ["check-hypothesis", "all-orientations", "--host", "wheel5.og",
                                      "--pattern", "dpath4", "--json"], [0],
        {"kind": "orientations", "token": "dpath4", "host": "wheel5.og"})
    add("check-orientations-dpath5", ["check-hypothesis", "all-orientations", "--host", "wheel5.og",
                                      "--pattern", "dpath5"], [1],
        {"kind": "orientations_text", "token": "dpath5", "host": "wheel5.og"})
    add("check-tournaments-no-k", ["check-hypothesis", "all-tournaments", "--pattern", "dpath3"], [2])
    n25 = 8
    edges25 = [(i, j) for i in range(n25) for j in range(i + 1, n25)][:25]
    files["k8minus.og"] = "\n".join(["undirected", str(n25)] + [f"{u} {v}" for u, v in edges25]) + "\n"
    add("check-orientations-cap", ["check-hypothesis", "all-orientations", "--host", "k8minus.og",
                                   "--pattern", "dpath3"], [3])
    return {"files": files, "tasks": t}


def tasks_for(workload: str, seed: int) -> list[dict]:
    """Task list of an in-process workload (the CLI's comes with its files)."""
    return {"oracle": oracle_tasks, "census": census_tasks, "embed": embed_tasks}[workload](seed)
