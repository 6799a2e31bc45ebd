"""Independent checks of the program's answers.

Everything here is computed apart from orituran: closed forms from the paper's
all-n theorems, constructions built and verified here, networkx subgraph
monomorphism and isomorphism, OEIS class counts and brute force over labelled
graphs.  The one exception is `faks_pipeline` determinism, which by nature
re-runs the program with the same seed.  Each `check_<workload>` returns a
list of problems; an empty list means every answer of an operation that did
not fail is correct.
"""

from __future__ import annotations

import itertools
import json
import math

import networkx as nx
from networkx.algorithms.isomorphism import DiGraphMatcher

import spec

OEIS_TOURNAMENTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}  # A000568
OEIS_ORIENTED = {1: 1, 2: 2, 3: 7, 4: 42, 5: 582, 6: 21480}  # A001174
TT_COMPRESSIBILITY = {2: 2, 3: 4, 4: 8}  # z(TT_k): every 2^(k-1)-tournament holds TT_k

# --- graphs as (n, arcs) -----------------------------------------------------------


def arcs_of_masks(out) -> list[tuple[int, int]]:
    return [(u, v) for u, m in enumerate(out) for v in range(len(out)) if m >> v & 1]


def parse_og(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The benchmark's own .og reader: count line, then 'u v' arc lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = int(lines[0])
    arcs = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    return n, arcs


def parse_code(code: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode an 'n:digits' canonical code (0 none, 1 i->j, 2 j->i, row-major)."""
    head, digits = code.split(":")
    n = int(head)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(digits) != len(pairs):
        raise ValueError(f"code {code!r} has the wrong length")
    arcs = [(i, j) if d == "1" else (j, i) for (i, j), d in zip(pairs, digits) if d != "0"]
    return n, arcs


def is_oriented(n: int, arcs) -> bool:
    s = set(arcs)
    return (len(s) == len(arcs) and all(0 <= u < n and 0 <= v < n and u != v for u, v in s)
            and not any((v, u) in s for u, v in s))


def is_tournament(n: int, arcs) -> bool:
    return is_oriented(n, arcs) and len(arcs) == n * (n - 1) // 2


def digraph(n: int, arcs) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    return g


def nx_contains(n: int, arcs, pattern: tuple[int, list]) -> bool:
    """Whether the host has a (not necessarily induced) copy of the pattern."""
    pn, parcs = pattern
    if pn > n:
        return False
    return DiGraphMatcher(digraph(n, arcs), digraph(pn, parcs)).subgraph_is_monomorphic()


def saturated(n: int, arcs, pattern) -> bool:
    """Adding any absent arc, in either direction, creates a copy of the pattern."""
    s = set(arcs)
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in s and (v, u) not in s:
                if not nx_contains(n, list(arcs) + [(u, v)], pattern):
                    return False
    return True


# --- closed forms and constructions ------------------------------------------------


def turan(n: int, r: int) -> int:
    """Edges of the complete r-partite graph on n vertices with balanced parts."""
    if r >= n:
        return n * (n - 1) // 2
    q, s = divmod(n, r)
    return (n * n - s * (q + 1) ** 2 - (r - s) * q * q) // 2


def closed_form(token: str, n: int):
    """exo(n, F) from the paper's all-n theorems, or None where only a large-n
    formula is known."""
    kind = token.rstrip("0123456789")
    k = int(token[len(kind):]) if kind != token and ":" not in token else None
    if kind == "dpath":
        return turan(n, k - 1)
    if kind == "dcycle":
        return n * (n - 1) // 2
    if kind == "ttour" and k in TT_COMPRESSIBILITY:
        return turan(n, TT_COMPRESSIBILITY[k] - 1)
    if token == "oc4":
        return turan(n, 3)
    if kind == "matching":
        if n < 2 * k:
            return n * (n - 1) // 2
        return max((2 * k - 1) * (2 * k - 2) // 2, (k - 1) * (n - k + 1) + (k - 1) * (k - 2) // 2)
    if token == "adpath4":
        return n * (n - 1) // 2 if n < 4 else 2 * n - 3
    if token.startswith("star:"):
        p, q = sorted(int(x) for x in token[5:].split(","))
        if p == 0 and n >= 2 * q - 1:
            return (q - 1) * n
    return None


def cycle_power(vertices, width: int):
    m = len(vertices)
    return [(vertices[i], vertices[(i + s) % m]) for i in range(m) for s in range(1, width + 1)]


def construction(name: str, n: int, p: int = 0, q: int = 0):
    """Arcs of the lower-bound constructions, built here from their definitions."""
    if name == "bipartite":  # all arcs from a floor(n/2) part to the rest
        return [(u, w) for u in range(n // 2) for w in range(n // 2, n)]
    if name == "starpartition":
        d = (n + q - p + 1) // 2
        part_c, part_d = list(range(n - d)), list(range(n - d, n))
        return (cycle_power(part_c, p - 1) + cycle_power(part_d, q - 1)
                + [(u, w) for u in part_c for w in part_d])
    raise ValueError(name)


LOWER_BOUND = {  # pattern -> construction whose arc count bounds exo from below
    "prop23": ("bipartite", {}),
    "star:1,2": ("starpartition", {"p": 1, "q": 2}),
}


def exo_problems(token: str, n: int, value: int, wn: int, warcs) -> list[str]:
    """Checks of one exo answer: the value against a closed form or a verified
    construction, and the witness for size, arc count, freeness and maximality."""
    pattern = spec.pattern_arcs(token)
    where = f"exo({n}, {token})"
    problems = []
    expected = closed_form(token, n)
    if expected is not None and value != expected:
        problems.append(f"{where} = {value}, closed form gives {expected}")
    if expected is None:
        name, kw = LOWER_BOUND[token]
        arcs = construction(name, n, **kw)
        if nx_contains(n, arcs, pattern):
            problems.append(f"{where}: the {name} construction is not free")
        elif value < len(arcs):
            problems.append(f"{where} = {value}, below the free {name} construction ({len(arcs)})")
    if wn != n or not is_oriented(wn, warcs) or len(warcs) != value:
        problems.append(f"{where}: witness is not an oriented {n}-vertex graph with {value} arcs")
    elif nx_contains(wn, warcs, pattern):
        problems.append(f"{where}: witness contains the pattern")
    elif not saturated(wn, warcs, pattern):
        problems.append(f"{where}: witness gains no copy from some added arc")
    return problems


# --- brute force over labelled graphs ------------------------------------------------


def copy_masks(n: int, pattern) -> set[int]:
    """Bitmasks over ordered pairs u*n+v of the arc sets of every copy of the
    pattern in the complete digraph on n vertices."""
    pn, parcs = pattern
    masks = set()
    for image in itertools.permutations(range(n), pn):
        masks.add(sum(1 << (image[u] * n + image[v]) for u, v in parcs))
    return masks


def brute_force_exo(n: int, pattern) -> int:
    """exo(n, F) by trying every labelled oriented graph on n vertices."""
    copies = copy_masks(n, pattern)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = -1
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = len(pairs) - states.count(0)
        if arcs <= best:
            continue
        g = 0
        for (i, j), s in zip(pairs, states):
            if s == 1:
                g |= 1 << (i * n + j)
            elif s == 2:
                g |= 1 << (j * n + i)
        if not any(c & g == c for c in copies):
            best = arcs
    return best


def labelled_tournaments(k: int):
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for bits in range(1 << len(pairs)):
        yield [(i, j) if bits >> b & 1 else (j, i) for b, (i, j) in enumerate(pairs)]


def every_tournament_contains(k: int, pattern) -> bool:
    copies = copy_masks(k, pattern)
    for arcs in labelled_tournaments(k):
        g = sum(1 << (u * k + v) for u, v in arcs)
        if not any(c & g == c for c in copies):
            return False
    return True


def hom_exists(pattern, n: int, arcs) -> bool:
    """Any map V(F) -> V(G), injective or not, sending arcs to arcs."""
    pn, parcs = pattern
    s = set(arcs)
    return any(all((f[u], f[v]) in s for u, v in parcs)
               for f in itertools.product(range(n), repeat=pn))


def has_directed_cycle(n: int, arcs) -> bool:
    return not nx.is_directed_acyclic_graph(digraph(n, arcs))


def chromatic_number(n: int, edges) -> int:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def colourable(c: int) -> bool:
        colour = [-1] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            for x in range(c):
                if all(colour[w] != x for w in adj[v]):
                    colour[v] = x
                    if place(v + 1):
                        return True
            colour[v] = -1
            return False

        return place(0)

    return next(c for c in range(1, n + 1) if colourable(c))


def is_orientation_of(n: int, edges, cn: int, carcs) -> bool:
    return (cn == n and is_oriented(cn, carcs)
            and sorted(tuple(sorted(a)) for a in carcs) == sorted(tuple(sorted(e)) for e in edges))


def degree_invariant(g: nx.DiGraph) -> tuple:
    """Isomorphism invariant: each vertex's degrees and its neighbours' out-degrees."""
    out = dict(g.out_degree())
    return tuple(sorted(
        (out[v], g.in_degree(v), tuple(sorted(out[w] for w in g.successors(v))),
         tuple(sorted(out[w] for w in g.predecessors(v))))
        for v in g
    ))


def automorphisms(n: int, arcs) -> int:
    g = digraph(n, arcs)
    return sum(1 for _ in DiGraphMatcher(g, g).isomorphisms_iter())


def classes_problems(label: str, n: int, classes, expected: int, tournament: bool) -> list[str]:
    """Count against OEIS, shape, pairwise non-isomorphism and the orbit-sum identity."""
    graphs = [(n, arcs_of_masks(out)) for out in classes]
    problems = []
    if len(graphs) != expected:
        problems.append(f"{label}: {len(graphs)} classes, OEIS gives {expected}")
    shape = is_tournament if tournament else is_oriented
    if not all(shape(*g) for g in graphs):
        problems.append(f"{label}: a class is not a {'tournament' if tournament else 'graph'}")
        return problems
    buckets = {}
    for g in graphs:
        d = digraph(*g)
        buckets.setdefault(degree_invariant(d), []).append(d)
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            if nx.is_isomorphic(a, b):
                problems.append(f"{label}: two classes are isomorphic")
                return problems
    orbit_sum = sum(math.factorial(n) // automorphisms(*g) for g in graphs)
    labelled = (2 if tournament else 3) ** (n * (n - 1) // 2)
    if orbit_sum != labelled:
        problems.append(f"{label}: orbit sum {orbit_sum} != {labelled} labelled graphs")
    return problems


# --- per workload ----------------------------------------------------------------------


def check_oracle(tasks, outputs, failed) -> list[str]:
    problems = []
    serial = {}
    for task, out, bad in zip(tasks, outputs, failed):
        if bad:
            continue
        wn, wout = out["witness"]
        problems += exo_problems(task["pattern"], task["n"], out["value"], wn, arcs_of_masks(wout))
        if task["jobs"] == 1:
            serial[task["pattern"]] = out
    for task, out, bad in zip(tasks, outputs, failed):
        if not bad and task["jobs"] > 1 and task["pattern"] in serial:
            ref = serial[task["pattern"]]
            if (out["value"], out["witness"]) != (ref["value"], ref["witness"]):
                problems.append(f"exo(7, {task['pattern']}): jobs={task['jobs']} differs from serial")
    return problems


def check_census(tasks, outputs, failed) -> list[str]:
    problems = []
    for task, out, bad in zip(tasks, outputs, failed):
        if bad:
            continue
        op = task["op"]
        if op == "tournaments":
            k = task["k"]
            problems += classes_problems(f"tournaments({k})", k, out, OEIS_TOURNAMENTS[k], True)
            continue
        if op == "oriented":
            n = task["n"]
            problems += classes_problems(f"oriented({n})", n, out, OEIS_ORIENTED[n], False)
            continue
        pat = task["pattern"]
        pattern = (pat["n"], [tuple(a) for a in pat["arcs"]])
        k = pattern[0]
        if op == "all_tournaments":
            label = f"all {task['k']}-tournaments contain {pat['token']}"
            if pat["token"].startswith("dpath"):
                expected = k <= task["k"]  # Redei: every tournament has a Hamiltonian path
            else:  # TT_k is absent from some tournament on fewer than z(TT_k) vertices
                expected = task["k"] >= TT_COMPRESSIBILITY[k]
            host_n, edges = task["k"], None
        else:
            edges = [tuple(e) for e in task["edges"]]
            label = f"all orientations of a {len(edges)}-edge graph contain {pat['token']}"
            # Gallai-Roy: every orientation has a directed path on chi vertices, and
            # orienting along a proper chi-colouring leaves no longer one
            expected = k <= chromatic_number(task["n"], edges)
            host_n = task["n"]
        if out["holds"] != expected:
            problems.append(f"{label}: answered {out['holds']}, theory says {expected}")
        if not out["holds"]:
            cn, cout = out["counterexample"]
            carcs = arcs_of_masks(cout)
            shaped = (is_tournament(cn, carcs) and cn == host_n if edges is None
                      else is_orientation_of(host_n, edges, cn, carcs))
            if not shaped:
                problems.append(f"{label}: counterexample has the wrong shape")
            elif nx_contains(cn, carcs, pattern):
                problems.append(f"{label}: counterexample contains the pattern")
    return problems


def check_embed(tasks, outputs, failed, rerun_faks) -> list[str]:
    """rerun_faks(task) runs faks_pipeline again with the task's seed."""
    problems = []
    for i, (task, out, bad) in enumerate(zip(tasks, outputs, failed)):
        if bad:
            continue
        if task["op"] == "refine":
            problems += [f"refine task {i}: {p}" for p in refine_problems(task, out)]
        elif task["op"] == "zoom":
            u, w, masks = spec.bipartite_host(task["host"])
            nu = len(u)
            problems += [f"zoom task {i}: {p}" for p in
                         embedding_problems(out["mapping"], set(u), set(w),
                                            lambda a, b: masks[a] >> (b - nu) & 1)]
        else:
            problems += [f"faks task {i}: {p}" for p in faks_problems(task, out)]
            if rerun_faks(task) != out:
                problems.append(f"faks task {i}: the same seed gave different JSON")
    return problems


def refine_problems(task, out) -> list[str]:
    n, host = task["n"], set(map(tuple, task["arcs"]))
    x, y = out["x"], out["y"]
    problems = []
    if set(x) & set(y) or set(x) | set(y) != set(range(n)) or abs(len(x) - len(y)) > 1:
        problems.append("parts are not a balanced partition of the host")
    kept = {(x[i], y[j]) for i, m in enumerate(out["masks"]) for j in range(len(y)) if m >> j & 1}
    if not kept <= host:
        problems.append("a kept arc is not a host arc from X to Y")
    if len(kept) < -(-len(host) // 4):
        problems.append(f"kept {len(kept)} of {len(host)} arcs, below a quarter")
    su, sw = out["sub_u"], out["sub_w"]
    sub = {(su[i], sw[j]) for i, m in enumerate(out["sub_masks"]) for j in range(len(sw))
           if m >> j & 1}
    if not set(su) <= set(x) or not set(sw) <= set(y):
        problems.append("refined parts leave the extracted parts")
    if sub != {(a, b) for a, b in kept if a in su and b in sw}:
        problems.append("refined graph is not the extracted graph induced on its vertices")
    degree = dict.fromkeys(su + sw, 0)
    for a, b in sub:
        degree[a] += 1
        degree[b] += 1
    n_s = len(degree)
    eps = 1.0 - 1.0 / task["r"]
    k_bound = 20.0 * task["t"]
    lo, hi = min(degree.values(), default=0), max(degree.values(), default=0)
    if out["n_s"] != n_s or out["t"] != task["t"] or out["K"] != k_bound:
        problems.append("reported n_s, t or K do not match the subgraph and the bucket count")
    if lo == 0 or hi > k_bound * lo:
        problems.append(f"degrees {lo}..{hi} break the {k_bound:g}-almost-regular bound")
    if not out["c"] > 0 or len(sub) < (out["c"] / 10.0) * n_s ** (1.0 + eps) - 1e-9:
        problems.append(f"{len(sub)} arcs break the arc bound for c = {out['c']}")
    avg = 2.0 * len(sub) / n_s if n_s else 0.0
    if lo and (not math.isclose(out["K1"], avg / lo) or not math.isclose(out["K2"], avg / hi)):
        problems.append("reported K1, K2 do not match the degrees")
    return problems


def embedding_problems(mapping, host_u, host_w, has_arc) -> list[str]:
    """The single-arc pattern 0 -> 1: injective, sides kept, the arc lands on an arc."""
    m = dict(map(tuple, mapping))
    if set(m) != {0, 1}:
        return ["embedding does not cover the pattern"]
    if m[0] == m[1]:
        return ["embedding is not injective"]
    if m[0] not in host_u or m[1] not in host_w:
        return ["embedding leaves the host's sides"]
    if not has_arc(m[0], m[1]):
        return ["pattern arc is not a host arc"]
    return []


def faks_problems(task, out) -> list[str]:
    host = set(map(tuple, task["arcs"]))
    problems = []
    extract = out["stages"][0] if out["stages"] else {}
    if extract.get("arcs") != len(host) or extract.get("target") != -(-len(host) // 4):
        problems.append("extract stage misreports the host's arcs or the quarter target")
    elif extract["retained"] < extract["target"]:
        problems.append("extract stage kept less than a quarter of the arcs")
    if (out["embedding"] is None) == (out["failure"] is None):
        problems.append("exactly one of embedding and failure must be set")
    if out["embedding"] is not None:
        m = dict(map(tuple, out["embedding"]))
        if len(set(m.values())) != len(m) or (m.get(0), m.get(1)) not in host:
            problems.append("embedding is not an injective arc-preserving map")
    return problems


# --- cli ---------------------------------------------------------------------------


def cli_problems(task, out, files) -> list[str]:
    chk = task["check"]
    kind = chk["kind"]
    if kind == "none":
        return []
    text = out["stdout"]
    if kind == "compress":
        obj = json.loads(text)
        pattern = parse_og(files[chk["file"]])
        token = chk["token"]
        if has_directed_cycle(*pattern):
            return [] if obj == {"z": None, "witness": None} else ["cyclic pattern needs z null"]
        z = obj["z"]
        if token.startswith("dpath"):
            expected = int(token[5:])  # Redei: a k-tournament has a Hamiltonian path
        elif token.startswith("ttour"):
            expected = TT_COMPRESSIBILITY[int(token[5:])]
        else:  # antidirected: sources go to the tail of one arc, sinks to its head
            expected = 2
        problems = [] if z == expected else [f"z({token}) = {z}, expected {expected}"]
        wn, warcs = parse_og(obj["witness"])
        if wn != z - 1 or not is_tournament(wn, warcs) or hom_exists(pattern, wn, warcs):
            problems.append(f"z({token}): witness is not a {z - 1}-tournament free of images")
        if not all(hom_exists(pattern, z, t) for t in labelled_tournaments(z)):
            problems.append(f"z({token}): some {z}-tournament admits no image")
        return problems
    if kind == "compress_text":
        return [] if text.splitlines()[0] == f"z = {chk['z']}" else ["compress text is wrong"]
    if kind == "exo":
        obj = json.loads(text)
        problems = []
        for row in obj["rows"]:
            wn, warcs = parse_og(row["witness"])
            problems += exo_problems(chk["token"], row["n"], row["value"], wn, warcs)
        return problems
    if kind == "exo_verify":
        problems = []
        for row in json.loads(text)["rows"]:
            cf = closed_form(chk["token"], row["n"])
            if (row["oracle"], row["formula"], row["status"]) != (cf, cf, "MATCH"):
                problems.append(f"verify-formula row n={row['n']} disagrees with {cf}")
            wn, warcs = parse_code(row["witness"])
            problems += exo_problems(chk["token"], row["n"], row["oracle"], wn, warcs)
        return problems
    if kind == "exo_text":
        row = text.splitlines()[2].split()
        cf = closed_form(chk["token"], chk["n"])
        return [] if row[:2] == [str(chk["n"]), str(cf)] else [f"exo text row {row} != {cf}"]
    if kind == "construct":
        n, arcs = parse_og(text)
        expected = construct_arcs(task["argv"], n)
        problems = [] if len(arcs) == expected else [f"{task['name']}: {len(arcs)} arcs != {expected}"]
        if n != chk["n"] or not is_oriented(n, arcs) or nx_contains(n, arcs, spec.pattern_arcs(chk["token"])):
            problems.append(f"{task['name']}: not an oriented {chk['token']}-free graph")
        return problems
    if kind == "embed":
        obj = json.loads(text)
        if (obj["embedding"] is not None) != (out["exit"] == 0):
            return ["embed exit code disagrees with the embedding"]
        if obj["embedding"] is None:
            return [] if obj["failure"] else ["no embedding and no failure"]
        hn, harcs = parse_og(files[chk["host"]])
        hset = set(harcs)
        sources = {u for u, _ in harcs}
        return embedding_problems(obj["embedding"], sources, set(range(hn)),
                                  lambda a, b: (a, b) in hset)
    if kind == "tournaments":
        obj = json.loads(text)
        pattern = spec.pattern_arcs(chk["token"])
        expected = every_tournament_contains(chk["k"], pattern)
        if obj["holds"] != expected:
            return [f"{task['name']}: answered {obj['holds']}, brute force says {expected}"]
        if not expected:
            cn, carcs = parse_og(obj["counterexample"])
            if cn != chk["k"] or not is_tournament(cn, carcs) or nx_contains(cn, carcs, pattern):
                return [f"{task['name']}: bad counterexample"]
        return []
    if kind in ("orientations", "orientations_text"):
        lines = files[chk["host"]].split("\n")
        n = int(lines[1])
        edges = [tuple(int(x) for x in ln.split()) for ln in lines[2:] if ln]
        pattern = spec.pattern_arcs(chk["token"])
        expected = pattern[0] <= chromatic_number(n, edges)  # Gallai-Roy, dpath patterns
        if kind == "orientations":
            obj = json.loads(text)
            holds, cx = obj["holds"], obj["counterexample"]
        else:
            first, _, rest = text.partition("\n")
            holds, cx = first == "true", rest
        if holds != expected:
            return [f"{task['name']}: answered {holds}, Gallai-Roy says {expected}"]
        if not holds:
            cn, carcs = parse_og(cx)
            if not is_orientation_of(n, edges, cn, carcs) or nx_contains(cn, carcs, pattern):
                return [f"{task['name']}: bad counterexample"]
        return []
    raise ValueError(kind)


def construct_arcs(argv, n: int) -> int:
    """Arc count of a named construction from its closed form."""
    name = argv[1]
    opt = {argv[i][2:]: argv[i + 1] for i in range(2, len(argv), 2)}
    if name == "turan":
        return turan(n, int(opt["r"]))
    if name == "cyclepower":
        return (int(opt["q"]) - 1) * n
    if name == "starpartition":
        p, q = int(opt["p"]), int(opt["q"])
        return (p - 1) * n + (n + q - p) ** 2 // 4
    if name == "thm32":
        return n * n // 4 + (n + 1) // 2
    return 2 * n - 3  # prop26, prop27


def check_cli(tasks, outputs, failed, files) -> list[str]:
    problems = []
    for task, out, bad in zip(tasks, outputs, failed):
        if bad:
            continue
        try:
            problems += cli_problems(task, out, files)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{task['name']}: unreadable output ({type(exc).__name__}: {exc})")
    return problems
