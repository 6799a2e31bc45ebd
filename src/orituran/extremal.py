"""Exact oriented Turan numbers at small n, closed forms, and extremal constructions.

exo(n, F) is the largest arc count among n-vertex oriented graphs containing
no copy of F.  The oracle enumerates F-free graphs one isomorphism class at a
time (freeness survives vertex deletion, so pruning whole subtrees is sound)
with a branch-and-bound cutoff, and is seeded with a verified F-free
construction when one applies.  A child P + x of an F-free parent P contains F
exactly when P holds a copy phi of some F - u with phi(N+(u)) inside x's
out-set and phi(N-(u)) inside its in-set (one-vertex extension by feasible
neighbourhoods, McKay & Radziszowski, R(4,5) = 25); u ranges over one vertex
per orbit of Aut(F), since an orbit's vertices give the same pairs.  Each
parent decides its 3^k extensions at once, as bitsets over their positions in
the extension list: the bound admits a prefix of the list, each such pair
forbids the AND of its lane masks, each pair of false twins in P drops the
extensions that an automorphism of P maps to an earlier-listed one
(symmetry pruning of the extension set, McKay, Isomorph-free exhaustive
generation, J. Algorithms 26 (1998)), and a degree cut drops those whose new
vertex would lack the child's largest degree.  Only the survivors are tested
canonically.  Each later vertex also joins P by an F-free extension, so it
sends P at most as many arcs as the densest one, which caps the child's subtree.
"""

from __future__ import annotations

import marshal
import os
from typing import Iterable, NamedTuple, NoReturn, Optional, Sequence

from .canon import (
    MAX_CODE_VERTICES,
    _dropped,
    _extension_sets,
    _last_pinned_digits,
    _min_digits,
    accept_child,
    canonical_code,
    extend_masks,
    masks_from_digits,
)
# contains_copy_through is unused here; bench/layers.py rebinds it until the stats channel lands
from .containment import contains_copy_through, is_free
from .graphs import (
    BadParamsError,
    BudgetExceededError,
    GraphError,
    InvariantError,
    OrientedGraph,
    TooLargeError,
    _check_vertex_count,
    _in_masks,
    _natural,
)
from .homomorphism import EmptyPatternError, SearchPlan, compressibility

MAX_EXACT_VERTICES = 7

VALID_ALL = "all n"
VALID_LARGE = "sufficiently large n"


class NoFormulaError(GraphError):
    """No closed form is available for this pattern."""


# token prefix -> (kind, least parameter, error below it, vertex count, arcs)
_FAMILIES = {
    "dpath": ("dpath", 2, "a directed path needs at least 2 vertices",
              lambda k: k, lambda k: [(i, i + 1) for i in range(k - 1)]),
    "dcycle": ("dcycle", 3, "a directed cycle needs at least 3 vertices",
               lambda k: k, lambda k: [(i, (i + 1) % k) for i in range(k)]),
    "ttour": ("ttour", 2, "a transitive tournament pattern needs at least 2 vertices",
              lambda k: k, lambda k: [(i, j) for i in range(k) for j in range(i + 1, k)]),
    "matching": ("matching", 1, "matching needs k >= 1",
                 lambda k: 2 * k, lambda k: [(2 * i, 2 * i + 1) for i in range(k)]),
    # alternating arcs, the first one forward
    "adpath": ("adpath", 2, "an antidirected path needs at least 2 vertices",
               lambda k: k, lambda k: [(i, i + 1) if i % 2 == 0 else (i + 1, i)
                                       for i in range(k - 1)]),
}
_FAMILIES["c"] = _FAMILIES["dcycle"]  # c3 is shorthand for dcycle3

# token -> (vertex count, arcs)
_FIXED = {
    "oc4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # four-cycle a->b, b->c, c->d, a->d
    "prop23": (4, [(0, 1), (1, 2), (3, 2)]),  # a->b, b->c, d->c
    "prop23m": (4, [(1, 0), (1, 2), (2, 3)]),  # prop23 arc-reversed: b->a, b->c, c->d
    "p3plusarc": (5, [(0, 1), (2, 1), (3, 4)]),  # a->b, c->b and an independent arc d->e
    "thm32": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),  # diamond x->y1, x->y2, y1->z, y2->z
}


class PatternSpec(NamedTuple):
    """A named forbidden pattern together with its concrete graph.

    kind is one of dpath, dcycle, ttour, star, matching, adpath, oc4, prop23,
    prop23m, p3plusarc, thm32, custom.  Tokens render as dpath3, star:1,2,
    oc4, ...; c3 is accepted as an alias for dcycle3.  star:p,q has a centre
    of in-degree p and out-degree q, each parameter written in ASCII digits.
    parse checks the vertex count against the graph cap before it builds any
    arc list.
    """

    kind: str
    params: tuple[int, ...]
    graph: OrientedGraph

    @property
    def token(self) -> str:
        if self.kind == "star":
            return f"star:{self.params[0]},{self.params[1]}"
        if self.params:
            return f"{self.kind}{self.params[0]}"
        return self.kind

    @staticmethod
    def custom(graph: OrientedGraph) -> "PatternSpec":
        if graph.arc_count == 0:
            raise EmptyPatternError("a custom pattern needs at least one arc")
        return PatternSpec("custom", (), graph)

    @staticmethod
    def parse(token: str) -> "PatternSpec":
        t = token.strip().lower()
        if t in _FIXED:
            n, arcs = _FIXED[t]
            return PatternSpec(t, (), OrientedGraph.from_arcs(n, arcs))
        if t.startswith("star:"):
            parts = t[5:].split(",")
            if len(parts) != 2:
                raise BadParamsError(f"star token must look like star:p,q, got {token!r}")
            p, q = params = [_natural(part) for part in parts]
            if None in params:
                raise BadParamsError(f"bad star parameters in {token!r}")
            if p + q < 1:
                raise BadParamsError("star needs p, q >= 0 with p + q >= 1")
            _check_vertex_count(p + q + 1)
            # centre 0, in-leaves 1..p, out-leaves p+1..p+q
            arcs = [(i, 0) for i in range(1, p + 1)] + [(0, p + j) for j in range(1, q + 1)]
            return PatternSpec("star", (p, q), OrientedGraph.from_arcs(p + q + 1, arcs))
        for prefix, (kind, least, message, vertices, arcs) in _FAMILIES.items():
            k = _natural(t[len(prefix):]) if t.startswith(prefix) else None
            if k is None:
                continue
            if k < least:
                raise BadParamsError(message)
            _check_vertex_count(vertices(k))
            return PatternSpec(kind, (k,), OrientedGraph.from_arcs(vertices(k), arcs(k)))
        raise BadParamsError(f"unknown pattern token {token!r}")


def turan_edges(n: int, r: int) -> int:
    """Edge count of the complete r-partite graph on n vertices, parts as equal
    as possible."""
    if n < 0 or r < 1:
        raise BadParamsError("turan_edges needs n >= 0 and r >= 1")
    if r >= n:
        return n * (n - 1) // 2
    base, extra = divmod(n, r)
    sq = extra * (base + 1) ** 2 + (r - extra) * base ** 2
    return (n * n - sq) // 2


def formula_value(spec: PatternSpec, n: int) -> tuple[int, str]:
    """Closed-form value and a validity note: exact for all n, or asserted only
    for sufficiently large n (small n may legitimately deviate)."""
    if n < 1:
        raise BadParamsError("formula_value needs n >= 1")
    kind = spec.kind
    if kind == "dpath":
        return turan_edges(n, spec.params[0] - 1), VALID_ALL
    if kind == "dcycle":
        # a transitive tournament has no directed cycle, so nothing is excluded
        return n * (n - 1) // 2, VALID_ALL
    if kind == "ttour":
        z = compressibility(spec.graph).value
        return turan_edges(n, z - 1), VALID_ALL
    if kind == "oc4":
        return turan_edges(n, 3), VALID_ALL
    if kind == "star":
        p, q = spec.params
        if p > q:
            p, q = q, p  # reversing every arc swaps the roles
        if p == 0:
            # the (q-1)st cycle power needs n >= 2q-1; below that every
            # near-regular tournament is free and the bound does not bind
            return (q - 1) * n, VALID_ALL if n >= 2 * q - 1 else VALID_LARGE
        return (p - 1) * n + (n + q - p) ** 2 // 4, VALID_LARGE
    if kind == "matching":
        k = spec.params[0]
        if n < 2 * k:
            return n * (n - 1) // 2, VALID_ALL
        clique = (2 * k - 1) * (2 * k - 2) // 2
        hub = (k - 1) * (n - k + 1) + (k - 1) * (k - 2) // 2
        return max(clique, hub), VALID_ALL
    if kind == "adpath":
        if spec.params[0] != 4:
            raise NoFormulaError("closed form known only for the 4-vertex antidirected path")
        if n < 2:
            raise BadParamsError("the 2n-3 formula applies for n >= 2")
        return 2 * n - 3, VALID_ALL
    if kind in ("prop23", "prop23m"):
        return n * n // 4, VALID_LARGE
    if kind == "p3plusarc":
        return 2 * n - 3, VALID_LARGE
    if kind == "thm32":
        return n * n // 4 + (n + 1) // 2, VALID_LARGE
    raise NoFormulaError(f"no closed form for pattern kind {kind!r}")


# --- constructions -------------------------------------------------------------


def _cycle_power_arcs(vertices: Sequence[int], width: int) -> list[tuple[int, int]]:
    """Arcs from each vertex to the next `width` vertices around the cycle."""
    m = len(vertices)
    if width < 0:
        raise BadParamsError("cycle power width must be >= 0")
    if width == 0:
        return []
    if m < 2 * width + 1:
        raise BadParamsError(
            f"cycle power of width {width} needs at least {2 * width + 1} vertices, got {m}"
        )
    return [
        (vertices[i], vertices[(i + s) % m]) for i in range(m) for s in range(1, width + 1)
    ]


def build_construction(
    name: str,
    n: int,
    *,
    r: Optional[int] = None,
    p: Optional[int] = None,
    q: Optional[int] = None,
    d: Optional[int] = None,
    pattern: Optional[PatternSpec] = None,
) -> OrientedGraph:
    """Named extremal constructions.

    turan: blow-up of an r-vertex tournament over parts as equal as possible.
      With a pattern, the orientation comes from a tournament that admits no
      homomorphism from it (so the blow-up is pattern-free); without one, the
      parts are ordered transitively.  r=2 without a pattern gives the
      antidirected orientation.
    cyclepower: arcs from each vertex to the next q-1 vertices around a cycle
      (every out-degree q-1); free of the out-star with q leaves.
    starpartition: parts C and D with |D| = d (default rounds (n+q-p)/2 up),
      cycle power of width p-1 inside C, width q-1 inside D, all C->D arcs;
      free of the star with in-degree p, out-degree q, for 1 <= p <= q.
    thm32: all arcs from the smaller part to the larger plus a directed cycle
      on the larger part (needs n >= 5).
    prop26: arc v->u plus arcs u->w and w->v for every other vertex w.
    prop27: arc v->u plus arcs u->w and v->w for every other vertex w.
    """
    if n < 1:
        raise BadParamsError("constructions need n >= 1")
    # cap sizes before building any arc list, which grows as n^2
    _check_vertex_count(n)
    if name == "turan":
        if r is None or r < 1:
            raise BadParamsError("turan construction needs r >= 1")
        _check_vertex_count(r)
        res = None if pattern is None else compressibility(pattern.graph)
        if res is None or res.is_infinite:
            order = OrientedGraph.from_arcs(
                r, [(i, j) for i in range(r) for j in range(i + 1, r)]
            )
        else:
            if r > res.witness.n:
                raise BadParamsError(
                    f"no pattern-free blow-up on {r} parts: every tournament on "
                    f"{res.value} or more vertices admits the pattern"
                )
            order = res.witness.induced(range(r))
        if r >= n:
            return order.induced(range(n))
        base, extra = divmod(n, r)
        bounds = []
        start = 0
        for i in range(r):
            size = base + (1 if i < extra else 0)
            bounds.append(range(start, start + size))
            start += size
        arcs = [
            (u, v)
            for i in range(r)
            for j in range(r)
            if order.has_arc(i, j)
            for u in bounds[i]
            for v in bounds[j]
        ]
        return OrientedGraph.from_arcs(n, arcs)
    if name == "cyclepower":
        if q is None or q < 1:
            raise BadParamsError("cyclepower needs q >= 1")
        return OrientedGraph.from_arcs(n, _cycle_power_arcs(range(n), q - 1))
    if name == "starpartition":
        if p is None or q is None or not 1 <= p <= q:
            raise BadParamsError("starpartition needs 1 <= p <= q")
        if d is None:
            d = (n + q - p + 1) // 2
        if not 0 <= d <= n:
            raise BadParamsError(f"part size d={d} out of range for n={n}")
        c = n - d
        part_c = range(0, c)
        part_d = range(c, n)
        arcs = _cycle_power_arcs(part_c, p - 1) + _cycle_power_arcs(part_d, q - 1)
        arcs += [(u, w) for u in part_c for w in part_d]
        return OrientedGraph.from_arcs(n, arcs)
    if name == "thm32":
        if n < 5:
            raise BadParamsError("thm32 construction needs n >= 5 (cycle length >= 3)")
        small = n // 2
        big = list(range(small, n))
        arcs = [(u, w) for u in range(small) for w in big]
        arcs += [(big[i], big[(i + 1) % len(big)]) for i in range(len(big))]
        return OrientedGraph.from_arcs(n, arcs)
    if name == "prop26":
        if n < 2:
            raise BadParamsError("prop26 construction needs n >= 2")
        arcs = [(1, 0)]
        arcs += [(0, w) for w in range(2, n)]
        arcs += [(w, 1) for w in range(2, n)]
        return OrientedGraph.from_arcs(n, arcs)
    if name == "prop27":
        if n < 2:
            raise BadParamsError("prop27 construction needs n >= 2")
        arcs = [(1, 0)]
        arcs += [(0, w) for w in range(2, n)]
        arcs += [(1, w) for w in range(2, n)]
        return OrientedGraph.from_arcs(n, arcs)
    raise BadParamsError(f"unknown construction {name!r}")


def _seed_candidates(spec: PatternSpec, n: int) -> list[OrientedGraph]:
    cands: list[OrientedGraph] = []

    def attempt(name: str, **kw) -> None:
        try:
            cands.append(build_construction(name, n, **kw))
        except (BadParamsError, TooLargeError):
            pass

    kind = spec.kind
    if kind == "star":
        p, q = spec.params
        if p > q:
            mirror = PatternSpec.parse(f"star:{q},{p}")
            return [g.reverse() for g in _seed_candidates(mirror, n)]
        if p == 0:
            attempt("cyclepower", q=q)
        else:
            attempt("starpartition", p=p, q=q)
    elif kind == "matching":
        k = spec.params[0]
        m = min(n, 2 * k - 1)
        clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
        cands.append(OrientedGraph.from_arcs(n, clique))
        if n >= k:
            hubs = k - 1
            arcs = [(i, j) for i in range(hubs) for j in range(i + 1, n)]
            cands.append(OrientedGraph.from_arcs(n, arcs))
    elif kind == "adpath" and spec.params[0] == 4:
        attempt("prop26")
    elif kind == "p3plusarc":
        attempt("prop27")
    elif kind == "thm32":
        attempt("thm32")
        attempt("turan", r=2, pattern=spec)
    try:
        res = compressibility(spec.graph)
    except TooLargeError:
        res = None
    if res is not None:
        r = n if res.is_infinite else min(res.value - 1, n)
        attempt("turan", r=r, pattern=spec)
    return cands


def _construction_seed(spec: PatternSpec, n: int) -> Optional[OrientedGraph]:
    """Best verified pattern-free construction on n vertices, if any applies."""
    best: Optional[OrientedGraph] = None
    for g in _seed_candidates(spec, n):
        if not is_free(g, spec.graph):
            continue
        if best is None or g.arc_count > best.arc_count:
            best = g
    return best


class ExtremalRecord(NamedTuple):
    """Exact exo value with a verified witness and the nodes searched for it;
    verify_against_formula compares it with the closed form."""

    n: int
    pattern: PatternSpec
    value: int
    witness: OrientedGraph
    nodes: int = 0


def _deletions(f: OrientedGraph) -> list[SearchPlan]:
    """A copy-search plan of F - u for one vertex u of each orbit of Aut(F).
    It marks u's out-neighbours with lane 1 and its in-neighbours with lane 2,
    so in a k-vertex host each copy phi has the key
    phi(N+(u)) | phi(N-(u)) << k.

    Vertices of one orbit give the same keys.  Two vertices share an orbit
    exactly when F's minimum codes with each pinned last are equal.
    """
    plans = []
    orbits: set[bytes] = set()
    for u in range(f.n):
        rest = [v for v in range(f.n) if v != u]
        last = f.induced(rest + [u])
        code = bytes(_last_pinned_digits(last.out, last.in_masks, f.n))
        if code in orbits:
            continue
        orbits.add(code)
        marks = {i: 1 + (f.in_masks[u] >> v & 1) for i, v in enumerate(rest)
                 if (f.out[u] | f.in_masks[u]) >> v & 1}
        plans.append(SearchPlan(f.induced(rest), injective=True, marks=marks))
    return plans


def _copy_keys(masks: tuple[int, ...], ins: list[int], k: int,
               deletions: list[SearchPlan]) -> set[int]:
    """phi(N+(u)) | phi(N-(u)) << k over the copies phi of each F - u in the
    parent P (out-masks masks, in-masks ins); extension x_out | x_in << k
    adds a copy of F iff it covers one of them."""
    arcs = sum(m.bit_count() for m in masks)
    found: set[int] = set()
    # every copy adds its key; add returns None, so the search goes on
    add = found.add
    for plan in deletions:
        if plan.n <= k and plan.arc_count <= arcs:
            plan.search(masks, ins, lambda _img, key: add(key))
    return found


def _forbidden(keys: Iterable[int], lanes: tuple[int, ...], covers: dict[int, int]) -> int:
    """The positions of the extensions that cover some key, as a bitset.

    cover(key), the extensions that cover key, is the AND of key's lanes (-1,
    every position, for the empty key) and is kept in covers.  A key that
    covers a smaller one adds nothing to the OR, so the keys need not be
    minimal.
    """
    forbidden = 0
    for key in keys:
        cover = covers.get(key)
        if cover is None:
            cover = -1
            m = key
            while m:
                low = m & -m
                cover &= lanes[low.bit_length() - 1]
                m ^= low
            covers[key] = cover
        forbidden |= cover
    return forbidden


def _densest_free(forbidden: int, exts: tuple[int, ...]) -> int:
    """Arcs of the densest extension outside forbidden: the first one listed."""
    return exts[(~forbidden & forbidden + 1).bit_length() - 1].bit_count()


def _run_levels(
    n: int,
    deletions: list[SearchPlan],
    frontier: list[tuple[tuple[int, ...], int]],
    k0: int,
    best: int,
    best_digits: Optional[bytes],
    budget: Optional[int],
    stop: int,
) -> tuple[int, Optional[bytes], int, bool, list[tuple[tuple[int, ...], int]]]:
    """Extend F-free class representatives from level k0 up to level stop.

    Returns (best value, witness digits, nodes examined, budget exceeded,
    frontier at level stop).  The bounds prune against the final order n, so
    stopping early yields exactly the frontier a full run would reach there.
    Ties at the final level keep the smallest canonical digit string.

    Each parent's extensions are decided together as bitsets over their
    positions in _extension_sets(k).exts.  Those the bound lets through form
    a window at the front of the list (it is ordered densest first); nodes
    counts the window whole, as if each extension in it were examined in
    turn.  Only the survivors, which pass the degree cut, are no twin image
    of an earlier extension and complete no copy of F, reach the canonical
    test; a parent whose window the first two empty needs no copy search.
    Below the last level, each of the rest = n - k - 1 later vertices joins P
    by an F-free extension, hence by at most d arcs, d those of the densest, so
    a child that cannot beat best with rest * (d + 1) + C(rest, 2) more arcs is cut.
    A budget that runs out inside a window stops the run where that walk
    would stop.
    """
    pairs_total = n * (n - 1) // 2
    nodes = 0
    level = frontier
    for k in range(k0, stop):
        cap_parent = pairs_total - k * (k - 1) // 2
        cap_child = pairs_total - (k + 1) * k // 2
        last = k + 1 == n
        sets = _extension_sets(k)
        exts = sets.exts
        prefix = sets.prefix
        covers: dict[int, int] = {}
        nxt: list[tuple[tuple[int, ...], int]] = []
        for masks, arcs in level:
            if arcs + cap_parent <= best:
                continue
            # the extensions with at least t arcs pass the bound
            t = best - arcs if last else best - cap_child - arcs + 1
            window = prefix[max(t, 0)]
            if budget is not None and window > budget - nodes:
                live = (1 << budget - nodes) - 1  # the budget runs out at the next one
            else:
                live = (1 << window) - 1
            ins = _in_masks(masks, k)
            live &= ~_dropped(masks, ins, sets)
            if live:
                forbidden = _forbidden(_copy_keys(masks, ins, k, deletions), sets.lanes, covers)
                live &= ~forbidden
                if live and not last:
                    # cap_child let each later vertex send k + 1 arcs, not d + 1
                    t += (n - k - 1) * (k - _densest_free(forbidden, exts))
                    live &= (1 << prefix[min(max(t, 0), k + 1)]) - 1
            seen: set[bytes] = set()
            while live:
                low = live & -live
                live ^= low
                x = exts[low.bit_length() - 1]
                child_arcs = arcs + x.bit_count()
                if last and child_arcs < best:
                    break  # best rose inside the window, which ends here
                digits = accept_child(extend_masks(masks, x), k + 1)
                if digits is None or digits in seen:
                    continue
                seen.add(digits)
                if last:
                    # pinned digits identify (child, x); ties need the child's own code
                    digits = _min_digits(masks_from_digits(digits, n), n)
                    if child_arcs > best:
                        best, best_digits = child_arcs, digits
                    elif best_digits is None or digits < best_digits:
                        best_digits = digits
                else:
                    nxt.append((masks_from_digits(digits, k + 1), child_arcs))
            if last:
                window = prefix[max(best - arcs, 0)]
            if budget is not None and window > budget - nodes:
                return best, best_digits, budget + 1, True, []
            nodes += window
        level = nxt
    return best, best_digits, nodes, False, level


def _run_chunks(chunks: list[tuple]) -> list[tuple[int, Optional[bytes], int, bool]]:
    """(best, digits, nodes, exceeded) of _run_levels(*chunk) for each chunk, in order.

    This process runs the first chunk and a forked child runs each other one.
    If anything raises here, every child still running is killed and reaped
    before the exception propagates.  Without os.fork every chunk runs in
    this process, with the same outcomes.
    """
    if len(chunks) < 2 or not hasattr(os, "fork"):
        return [_run_levels(*chunk)[:4] for chunk in chunks]
    pending = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child_exit(chunk, w)
            os.close(w)
            pending.append((pid, os.fdopen(r, "rb")))
        outcomes = [_run_levels(*chunks[0])[:4]]
        while pending:
            pid, pipe = pending[0]
            with pipe:
                data = pipe.read()
            del pending[0]
            _, status = os.waitpid(pid, 0)
            if data[:1] == b"R":
                outcomes.append(marshal.loads(data[1:]))
            elif data[:1] == b"E":
                import pickle

                # only our own child wrote these bytes
                raise pickle.loads(data[1:])
            else:
                raise RuntimeError(f"oracle worker {pid} ended with status {status} and no result")
        return outcomes
    except BaseException:
        import signal

        for pid, pipe in pending:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        raise


def _child_exit(chunk: tuple, w: int) -> NoReturn:
    """In a forked child: run one chunk, write b"R" and its marshalled outcome,
    or b"E" and its pickled exception, to file descriptor w, and exit.

    os._exit skips atexit handlers and leaves the stdio buffers inherited from
    the parent unflushed, so nothing the parent has yet to write appears twice.
    A child that cannot send its exception exits 1 having written nothing.
    """
    code = 1
    try:
        try:
            data = b"R" + marshal.dumps(_run_levels(*chunk)[:4])
        except BaseException as exc:  # sent to the parent, which re-raises it
            import pickle

            data = b"E" + pickle.dumps(exc)
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def check_order(n: int, budget: Optional[int]) -> None:
    """Raise unless oracle_exo can run at order n with this node budget."""
    if n < 1:
        raise BadParamsError("oracle needs n >= 1")
    if n > MAX_CODE_VERTICES:
        raise TooLargeError(f"oracle capped at {MAX_CODE_VERTICES} vertices, got {n}")
    if budget is not None and budget < 0:
        raise BadParamsError(f"node budget must be >= 0, got {budget}")
    if n > MAX_EXACT_VERTICES and budget is None:
        raise TooLargeError(
            f"n = {n} exceeds the exhaustive cap {MAX_EXACT_VERTICES}; pass a node budget "
            "to search for certified lower bounds"
        )


def oracle_exo(
    n: int,
    pattern: "PatternSpec | OrientedGraph",
    budget: Optional[int] = None,
    jobs: int = 1,
) -> ExtremalRecord:
    """Exact exo(n, pattern) with a verified extremal witness.

    Exhaustive up to n = 7; n = 8..10 needs an explicit node budget (the run
    is exact if it finishes, else BudgetExceededError carries the certified
    lower bound).  The budget caps extension nodes per worker; with jobs > 1
    the levels grown before the split have a budget of their own, and so has
    each share of the split, the first of which this process searches.  The
    witness is the smallest canonical code among the maximum graphs the
    pruned search retains; the value itself never depends on jobs or budget.
    nodes counts every extension examined, split levels included.
    """
    spec = pattern if isinstance(pattern, PatternSpec) else PatternSpec.custom(pattern)
    f = spec.graph
    if f.arc_count == 0:
        raise EmptyPatternError("oracle needs a pattern with at least one arc")
    check_order(n, budget)
    if f.n > n:
        # the pattern cannot fit, so the complete transitive order is free
        witness = OrientedGraph.from_arcs(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        return ExtremalRecord(n, spec, witness.arc_count, witness)

    deletions = _deletions(f)
    seed = _construction_seed(spec, n)
    best = seed.arc_count if seed is not None else -1
    best_digits = None if seed is None else _min_digits(seed.out, n)

    # with several workers, grow the levels below the split here, then deal
    # the frontier out round-robin to this process and forked children; each
    # prunes against its own best, so nodes match the serial run unless best
    # rises during the last level
    split_at = 3 if jobs > 1 and n >= 4 else n
    best, best_digits, nodes, exceeded, frontier = _run_levels(
        n, deletions, [((0,), 0)], 1, best, best_digits, budget, split_at
    )
    if split_at < n and not exceeded:
        chunks = [
            (n, deletions, frontier[i::jobs], split_at, best, best_digits, budget, n)
            for i in range(min(jobs, len(frontier)))
        ]
        for value, digits, used, ex in _run_chunks(chunks):
            nodes += used
            exceeded = exceeded or ex
            if value > best:
                best, best_digits = value, digits
            elif value == best and digits is not None:
                if best_digits is None or digits < best_digits:
                    best_digits = digits

    if best_digits is not None:
        witness = OrientedGraph(n, masks_from_digits(best_digits, n))
    else:
        # only reachable when the budget ran out before any class reached
        # level n; the empty graph still certifies a lower bound of 0
        witness = OrientedGraph.empty(n)
        best = 0
    if exceeded:
        raise BudgetExceededError(best, witness, nodes)
    if not is_free(witness, f) or witness.arc_count != best:
        raise InvariantError("internal error: witness failed verification")
    return ExtremalRecord(n, spec, best, witness, nodes=nodes)


class VerifyRow(NamedTuple):
    n: int
    oracle: int
    formula: int
    validity: str
    status: str  # MATCH, ORACLE_HIGHER, or ORACLE_LOWER
    witness_code: str


class VerifyReport(NamedTuple):
    pattern: PatternSpec
    rows: tuple[VerifyRow, ...]

    def to_json_obj(self) -> dict:
        return {
            "pattern": self.pattern.token,
            "rows": [
                {
                    "n": r.n,
                    "oracle": r.oracle,
                    "formula": r.formula,
                    "validity": r.validity,
                    "status": r.status,
                    "witness": r.witness_code,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        lines = [f"pattern {self.pattern.token}"]
        lines.append(f"{'n':>3} {'oracle':>7} {'formula':>8} {'status':<14} validity")
        for r in self.rows:
            lines.append(
                f"{r.n:>3} {r.oracle:>7} {r.formula:>8} {r.status:<14} {r.validity}"
            )
        return "\n".join(lines)


def verify_against_formula(
    spec: PatternSpec,
    ns: Iterable[int],
    budget: Optional[int] = None,
    jobs: int = 1,
) -> VerifyReport:
    """Compare the oracle against the closed form over a range of n.

    For formulas valid only at large n, a mismatch is a recorded finding, not
    an error.  The oracle value is always checked against the arc count of the
    matching verified-free construction; falling below it is an internal error.
    """
    # every closed form first, so that a pattern without one fails before any search
    formulas = {n: formula_value(spec, n) for n in sorted(set(ns))}
    rows = []
    for n, (value, validity) in formulas.items():
        record = oracle_exo(n, spec, budget=budget, jobs=jobs)
        seed = _construction_seed(spec, n)
        if seed is not None and record.value < seed.arc_count:
            raise InvariantError(
                f"oracle value {record.value} below the verified construction "
                f"bound {seed.arc_count} at n={n}"
            )
        if record.value == value:
            status = "MATCH"
        elif record.value > value:
            status = "ORACLE_HIGHER"
        else:
            status = "ORACLE_LOWER"
        rows.append(
            VerifyRow(
                n=n,
                oracle=record.value,
                formula=value,
                validity=validity,
                status=status,
                witness_code=canonical_code(record.witness).serialize(),
            )
        )
    return VerifyReport(spec, tuple(rows))
