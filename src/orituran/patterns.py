"""Pattern tokens and the paper's named extremal constructions.

This module imports only graphs when it loads, so that a CLI start which
parses a pattern token or builds a construction compiles no search module.
build_construction imports compressibility only when it orients a turan
blow-up against a pattern.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .graphs import (
    BadParamsError,
    EmptyPatternError,
    OrientedGraph,
    _check_vertex_count,
    _natural,
)

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


def _transitive(n: int) -> OrientedGraph:
    return OrientedGraph.from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _blow_up(order: OrientedGraph, n: int) -> OrientedGraph:
    """order's tournament blown up to n vertices over parts as equal as
    possible; its first n vertices when it has at least n."""
    r = order.n
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


# construction -> the keyword parameters it reads
_PARAMETERS = {
    "turan": ("r", "pattern"),
    "cyclepower": ("q",),
    "starpartition": ("p", "q", "d"),
    "thm32": (),
    "prop26": (),
    "prop27": (),
}


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

    A parameter the named construction does not read raises BadParamsError.
    """
    if name not in _PARAMETERS:
        raise BadParamsError(f"unknown construction {name!r}")
    given = {"r": r, "p": p, "q": q, "d": d, "pattern": pattern}
    for param, value in given.items():
        if value is not None and param not in _PARAMETERS[name]:
            raise BadParamsError(f"the {name} construction takes no {param}")
    if n < 1:
        raise BadParamsError("constructions need n >= 1")
    # cap sizes before building any arc list, which grows as n^2
    _check_vertex_count(n)
    if name == "turan":
        if r is None or r < 1:
            raise BadParamsError("turan construction needs r >= 1")
        _check_vertex_count(r)
        res = None
        if pattern is not None:
            # the only search a construction runs, so loaded only here
            from .homomorphism import compressibility

            res = compressibility(pattern.graph)
        if res is None or res.is_infinite:
            order = _transitive(r)
        else:
            if r > res.witness.n:
                raise BadParamsError(
                    f"no pattern-free blow-up on {r} parts: every tournament on "
                    f"{res.value} or more vertices admits the pattern"
                )
            order = res.witness.induced(range(r))
        return _blow_up(order, n)
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
        for part, size, param, value in (("C", c, "p", p), ("D", d, "q", q)):
            if value > 1 and size < 2 * value - 1:
                raise BadParamsError(f"starpartition part {part} has {size} vertices, but "
                                     f"{param}={value} needs at least {2 * value - 1}")
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
    # prop27, the one name left in _PARAMETERS
    if n < 2:
        raise BadParamsError("prop27 construction needs n >= 2")
    arcs = [(1, 0)]
    arcs += [(0, w) for w in range(2, n)]
    arcs += [(1, w) for w in range(2, n)]
    return OrientedGraph.from_arcs(n, arcs)
