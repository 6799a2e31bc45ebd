"""Subdigraph containment: injective, arc-preserving (not induced).

A host contains a copy of a pattern when some injective vertex map sends every
pattern arc to a host arc in the same direction.  Extra host arcs between
image vertices are allowed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .canon import enumerate_tournaments
from .graphs import InvariantError, LoopArcError, OrientedGraph, TooLargeError, VertexMap
from .homomorphism import SearchPlan, find_map

MAX_ORIENTATION_EDGES = 24


def contains_copy(host: OrientedGraph, pattern: OrientedGraph) -> Optional[VertexMap]:
    """A copy of pattern in host as a VertexMap, or None."""
    if pattern.n > host.n or pattern.arc_count > host.arc_count:
        return None
    found = find_map(pattern, host, injective=True)
    return None if found is None else VertexMap.of(pattern.n, host.n, found)


def contains_copy_through(
    host: OrientedGraph, pattern: OrientedGraph, through: int
) -> Optional[VertexMap]:
    """A copy whose image includes the host vertex `through`, or None.

    When a host known to be pattern-free grows by one vertex, only copies
    through the new vertex can appear.  The oracle decides that from its
    forbidden pairs; this plain search is the cross-check.
    """
    if not 0 <= through < host.n:
        raise InvariantError(f"vertex {through} out of range")
    if pattern.n > host.n or pattern.arc_count > host.arc_count:
        return None
    plan = SearchPlan(pattern, injective=True)
    found = plan.search(host.out, host.in_masks, lambda img, _key: through in img)
    return None if found is None else VertexMap.of(pattern.n, host.n, dict(zip(plan.order, found)))


def is_free(host: OrientedGraph, pattern: OrientedGraph) -> bool:
    return contains_copy(host, pattern) is None


def all_tournaments_contain(
    k: int, pattern: OrientedGraph
) -> tuple[bool, Optional[OrientedGraph]]:
    """Whether every k-vertex tournament contains the pattern.

    Returns (True, None) or (False, first counterexample in enumeration
    order).
    """
    plan = SearchPlan(pattern, injective=True)
    for t in enumerate_tournaments(k):
        if plan.search(t.out, t.in_masks) is None:
            return False, t
    return True, None


def all_orientations_contain(
    n: int, edges: Sequence[tuple[int, int]], pattern: OrientedGraph
) -> tuple[bool, Optional[OrientedGraph]]:
    """Whether every orientation of the given undirected graph contains pattern.

    Sweeps the 2^|edges| orientations in Gray-code order, flipping one arc per
    step.  Returns (False, counterexample) at the first miss; the miss reported
    is the one of lowest Gray index, so the result is deterministic.
    """
    edges = [tuple(e) for e in edges]
    if len(set(frozenset(e) for e in edges)) != len(edges):
        raise InvariantError("duplicate undirected edges")
    if any(u == v for u, v in edges):
        raise LoopArcError("loops cannot be oriented")
    if not all(0 <= u < n and 0 <= v < n for u, v in edges):
        raise InvariantError(f"an edge endpoint lies outside 0..{n - 1}")
    m = len(edges)
    if m > MAX_ORIENTATION_EDGES:
        raise TooLargeError(
            f"{m} edges exceeds the 2^{MAX_ORIENTATION_EDGES} orientation sweep cap"
        )
    out = [0] * n
    for u, v in edges:
        out[u] |= 1 << v
    g = OrientedGraph(n, tuple(out))  # the first orientation; also checks n against the cap
    if pattern.arc_count > m:
        return False, g
    plan = SearchPlan(pattern, injective=True)
    ins = list(g.in_masks)
    if plan.search(out, ins) is None:
        return False, g
    for i in range(1, 1 << m):
        b = (i & -i).bit_length() - 1
        u, v = edges[b]
        if not (out[u] >> v & 1):
            u, v = v, u
        # reverse the arc u->v
        out[u] ^= 1 << v
        ins[v] ^= 1 << u
        out[v] |= 1 << u
        ins[u] |= 1 << v
        if plan.search(out, ins) is None:
            return False, OrientedGraph(n, tuple(out))
    return True, None
