"""Digraph homomorphisms and the compressibility number.

A homomorphism maps vertices so that every arc u->v goes to an arc f(u)->f(v).
It need not be injective: two vertices may share an image whenever no arc joins
them (an arc would need a loop, and targets are loopless).

The compressibility of a pattern F with at least one arc is the least k >= 2
such that F admits a homomorphism into every tournament on k vertices.  It is
infinite exactly when F has a directed cycle (transitive tournaments are
acyclic, and a directed closed walk maps to a directed closed walk).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .canon import MAX_ENUM_VERTICES, enumerate_tournaments
from .graphs import GraphError, OrientedGraph, TooLargeError


class EmptyPatternError(GraphError):
    """Pattern has no arcs; the question degenerates."""


@dataclass(frozen=True)
class VertexMap:
    """A vertex assignment between two graphs; may be partial for diagnostics."""

    source_n: int
    target_n: int
    mapping: tuple[tuple[int, int], ...]  # (source vertex, target vertex), sorted

    @staticmethod
    def of(source_n: int, target_n: int, assignment: dict[int, int]) -> "VertexMap":
        return VertexMap(source_n, target_n, tuple(sorted(assignment.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)

    @property
    def is_total(self) -> bool:
        return len(self.mapping) == self.source_n


def is_homomorphism(f: OrientedGraph, d: OrientedGraph, vm: VertexMap) -> bool:
    """Independent check that vm is a total arc-preserving map f -> d."""
    if vm.source_n != f.n or vm.target_n != d.n or not vm.is_total:
        return False
    m = vm.as_dict()
    if any(not (0 <= t < d.n) for t in m.values()):
        return False
    return all(d.has_arc(m[u], m[v]) for u, v in f.arcs())


def has_directed_cycle(g: OrientedGraph) -> bool:
    indeg = [g.in_masks[u].bit_count() for u in range(g.n)]
    queue = deque(u for u in range(g.n) if indeg[u] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        m = g.out[u]
        while m:
            v = (m & -m).bit_length() - 1
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
            m &= m - 1
    return seen < g.n


def is_antidirected(g: OrientedGraph) -> bool:
    """Every vertex is a source or a sink."""
    return all(g.out[u] == 0 or g.in_masks[u] == 0 for u in range(g.n))


def find_map(
    f: OrientedGraph, d: OrientedGraph, injective: bool,
    on_leaf: Optional[Callable[[dict[int, int]], object]] = None,
) -> Optional[dict[int, int]]:
    """First arc-preserving map f -> d found by backtracking, or None.

    With injective set the map is a copy of f in d, otherwise a homomorphism.
    Source vertices are processed by decreasing total degree (ties by index);
    assigning a vertex filters the candidate sets of its not-yet-assigned
    neighbours (arc-consistency), which stays sound for non-injective maps.
    With on_leaf set, each complete map (one reused dict) is passed to it in
    search order, and the search stops at the first for which it returns true.
    """
    order = sorted(
        range(f.n),
        key=lambda u: (-(f.out[u].bit_count() + f.in_masks[u].bit_count()), u),
    )
    position = {u: i for i, u in enumerate(order)}
    out_deg = [m.bit_count() for m in d.out]
    in_deg = [m.bit_count() for m in d.in_masks]
    cand0 = []
    for u in range(f.n):
        od, idg = f.out[u].bit_count(), f.in_masks[u].bit_count()
        if not injective:
            # images may be shared, so only "has some out-arc / in-arc" is forced
            od, idg = min(od, 1), min(idg, 1)
        cand0.append(
            sum(1 << v for v in range(d.n) if out_deg[v] >= od and in_deg[v] >= idg)
        )

    assignment: dict[int, int] = {}

    def dfs(i: int, cands: list[int], used: int) -> bool:
        if i == len(order):
            return on_leaf is None or on_leaf(assignment)
        u = order[i]
        m = cands[u] & ~used
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            taken = used | (1 << v) if injective else 0
            new = list(cands)
            ok = True
            succ = f.out[u]
            while succ and ok:
                x = (succ & -succ).bit_length() - 1
                succ &= succ - 1
                if position[x] > i:
                    new[x] &= d.out[v]
                    ok = (new[x] & ~taken) != 0
            pred = f.in_masks[u]
            while pred and ok:
                x = (pred & -pred).bit_length() - 1
                pred &= pred - 1
                if position[x] > i:
                    new[x] &= d.in_masks[v]
                    ok = (new[x] & ~taken) != 0
            if ok:
                assignment[u] = v
                if dfs(i + 1, new, taken):
                    return True
                del assignment[u]
        return False

    if all(cand0) and dfs(0, cand0, 0):
        return assignment
    return None


def hom_exists(f: OrientedGraph, d: OrientedGraph) -> Optional[VertexMap]:
    """First homomorphism f -> d found by backtracking, or None."""
    found = find_map(f, d, injective=False)
    return None if found is None else VertexMap.of(f.n, d.n, found)


@dataclass(frozen=True)
class CompressibilityResult:
    """value None means infinite; witness is a (value-1)-vertex tournament
    admitting no homomorphism from the pattern (None when infinite)."""

    value: Optional[int]
    witness: Optional[OrientedGraph]

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def compressibility(f: OrientedGraph) -> CompressibilityResult:
    """Least k such that f maps homomorphically into every k-tournament.

    Raises EmptyPatternError for arc-less patterns and TooLargeError when the
    answer exceeds the tournament enumeration cap.
    """
    if f.arc_count == 0:
        raise EmptyPatternError("compressibility needs a pattern with at least one arc")
    if has_directed_cycle(f):
        return CompressibilityResult(None, None)
    # the single-vertex tournament never admits a hom from a pattern with an arc
    witness = OrientedGraph(1, (0,))
    for k in range(2, MAX_ENUM_VERTICES + 1):
        failing = None
        for t in enumerate_tournaments(k):
            if hom_exists(f, t) is None:
                failing = t
                break
        if failing is None:
            return CompressibilityResult(k, witness)
        witness = failing
    raise TooLargeError(
        f"compressibility exceeds the k <= {MAX_ENUM_VERTICES} tournament enumeration cap"
    )
