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
from functools import reduce
from operator import or_
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .canon import MAX_ENUM_VERTICES, enumerate_tournaments
from .graphs import GraphError, OrientedGraph, TooLargeError, VertexMap


class EmptyPatternError(GraphError):
    """Pattern has no arcs; the question degenerates."""


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


class SearchPlan:
    """The pattern-only part of the arc-preserving map search, compiled once.

    Pattern vertices are visited in a fixed order: decreasing total degree,
    ties by index.  For each step the plan holds its vertex's out- and
    in-degree thresholds (needs, the largest of them top), and, as step
    positions, the earlier steps joined to it by an arc: a step's candidates
    are checked against the images of those steps when it is entered
    (backward checking, no candidate-list copies), which stays sound for
    non-injective maps.  It also holds whether the map must be injective (a
    copy) or may collapse vertices (a homomorphism), and the lane (1 or 2,
    else 0) of each marked step: marks[u] = lane puts the image v of pattern
    vertex u at bit v + (lane - 1) * n of each leaf's key, where n is the
    host's vertex count.  Each search builds the steps' candidate sets from
    two OR reductions of the host's masks, and counts only for needs 2..top.
    """

    __slots__ = ("n", "arc_count", "injective", "order", "needs", "top", "from_out", "from_in",
                 "lanes")

    def __init__(self, f: OrientedGraph, injective: bool, marks: Optional[dict[int, int]] = None):
        out, ins = f.out, f.in_masks
        order = sorted(range(f.n), key=lambda u: (-(out[u].bit_count() + ins[u].bit_count()), u))
        position = {u: i for i, u in enumerate(order)}
        self.n = f.n
        self.arc_count = f.arc_count
        self.injective = injective
        self.order = tuple(order)
        if injective:
            self.needs = tuple((out[u].bit_count(), ins[u].bit_count()) for u in order)
        else:
            # images may be shared, so only "has some out-arc / in-arc" is forced
            self.needs = tuple((min(out[u].bit_count(), 1), min(ins[u].bit_count(), 1))
                               for u in order)
        self.top = max(map(max, self.needs), default=0)
        # from_out[i]: earlier steps j with an arc order[j] -> order[i], so
        # step i's image lies in the out-set of step j's image; from_in alike
        self.from_out = tuple(
            tuple(position[x] for x in _bits(ins[u]) if position[x] < i)
            for i, u in enumerate(order)
        )
        self.from_in = tuple(
            tuple(position[x] for x in _bits(out[u]) if position[x] < i)
            for i, u in enumerate(order)
        )
        marks = marks or {}
        self.lanes = tuple(marks.get(u, 0) for u in order)

    def search(
        self, out: Sequence[int], ins: Sequence[int],
        on_leaf: Optional[Callable[[list[int], int], object]] = None,
    ) -> Optional[list[int]]:
        """First map into the host with out- and in-masks out, ins, or None.

        The map is the host image of each step (self.order[i] -> result[i]).
        Candidates are tried lowest vertex first, so maps come in
        lexicographic order of their image lists.  With on_leaf set, each
        complete map (one reused list) and its key (the marked images, built
        up along the path) are passed to it in that order, and the search
        stops at the first map for which it returns true.
        """
        k, n = self.n, len(out)
        if self.injective and k > n:
            return None
        img = [0] * k
        if not k:
            return img if on_leaf is None or on_leaf(img, 0) else None
        # ge_out[t] (ge_in[t]): out- (in-) degree >= t; each arc's tail is in an in-mask
        ge_out, ge_in = [(1 << n) - 1, reduce(or_, ins, 0)], [(1 << n) - 1, reduce(or_, out, 0)]
        for t in range(2, self.top + 1):
            ge_out.append(sum(1 << v for v, m in enumerate(out) if m.bit_count() >= t))
            ge_in.append(sum(1 << v for v, m in enumerate(ins) if m.bit_count() >= t))
        cand0 = [ge_out[od] & ge_in[idg] for od, idg in self.needs]
        # taken holds the images so far when injective (bits 0..n-1) and the
        # marked images in the lanes above, which no candidate set reaches
        unit = int(self.injective)
        lift = [unit | (1 << lane * n if lane else 0) for lane in self.lanes]
        from_out, from_in = self.from_out, self.from_in
        last = k - 1
        # the last step's image goes into the key at low * leaf_lift
        leaf_lift = lift[last] >> n

        def dfs(i: int, taken: int) -> bool:
            m = cand0[i] & ~taken
            for j in from_out[i]:
                m &= out[img[j]]
            for j in from_in[i]:
                m &= ins[img[j]]
            if i == last:
                key = taken >> n
                while m:
                    low = m & -m
                    m ^= low
                    img[i] = low.bit_length() - 1
                    if on_leaf is None or on_leaf(img, key | low * leaf_lift):
                        return True
                return False
            while m:
                low = m & -m
                m ^= low
                img[i] = low.bit_length() - 1
                if dfs(i + 1, taken | low * lift[i]):
                    return True
            return False

        return img if all(cand0) and dfs(0, 0) else None


def _bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def find_map(f: OrientedGraph, d: OrientedGraph, injective: bool) -> Optional[dict[int, int]]:
    """First arc-preserving map f -> d found by backtracking, or None.

    With injective set the map is a copy of f in d, otherwise a homomorphism.
    """
    plan = SearchPlan(f, injective)
    found = plan.search(d.out, d.in_masks)
    return None if found is None else dict(zip(plan.order, found))


def hom_exists(f: OrientedGraph, d: OrientedGraph) -> Optional[VertexMap]:
    """First homomorphism f -> d found by backtracking, or None."""
    found = find_map(f, d, injective=False)
    return None if found is None else VertexMap.of(f.n, d.n, found)


class CompressibilityResult(NamedTuple):
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
    plan = SearchPlan(f, injective=False)
    for k in range(2, MAX_ENUM_VERTICES + 1):
        failing = None
        for t in enumerate_tournaments(k):
            if plan.search(t.out, t.in_masks) is None:
                failing = t
                break
        if failing is None:
            return CompressibilityResult(k, witness)
        witness = failing
    raise TooLargeError(
        f"compressibility exceeds the k <= {MAX_ENUM_VERTICES} tournament enumeration cap"
    )
