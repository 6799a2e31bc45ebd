"""Independent reference checkers the tests compare the package against.

Each one decides its question by brute force or by reading the definition
directly, sharing no search code with the package.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from orituran.graphs import OrientedGraph, TooLargeError, VertexMap


def automorphism_order(g: OrientedGraph) -> int:
    """|Aut(g)| by brute force; intended for the small cross-check sizes."""
    if g.n > 8:
        raise TooLargeError("automorphism order is brute force, capped at 8 vertices")
    n, out = g.n, g.out
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(
            ((out[perm[u]] >> perm[v]) & 1) == ((out[u] >> v) & 1)
            for u in range(n)
            for v in range(n)
            if u != v
        ):
            count += 1
    return count


def is_homomorphism(f: OrientedGraph, d: OrientedGraph, vm: VertexMap) -> bool:
    """Independent check that vm is a total arc-preserving map f -> d."""
    if vm.source_n != f.n or vm.target_n != d.n or len(vm.mapping) != vm.source_n:
        return False
    m = vm.as_dict()
    if any(not (0 <= t < d.n) for t in m.values()):
        return False
    return all(d.has_arc(m[u], m[v]) for u, v in f.arcs())


def is_copy_witness(host: OrientedGraph, pattern: OrientedGraph, vm: VertexMap) -> bool:
    """Independent check that vm is a total injective arc-preserving map."""
    if vm.source_n != pattern.n or vm.target_n != host.n or len(vm.mapping) != vm.source_n:
        return False
    m = vm.as_dict()
    images = set(m.values())
    if len(images) != pattern.n:
        return False
    if any(not (0 <= t < host.n) for t in images):
        return False
    return all(host.has_arc(m[u], m[v]) for u, v in pattern.arcs())


def encode_undirected(n: int, edges: Iterable[tuple[int, int]]) -> str:
    ordered = sorted({(min(u, v), max(u, v)) for u, v in edges})
    lines = ["undirected", str(n)]
    lines.extend(f"{u} {v}" for u, v in ordered)
    return "\n".join(lines) + "\n"
