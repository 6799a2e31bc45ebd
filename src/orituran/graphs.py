"""Oriented graphs as immutable bitset-adjacency values.

An oriented graph here is a loopless digraph with no antiparallel arc pair:
for any two vertices u, v at most one of u->v, v->u is present.  Vertices are
0..n-1 with n <= 64 so a neighbourhood fits in one Python int used as a bitset.

Text format (.og):
    line 1: n
    one line "u v" per arc u->v, 0-indexed
    '#' starts a comment line, blank lines are ignored
Every number is written in ASCII digits (_natural reads them all).
encode() emits arcs sorted by (u, v) with a trailing newline, so equal graphs
encode byte-identically.  An undirected host (for orientation sweeps) uses the
same format with a literal "undirected" line before n.
"""

from __future__ import annotations

import sys
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Base for structural errors in this package."""


class LoopArcError(GraphError):
    """An arc u->u was supplied."""


class AntiparallelArcError(GraphError):
    """Both u->v and v->u were supplied."""


class InvariantError(GraphError):
    """Input violates a structural invariant (vertex cap, range, ...)."""


class TooLargeError(GraphError):
    """Instance exceeds a documented size cap."""


class BadParamsError(GraphError):
    """Construction or pattern parameters outside their valid range."""


class EmptyPatternError(GraphError):
    """Pattern has no arcs; the question degenerates."""


class VertexCapError(InvariantError, TooLargeError):
    """More than MAX_VERTICES vertices: a broken invariant and a size cap."""


class ParseError(GraphError):
    """Malformed .og text. Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.detail = message
        self.line = line
        self.column = column

    def __reduce__(self):
        return type(self), (self.detail, self.line, self.column)


class BudgetExceededError(Exception):
    """Search stopped at the node budget; lower_bound is still certified."""

    def __init__(self, lower_bound: int, witness: Optional[OrientedGraph], nodes: int):
        super().__init__(
            f"node budget exhausted after {nodes} nodes; certified lower bound {lower_bound}"
        )
        self.lower_bound = lower_bound
        self.witness = witness
        self.nodes = nodes

    def __reduce__(self):
        # a caller running the library in a process pool gets it back pickled
        return type(self), (self.lower_bound, self.witness, self.nodes)


class RegularizeError(Exception):
    """Base for pipeline-stage failures."""


def _natural(text: str) -> Optional[int]:
    """The value of a non-empty string of ASCII digits, None for any other text
    (int() would also take signs, spaces, underscores and other scripts' digits).
    A number past int()'s digit limit exceeds every cap: TooLargeError."""
    if not (text.isascii() and text.isdigit()):
        return None
    significant = text.lstrip("0")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    if 0 < limit < len(significant):
        raise TooLargeError(f"a number of {len(significant)} digits exceeds every size cap")
    return int(significant or "0")


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise InvariantError(f"vertex count {n} is negative")
    if n > MAX_VERTICES:
        raise VertexCapError(f"vertex count {n} exceeds cap {MAX_VERTICES}")


def _in_masks(out: Sequence[int], n: int) -> list[int]:
    """The in-masks of the n out-masks out: bit u of ins[v] is arc u->v."""
    ins = [0] * n
    for u, m in enumerate(out):
        while m:
            low = m & -m
            ins[low.bit_length() - 1] |= 1 << u
            m ^= low
    return ins


def _read_only(self, name, *value):
    """__setattr__ and __delattr__ of the two immutable graph types."""
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class OrientedGraph:
    """Immutable oriented graph; out[u] is the bitset of heads of arcs u->v."""

    n: int
    out: tuple[int, ...]

    def __init__(self, n: int, out: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out", out)
        _check_vertex_count(n)
        if len(out) != n:
            raise InvariantError("out-mask tuple length does not match n")
        full = (1 << n) - 1
        for u, mask in enumerate(out):
            if mask & ~full:
                raise InvariantError(f"out-mask of {u} references vertices >= n")
            if mask >> u & 1:
                raise LoopArcError(f"loop at vertex {u}")
        for u, (mask, ins) in enumerate(zip(out, self.in_masks)):
            both = mask & ins
            if both:
                v = (both & -both).bit_length() - 1
                raise AntiparallelArcError(f"antiparallel pair between {u} and {v}")

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not OrientedGraph:
            return NotImplemented
        return self.n == other.n and self.out == other.out

    def __hash__(self):
        return hash((self.n, self.out))

    def __repr__(self):
        return f"OrientedGraph(n={self.n!r}, out={self.out!r})"

    @staticmethod
    def from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> "OrientedGraph":
        _check_vertex_count(n)
        out = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantError(f"arc ({u},{v}) out of range for n={n}")
            out[u] |= 1 << v
        return OrientedGraph(n, tuple(out))

    @staticmethod
    def empty(n: int) -> "OrientedGraph":
        _check_vertex_count(n)
        return OrientedGraph(n, (0,) * n)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        return tuple(_in_masks(self.out, self.n))

    @cached_property
    def arc_count(self) -> int:
        return sum(mask.bit_count() for mask in self.out)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Arcs in (u, v) sorted order."""
        for u in range(self.n):
            m = self.out[u]
            while m:
                v = (m & -m).bit_length() - 1
                yield (u, v)
                m &= m - 1

    def out_degree(self, u: int) -> int:
        return self.out[u].bit_count()

    def in_degree(self, u: int) -> int:
        return self.in_masks[u].bit_count()

    def reverse(self) -> "OrientedGraph":
        return OrientedGraph(self.n, self.in_masks)

    def induced(self, vertices: Sequence[int]) -> "OrientedGraph":
        """Induced subgraph; vertices are relabelled 0..k-1 in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise InvariantError("induced vertex list has duplicates")
        if not all(0 <= v < self.n for v in index):
            raise InvariantError(f"an induced vertex lies outside 0..{self.n - 1}")
        out = [0] * len(vertices)
        for i, v in enumerate(vertices):
            m = self.out[v]
            while m:
                w = (m & -m).bit_length() - 1
                if w in index:
                    out[i] |= 1 << index[w]
                m &= m - 1
        return OrientedGraph(len(vertices), tuple(out))


class VertexMap(NamedTuple):
    """A vertex assignment between two graphs; may be partial for diagnostics."""

    source_n: int
    target_n: int
    mapping: tuple[tuple[int, int], ...]  # (source vertex, target vertex), sorted

    @staticmethod
    def of(source_n: int, target_n: int, assignment: dict[int, int]) -> "VertexMap":
        return VertexMap(source_n, target_n, tuple(sorted(assignment.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


class BipartiteDigraph:
    """Bipartite digraph with all arcs from part_u to part_w.

    Vertex ids are arbitrary distinct ints (they keep their identity through
    sub-instance extraction).  out_masks[i] is a bitset over part_w *indices*
    for part_u[i].
    """

    part_u: tuple[int, ...]
    part_w: tuple[int, ...]
    out_masks: tuple[int, ...]

    def __init__(self, part_u: tuple[int, ...], part_w: tuple[int, ...],
                 out_masks: tuple[int, ...]):
        object.__setattr__(self, "part_u", part_u)
        object.__setattr__(self, "part_w", part_w)
        object.__setattr__(self, "out_masks", out_masks)
        ids = set(part_u)
        ids.update(part_w)
        if len(ids) != len(part_u) + len(part_w):
            raise InvariantError("parts overlap or contain duplicates")
        if len(out_masks) != len(part_u):
            raise InvariantError("out_masks length does not match part_u")
        full = (1 << len(part_w)) - 1
        for i, m in enumerate(out_masks):
            if m & ~full:
                raise InvariantError(f"out-mask {i} references indices outside part_w")

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not BipartiteDigraph:
            return NotImplemented
        return (self.part_u == other.part_u and self.part_w == other.part_w
                and self.out_masks == other.out_masks)

    def __hash__(self):
        return hash((self.part_u, self.part_w, self.out_masks))

    def __repr__(self):
        return (f"BipartiteDigraph(part_u={self.part_u!r}, part_w={self.part_w!r}, "
                f"out_masks={self.out_masks!r})")

    @staticmethod
    def from_arcs(part_u: Sequence[int], part_w: Sequence[int],
                  arcs: Iterable[tuple[int, int]]) -> "BipartiteDigraph":
        u_index = {u: i for i, u in enumerate(part_u)}
        w_index = {w: j for j, w in enumerate(part_w)}
        masks = [0] * len(part_u)
        for u, w in arcs:
            if u not in u_index or w not in w_index:
                raise InvariantError(f"arc ({u},{w}) not from part_u to part_w")
            masks[u_index[u]] |= 1 << w_index[w]
        return BipartiteDigraph(tuple(part_u), tuple(part_w), tuple(masks))

    @cached_property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out_masks)

    @property
    def n(self) -> int:
        return len(self.part_u) + len(self.part_w)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Arcs as (u_id, w_id) pairs, sorted by part indices."""
        for i, u in enumerate(self.part_u):
            m = self.out_masks[i]
            while m:
                j = (m & -m).bit_length() - 1
                yield (u, self.part_w[j])
                m &= m - 1

    def min_out_degree(self) -> int:
        return min((m.bit_count() for m in self.out_masks), default=0)

    def restrict(self, u_ids: Sequence[int], w_ids: Sequence[int]) -> "BipartiteDigraph":
        """Sub-instance on the given ids (arcs between them only)."""
        w_pos = {w: j for j, w in enumerate(self.part_w)}
        keep_w = [w_pos[w] for w in w_ids]
        if not keep_w:
            return BipartiteDigraph(tuple(u_ids), (), (0,) * len(u_ids))
        # column j of a row's binary text sits at index w - 1 - j; pick the
        # kept columns highest new index first and read them back at C speed
        w = len(self.part_w)
        pick = itemgetter(*[w - 1 - j for j in reversed(keep_w)])
        fmt = f"0{w}b"
        mask_of = dict(zip(self.part_u, self.out_masks))
        masks = tuple(int("".join(pick(format(mask_of[u], fmt))), 2) for u in u_ids)
        return BipartiteDigraph(tuple(u_ids), tuple(w_ids), masks)


# --- .og codec ---------------------------------------------------------------


def encode(g: OrientedGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def _parse_arc_lines(lines: Iterator[tuple[int, str]], n: int) -> list[tuple[int, int]]:
    arcs = []
    for lineno, content in lines:
        parts = content.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {content!r}", lineno)
        columns = (1, len(parts[0]) + 2)
        arc = []
        for part, column in zip(parts, columns):
            end = _natural(part)
            if end is None:
                raise ParseError(f"non-integer endpoint {part!r}", lineno, column)
            arc.append(end)
        for end, column in zip(arc, columns):
            if end >= n:
                raise ParseError(f"vertex {end} out of range [0,{n})", lineno, column)
        arcs.append(tuple(arc))
    return arcs


def _vertex_count(lineno: int, line: str) -> int:
    n = _natural(line)
    if n is None:
        raise ParseError(f"expected vertex count, got {line!r}", lineno)
    _check_vertex_count(n)
    return n


def decode(text: str) -> OrientedGraph:
    """Parse .og text. ParseError on malformed input, the structural errors
    (LoopArcError/AntiparallelArcError/InvariantError) on bad graphs."""
    lines = _content_lines(text)
    try:
        lineno, first = next(lines)
    except StopIteration:
        raise ParseError("empty input, expected vertex count", 1) from None
    n = _vertex_count(lineno, first)
    return OrientedGraph.from_arcs(n, _parse_arc_lines(lines, n))


def decode_undirected(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Parse an undirected host: returns (n, sorted deduplicated edges)."""
    lines = _content_lines(text)
    try:
        lineno, first = next(lines)
    except StopIteration:
        raise ParseError("empty input, expected 'undirected' header", 1) from None
    if first != "undirected":
        raise ParseError(f"expected 'undirected' header, got {first!r}", lineno)
    try:
        lineno, nline = next(lines)
    except StopIteration:
        raise ParseError("missing vertex count after 'undirected'", lineno + 1) from None
    n = _vertex_count(lineno, nline)
    edges = set()
    for u, v in _parse_arc_lines(lines, n):
        if u == v:
            raise LoopArcError(f"loop edge at vertex {u}")
        edges.add((min(u, v), max(u, v)))
    return n, tuple(sorted(edges))
