"""Canonical labelling, isomorphism, and isomorph-free enumeration.

The canonical code of an n-vertex oriented graph is the lexicographically
smallest string, over all relabelings, of upper-triangle digits in row-major
pair order (0,1),(0,2),...,(0,n-1),(1,2),...: digit 0 = no arc, 1 = arc i->j,
2 = arc j->i.  Serialized as "n:digits".

Codes are found by an exact branch-and-bound that fixes the code one row at
a time.  Row k holds the pairs (k, k+1), ..., (k, n-1), so placing a vertex v
at position k fixes all of row k once the unplaced vertices are ordered: a
minimum labelling orders them lexicographically by their digits against the
placed vertices.  Those digit vectors split the unplaced vertices into an
ordered partition of cells; placing v splits every cell into the members with
digit 0, 1 and 2 against v, in that order, and row k lists those digits cell
by cell.  Only members of the first cell can take position k, and of those
only the ones whose row k is smallest branch.  Undetermined rows are zeros,
and zeros minorize every completion, so a partial code that is already >= the
best known full code is cut.  Once every cell is a singleton the rest of the
labelling is forced, and its rows are written out without branching.  The
search starts from an ordered partition and finds the minimum over the
labellings that list the cells in order; a vertex alone in the last cell is
placed last, which tells the vertex orbits of a pattern apart.  It is seeded
with the labelling that lists each cell in vertex order and cuts on
equality, which keeps symmetric inputs cheap.  Of winners that are false
twins (equal out- and in-masks, hence no arc between them) only the first
branches: the swap of two such vertices is an automorphism fixing every
other vertex, so their subtrees hold the same codes.  Stars, isolated
vertices and complete bipartite orientations are mostly twins, and a class
of m twins that branched m ways at a row now branches once.

Enumeration grows complete levels one vertex at a time (_grow).  Each way
to join a new vertex x to a k-vertex class is one int x_out | x_in << k,
and ExtensionSets lists them densest first, with bitsets over their
positions that filter a parent's whole list at once (_dropped).  Every
vertex gets the invariant (degree, out-degree, sum of its out-neighbours'
out-degrees); a child is kept only if x has the least (accept_child, the
exo oracle's rule too), and the canonical codes of the kept children dedupe
the level.  Levels are sorted by canonical digits, an order independent of
how classes are generated.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .graphs import InvariantError, OrientedGraph, TooLargeError, _in_masks, _natural

MAX_CODE_VERTICES = 10
MAX_ENUM_VERTICES = 7

# _RUNS[d][c]: c copies of digit d, one sorted run of a row
_RUNS = tuple(tuple(bytes([d]) * c for c in range(MAX_CODE_VERTICES)) for d in range(3))


def _search(out: Sequence[int], ins: Sequence[int], n: int, cells: Sequence[int]) -> bytes:
    """The minimum code over the labellings that list the vertices cell by
    cell, cells being an ordered partition of range(n) as bitmasks; ins
    holds the in-masks of out."""
    zeros, ones, twos = _RUNS

    def digits(order: list[int]) -> bytearray:
        # the code of the subgraph on order, labelled in that order
        row = bytearray()
        for i, v in enumerate(order):
            ov, iv = out[v], ins[v]
            for w in order[i + 1:]:
                row.append((ov >> w & 1) | (iv >> w & 1) << 1)
        return row

    def dfs(cells: list[int], off: int, left: int) -> None:
        if len(cells) == left:
            # one cell per unplaced vertex: the rest of the labelling is forced
            tail = digits([c.bit_length() - 1 for c in cells])
            cur[off:] = tail
            if cur < best:
                best[:] = cur
            cur[off:] = bytes(len(tail))
            return
        first, rest = cells[0], cells[1:]
        # Rank the first cell's vertices by the row each would fix.  A cell's
        # part of a row is its zeros, then ones, then twos, so the counts
        # (non-zeros, twos) rank it; each fits in 4 bits as n <= 10.
        least = -1
        m = first
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            nb, iv = out[v] | ins[v], ins[v]
            c = first ^ low
            key = (c & nb).bit_count() << 4 | (c & iv).bit_count()
            for c in rest:
                key = key << 8 | (c & nb).bit_count() << 4 | (c & iv).bit_count()
            if least < 0 or key < least:
                least = key
                winners = [v]
            elif key == least:
                winners.append(v)
        # only the winners branch; each splits every cell by its relation to v.
        # A false twin of an earlier winner (same out- and in-mask, so no arc
        # joins them) is skipped: swapping the two fixes every other vertex
        # and so every cell, and its subtree gives the same codes.
        branches = []
        shapes = set()
        for v in winners:
            ov, iv = out[v], ins[v]
            shape = ov << n | iv
            if shape in shapes:
                continue
            shapes.add(shape)
            runs = []
            split = []
            for c in [first ^ (1 << v), *rest]:
                o = c & ov
                t = c & iv
                z = c ^ o ^ t
                runs.append(zeros[z.bit_count()] + ones[o.bit_count()] + twos[t.bit_count()])
                if z:
                    split.append(z)
                if o:
                    split.append(o)
                if t:
                    split.append(t)
            branches.append(split)
        row = b"".join(runs)
        end = off + len(row)
        cur[off:end] = row
        for split in branches:
            # zeros in the rows below minorize every completion
            if not cur < best:
                break
            dfs(split, end, left - 1)
        cur[off:end] = bytes(len(row))

    cells = [c for c in cells if c]
    best = digits([v for c in cells for v in range(n) if c >> v & 1])
    cur = bytearray(len(best))
    dfs(cells, 0, n)
    return bytes(best)


def _min_digits(out: tuple[int, ...], n: int) -> bytes:
    return _search(out, _in_masks(out, n), n, [(1 << n) - 1])


def _last_pinned_digits(out: Sequence[int], ins: Sequence[int], n: int, u: int) -> bytes:
    """The minimum code over the labellings that put vertex u last."""
    return _search(out, ins, n, [(1 << n) - 1 ^ 1 << u, 1 << u])


def _least_invariant(out: Sequence[int], ins: Sequence[int], n: int) -> bool:
    """Whether vertex n-1 has the least invariant (degree, out-degree,
    out-neighbours' out-degrees), packed in 4, 4 and 7 bits as n <= 10.  The
    first two parts alone reject most children; the third is added only
    where they tie n-1's."""
    x = n - 1
    degs = [m.bit_count() for m in out]
    inv = [((o | i).bit_count() << 4 | d) << 7 for o, i, d in zip(out, ins, degs)]
    least = inv[x]
    if min(inv) < least:
        return False
    for v in range(n):
        if inv[v] == least:
            m = out[v]
            while m:
                low = m & -m
                inv[v] += degs[low.bit_length() - 1]
                m ^= low
    return min(inv) == inv[x]


def accept_child(out: tuple[int, ...], n: int) -> Optional[bytes]:
    """The canonical digits of a child whose new vertex n-1 has the least
    invariant, else None: the child rule of _grow and the exo oracle."""
    ins = _in_masks(out, n)
    if not _least_invariant(out, ins, n):
        return None
    return _search(out, ins, n, [(1 << n) - 1])


def masks_from_digits(digits: bytes, n: int) -> tuple[int, ...]:
    out = [0] * n
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = digits[p]
            p += 1
            if d == 1:
                out[i] |= 1 << j
            elif d == 2:
                out[j] |= 1 << i
    return tuple(out)


class CanonicalCode(NamedTuple):
    """Minimal row-major ternary code; ordering is (n, digits) lexicographic."""

    n: int
    digits: str

    def serialize(self) -> str:
        return f"{self.n}:{self.digits}"

    @staticmethod
    def parse(text: str) -> "CanonicalCode":
        head, sep, digits = text.partition(":")
        if not sep:
            raise InvariantError(f"code {text!r} lacks the 'n:' prefix")
        n = _natural(head)
        if n is None or str(n) != head:  # only the text serialize writes, one per code
            raise InvariantError(f"bad vertex count in code {text!r}")
        code = CanonicalCode(n, digits)
        code.to_graph()  # validates length and digit alphabet
        return code

    def to_graph(self) -> OrientedGraph:
        if len(self.digits) != self.n * (self.n - 1) // 2:
            raise InvariantError(f"code digit count does not match n={self.n}")
        bad = self.digits.lstrip("012")
        if bad:
            raise InvariantError(f"bad digit {bad[0]!r} in code")
        return OrientedGraph(self.n, masks_from_digits(bytes(map(int, self.digits)), self.n))


def canonical_code(g: OrientedGraph) -> CanonicalCode:
    """Exact canonical code; capped at n <= 10 (exhaustive search with pruning)."""
    if g.n > MAX_CODE_VERTICES:
        raise TooLargeError(f"canonical code capped at {MAX_CODE_VERTICES} vertices, got {g.n}")
    digits = _min_digits(g.out, g.n)
    return CanonicalCode(g.n, "".join(str(d) for d in digits))


# --- isomorph-free generation -------------------------------------------------

class ExtensionSets(NamedTuple):
    """The ways to join a new vertex x to k old ones, and sets of their
    positions as ints: bit p stands for the p-th extension, so one big-int
    operation acts on all 3^k of them.

    exts lists the extensions as ints x_out | x_in << k: x points to the old
    vertices in x_out and receives arcs from those in x_in.  Read per old
    vertex u as a state (0 none, 1 u->x, 2 x->u), the list is sorted by
    (number of 0 states, state tuple): densest first.  So the 2^k ways that
    make a tournament of a tournament come first.

    lanes[b] holds the extensions whose int has bit b.  prefix[t], for
    t = 0..k+1, counts the extensions with at least t arcs; they are the
    first ones listed.  greater[u, w], for u < w, holds the extensions whose
    state at u exceeds their state at w.  _extension_sets(k) builds each
    field from these definitions, once per k.
    """

    exts: tuple[int, ...]
    lanes: tuple[int, ...]
    prefix: tuple[int, ...]
    greater: dict[tuple[int, int], int]


@functools.cache
def _extension_sets(k: int) -> ExtensionSets:
    # old vertex u chooses no arc, u -> x (state 1, bit u + k) or x -> u (state
    # 2, bit u); a stable sort keeps the product's tuple order per arc count
    exts = sorted(map(sum, itertools.product(*((0, 1 << u + k, 1 << u) for u in range(k)))),
                  key=int.bit_count, reverse=True)
    # the extensions' bit rows, last extension first and bit 0 first in each
    # (the sentinel bit keeps every row 2k digits long); lanes[b] is column b
    bits = "".join([bin(x | 1 << 2 * k)[:2:-1] for x in reversed(exts)])
    lanes = tuple(int(bits[b::2 * k], 2) for b in range(2 * k))
    # C(k, a) * 2^a extensions have a arcs
    prefix = tuple(sum(math.comb(k, a) << a for a in range(t, k + 1)) for t in range(k + 2))
    twos, ones = lanes[:k], lanes[k:]
    greater = {
        (u, w): twos[u] & ~twos[w] | ones[u] & ~(ones[w] | twos[w])
        for u in range(k)
        for w in range(u + 1, k)
    }
    return ExtensionSets(tuple(exts), lanes, prefix, greater)


def _twin_images(masks: Sequence[int], ins: Sequence[int],
                 greater: dict[tuple[int, int], int]) -> int:
    """The positions of the extensions that an automorphism of the parent maps
    to an earlier-listed one, as found by swapping false twins.

    Swapping false twins u < w (equal out- and in-masks) is an automorphism,
    so an extension whose state at u exceeds its state at w has the same
    child, up to an isomorphism fixing the new vertex, as the extension with
    the two states swapped, which is listed earlier.  accept_child gives both
    the same answer, so the later one adds no class.
    Comparing each twin with the previous member of its class drops the same
    positions as comparing every pair.
    """
    twins = 0
    previous: dict[tuple[int, int], int] = {}
    for w, shape in enumerate(zip(masks, ins)):
        u = previous.get(shape)
        if u is not None:
            twins |= greater[u, w]
        previous[shape] = w
    return twins


def _dropped(masks: Sequence[int], ins: Sequence[int], sets: ExtensionSets) -> int:
    """The positions of the extensions of a k-vertex parent that add no class
    an earlier position does not already add, as a bitset.

    Besides the twin images, the degree cut drops the children whose new
    vertex x lacks the least degree, which accept_child rejects first.
    With d the parent's least degree, those are every x with more than d + 1
    arcs, and every x with exactly d + 1 arcs that misses a vertex of degree d
    (which keeps degree d).
    """
    k = len(masks)
    lanes, prefix = sets.lanes, sets.prefix
    degs = [(o | i).bit_count() for o, i in zip(masks, ins)]
    least = min(degs)
    missed = 0
    for v, d in enumerate(degs):
        if d == least:
            missed |= ~(lanes[v] | lanes[v + k])
    # positions before prefix[least + 2] have more than least + 1 arcs; those
    # from there to prefix[least + 1] have exactly least + 1
    cut = (1 << prefix[least + 2]) - 1 | missed & (1 << prefix[least + 1]) - 1
    return cut | _twin_images(masks, ins, sets.greater)


def extend_masks(masks: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The parent's out-masks plus a new vertex k joined by extension x."""
    k = len(masks)
    bit_k = 1 << k
    new = list(masks)
    x_in = x >> k
    while x_in:
        low = x_in & -x_in
        new[low.bit_length() - 1] |= bit_k
        x_in ^= low
    new.append(x & bit_k - 1)
    return tuple(new)


def _grow(level: Iterable[tuple[int, ...]], k: int, tournament: bool) -> list[tuple[int, ...]]:
    """Canonical forms, sorted by canonical digits, of the (k+1)-vertex
    classes (tournaments: each parent takes only its first 2^k extensions)
    from one representative per k-vertex class.

    A child is kept when its new vertex has the least invariant, and its
    canonical code dedupes it.  Every class C is reached: C - v is in level
    for a vertex v with the least invariant, and some extension gives a
    child isomorphic to C with v as the new vertex.  The degree cut in
    _dropped keeps it, as degree is the invariant's first field.  A twin
    cut drops it only for an earlier extension whose child is isomorphic by
    a map fixing the new vertex, and that chain ends where neither cut does.
    """
    sets = _extension_sets(k)
    exts = sets.exts
    window = (1 << (sets.prefix[k] if tournament else len(exts))) - 1
    n = k + 1
    codes: set[bytes] = set()
    for masks in level:
        live = window & ~_dropped(masks, _in_masks(masks, k), sets)
        while live:
            low = live & -live
            live ^= low
            digits = accept_child(extend_masks(masks, exts[low.bit_length() - 1]), n)
            if digits is not None:
                codes.add(digits)
    return [masks_from_digits(d, n) for d in sorted(codes)]


def enumerate_oriented_graphs(n: int) -> Iterator[OrientedGraph]:
    """One canonical form per isomorphism class on n vertices, sorted by
    canonical digits."""
    if n < 1:
        raise InvariantError("enumeration needs n >= 1")
    if n > MAX_ENUM_VERTICES:
        raise TooLargeError(f"enumeration capped at {MAX_ENUM_VERTICES} vertices, got {n}")
    level: list[tuple[int, ...]] = [(0,)]
    for k in range(1, n):
        level = _grow(level, k, False)
    yield from (OrientedGraph(n, masks) for masks in level)


@functools.cache
def _tournaments(k: int) -> tuple[OrientedGraph, ...]:
    if k == 1:
        return (OrientedGraph(1, (0,)),)
    level = _grow((g.out for g in _tournaments(k - 1)), k - 1, True)
    return tuple(OrientedGraph(k, masks) for masks in level)


def enumerate_tournaments(k: int) -> list[OrientedGraph]:
    """All tournaments on k vertices up to isomorphism: canonical forms sorted
    by canonical digits, cached per k."""
    if k < 1:
        raise InvariantError("tournament enumeration needs k >= 1")
    if k > MAX_ENUM_VERTICES:
        raise TooLargeError(f"tournament enumeration capped at {MAX_ENUM_VERTICES}, got {k}")
    return list(_tournaments(k))
