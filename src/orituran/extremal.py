"""Exact oriented Turan numbers at small n and their closed forms.

exo(n, F) is the largest arc count among n-vertex oriented graphs containing
no copy of F.  The oracle enumerates F-free graphs one isomorphism class at a
time (freeness survives vertex deletion, so pruning whole subtrees is sound),
each class grown from itself minus a vertex of least invariant, as in
Garnick, Kwong and Lazebnik's extremal graphs without three- or four-cycles.
Deleting a vertex of least degree never lowers the density, so a density
window cuts every level, and since it cuts only what cannot reach the best
arc count, the witness is the smallest canonical code among all maxima.  The
orders 1..n are taken in turn, each seeded with the witness of the order
below grown by one vertex (Erdos & Moser's QR7 for TT4 at n = 7).  A child
P + x of an F-free parent P contains F exactly when P holds a copy phi of
some F - u with phi(N+(u)) inside x's out-set and phi(N-(u)) inside its
in-set (one-vertex extension by feasible neighbourhoods, McKay &
Radziszowski, R(4,5) = 25); u ranges over one vertex per orbit of Aut(F),
since an orbit's vertices give the same pairs.  Each parent decides its 3^k
extensions at once, as bitsets over their positions in the extension list:
the window admits a prefix of the list, each such pair forbids the AND of
its lane masks, each pair of false twins in P drops the extensions that an
automorphism of P maps to an earlier-listed one (symmetry pruning of the
extension set, McKay, Isomorph-free exhaustive generation, J. Algorithms 26
(1998)), and a degree cut drops those whose new vertex would lack the
child's least degree.  Only the survivors are tested canonically, by the
enumerators' rule (canon.accept_child).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .canon import (
    MAX_CODE_VERTICES,
    ExtensionSets,
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
    EmptyPatternError,
    GraphError,
    InvariantError,
    OrientedGraph,
    TooLargeError,
    _in_masks,
)
from .homomorphism import SearchPlan, compressibility
# these names live in patterns, which loads no search module; the README and
# the benchmark import them from here too
from .patterns import PatternSpec, _transitive, build_construction, turan_edges

MAX_EXACT_VERTICES = 7

VALID_ALL = "all n"
VALID_LARGE = "sufficiently large n"


class NoFormulaError(GraphError):
    """No closed form is available for this pattern."""


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
        code = _last_pinned_digits(f.out, f.in_masks, f.n, u)
        if code in orbits:
            continue
        orbits.add(code)
        rest = [v for v in range(f.n) if v != u]
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


def _grown(g: OrientedGraph, deletions: list[SearchPlan], parents: dict) -> Optional[OrientedGraph]:
    """The F-free graph g plus one vertex joined by its densest F-free
    extension, or None when every extension completes a copy of F.  g's
    entry in parents is kept for the next order, which meets g as a parent."""
    k = g.n
    sets = _extension_sets(k)
    forbidden = _forbidden_of(_parent(parents, g.out, sets), g.out, deletions, sets.lanes, {})
    free = ~forbidden & (1 << len(sets.exts)) - 1
    if not free:
        return None
    return OrientedGraph(k + 1, extend_masks(g.out, sets.exts[(free & -free).bit_length() - 1]))


def _parent(parents: dict, masks: tuple[int, ...], sets: ExtensionSets) -> list:
    """The entry in parents for out-masks masks: [in-masks, _dropped cut,
    forbidden positions or None until needed], each a function of masks and
    F alone, so the orders of one oracle call share it."""
    entry = parents.get(masks)
    if entry is None:
        ins = _in_masks(masks, len(masks))
        entry = parents[masks] = [ins, _dropped(masks, ins, sets), None]
    return entry


def _forbidden_of(entry: list, masks: tuple[int, ...], deletions: list[SearchPlan],
                  lanes: tuple[int, ...], covers: dict[int, int]) -> int:
    """The forbidden positions of a _parent entry, searched on first use."""
    if entry[2] is None:
        entry[2] = _forbidden(_copy_keys(masks, entry[0], len(masks), deletions), lanes, covers)
    return entry[2]


def _run_levels(
    n: int,
    deletions: list[SearchPlan],
    frontier: list[tuple[tuple[int, ...], int]],
    k0: int,
    best: int,
    best_digits: Optional[bytes],
    budget: Optional[int],
    parents: dict,
) -> tuple[int, Optional[bytes], int, bool]:
    """Extend F-free class representatives from level k0 up to order n.

    Returns (best value, witness digits, nodes, budget exceeded); the witness
    is the smallest canonical digit string among the graphs with best arcs.

    Deleting a vertex of least degree leaves a graph at least as dense, as
    C(n-1, 2) / C(n, 2) = (n - 2) / n (Katona, Nemetz and Simonovits), and
    accept_child keeps a child whose new vertex has the least invariant.  So
    a graph with best arcs descends from classes with at least
    ceil(best C(k+1, 2) / C(n, 2)) arcs on k + 1 vertices, and the
    extensions that give a child as many form a window at the front of the
    list, which is ordered densest first; it drops no graph that ties best.

    Each parent's extensions are decided together as bitsets over their
    positions in _extension_sets(k).exts.  nodes counts those in the window
    that the twin and degree cuts of _dropped keep, charged to the budget
    before their copy test.  The rest reach accept_child, whose canonical
    digits dedupe each level and give the witness at the last.  The cuts and
    the copy test come from the parent's _parent entry, once per oracle call.
    """
    nodes = 0
    level = frontier
    for k in range(k0, n):
        last = k + 1 == n
        sets = _extension_sets(k)
        exts = sets.exts
        prefix = sets.prefix
        covers: dict[int, int] = {}
        codes: set[bytes] = set()
        nxt: list[tuple[tuple[int, ...], int]] = []
        for masks, arcs in level:
            # the extensions with at least t arcs reach the density of best
            t = -(-best * k * (k + 1) // (n * (n - 1))) - arcs
            entry = _parent(parents, masks, sets)
            live = (1 << prefix[min(max(t, 0), k + 1)]) - 1 & ~entry[1]
            nodes += live.bit_count()
            if budget is not None and nodes > budget:
                return best, best_digits, budget + 1, True
            if live:
                live &= ~_forbidden_of(entry, masks, deletions, sets.lanes, covers)
            while live:
                low = live & -live
                live ^= low
                x = exts[low.bit_length() - 1]
                child_arcs = arcs + x.bit_count()
                if last and child_arcs < best:
                    break  # best rose inside the window, which ends here
                digits = accept_child(extend_masks(masks, x), k + 1)
                if digits is None or digits in codes:
                    continue
                codes.add(digits)
                if last:
                    if child_arcs > best:
                        best, best_digits = child_arcs, digits
                    elif best_digits is None or digits < best_digits:
                        best_digits = digits
                else:
                    nxt.append((masks_from_digits(digits, k + 1), child_arcs))
        level = nxt
    return best, best_digits, nodes, False


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
    lower bound).  The orders 1..n are taken in turn, each seeded by the
    order below's witness grown by one vertex; orders 8..n - 1 are grown and
    not searched.  The witness is the smallest canonical code among all maximum
    graphs, so it depends on (n, F) alone.  nodes counts the extensions
    order n's search charges to the budget.  jobs is accepted and ignored.
    """
    spec = pattern if isinstance(pattern, PatternSpec) else PatternSpec.custom(pattern)
    return _records(spec, [n], budget)[0]


def _records(spec: PatternSpec, ns: Iterable[int], budget: Optional[int]) -> list[ExtremalRecord]:
    """oracle_exo(n, spec, budget) for each n of ns, from one set of deletion
    plans.  The orders 1..max(ns) are taken once each, in increasing order,
    each seeded by the order below's witness grown by one vertex.  An order
    is searched when it is requested or at most MAX_EXACT_VERTICES, and only
    a requested one is charged to the budget; the others (8..max(ns) - 1 on a
    budgeted call) are only grown.  One dict of _parent entries, keyed by
    out-masks, lasts the call, so a parent class that several orders meet has
    its cuts and copy test computed once."""
    f = spec.graph
    if f.arc_count == 0:
        raise EmptyPatternError("oracle needs a pattern with at least one arc")
    ns = list(ns)
    for n in ns:
        check_order(n, budget)
    top = max(ns, default=0)
    # a pattern larger than every order fits in none, and its plans would
    # need codes past MAX_CODE_VERTICES
    deletions = _deletions(f) if f.n <= top else []
    parents: dict = {}
    records: dict[int, ExtremalRecord] = {}
    below: Optional[OrientedGraph] = None
    for n in range(1, top + 1):
        seed = None if below is None else _grown(below, deletions, parents)
        if n in ns or n <= MAX_EXACT_VERTICES:
            records[n] = _record(spec, n, budget if n in ns else None, deletions, seed, parents)
            below = records[n].witness
        else:
            below = seed
    return [records[n] for n in ns]


def _record(spec: PatternSpec, n: int, budget: Optional[int], deletions: list[SearchPlan],
            seed: Optional[OrientedGraph], parents: dict) -> ExtremalRecord:
    """oracle_exo at one checked order, starting from the F-free graph seed
    on n vertices, if any, as its best."""
    f = spec.graph
    if f.n > n:
        # the pattern cannot fit, so the complete transitive order is free
        witness = _transitive(n)
        return ExtremalRecord(n, spec, witness.arc_count, witness)

    best = seed.arc_count if seed is not None else -1
    best_digits = None if seed is None else _min_digits(seed.out, n)
    best, best_digits, nodes, exceeded = _run_levels(
        n, deletions, [((0,), 0)], 1, best, best_digits, budget, parents
    )

    if best_digits is not None:
        witness = OrientedGraph(n, masks_from_digits(best_digits, n))
    else:
        # only reachable when the budget ran out before any class reached
        # level n; the empty graph still certifies a lower bound of 0
        witness = OrientedGraph.empty(n)
        best = 0
    # a certified lower bound is verified as an exact value is
    if not is_free(witness, f) or witness.arc_count != best:
        raise InvariantError("internal error: witness failed verification")
    if exceeded:
        raise BudgetExceededError(best, witness, nodes)
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
) -> VerifyReport:
    """Compare the oracle against the closed form over a range of n.

    For formulas valid only at large n, a mismatch is a recorded finding, not
    an error.
    """
    # every closed form first, so that a pattern without one fails before any search
    formulas = {n: formula_value(spec, n) for n in sorted(set(ns))}
    rows = []
    for record in _records(spec, formulas, budget):
        value, validity = formulas[record.n]
        if record.value == value:
            status = "MATCH"
        elif record.value > value:
            status = "ORACLE_HIGHER"
        else:
            status = "ORACLE_LOWER"
        rows.append(
            VerifyRow(
                n=record.n,
                oracle=record.value,
                formula=value,
                validity=validity,
                status=status,
                witness_code=canonical_code(record.witness).serialize(),
            )
        )
    return VerifyReport(spec, tuple(rows))
