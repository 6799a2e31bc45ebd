"""Per-layer tracing from outside the program.

`install` rebinds the names through which the program's modules call each
other (for example `extremal.contains_copy_through`, the name `_run_levels`
looks up on every child) to timing wrappers.  Nothing under src/ changes and
the untraced runs never call `install`.  Each wrapper records calls, the
inclusive seconds of its outermost call and, where a layer can waste work,
the useful outcomes.  Calls made inside `jobs=2` pool workers happen in other
processes and are not counted.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.hits = Counter()  # useful outcomes per key (copies found, children kept)
        self.depth = Counter()
        self.extra = Counter()  # counts made from results: nodes, zoom trials, sweeps

    def wrap(self, owner, attr: str, key: str, on_result=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            tracer.depth[key] += 1
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.depth[key] -= 1
                if tracer.depth[key] == 0:
                    tracer.seconds[key] += time.perf_counter() - t0
            if inspect.isgenerator(res):
                return tracer._timed(key, res)
            if on_result is not None:
                on_result(res, args)
            return res

        setattr(owner, attr, wrapper)

    def _timed(self, key, gen):
        """Charge the time spent producing each item of a generator to key."""
        while True:
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                self.seconds[key] += time.perf_counter() - t0
                return
            self.seconds[key] += time.perf_counter() - t0
            yield item


def gray_index(bits: int) -> int:
    """Position of an orientation state in the reflected Gray-code order."""
    index = 0
    while bits:
        index ^= bits
        bits >>= 1
    return index


def install(tracer: Tracer) -> None:
    from orituran import canon, containment, extremal, graphs, homomorphism, regularize

    def count_hit(key):
        def on_result(res, _args):
            if res is not None:
                tracer.hits[key] += 1
        return on_result

    def sweep_done(res, args):
        n, edges = args[0], args[1]
        holds, cx = res
        if holds:
            visited = 1 << len(edges)
        else:
            bits = sum(((cx.out[v] >> u) & 1) << i for i, (u, v) in enumerate(edges))
            visited = gray_index(bits) + 1
        tracer.extra["orientations"] += visited

    def copy_search(res, _args):
        if tracer.depth["sweep"]:
            tracer.extra["sweep_searches"] += 1

    def zoom_stats(res, _args):
        tracer.extra["zoom_trials"] += res[1]["retries"]
        tracer.extra["zoom_accepts"] += 1

    key = "containment.contains_copy_through"
    for mod in (containment, extremal):
        tracer.wrap(mod, "contains_copy_through", key, count_hit(key))
    tracer.wrap(containment, "contains_copy", "containment.contains_copy", copy_search)
    tracer.wrap(containment, "all_orientations_contain", "sweep", sweep_done)
    key = "canon.accept_child"
    for mod in (canon, extremal):
        tracer.wrap(mod, "accept_child", key, count_hit(key))
    for mod in (canon, containment, homomorphism):
        tracer.wrap(mod, "enumerate_tournaments", "canon.enumerate_tournaments")
    tracer.wrap(canon, "enumerate_oriented_graphs", "canon.enumerate_oriented_graphs")
    for mod in (canon, extremal):
        tracer.wrap(mod, "canonical_code", "canon.canonical_code")
    tracer.wrap(extremal, "build_construction", "extremal.build_construction")
    tracer.wrap(extremal, "compressibility", "homomorphism.compressibility")
    for name in ("extract_bipartite", "almost_regular_subdigraph", "random_zoom",
                 "find_rich_set", "embed_via_rich_set", "faks_pipeline"):
        tracer.wrap(regularize, name, f"regularize.{name}")
    tracer.wrap(regularize, "_random_zoom_stats", "regularize.zoom", zoom_stats)
    tracer.wrap(graphs.BipartiteDigraph, "restrict", "graphs.BipartiteDigraph.restrict")
