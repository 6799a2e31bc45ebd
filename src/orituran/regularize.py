"""Bipartite extraction, almost-regular refinement, rich-set embedding, and
random zooming, composed into a pipeline that embeds a small bipartite pattern
into a dense host.

All randomness flows through random.Random(seed); every scan is index-ordered,
so a fixed seed reproduces the run bit for bit.  The rich-set and embedding
checks read the host's U rows (out-masks over W indices) and never transpose
them into columns, so they have no vertex cap.  A zoom copies no part of its
host: its sample is a W column mask plus one flag byte per U row, and the
rich-set and embedding steps read the flagged rows of the host in place.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple, Optional

from .graphs import (
    BadParamsError,
    BipartiteDigraph,
    InvariantError,
    OrientedGraph,
    RegularizeError,
    TooLargeError,
    VertexMap,
)

VERIFY_SUBSET_CAP = 10 ** 6
EXTRACT_ATTEMPTS = 256  # random balanced partitions tried by extract_bipartite
ZOOM_RETRIES = 1024  # sampled zooms tried by random_zoom before giving up


class AttemptsExhausted(RegularizeError):
    """Bipartite extraction hit its resample limit below the quarter bound."""


class TooSmall(RegularizeError):
    """Too few vertices to split into 2t degree buckets."""


class CertificateInsufficient(RegularizeError):
    """A rich-set certificate failed to supply an unused common in-neighbor."""


class RetriesExhausted(RegularizeError):
    """No sampled zoom was accepted within the retry limit."""


class InfeasibleConfig(RegularizeError):
    """Zoom parameters violate the feasibility thresholds."""


# --- bipartite extraction ------------------------------------------------------


def extract_bipartite(g: OrientedGraph, seed: int) -> BipartiteDigraph:
    """Balanced bipartition (X, Y) keeping only X->Y arcs, at least a quarter
    of the original arcs retained.

    Repeats: draw a random balanced partition, then greedily swap any (x, y)
    pair across parts while a swap strictly increases the retained count.
    """
    n = g.n
    target = (g.arc_count + 3) // 4
    rng = random.Random(seed)
    x_size = (n + 1) // 2
    outs, ins = g.out, g.in_masks
    for _ in range(EXTRACT_ATTEMPTS):
        perm = list(range(n))
        rng.shuffle(perm)
        x_mask = 0
        for v in perm[:x_size]:
            x_mask |= 1 << v
        y_mask = ((1 << n) - 1) ^ x_mask
        count = sum((outs[v] & y_mask).bit_count() for v in perm[:x_size])
        improved = True
        while count < target and improved:
            improved = False
            xm, ym = x_mask, y_mask
            for u in range(n):
                if not (xm >> u) & 1:
                    continue
                for w in range(n):
                    if not (ym >> w) & 1:
                        continue
                    gained = (outs[w] & ((ym ^ (1 << w)) | (1 << u))).bit_count()
                    gained += (ins[u] & (xm ^ (1 << u))).bit_count()
                    lost = (outs[u] & ym).bit_count()
                    lost += (ins[w] & (xm ^ (1 << u))).bit_count()
                    if gained > lost:
                        x_mask = (xm ^ (1 << u)) | (1 << w)
                        y_mask = (ym ^ (1 << w)) | (1 << u)
                        count += gained - lost
                        improved = True
                        break
                if improved:
                    break
        if count >= target:
            part_x = [v for v in range(n) if (x_mask >> v) & 1]
            part_y = [v for v in range(n) if (y_mask >> v) & 1]
            arcs = [
                (u, w) for u in part_x for w in part_y if g.has_arc(u, w)
            ]
            return BipartiteDigraph.from_arcs(part_x, part_y, arcs)
    raise AttemptsExhausted(
        f"no balanced partition retaining {target} arcs found in {EXTRACT_ATTEMPTS} attempts"
    )


# --- almost-regular refinement --------------------------------------------------


class RegularizeResult(NamedTuple):
    """Output of the degree-bucket refinement.

    c is the density constant measured at the level where the final extraction
    fired (4*arcs/n^(1+epsilon) there); both reported bounds are guaranteed
    against it.  delta and Delta are the subgraph's minimum and maximum
    vertex degrees, and K1 and K2 scale the average degree to them:
    K1*delta = avg = K2*Delta.
    """

    subgraph: BipartiteDigraph
    epsilon: float
    K: float
    c: float
    t: int
    d0: float
    n_s: int
    K1: float
    K2: float
    delta: int
    Delta: int


def _degree_t(r: int, t_override: Optional[int]) -> int:
    if t_override is not None:
        if t_override < 1:
            raise BadParamsError("tOverride must be >= 1")
        return t_override
    if r == 1:
        raise BadParamsError(
            "r = 1 gives epsilon = 0, where the bucket count is undefined; pass tOverride"
        )
    eps = 1.0 - 1.0 / r
    return math.ceil(2 ** (1.0 / eps ** 2 + 1.0))


def _vertex_degrees(h: BipartiteDigraph) -> dict[int, int]:
    degs = {u: m.bit_count() for u, m in zip(h.part_u, h.out_masks)}
    for j, w in enumerate(h.part_w):
        degs[w] = sum(m >> j & 1 for m in h.out_masks)
    return degs


def _restrict_to(h: BipartiteDigraph, keep: set[int]) -> BipartiteDigraph:
    return h.restrict(
        [u for u in h.part_u if u in keep],
        [w for w in h.part_w if w in keep],
    )


def almost_regular_subdigraph(
    h: BipartiteDigraph,
    c: float,
    r: int,
    t_override: Optional[int] = None,
) -> RegularizeResult:
    """Extract a K-almost-regular subdigraph by degree bucketing.

    Split the vertices into 2t buckets by descending degree.  If at most half
    of the arcs touch the top bucket, drop it and then repeatedly delete the
    vertex of smallest current degree while that degree is below
    d0 = (c/40)*n^epsilon; otherwise recurse on the top bucket together with
    the bucket it exchanges the most arcs with.  The density constant is
    re-measured at every level, so the reported guarantees hold exactly.
    """
    if r < 1:
        raise BadParamsError("r must be >= 1")
    eps = 1.0 - 1.0 / r
    t = _degree_t(r, t_override)
    k_bound = 20.0 * t
    measured = 4.0 * h.arc_count / (h.n ** (1.0 + eps)) if h.n else 0.0
    if abs(c - measured) > 1e-6 * max(1.0, measured):
        raise BadParamsError(
            f"supplied density constant {c} does not match 4|E|/n^(1+eps) = {measured}"
        )

    level = h
    while True:
        n_level = level.n
        if 2 * t > n_level:
            raise TooSmall(
                f"cannot split {n_level} vertices into {2 * t} degree buckets"
            )
        e_level = level.arc_count
        c_level = 4.0 * e_level / (n_level ** (1.0 + eps))
        degs = _vertex_degrees(level)
        order = sorted(degs, key=lambda v: (-degs[v], v))
        base, extra = divmod(n_level, 2 * t)
        buckets = []
        start = 0
        for i in range(2 * t):
            size = base + (1 if i < extra else 0)
            buckets.append(order[start:start + size])
            start += size
        top = set(buckets[0])
        # pair_counts[0] counts the arcs inside the top bucket, pair_counts[i]
        # those between it and bucket i
        bucket_of = {v: i for i, bucket in enumerate(buckets) for v in bucket}
        pair_counts = [0] * (2 * t)
        for u, w in level.arcs():
            bu, bw = bucket_of[u], bucket_of[w]
            if bu == 0:
                pair_counts[bw] += 1
            elif bw == 0:
                pair_counts[bu] += 1
        inside = pair_counts[0]
        touching = sum(degs[v] for v in top) - inside
        if 2 * touching <= e_level:
            d0 = (c_level / 40.0) * (n_level ** eps)
            alive = set(degs) - top
            cur = _restrict_to(level, alive)
            while alive:
                cur_degs = _vertex_degrees(cur)
                victim = min(alive, key=lambda v: (cur_degs[v], v))
                if cur_degs[victim] >= d0:
                    break
                alive.remove(victim)
                cur = _restrict_to(cur, alive)
            sub = cur
            n_s = sub.n
            arcs_s = sub.arc_count
            if arcs_s < (c_level / 10.0) * (n_s ** (1.0 + eps)) - 1e-9:
                raise InvariantError("arc bound violated after refinement")
            sub_degs = _vertex_degrees(sub)
            if sub_degs:
                delta = min(sub_degs.values())
                big = max(sub_degs.values())
            else:
                delta = big = 0
            if big > k_bound * delta + 1e-9:
                raise InvariantError("almost-regularity bound violated after refinement")
            avg = 2.0 * arcs_s / n_s if n_s else 0.0
            k1 = avg / delta if delta else 0.0
            k2 = avg / big if big else 0.0
            return RegularizeResult(
                subgraph=sub,
                epsilon=eps,
                K=k_bound,
                c=c_level,
                t=t,
                d0=d0,
                n_s=n_s,
                K1=k1,
                K2=k2,
                delta=delta,
                Delta=big,
            )
        best_i = max(range(1, 2 * t), key=lambda i: (pair_counts[i], -i))
        keep = top | set(buckets[best_i])
        if len(keep) >= n_level:
            # two buckets span everything (t = 1), so recursion cannot shrink
            raise TooSmall(
                f"bucket pair spans all {n_level} vertices; a larger t is needed"
            )
        level = _restrict_to(level, keep)


# --- rich sets and embedding ----------------------------------------------------


class RichSetCertificate(NamedTuple):
    """Subset R of the W side where every r-subset has >= h common in-neighbors;
    verify_certificate checks the claim."""

    subset: tuple[int, ...]
    r: int
    h: int


def _kept(rows, keep):
    """The rows whose keep flag is nonzero, or all of them when keep is None;
    rows past the end of keep are dropped."""
    return rows if keep is None else itertools.compress(rows, keep)


def find_rich_set(
    g: BipartiteDigraph,
    r: int,
    h: int,
    keep: Optional[bytes] = None,
    w_mask: int = -1,
) -> Optional[RichSetCertificate]:
    """Greedy partial coloring over U; the first vertex it cannot color yields
    the certificate.

    Scan U in index order; assign each u the lexicographically first r-subset
    of its out-neighborhood whose color count is below h.  A vertex with no
    assignable subset can never become assignable later, so its first h
    out-neighbors form the rich set.  Returns None when every vertex gets a
    color (possible at the exact saturation threshold) or when the stuck
    vertex has fewer than h out-neighbors.  The certificate is checked with
    verify_certificate before it is returned, when C(h, r) is at most 10^6.

    keep (one flag byte per U row) and w_mask (a bitset over W indices) select
    a sub-instance in place: the answer is the one on g.restrict of the kept
    rows and sampled columns, since restriction keeps both orders.
    """
    if r < 1 or h < 1:
        raise BadParamsError("find_rich_set needs r >= 1 and h >= 1")
    counts: dict[tuple[int, ...], int] = {}
    for mask in _kept(g.out_masks, keep):
        neigh = []
        m = mask & w_mask
        while m:
            j = (m & -m).bit_length() - 1
            neigh.append(j)
            m &= m - 1
        assigned = False
        if len(neigh) >= r:
            for combo in itertools.combinations(neigh, r):
                if counts.get(combo, 0) < h:
                    counts[combo] = counts.get(combo, 0) + 1
                    assigned = True
                    break
        if assigned:
            continue
        if len(neigh) < h:
            return None
        cert = RichSetCertificate(subset=tuple(g.part_w[j] for j in neigh[:h]), r=r, h=h)
        if math.comb(h, r) <= VERIFY_SUBSET_CAP and not verify_certificate(g, cert, keep):
            raise InvariantError("rich-set certificate failed verification; coloring bug")
        return cert
    return None


def verify_certificate(
    g: BipartiteDigraph, cert: RichSetCertificate, keep: Optional[bytes] = None
) -> bool:
    """Independent brute-force check of the richness property: the columns
    of each r-subset must be covered by at least h host rows (only the rows
    flagged in keep, when it is given).

    Raises TooLargeError when the subset has more than VERIFY_SUBSET_CAP
    r-subsets to check.
    """
    subsets = math.comb(len(cert.subset), cert.r)
    if subsets > VERIFY_SUBSET_CAP:
        raise TooLargeError(
            f"{subsets} {cert.r}-subsets to check exceed the cap of {VERIFY_SUBSET_CAP}"
        )
    w_pos = {w: j for j, w in enumerate(g.part_w)}
    for combo in itertools.combinations(cert.subset, cert.r):
        need = 0
        for w in combo:
            need |= 1 << w_pos[w]
        if sum(row & need == need for row in _kept(g.out_masks, keep)) < cert.h:
            return False
    return True


def embed_via_rich_set(
    g: BipartiteDigraph,
    pattern: BipartiteDigraph,
    cert: RichSetCertificate,
    keep: Optional[bytes] = None,
) -> VertexMap:
    """Embed the pattern: its W side goes injectively onto the rich set in
    index order, then each pattern U vertex takes the first unused host row,
    in index order, that covers its images' columns (only rows flagged in
    keep, when it is given).  The map's target is the host g itself.
    """
    if cert.h != pattern.n:
        raise BadParamsError(
            f"certificate built for h = {cert.h} but the pattern has {pattern.n} vertices"
        )
    if any(m.bit_count() > cert.r for m in pattern.out_masks):
        raise BadParamsError("pattern out-degrees exceed the certificate's r")
    if len(pattern.part_w) > len(cert.subset):
        raise CertificateInsufficient(
            f"rich set of size {len(cert.subset)} cannot host "
            f"{len(pattern.part_w)} pattern vertices"
        )
    w_pos = {w: j for j, w in enumerate(g.part_w)}
    mapping = dict(zip(pattern.part_w, cert.subset))
    used: set[int] = set()
    for a, m in zip(pattern.part_u, pattern.out_masks):
        need = 0
        for j, b in enumerate(pattern.part_w):
            if m >> j & 1:
                need |= 1 << w_pos[mapping[b]]
        rows = (k for k, row in _kept(enumerate(g.out_masks), keep)
                if row & need == need and k not in used)
        chosen = next(rows, None)
        if chosen is None:
            raise CertificateInsufficient(
                f"no unused common in-neighbor for pattern vertex {a}"
            )
        used.add(chosen)
        mapping[a] = g.part_u[chosen]
    src_n = max(itertools.chain(pattern.part_u, pattern.part_w)) + 1
    tgt_n = max(itertools.chain(g.part_u, g.part_w)) + 1
    return VertexMap.of(src_n, tgt_n, mapping)


def verify_bipartite_embedding(
    g: BipartiteDigraph, pattern: BipartiteDigraph, vm: VertexMap
) -> bool:
    """Check that vm maps every pattern vertex injectively, its U side onto
    host rows and its W side onto host columns, and every pattern arc onto a
    host arc.  Only the image rows and columns are looked up."""
    mapping = vm.as_dict()
    if len(set(mapping.values())) != len(mapping):
        return False
    if set(mapping) != set(pattern.part_u) | set(pattern.part_w):
        return False
    try:
        rows = [g.out_masks[g.part_u.index(mapping[a])] for a in pattern.part_u]
        cols = [g.part_w.index(mapping[b]) for b in pattern.part_w]
    except ValueError:  # an image outside the host or on the wrong side
        return False
    return all(row >> cols[j] & 1 for row, m in zip(rows, pattern.out_masks)
               for j in range(len(cols)) if m >> j & 1)


# --- random zooming --------------------------------------------------------------


class ZoomConfig(NamedTuple):
    """Zoom parameters: pattern out-degree bound r, pattern size h, host
    minimum out-degree d and the sampling seed.  The sampling probability p
    follows from the host and is derived by the zoom itself."""

    r: int
    h: int
    d: int
    seed: int

    @staticmethod
    def for_instance(
        g: BipartiteDigraph,
        r: int,
        h: int,
        seed: int,
        d: Optional[int] = None,
    ) -> "ZoomConfig":
        if r < 1 or h < 1:
            raise BadParamsError("zoom needs r >= 1 and h >= 1")
        nu, nw = len(g.part_u), len(g.part_w)
        if nu == 0 or nw == 0:
            raise InfeasibleConfig("zoom host has an empty part")
        if d is None:
            d = g.min_out_degree()
        return ZoomConfig(r=r, h=h, d=d, seed=seed)


def random_zoom(
    g: BipartiteDigraph,
    pattern: BipartiteDigraph,
    cfg: ZoomConfig,
) -> VertexMap:
    """Sample a p-random subset W' of the W side, keep U vertices with at
    least p*d/2 sampled out-neighbors, and accept the trial when
    |W'| <= 2p|W| and |U'| >= |U|/4; an accepted trial is embedded through a
    rich set.  The sample is read from g in place, so the embedding and its
    target_n refer to g itself.
    """
    vm, _ = _random_zoom_stats(g, pattern, cfg)
    return vm


def _random_zoom_stats(
    g: BipartiteDigraph,
    pattern: BipartiteDigraph,
    cfg: ZoomConfig,
) -> tuple[VertexMap, dict]:
    if cfg.r < 1 or cfg.h < 1:
        raise BadParamsError("zoom needs r >= 1 and h >= 1")
    if cfg.h != pattern.n:
        raise InfeasibleConfig(
            f"config h = {cfg.h} but the pattern has {pattern.n} vertices"
        )
    if any(m.bit_count() > cfg.r for m in pattern.out_masks):
        raise InfeasibleConfig("pattern out-degrees exceed the config's r")
    nu, nw = len(g.part_u), len(g.part_w)
    if nu == 0 or nw == 0:
        raise InfeasibleConfig("zoom host has an empty part")
    # U beyond the truncation cap is dropped, and p is exactly 1 at the cap
    cap = 4 * cfg.h * (2 * nw) ** cfg.r
    if nu >= cap:
        p = 1.0
    else:
        p = min((1.0 / (2 * nw)) * (nu / (4.0 * cfg.h)) ** (1.0 / cfg.r), 1.0)
    if cfg.d < max(40, 2 * cfg.h):
        raise InfeasibleConfig(
            f"min out-degree d = {cfg.d} below the threshold {max(40, 2 * cfg.h)}"
        )
    threshold = p * cfg.d / 2.0
    if threshold < max(20, cfg.h):
        raise InfeasibleConfig(
            f"p*d/2 = {threshold} below the threshold {max(20, cfg.h)}"
        )
    # rows past the cap get no keep flag, so every scan below stops at hu
    hu = min(nu, cap)
    d_min = min(m.bit_count() for m in itertools.islice(g.out_masks, hu))
    if d_min < cfg.d:
        raise InfeasibleConfig(
            f"host min out-degree {d_min} below config d = {cfg.d}"
        )
    rng = random.Random(cfg.seed)
    for trial in range(ZOOM_RETRIES):
        w_mask = 0
        for j in range(nw):
            if rng.random() < p:
                w_mask |= 1 << j
        w_sampled = w_mask.bit_count()
        if w_sampled > 2.0 * p * nw:
            continue
        keep = bytes(
            (m & w_mask).bit_count() >= threshold
            for m in itertools.islice(g.out_masks, hu)
        )
        u_kept = keep.count(1)
        if 4 * u_kept < hu:
            continue
        cert = find_rich_set(g, cfg.r, cfg.h, keep, w_mask)
        if cert is None:
            continue
        vm = embed_via_rich_set(g, pattern, cert, keep)
        if not verify_bipartite_embedding(g, pattern, vm):
            raise InvariantError("zoom produced an embedding that failed verification")
        stats = {
            "p": p,
            "retries": trial + 1,
            "w_sampled": w_sampled,
            "u_kept": u_kept,
        }
        return vm, stats
    raise RetriesExhausted(
        f"no accepted sample in {ZOOM_RETRIES} trials (p = {p})"
    )


# --- composed pipeline ------------------------------------------------------------


class PipelineResult(NamedTuple):
    """Embedding (when every stage's hypotheses held) plus stage-labeled
    measurements; failure carries the stage name and reason otherwise."""

    embedding: Optional[VertexMap]
    stages: tuple[tuple[str, dict], ...]
    failure: Optional[str]

    def to_json_obj(self) -> dict:
        return {
            "embedding": (
                None
                if self.embedding is None
                else [list(pair) for pair in self.embedding.mapping]
            ),
            "stages": [
                {"stage": name, **data} for name, data in self.stages
            ],
            "failure": self.failure,
        }


def faks_pipeline(
    g: OrientedGraph,
    pattern: BipartiteDigraph,
    r: int,
    seed: int,
    t_override: Optional[int] = None,
) -> PipelineResult:
    """Extract a bipartite half, refine it to almost-regularity, then zoom.

    Measures the density constant c = 4|E(B)|/n^(1+eps) after extraction, the
    scaling constants K1 and K2 after refinement, and the threshold constant
    the embedding theorem would require; each stage reports its numbers and a
    failed hypothesis stops the run with that stage's label.  The zoom stage
    reports the sampling probability p it derived, and the embedding is the
    one the zoom has already verified against the refined subgraph.
    """
    if r < 1:
        raise BadParamsError("pipeline needs r >= 1")
    if any(m.bit_count() > r for m in pattern.out_masks):
        raise BadParamsError("pattern out-degrees exceed r")
    h_count = pattern.n
    eps = 1.0 - 1.0 / r
    stages: list[tuple[str, dict]] = []

    try:
        bip = extract_bipartite(g, seed * 4 + 1)
    except AttemptsExhausted as exc:
        return PipelineResult(None, tuple(stages), f"extract: {exc}")
    c = 4.0 * bip.arc_count / (g.n ** (1.0 + eps)) if g.n else 0.0
    stages.append(
        (
            "extract",
            {
                "n": g.n,
                "arcs": g.arc_count,
                "retained": bip.arc_count,
                "target": (g.arc_count + 3) // 4,
                "c": c,
                "epsilon": eps,
            },
        )
    )

    try:
        reg = almost_regular_subdigraph(bip, c, r, t_override=t_override)
    except (TooSmall, BadParamsError) as exc:
        return PipelineResult(None, tuple(stages), f"regularize: {exc}")
    sub = reg.subgraph
    if sub.arc_count == 0:
        return PipelineResult(
            None, tuple(stages), "regularize: refinement left no arcs"
        )
    delta = reg.delta
    c_required = (
        max(20, h_count)
        * 20.0
        * reg.K1 ** (1.0 + 1.0 / r)
        * (reg.K2 / (4.0 * h_count)) ** (1.0 / r)
        * (reg.K1 / (reg.K2 + reg.K1)) ** (1.0 - 1.0 / r)
    )
    stages.append(
        (
            "regularize",
            {
                "n_s": reg.n_s,
                "arcs_s": sub.arc_count,
                "K": reg.K,
                "t": reg.t,
                "d0": reg.d0,
                "c_level": reg.c,
                "delta": delta,
                "Delta": reg.Delta,
                "K1": reg.K1,
                "K2": reg.K2,
                "c_required": c_required,
            },
        )
    )

    try:
        cfg = ZoomConfig.for_instance(
            sub, r, h_count, seed=seed * 4 + 3, d=delta
        )
        vm, zoom_stats = _random_zoom_stats(sub, pattern, cfg)
    except (InfeasibleConfig, RetriesExhausted, BadParamsError) as exc:
        stages.append(
            ("zoom", {"d": delta, "failure_detail": str(exc)})
        )
        return PipelineResult(None, tuple(stages), f"zoom: {exc}")
    stages.append(
        (
            "zoom",
            {
                "d": cfg.d,
                "h": h_count,
                "r": r,
                "seed": cfg.seed,
                **zoom_stats,
            },
        )
    )
    return PipelineResult(vm, tuple(stages), None)
